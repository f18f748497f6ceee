(* Host wall-clock cost of the recovery paths: the trace_overhead workload
   built once on plain send/receive and once on the timed variants with
   budgets generous enough that no timeout ever fires.  The ratio is the
   per-operation price of deadline bookkeeping (timeout_at, the
   timed-waiters gate, the run loop's deadline scan) on runs that never
   need it — the inert-machinery half of DESIGN.md §8's "off by default"
   claim, measured.

   Virtual time differs marginally between the two runs (a timed
   operation's result plumbing is the same cost in virtual time, but
   blocked waits wake at deadlines); only host time is compared, with the
   same paired-ratio discipline as Trace_overhead. *)

module K = I432_kernel
module Obs = I432_obs

let trials = 11
let batch = 3
let payload_words = 4
let never_ns = 1_000_000_000  (* a second of virtual time: never fires *)

let workload ~timed ~messages () =
  let config =
    {
      K.Machine.default_config with
      K.Machine.processors = 2;
      trace_level = Obs.Tracer.Off;
    }
  in
  let m = K.Machine.create ~config () in
  let port = K.Machine.create_port m ~capacity:16 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"producer" (fun () ->
         for i = 1 to messages do
           let o = K.Machine.allocate_generic m ~data_length:16 () in
           for w = 0 to payload_words - 1 do
             K.Machine.write_word m o ~offset:w (i + w)
           done;
           if timed then
             ignore (K.Machine.send_timeout m ~port ~msg:o ~timeout_ns:never_ns)
           else K.Machine.send m ~port ~msg:o
         done));
  ignore
    (K.Machine.spawn m ~name:"consumer" (fun () ->
         let sum = ref 0 in
         for _ = 1 to messages do
           let msg =
             if timed then
               match
                 K.Machine.receive_timeout m ~port ~timeout_ns:never_ns
               with
               | Some msg -> msg
               | None -> assert false
             else K.Machine.receive m ~port
           in
           for w = 0 to payload_words - 1 do
             sum := !sum + K.Machine.read_word m msg ~offset:w
           done
         done;
         Sys.opaque_identity !sum |> ignore));
  ignore
    (K.Machine.spawn m ~name:"mixer" (fun () ->
         for _ = 1 to messages / 10 do
           K.Machine.compute m 3;
           K.Machine.yield m
         done));
  ignore (K.Machine.run m)

(* Recorded, not gated: only timed calls pay it. *)
let measure ~smoke =
  let messages = if smoke then 2_000 else 10_000 in
  Reading.int "messages" "messages" messages
  :: Paired.overhead_readings ~base:"plain_ns" ~test:"timed_ns"
       (Paired.measure ~trials ~batch
          ~base:(workload ~timed:false ~messages)
          ~test:(workload ~timed:true ~messages))
