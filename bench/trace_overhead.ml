(* Host wall-clock cost of structured event tracing: the same kernel
   workload with tracing Off and at Events, best of interleaved trials.
   The Off path must stay within a few percent of the seed — tracing is
   one field-read branch per seam — and its overhead reading holds the
   Events path to < 5% over Off.

   Virtual time is identical in both runs by construction (events never
   charge the machine); only the host pays.

   What the untraced baseline contains: creating the machine, booting
   the three processes and running the workload, nothing more.  Physical
   memory is a page table whose untouched pages share one zero page, so
   creating a machine no longer zero-fills its 4 MB; that fill used to be
   most of the baseline (1.9-3.0 ms a sample on a 2-vCPU x86-64 host,
   0.85-1.14 ms without it).  What tracing adds is therefore compared
   against the workload alone: writing about 12.5k events into a
   3,072-slot ring, and allocating and zero-filling that ring, which a
   traced machine does at every creation.

   The event count is deterministic, so it is bounded at its reading:
   an event added for a fact a neighbouring event already records fails
   the gate instead of only costing its write. *)

module K = I432_kernel
module Obs = I432_obs

let trials = 11
let batch = 3  (* workload runs per timing sample, to amortize jitter *)
let payload_words = 4  (* per-message job record, like the spooler's *)

(* Producer/consumer ring plus a yielding mixer: every hot traced seam
   (dispatch, send/receive, block, allocate) fires tens of thousands of
   times per run.  Each message carries a [payload_words]-word job record
   that the producer fills and the consumer folds, so per-message kernel
   work matches the spooler scenario rather than an empty ping. *)
let workload_machine ~level ~messages () =
  let config =
    {
      K.Machine.default_config with
      K.Machine.processors = 2;
      trace_level = level;
      (* A bounded ring is the point: the run overflows it and pays the
         same per-event cost, without ring allocation dominating these
         deliberately short runs.  3,072 slots is what this two-GDP
         machine's per-processor rings held together, 1,024 each plus
         the boot ring's, so the gate allocates what it always has. *)
      trace_capacity = 3_072;
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
           K.Machine.send m ~port ~msg:o
         done));
  ignore
    (K.Machine.spawn m ~name:"consumer" (fun () ->
         let sum = ref 0 in
         for _ = 1 to messages do
           let msg = K.Machine.receive m ~port in
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
  ignore (K.Machine.run m);
  m

let workload ~level ~messages () = ignore (workload_machine ~level ~messages ())

let measure ~smoke =
  let messages = if smoke then 2_000 else 10_000 in
  let p =
    Paired.measure ~trials ~batch
      ~base:(workload ~level:Obs.Tracer.Off ~messages)
      ~test:(workload ~level:Obs.Tracer.Events ~messages)
  in
  let events =
    Obs.Tracer.emitted
      (K.Machine.tracer (workload_machine ~level:Obs.Tracer.Events ~messages ()))
  in
  Reading.int "messages" "messages" messages
  :: Reading.int "events" "events" events
       ~bound:(Reading.At_most (if smoke then 12_484.0 else 62_377.0))
  :: Paired.overhead_readings ~base:"off_ns" ~test:"events_ns"
       ~bound:(Reading.Below 5.0) p
