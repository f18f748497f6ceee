(* Host wall-clock cost of structured event tracing: the same kernel
   workload with tracing Off and at Events, best of interleaved trials.
   The Off path must stay within a few percent of the seed — tracing is
   one field-read branch per seam — and the gate below holds the Events
   path to < 5% over Off.

   Virtual time is identical in both runs by construction (events never
   charge the machine); only the host pays. *)

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
let workload_machine ?keep ~level ~messages () =
  let config =
    {
      K.Machine.default_config with
      K.Machine.processors = 2;
      trace_level = level;
      (* Bounded rings are the point: the run overflows them and pays the
         same per-event cost, without ring allocation dominating these
         deliberately short runs. *)
      trace_capacity = 1_024;
    }
  in
  let m = K.Machine.create ~config () in
  (match keep with
  | Some subs -> Obs.Tracer.set_filter (K.Machine.tracer m) ~keep:(Some subs)
  | None -> ());
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

let workload ?keep ~level ~messages () =
  ignore (workload_machine ?keep ~level ~messages ())

type result = {
  messages : int;
  events : int;  (* events one traced run emits *)
  off_ns : float;  (* whole-run wall clock, tracing off *)
  events_ns : float;  (* same workload, level = Events *)
  overhead_pct : float;
  filtered_pct : float;
      (* Events with every hot subsystem mask-filtered out: the cost of a
         narrowed trace, which skips timestamps, interning, and the ring
         store at the mask check *)
}

let measure ~smoke () =
  let messages = if smoke then 2_000 else 10_000 in
  let off = workload ~level:Obs.Tracer.Off ~messages in
  let p =
    Paired.measure ~trials ~batch ~base:off
      ~test:(workload ~level:Obs.Tracer.Events ~messages)
  in
  (* The same pairing for a filtered trace: level Events, but with only
     the (quiet) gc subsystem kept, so every hot event the workload fires
     — dispatch, port, proc — is rejected at the mask before the tracer
     computes a timestamp or interns a string. *)
  let filtered =
    Paired.measure ~trials ~batch ~base:off
      ~test:(workload ~keep:[ "gc" ] ~level:Obs.Tracer.Events ~messages)
  in
  let emitted =
    Obs.Tracer.emitted
      (K.Machine.tracer (workload_machine ~level:Obs.Tracer.Events ~messages ()))
  in
  {
    messages;
    events = emitted;
    off_ns = p.Paired.base_ns;
    events_ns = p.Paired.test_ns;
    overhead_pct = Paired.overhead_pct p;
    filtered_pct = Paired.overhead_pct filtered;
  }

let print_summary r =
  Printf.printf
    "Trace overhead (%d messages, %d events): off %.2f ms, events %.2f ms, \
     %+.2f%% (%+.2f%% with hot subsystems filtered)\n"
    r.messages r.events (r.off_ns /. 1e6) (r.events_ns /. 1e6) r.overhead_pct
    r.filtered_pct

let to_json r =
  let open Json_out in
  Obj
    [
      ("messages", Int r.messages);
      ("events", Int r.events);
      ("off_ns", Float r.off_ns);
      ("events_ns", Float r.events_ns);
      ("overhead_pct", Float r.overhead_pct);
      ("filtered_pct", Float r.filtered_pct);
    ]

(* The PR-gate budget: tracing at Events must cost < [limit_pct] wall
   clock over Off. *)
let limit_pct = 5.0

let check r = r.overhead_pct < limit_pct
