(* Request spans: end-to-end virtual-time latency accounting.

   A span is one request's life from its scheduled (open-loop) arrival to
   the instant a worker finishes serving it.  The load generator threads a
   request id through send -> dispatch -> receive by carrying (id, class,
   issue timestamp) inside the message object itself, emits [Req_issue] /
   [Req_done] events keyed by that id (rendered as Chrome-trace async
   slices by {!Export}), and records each completion here.

   The recorder resolves every instrument once — per-class log-bucketed
   latency histograms plus the [load.*] counters — so the per-completion
   path is two counter bumps and one histogram observe, with no hashing.
   Latencies are recorded into {!Stats.log_hist}s because an open-loop
   harness produces latencies spanning four-plus decades (a lightly loaded
   alu request vs. a queue-backlogged object-ops request past the
   saturation knee); a fixed-width histogram cannot resolve p999 there. *)

type recorder = {
  sr_completed : Metrics.counter;
  sr_latency : Metrics.log_histogram;  (* all classes together *)
  sr_by_class : Metrics.log_histogram array;  (* index = class code *)
}

let latency_name cls = "load.latency_ns." ^ cls

(* The load generator's pumps bump [load.requests_issued] on the machine
   they run on.  It is registered here as well, so a cluster's server,
   which only completes requests, still dumps it (at 0). *)
let recorder metrics ~classes =
  ignore (Metrics.counter metrics "load.requests_issued");
  {
    sr_completed = Metrics.counter metrics "load.requests_completed";
    sr_latency = Metrics.log_histogram metrics "load.latency_ns";
    sr_by_class =
      Array.map
        (fun cls -> Metrics.log_histogram metrics (latency_name cls))
        classes;
  }

(* The int observes box no float: a completion allocates nothing. *)
let completed r ~cls ~latency_ns =
  if cls < 0 || cls >= Array.length r.sr_by_class then
    invalid_arg "Span.completed: class";
  Metrics.incr r.sr_completed;
  Metrics.observe_log_int r.sr_latency latency_ns;
  Metrics.observe_log_int r.sr_by_class.(cls) latency_ns
