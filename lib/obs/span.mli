(** Request spans: end-to-end virtual-time latency accounting for the
    open-loop load harness.

    A span runs from a request's scheduled arrival to its service
    completion; the request id is threaded through send → dispatch →
    receive inside the message itself, marked by {!Event.Req_issue} /
    {!Event.Req_done} events ({!Export} renders them as Chrome-trace
    async slices), and recorded here into per-mix-class log-bucketed
    histograms plus the [load.*] counters. *)

type recorder

(** Resolve the [load.*] instruments in [metrics] once: counters
    [load.requests_issued] / [load.requests_completed], the overall
    [load.latency_ns] log-histogram, and one [load.latency_ns.<class>]
    per entry of [classes] (index = class code). *)
val recorder : Metrics.t -> classes:string array -> recorder

(** Record one completion.  Raises [Invalid_argument] on a class code
    outside [classes]. *)
val completed : recorder -> cls:int -> latency_ns:int -> unit

(** The metrics name of a class's latency histogram
    ([load.latency_ns.<class>]). *)
val latency_name : string -> string
