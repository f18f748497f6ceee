(** Chrome trace-event JSON exporter (Perfetto / chrome://tracing).

    One track per processor plus a "boot" track; per-dispatch duration
    slices; instant events by subsystem; flow arrows from each port send
    to the receive that consumed the same message; async slices for GC
    mark/sweep phases.  Timestamps are virtual microseconds, so identical
    runs export identical files. *)

(** [chrome_trace ~processors tracer] renders the tracer's retained
    events, in emission order, to a complete trace JSON value.  Events are
    read from the ring one at a time. *)
val chrome_trace : processors:int -> Tracer.t -> Jout.t

(** [chrome_trace_cluster nodes] renders a multi-node trace: one pid per
    [(name, processors, tracer)] element (in list order), each laid out
    exactly like {!chrome_trace}, plus cross-node flow arrows pairing each
    frame transmission with its arrival on the peer node. *)
val chrome_trace_cluster : (string * int * Tracer.t) list -> Jout.t
