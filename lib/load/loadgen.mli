(** The open-loop traffic harness: pumps replay a precomputed arrival
    schedule through typed-port sends (never waiting on completions),
    workers serve the CPI-mix recipes and record request spans, poison
    pills terminate every process deterministically.

    End-to-end latency runs from a request's *scheduled* arrival to its
    service completion, so pump slippage, send cost, queueing and service
    are all inside the measured span — the behavior that makes offered
    load an input and the saturation knee observable. *)

module K = I432_kernel
module Obs = I432_obs
module Net = I432_net

type outcome = {
  o_spec : Arrival.spec;
  o_requests : Arrival.request array;  (** the schedule that was replayed *)
  o_machines : (string * K.Machine.t) list;  (** node order, server first *)
  o_metrics : Obs.Metrics.t;  (** fresh registry, node-order merge *)
  o_issued : int;
  o_completed : int;
  o_last_done_ns : int;  (** virtual instant the last request retired *)
  o_deadlocked : int;  (** processes still blocked at halt; 0 by design *)
  o_chaos : (int * int option) option;
      (** (kill instant, restart instant) staged by a [rejoin] run *)
}

(** Run the harness on one machine: [pumps] issuing processes and
    [workers] serving processes (default [2 * processors]) over one
    typed port. *)
val run_machine :
  ?processors:int ->
  ?workers:int ->
  ?pumps:int ->
  ?trace_level:Obs.Tracer.level ->
  spec:Arrival.spec ->
  unit ->
  outcome

(** A cluster run that should have gone quiescent ran out of rounds
    instead ({!Net.Cluster.run}'s default bound, 100k rounds of 100 us):
    its schedule did not finish, so its outcome would be truncated. *)
exception Round_limit of { rounds : int; horizon_ns : int }

(** Run the harness on a [nodes]-machine cluster: node 0 serves, the
    others issue through imported surrogate ports, so every request
    crosses the virtual interconnect.  [pumps] is per client node;
    [engine] selects the sequential or parallel cluster engine (runs are
    byte-identical either way).  [rejoin] kills the serving node (node
    0) and splices it back in through
    {!I432_store.Checkpoint.stage_rejoin} (key ["loadgen"], the spec's
    seed, 100 us rounds); it requires [trace_level] at least [Events],
    as phase stats and retirement instants come off the event stream.
    A kill at the checkpoint instant loses and double-counts nothing;
    keep the outage well below the ARQ give-up time.  Raises
    [Invalid_argument] when [nodes < 2], and {!Round_limit} when the
    cluster runs out of rounds before every request is served. *)
val run_cluster :
  ?nodes:int ->
  ?processors:int ->
  ?workers:int ->
  ?pumps:int ->
  ?engine:Net.Cluster.engine ->
  ?trace_level:Obs.Tracer.level ->
  ?rejoin:I432_store.Checkpoint.rejoin ->
  spec:Arrival.spec ->
  unit ->
  outcome

(** Every retained {!Obs.Event.Req_done} event of [machines], in list
    order.  Raises [Failure], naming the machine and its drop count, when
    a machine's trace ring dropped events: its completions would be a
    partial set. *)
val req_done : (string * K.Machine.t) list -> Obs.Event.t list

(** Virtual-time throughput delivered: completions over the instant the
    last request retired. *)
val achieved_rps : outcome -> float

(** Overall latency quantile from the merged [load.latency_ns]
    histogram, [q] in [0, 1]. *)
val quantile : outcome -> float -> float

(** Per-class latency quantile ([cls] is a {!Mix.name}); 0.0 when the
    class saw no traffic. *)
val class_quantile : outcome -> cls:string -> float -> float

(** Canonical rendering of every load-subsystem event across machines in
    node order — the byte-equality surface for [--check] and the
    determinism tests. *)
val span_stream : outcome -> string

(** The named streams a same-seed or cross-engine check compares, in
    order: the arrival schedule, the request-span stream, and the merged
    metrics render, each split into lines. *)
val streams : outcome -> (string * string list) list
