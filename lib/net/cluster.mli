(** A deterministic cluster of independent machines joined by a virtual
    interconnect.

    Member machines advance under one global virtual clock with
    quantum-based horizon stepping; between slices the NIC pump drains
    exported surrogate ports, marshals messages with
    {!Imax.Object_filing}'s wire codec (rights intersected with the
    export mask), moves frames over {!Link}s (latency, serialization
    delay, armed faults), and lands reconstructed messages in home ports,
    waking blocked receivers exactly as a local send would.

    Reliability is NIC-level ARQ: per-channel sequence numbers, acks on
    first receipt, a dup filter (duplicates are re-acked, never
    re-delivered), and bounded retransmission with a doubling RTO.

    Same topology + same workload + same fault seed => byte-identical
    event streams on every node.  A machine that never joins a cluster is
    untouched: no counters registered, no events emitted. *)

open I432
module K := I432_kernel
module Fi := I432_fi.Fi

type node = private {
  id : int;
  node_name : string;
  machine : K.Machine.t;
  mutable n_alive : bool;
  mutable n_down_since : int;  (** kill instant; [max_int] if never killed *)
  mutable n_up_since : int;  (** restart instant; 0 if never restarted *)
  mutable n_parked : Name_service.entry list;
      (** names withdrawn at kill, republished at restart *)
  m_frames_tx : I432_obs.Metrics.counter;
  m_frames_rx : I432_obs.Metrics.counter;
  m_remote_sends : I432_obs.Metrics.counter;
  m_remote_delivers : I432_obs.Metrics.counter;
  m_retransmits : I432_obs.Metrics.counter;
  m_frames_lost : I432_obs.Metrics.counter;
  m_dead_letters : I432_obs.Metrics.counter;
  m_restarts : I432_obs.Metrics.counter;
}

(** One import: a surrogate port on [ch_src] standing for the exported
    name whose home port lives on [ch_dst]. *)
type channel = private {
  ch_id : int;
  ch_name : string;
  ch_src : int;
  ch_dst : int;
  ch_link : Link.t;
  ch_surrogate : Access.t;
  ch_surrogate_ad : Access.t;
  ch_home : Access.t;
  ch_mask : Rights.t;
  mutable ch_next_seq : int;
  ch_unacked : Frame.t Arq.Unacked.t;
  ch_seen : Arq.Seen.t;
  ch_backlog : (Frame.t * Access.t) Queue.t;
  mutable ch_frames_dead : int;  (** gave up after [max_retries] *)
  mutable ch_dead_letters : int;  (** dead-lettered against a dead node *)
}

type t

(** [window] bounds unacked data frames per channel (backpressure: local
    senders block on the surrogate once the window and its queue fill);
    [max_retries] bounds retransmissions before a frame counts as lost. *)
val create :
  ?window:int ->
  ?max_retries:int ->
  ?default_latency_ns:int ->
  ?default_ns_per_byte:int ->
  unit ->
  t

(** Create a machine and join it; returns its node id.  Registers the
    node's net counters in its metrics registry. *)
val boot_node : t -> name:string -> ?config:K.Machine.config -> unit -> int * K.Machine.t

(** Link two nodes.  Raises [Invalid_argument] on a self-link or unknown
    node. *)
val connect : t -> ?latency_ns:int -> ?ns_per_byte:int -> int -> int -> Link.t

val node_count : t -> int
val machine : t -> int -> K.Machine.t
val node_name : t -> int -> string
val name_service : t -> Name_service.t
val links : t -> Link.t list
val channels : t -> channel list

(** Arm a link-fault plan: each event applies to its link the first round
    whose horizon reaches [l_at_ns].  Cumulative with earlier plans. *)
val arm_links : t -> Fi.link_plan -> unit

(** {1 Whole-node failure and rejoin}

    A dead node stops stepping; frames arriving during the outage drop
    on the floor, so their senders retry with the ordinary doubling
    backoff and, after [max_retries], surface a [Frame_dead] plus a
    [Dead_letter] event and counter — a send to a dead node always
    terminates, it never hangs.  Messages already acked into the dead
    node's backlog dead-letter immediately (the ack killed their
    retransmission).  The node's exported names are withdrawn at the
    kill and republished under a bumped {!Name_service} epoch at the
    restart; survivors keep their surrogate descriptors, which stay
    valid because the replacement machine is a checkpoint replay with a
    byte-identical object-table layout.  See DESIGN.md §13. *)

(** Splice a replacement machine in for dead node [id] at [at_ns]
    (default: the current horizon).  [machine] must be a replay of the
    node's checkpoint (see {!I432_store.Checkpoint.restore_node});
    its clocks are advanced to the restart instant and the node's names
    are republished under a bumped epoch.  Raises [Invalid_argument] if
    the node is alive. *)
val restart_node : t -> ?at_ns:int -> machine:K.Machine.t -> int -> unit

val node_alive : t -> int -> bool

(** Cluster-wide dead-letter count so far. *)
val dead_letters : t -> int

(** Keyed frames dropped by transaction-level dedup: re-issued sends of
    an already-delivered committed group (e.g. after a failover replays
    a commit whose frames had already escaped).  Channel-sequence dup
    drops are counted separately in the {!report}. *)
val txn_dup_drops : t -> int

(** Arm a node-fault plan: kills and restarts fire the first round whose
    horizon reaches their instant, before the round's machine slices.
    [restore] supplies the replacement machine at each restart (typically
    a checkpoint replay); it runs on the calling domain, so plans stay
    deterministic under every engine.  Cumulative with earlier plans. *)
val arm_nodes :
  t -> restore:(node:int -> at_ns:int -> K.Machine.t) -> Fi.node_plan -> unit

(** {1 Network-transparent ports}

    Exporting gives a port a cluster-wide name; importing installs a
    local surrogate port and returns a send-only descriptor to it.  Not
    transparent by design (DESIGN.md §9): receive (the t2 right stays on
    the home node, whose business the service order of its queue is),
    level/lifetime rules (a marshalled graph is rebuilt at the
    destination's global-heap level; lifetime containment stops at the
    node boundary), and object identity (the destination sees an
    isomorphic copy, not the sender's object). *)

exception Not_exported of string
exception No_route of string

(** Publish [port] (which must carry the send right) cluster-wide under
    [name].  [mask] is intersected into every marshalled rights set —
    root and edges — so no descriptor arrives amplified.  [capacity]
    defaults to the home port's.  Raises
    {!Name_service.Already_exported} on a duplicate name. *)
val export :
  t -> node:int -> name:string -> ?mask:Rights.t -> ?capacity:int -> Access.t -> unit

(** Resolve [name] on [node]: installs (or reuses) a local surrogate port
    and returns a send-only descriptor to it, so the existing [send] /
    [send_timeout] / [cond_send] syscalls work unchanged against the
    remote endpoint.  On the home node the name resolves to the home port
    itself (send-only).  Raises {!Not_exported} or {!No_route}. *)
val import : t -> node:int -> name:string -> Access.t

(** Why {!run} returned: nothing left to move, or [max_rounds] ran out
    first with work still pending. *)
type stop = Quiescent | Round_limit

type report = {
  rounds : int;
  horizon_ns : int;
  frames_sent : int;  (** data frames, first transmissions *)
  frames_delivered : int;  (** data frames landed in home ports *)
  frames_lost : int;  (** gave up after [max_retries] *)
  retransmits : int;
  acks : int;
  dup_drops : int;
  dead_letters : int;
      (** frames whose only possible destination was a dead node *)
  stop : stop;
}

(** How a round's node slices execute.  [Seq] steps nodes in id order on
    the calling domain.  [Par d] steps them on a [d]-domain {!Par_exec}
    pool (the caller participates, so [Par 1] = [Seq] exactly) and runs
    the interconnect pump on the calling domain after the barrier.

    Conservative-round determinism: within a slice machines touch only
    their own state (a remote send just enqueues on a local surrogate),
    and the pump — the only cross-node code — runs single-domain in the
    sequential engine's exact order.  Same seed therefore produces
    byte-identical event streams, metrics, and snapshots under every
    engine.  See DESIGN.md §11. *)
type engine = Seq | Par of int

(** Advance the cluster until every machine is quiescent and no frame is
    in flight, unacked, or backlogged (or [max_rounds] elapses; the
    report's [stop] tells the two apart).  Each round steps every
    machine [quantum_ns] of virtual time, then pumps the interconnect.

    Resumable: the quantum grid persists across calls, so
    [run ~max_rounds:k] followed by [run ()] (with the same [quantum_ns])
    is equivalent to one uninterrupted [run ()] — the property cluster
    checkpoints rely on.  The engines share one grid: a run may resume
    under a different [engine] than it started with.

    [Par d] creates its domain pool on entry and joins it before
    returning (even on exception). *)
val run : t -> ?engine:engine -> ?quantum_ns:int -> ?max_rounds:int -> unit -> report

val frames_in_flight : t -> int
val total_unacked : t -> int
val total_backlog : t -> int

(** Human-readable nodes / links / channels / names dump. *)
val topology : t -> string

(** Multi-pid Chrome trace of every node's event stream, with cross-node
    frame flow arrows ({!I432_obs.Export.chrome_trace_cluster}). *)
val chrome_trace : t -> I432_obs.Jout.t

val report_to_string : report -> string
