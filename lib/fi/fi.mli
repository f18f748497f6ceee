(** Deterministic fault injection (DESIGN.md §8).

    A {e plan} is a seed plus a list of injections pinned to virtual-time
    instants.  Arming a plan schedules every injection on the machine;
    because injections fire from the run loop at deterministic points of
    virtual time, any chaos run is replayable bit-for-bit from its seed.

    Nothing here touches wall-clock time or global randomness: plans are
    generated with {!I432_util.Prng} and applied through
    {!I432_kernel.Machine.schedule_injection}. *)

module K := I432_kernel

type event = { at_ns : int; inj : K.Machine.injection }

type plan = { seed : int; events : event list  (** sorted by [at_ns] *) }

(** [random ~seed ~horizon_ns ~processors ~count ~cpu_faults] draws a plan
    of [count] transient/allocation/port-delay injections plus at most
    [cpu_faults] processor hard-faults, all at instants uniform in
    [\[horizon_ns/10, horizon_ns)].  Hard-faulted processor ids are
    distinct and capped at [processors - 1], so at least one GDP always
    survives.  Same arguments, same plan.

    Raises [Invalid_argument] if [processors < 1] or [horizon_ns < 10]. *)
val random :
  seed:int ->
  horizon_ns:int ->
  processors:int ->
  count:int ->
  cpu_faults:int ->
  plan

(** {1 Link faults}

    The same plan-is-data discipline, aimed at the virtual interconnect.
    Fi stays net-agnostic: a link plan is pure data, interpreted at frame
    transmit time by [I432_net.Cluster.arm_links], so a faulted cluster
    run replays bit-for-bit from (topology, workload, seed). *)

type link_act =
  | L_drop of int  (** lose the next n frames crossing the link *)
  | L_dup of int  (** deliver the next n frames twice *)
  | L_reorder of int  (** hold back the next n frames one extra hop each *)
  | L_partition of int  (** sever the link for this many virtual ns *)

type link_event = { l_at_ns : int; l_link : int; l_act : link_act }

type link_plan = {
  l_seed : int;
  l_events : link_event list;  (** sorted by [l_at_ns] *)
}

(** [random_links ~seed ~horizon_ns ~links ~count ~partitions] draws a
    plan of [count] drop/duplicate/reorder bursts plus [partitions]
    partition windows (each lasting 2–20% of the horizon), on links
    uniform in [\[0, links)], at instants uniform in
    [\[horizon_ns/10, horizon_ns)].  Same arguments, same plan.

    Raises [Invalid_argument] if [links < 1] or [horizon_ns < 10]. *)
val random_links :
  seed:int ->
  horizon_ns:int ->
  links:int ->
  count:int ->
  partitions:int ->
  link_plan

(** Human-readable one-line-per-event rendering. *)
val link_plan_to_string : link_plan -> string

(** {1 Node faults}

    Whole-machine kill/restart pairs, interpreted at quantum boundaries
    by [I432_net.Cluster.arm_nodes].  A node plan is pure data — Fi
    knows nothing about checkpoints; the cluster's restore hook supplies
    the replacement machine at restart time. *)

type node_act =
  | N_kill  (** the node stops executing; its inbound frames drop *)
  | N_restart  (** the node rejoins from its checkpoint image *)

type node_event = { n_at_ns : int; n_node : int; n_act : node_act }

type node_plan = {
  n_seed : int;
  n_events : node_event list;  (** sorted by [n_at_ns] *)
}

(** [random_nodes ~seed ~horizon_ns ~nodes ~kills] draws at most [kills]
    kill/restart pairs on distinct nodes (sparing at least one node, so
    the cluster always keeps a survivor), kills at instants uniform in
    [\[horizon_ns/10, horizon_ns)], each paired with a restart 2–20% of
    the horizon later.  Same arguments, same plan.

    Raises [Invalid_argument] if [nodes < 2] or [horizon_ns < 10]. *)
val random_nodes :
  seed:int -> horizon_ns:int -> nodes:int -> kills:int -> node_plan

(** Human-readable one-line-per-event rendering. *)
val node_plan_to_string : node_plan -> string

(** Schedule every event of the plan on the machine. *)
val arm : K.Machine.t -> plan -> unit

(** Human-readable one-line-per-event rendering. *)
val to_string : plan -> string

(** Post-run consistency check, read from one {!K.Snapshot.fold}; each
    violated invariant yields one message, in a fixed order (the walk's
    index order, never hash order), so [\[\]] means the machine survived
    the plan intact:

    - no process is still [Running] once the run loop has returned;
    - the object table's valid-entry count matches the walk's;
    - no port queue exceeds its capacity;
    - every process blocked on a port appears in that port's waiting
      queue, and every waiter recorded by a port is a process blocked on
      that port (timed-out waits must leave no dangling queue entries);
    - a port with parked receivers has an empty queue, and a port with
      parked senders has a full one;
    - the run loop's progress state ({!K.Machine.progress}) matches a
      recount over every process ({!check_progress}). *)
val check_invariants : K.Machine.t -> string list

(** The progress-state clause of {!check_invariants} alone.  Unlike the
    rest, it holds between any two run-loop steps, not only after halt. *)
val check_progress : K.Machine.t -> string list
