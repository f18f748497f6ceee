(** Whole-machine checkpoint/restore by deterministic replay.

    OCaml effect continuations (the suspended process bodies in
    {!I432_kernel.Process.code}) cannot be serialized, so a checkpoint
    does not marshal closures.  Instead it records {e how far} a
    deterministic run had advanced (a kill bound: an instruction-step
    count, a virtual-time horizon, or a cluster round count) together
    with the full {!I432_kernel.Snapshot.state_image} of the machine at
    that instant.  [restore] re-boots the scenario through a
    caller-supplied closure — which must re-arm the same workload, seed,
    and FI plans — replays it to the recorded bound, and verifies the
    replayed image against the stored one byte-for-byte before handing
    the machine back.  Because the kernel is deterministic, the verified
    machine then continues exactly as the killed one would have: the
    resumed event stream is bit-identical to a run that was never killed.

    Cluster members checkpoint the same way, one image per node, bound
    by the interconnect round count; the boot closure re-exports and
    re-imports remote ports, and the replay regenerates the ARQ state
    (sequence numbers, unacked windows, backlogs) as a consequence. *)

module K := I432_kernel
module Net := I432_net
module Fi := I432_fi.Fi

(** How far the checkpointed run had advanced — the bound to replay to. *)
type bound =
  | Steps of int  (** [Machine.run ~max_steps] *)
  | Virtual_ns of int  (** [Machine.run ~max_ns] *)
  | Rounds of { rounds : int; quantum_ns : int }
      (** [Cluster.run ~max_rounds ~quantum_ns] *)

type record = {
  c_key : string;
  c_bound : bound;
  c_now_ns : int;  (** virtual time at the checkpoint instant *)
  c_nodes : (string * string) list;
      (** (node name, state image); a single machine is the one pair
          [("", image)] *)
}

(** Where two line streams first disagree. *)
type divergence = {
  stream : string;  (** which stream: a state image, a node, an event list *)
  index : int;  (** 1-based line number of the first differing line *)
  expected : string option;  (** [None]: the expected stream ended here *)
  got : string option;  (** [None]: the observed stream ended here *)
  context : string list;  (** up to three equal lines just before [index] *)
}

(** The first line where [got] departs from [expected]; [None] when they
    are equal line for line. *)
val first_divergence :
  stream:string -> expected:string list -> got:string list -> divergence option

(** The stream, index, expected and got lines, then the context lines
    with their indices. *)
val divergence_to_string : divergence -> string

(** Replayed state differs from the checkpointed state — the boot closure
    did not reproduce the original scenario (different seed, workload, or
    FI plan), or the run crossed a nondeterministic seam.  [divergence]
    carries the first divergent image line (stored = expected, replayed =
    got); it is [None] for a record that does not fit the boot at all
    (corrupt bytes, wrong kind, node count or node names). *)
exception Restore_mismatch of {
  message : string;
  divergence : divergence option;
}

(** Checkpoint [machine], which the caller has just run to [bound], into
    the store under [key] (fsynced before returning). *)
val save : Store.t -> key:string -> bound:bound -> K.Machine.t -> record

(** Re-boot, replay to the saved bound, verify the state image, return
    the machine ready to continue.  Raises [Restore_mismatch] on
    divergence and [Imax.Object_filing.Not_filed] for an unknown key. *)
val restore : Store.t -> key:string -> boot:(unit -> K.Machine.t) -> K.Machine.t

(** Checkpoint every node of [cluster] at a round boundary: the caller
    has just run [Cluster.run ~quantum_ns ~max_rounds] and passes the
    report's actual round count. *)
val save_cluster :
  Store.t -> key:string -> rounds:int -> quantum_ns:int -> Net.Cluster.t -> record

(** Re-boot the cluster (nodes, links, exports, imports, link plans),
    replay the recorded rounds, verify every node's image. *)
val restore_cluster :
  Store.t -> key:string -> boot:(unit -> Net.Cluster.t) -> Net.Cluster.t

(** Restore one node of a cluster checkpoint, for splicing into a
    {e running} cluster with {!Net.Cluster.restart_node}: boots a shadow
    cluster, replays the recorded rounds, verifies the target node's
    image, and returns just that machine.  The verified machine's
    object-table layout is byte-identical to the dead incarnation's at
    the checkpoint, so descriptors cached by survivors (home ports,
    name-service entries) remain valid against it.  Raises
    [Restore_mismatch] on divergence, an unknown node index, or a
    non-cluster checkpoint. *)
val restore_node :
  Store.t -> key:string -> node:int -> boot:(unit -> Net.Cluster.t) -> K.Machine.t

(** The decoded checkpoint record under [key], if any. *)
val load : Store.t -> key:string -> record option

(** A whole-node kill and rejoin, staged on a running cluster: every
    node's image is filed at the last round boundary at or below
    [ckpt_ns], the node dies at [kill_ns], and at [restart_ns] a
    verified checkpoint replay of it is spliced back in.  Work the node
    did between the checkpoint and the kill is rolled back and re-done
    after the restart. *)
type rejoin = {
  store : Store.t;  (** where the node images are filed *)
  ckpt_ns : int;  (** checkpoint at the last round boundary <= this *)
  kill_ns : int;  (** kill the node here *)
  restart_ns : int option;
      (** splice the verified replay back in; [None] = stays down *)
}

(** Stage [rejoin] of [node] on [cluster], which [boot] built: run
    [ckpt_ns / quantum_ns] rounds on [engine], {!save_cluster} them under
    [key], and arm the kill (and restart) as a node plan of [seed] whose
    restore hook is {!restore_node} [~key ~boot].  Returns the armed
    plan; the caller runs the cluster on.  A replay that diverges raises
    {!Restore_mismatch} from that later run, naming the node and its
    first divergent image line.  Raises [Invalid_argument] when the kill
    comes before the first round, the checkpoint after the kill, or the
    restart not after the kill. *)
val stage_rejoin :
  rejoin ->
  key:string ->
  node:int ->
  seed:int ->
  engine:Net.Cluster.engine ->
  quantum_ns:int ->
  boot:(unit -> Net.Cluster.t) ->
  Net.Cluster.t ->
  Fi.node_plan
