(** The basic process manager (paper §6.1).

    Completes the hardware process model without arbitrating the processor:
    dispatching parameters pass through, and policy modules layer on top
    (see {!Scheduler}).  Maintains the process tree and the nested
    stop/start counts — a process is in the dispatching mix iff its count
    is zero; only 0<->1 transitions reach the kernel.  Also registers the
    destruction filter that recovers lost process objects. *)

open I432
module K := I432_kernel

type node
type t

(** Restart-on-fault supervision policy: a faulted supervised process is
    respawned after [backoff_ns] of virtual time (doubled per restart),
    at most [max_restarts] times over the body's lifetime. *)
type restart_policy = { max_restarts : int; backoff_ns : int }

(** Creating a manager installs the machine's fault hook (see
    {!K.Machine.set_fault_hook}); unsupervised processes are unaffected. *)
val create : K.Machine.t -> t

(** Create a managed process, optionally as the child of another managed
    process (lifetimes nest as in the Ada task model). *)
val create_process :
  t ->
  ?parent:Access.t ->
  ?priority:int ->
  ?system_level:int ->
  name:string ->
  (unit -> unit) ->
  Access.t

(** Create a managed process with a restart-on-fault policy: when any
    incarnation faults, a fresh process running the same body is spawned
    after the policy's (exponential, virtual-time) backoff, until the
    budget is spent ([policy] defaults to 3 restarts, 1 ms initial
    backoff).  Each restart emits a [Proc_restarted] event and
    bumps the ["proc.restarts"] counter. *)
val create_supervised :
  t ->
  ?parent:Access.t ->
  ?priority:int ->
  ?system_level:int ->
  ?policy:restart_policy ->
  name:string ->
  (unit -> unit) ->
  Access.t

(** Restarts consumed so far by the supervised body owning [access] (any
    incarnation); 0 for unsupervised processes. *)
val restart_count : t -> Access.t -> int

(** The live incarnation of a supervised body ([access] may name any
    earlier incarnation); [access] itself when unsupervised. *)
val current_incarnation : t -> Access.t -> Access.t

(** Stop the whole computation rooted at the process: every tree member's
    count is incremented; 0 -> 1 leaves the dispatching mix. *)
val stop : t -> Access.t -> unit

(** Undo one stop over the tree; 1 -> 0 re-enters the mix.  A start without
    a matching stop raises [Fault (Protocol _)]. *)
val start : t -> Access.t -> unit

val stop_count : t -> Access.t -> int
val is_runnable : t -> Access.t -> bool
val children : t -> Access.t -> node list
val set_priority : t -> Access.t -> int -> unit
val set_scheduler_port : t -> Access.t -> Access.t -> unit

(** Drain the process destruction filter, releasing recovered corpses.
    Must run inside a process body.  Returns the number recovered. *)
val recover_lost_processes : t -> int

val recovered : t -> int
