(** Process objects: schedulable effect-handler coroutines.

    The kernel keeps one record per process holding its coroutine state,
    dispatching parameters, statistics, and the single in/out-of-mix bit
    that iMAX's basic process manager drives through nested stop/start
    counts. *)

open I432

type status =
  | Created
  | Ready
  | Running
  | Blocked_send of int  (** port object index *)
  | Blocked_receive of int
  | Sleeping
  | Finished
  | Faulted of Fault.cause

type outcome =
  | Completed
  | Raised of exn
  | Pending of Syscall.op * (Syscall.result, outcome) Effect.Deep.continuation

type code =
  | Not_started of (unit -> unit)
  | Suspended of (Syscall.result, outcome) Effect.Deep.continuation
  | Terminated

type t = {
  index : int;  (** object-table index of the process object *)
  ordinal : int;  (** spawn order on its machine: 0 for the first process *)
  name : string;
  daemon : bool;  (** daemons do not keep the machine alive *)
  mutable code : code;
  mutable status : status;
  mutable stopped : bool;  (** out of the dispatching mix *)
  mutable priority : int;
  mutable pending : Syscall.result;  (** delivered at next resume *)
  mutable wake_at : int;
  mutable timeout_at : int option;
      (** virtual-time deadline of the timed blocking operation the process
          is currently parked on, if any *)
  mutable timer : int;
      (** arm stamp of the process's entry on the machine's timer heap
          (its sleep or its deadline); an entry with another stamp is
          stale *)
  mutable cpu_ns : int;
  mutable slice_used_ns : int;
  mutable last_ready_ns : int;  (** when the process last entered the mix *)
  mutable trace_name_id : int;  (** the tracer's interned id for [name] *)
  mutable system_level : int;  (** iMAX internal level (§7.3); 4 = user *)
  mutable affinity : int option;  (** restrict dispatch to one processor *)
  mutable scheduler_port : int option;
  mutable local_roots : Access.t list;  (** GC shadow stack *)
  mutable call_depth : int;
  mutable contexts : Access.t list;  (** activation-record stack *)
  mutable dispatches : int;
  mutable preemptions : int;
  mutable blocks : int;
  mutable messages_sent : int;
  mutable messages_received : int;
}

type Object_table.payload += Process_state of t

(** Resolve a process object (checked for hardware type). *)
val state_of : Object_table.t -> Access.t -> t

val state_of_index : Object_table.t -> int -> t

(** Advance the coroutine to its next syscall, completion, or exception,
    delivering the pending result. *)
val step : t -> outcome

val is_terminal : t -> bool
val status_to_string : status -> string
