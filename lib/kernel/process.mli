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
  | Pending
      (** the body performed a syscall: the op is in [op], the
          continuation in [code] *)

type code =
  | Not_started of (unit -> unit)
  | Suspended of {
      mutable k : (Syscall.result, outcome) Effect.Deep.continuation;
    }
      (** one block per process, rewritten at every syscall *)
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
  mutable op : Syscall.op;  (** the syscall parked by the last [Pending] *)
  mailbox : Syscall.mailbox;  (** the message in [delivered] *)
  delivered : Syscall.result;
      (** [R_msg mailbox], built once: the result of every message
          handed to the process *)
  mutable tm_key : int;
      (** timer-heap state, kept by {!Timers} alone: the key of its one
          timer (its sleep or its deadline), the instant clamped at 0 ... *)
  mutable tm_arm : int;  (** ... then its arm stamp *)
  mutable tm_at : int;  (** the timer's instant *)
  mutable tm_pos : int;  (** its heap slot; -1 when it holds no timer *)
  mutable w_next : t;
      (** receivers parked at its port, kept by {!Port} alone: FIFO
          neighbours ({!none} at either end) *)
  mutable w_prev : t;
  mutable q_next : t;
      (** dispatching-port queue state, kept by {!Dispatch} alone: FIFO
          neighbours within a priority level ({!none} at either end) *)
  mutable q_prev : t;
  mutable q_prio : int;  (** key of the linked entry *)
  mutable q_seq : int;
  mutable q_count : int;  (** live ready-queue entries *)
  mutable q_more : (int * int) list;
      (** keys [(priority, seq)] of the entries beyond the linked one, in
          service order; empty unless a queued process is enqueued again *)
}

type Object_table.payload += Process_state of t

(** The absent process: the end of every queue link and the occupant of
    an empty processor slot.  Never dispatched; nothing writes it. *)
val none : t

(** A fresh process in state [Created], out of every queue. *)
val create :
  index:int ->
  ordinal:int ->
  name:string ->
  daemon:bool ->
  priority:int ->
  system_level:int ->
  (unit -> unit) ->
  t

(** Resolve a process object (checked for hardware type). *)
val state_of : Object_table.t -> Access.t -> t

val state_of_index : Object_table.t -> int -> t

(** Advance the coroutine to its next syscall, completion, or exception,
    delivering the pending result.  The handler is built at the first
    step; later steps allocate only what the effect itself does. *)
val step : t -> outcome

val is_terminal : t -> bool
val status_to_string : status -> string
