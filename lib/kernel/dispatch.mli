(** The hardware dispatching port: a priority-ordered ready queue binding
    ready processes to idle processors.  The processes are the queue's
    nodes (their [q_*] fields), so no operation allocates or hashes. *)

type t

val create : unit -> t

(** Insert in service order: descending priority, FIFO within one
    priority.  The process must not be queued already: a process has at
    most one entry. *)
val enqueue : t -> process:Process.t -> priority:int -> unit

(** Pop the first entry accepted by [eligible], or {!Process.none} when
    none is; rejected entries keep their position. *)
val pop : t -> eligible:(Process.t -> bool) -> Process.t

(** Drop the process's entry, if any: it keeps no queue state. *)
val remove : t -> process:Process.t -> unit

val mem : t -> process:Process.t -> bool

(** Queued processes. *)
val length : t -> int

(** The queued processes in service order (tests and audits). *)
val to_list : t -> Process.t list
