(** The hardware dispatching port: a priority-ordered ready queue binding
    ready processes to idle processors.  The processes are the queue's
    nodes (their [q_*] fields), so no operation allocates or hashes. *)

type t

val create : unit -> t

(** Insert in service order: descending priority, FIFO within one
    priority.  A process already queued gets one more entry. *)
val enqueue : t -> process:Process.t -> priority:int -> unit

(** Pop the first entry accepted by [eligible], or {!Process.none} when
    none is; rejected entries keep their position. *)
val pop : t -> eligible:(Process.t -> bool) -> Process.t

(** Drop every entry of the process at once: it keeps no queue state. *)
val remove : t -> process:Process.t -> unit

val mem : t -> process:Process.t -> bool

(** Live entries, a process's further entries included. *)
val length : t -> int

(** The queued processes in service order of their first entries, each
    once (tests and audits). *)
val to_list : t -> Process.t list
