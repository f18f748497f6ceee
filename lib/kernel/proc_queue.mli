(** An intrusive queue of processes: the one queue behind a dispatching
    port's priority levels and a communication port's parked receivers
    and senders.  The processes are its nodes, linked through their
    [q_next]/[q_prev] fields, so no operation allocates; a process is in
    at most one queue at a time. *)

type t

val create : unit -> t
val is_empty : t -> bool

(** Append at the tail. *)
val push : t -> Process.t -> unit

(** Insert behind the last entry whose [q_prio] is at least the
    process's: descending [q_prio], FIFO within one.  The caller sets
    the process's [q_prio] first. *)
val insert_by_priority : t -> Process.t -> unit

(** The head, unlinked, or {!Process.none} when empty. *)
val pop : t -> Process.t

(** The first process [accept] takes, left in place, or {!Process.none}. *)
val first : t -> (Process.t -> bool) -> Process.t

(** Unlink a process queued here, in O(1); everyone else keeps their
    place, and the process keeps no link. *)
val unlink : t -> Process.t -> unit

(** The queued processes, head first. *)
val iter : (Process.t -> unit) -> t -> unit

val fold : (Process.t -> 'a -> 'a) -> t -> 'a -> 'a
