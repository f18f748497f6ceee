(** The hardware dispatching port: a priority-ordered ready queue binding
    ready processes to idle processors. *)

type t

val create : unit -> t

(** Insert in service order: descending priority, FIFO within one
    priority. *)
val enqueue : t -> process:int -> priority:int -> unit

(** Pop the first entry accepted by [eligible]; rejected entries keep
    their position. *)
val pop : t -> eligible:(int -> bool) -> int option

val remove : t -> process:int -> unit
val mem : t -> process:int -> bool
val length : t -> int

(**/**)

(* Statistics consumed by the machine's run report. *)
val dispatches_of : t -> int
