(** The machine's timer heap: every process's sleep or port-wait deadline.

    A process holds at most one timer, keyed (instant clamped at 0, arm
    stamp) so equal instants leave in arming order.  The heap is a binary
    min-heap of processes whose key and slot live on the process
    ([Process.tm_*], written here alone); disarming removes the entry, so
    every entry is live, and no operation allocates beyond the heap's own
    growth. *)

type t

val create : unit -> t

(** Processes holding a timer. *)
val length : t -> int

(** Give the process the timer due at the instant, replacing any it
    held.  An instant past [max_int] wraps negative: it is due at once. *)
val arm : t -> Process.t -> int -> unit

(** Take the process's timer, if any, off the heap. *)
val disarm : t -> Process.t -> unit

(** The earliest timer's instant, or [min_int] when none is armed. *)
val next : t -> int

(** Disarm every timer due at [horizon] (keyed at or before it) and
    return their count [n]; [due t 0] .. [due t (n - 1)] are those
    processes, newest-spawned (highest ordinal) first, until the next
    [pop_due]. *)
val pop_due : t -> horizon:int -> int

val due : t -> int -> Process.t

(** Every process holding a timer, in heap order. *)
val iter : (Process.t -> unit) -> t -> unit
