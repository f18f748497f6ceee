(** Mutable pairing heap keyed by (priority descending, sequence ascending).

    The service order matches the kernel's queueing disciplines exactly:
    higher priority first, FIFO (lower sequence number) within one priority.
    Since sequence numbers are unique per queue, the order is a total order
    and every pop is deterministic.

    Complexity: O(1) insert/peek/size, O(log n) amortized pop.  This is a
    host-cost structure only: it changes no virtual-time result, just the
    wall-clock cost of simulating deep queues. *)

type 'a t

val create : unit -> 'a t

(** [insert t ~priority ~seq v] adds [v].  [seq] must be unique within the
    queue for the order to be total (the kernel's monotonic counters
    guarantee this). *)
val insert : 'a t -> priority:int -> seq:int -> 'a -> unit

(** Remove and return the front element: maximum priority, minimum sequence
    number within that priority.  [None] when empty. *)
val pop : 'a t -> 'a option

(** The front element without removing it. *)
val peek : 'a t -> 'a option

(** The front element's priority, or [empty] when the queue is empty.
    Allocates nothing, unlike {!peek}. *)
val front_priority : 'a t -> empty:int -> int

val size : 'a t -> int
val is_empty : 'a t -> bool

(** Iterate over every element in unspecified order (heap order, not
    service order).  Used by the collector's root scan, which only needs
    to visit each element once. *)
val iter : ('a -> unit) -> 'a t -> unit

(** Every element in service order, non-destructively: O(n log n). *)
val to_sorted_list : 'a t -> 'a list

val clear : 'a t -> unit
