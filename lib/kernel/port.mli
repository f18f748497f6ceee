(** Communication port objects: bounded message queues with a queueing
    discipline.  Messages are access descriptors; a full queue blocks the
    sender, an empty one the receiver.

    Type rights on a port access: {!I432.Rights.t1} = send,
    {!I432.Rights.t2} = receive.

    This module holds the pure queue state; the blocking protocol lives in
    the machine's syscall handler.  The queues themselves are host-cost
    structures (ring buffer / pairing heap per discipline) built by
    {!make}; service order is identical to a sorted list. *)

open I432
open I432_util

type discipline = Fifo | Priority

type queued_message = {
  msg : Access.t;
  msg_priority : int;
  seq : int;
  enqueued_at : int;
  txn : int;  (** idempotency key of the committing transaction, 0 = none *)
}

type waiting_sender = {
  sender : int;  (** process object index *)
  sender_msg : Access.t;
  sender_priority : int;
  sender_seq : int;
}

type messages =
  | M_fifo of queued_message Ring_buffer.t
  | M_prio of queued_message Pqueue.t

type senders =
  | S_fifo of waiting_sender Queue.t
  | S_prio of waiting_sender Pqueue.t

type t = {
  self : int;
  capacity : int;
  discipline : discipline;
  messages : messages;
  senders : senders;
  receivers : int Queue.t;
  mutable seq : int;
  mutable sends : int;
  mutable receives : int;
  mutable send_blocks : int;
  mutable receive_blocks : int;
  mutable total_queue_wait_ns : int;
  mutable last_wait_ns : int;  (** queue wait of the last dequeued message *)
  mutable max_depth : int;
}

type Object_table.payload += Port_state of t

(** Fresh port state with empty queues matching [discipline].  Raises
    [Invalid_argument] when [capacity < 1]. *)
val make : self:int -> capacity:int -> discipline:discipline -> t

val state_of : Object_table.t -> Access.t -> t
val state_of_index : Object_table.t -> int -> t

(** Raise [Fault Rights_violation] without the respective type right. *)
val check_send_right : Access.t -> unit

val check_receive_right : Access.t -> unit

val queue_length : t -> int
val is_full : t -> bool
val is_empty : t -> bool
val has_blocked_receiver : t -> bool
val has_blocked_sender : t -> bool

(** Enqueue in service order (FIFO appends; Priority orders by descending
    priority, FIFO within).  [txn] tags the message with the committing
    transaction's idempotency key (0 = not transactional).  Raises
    [Invalid_argument] when full. *)
val enqueue : ?txn:int -> t -> msg:Access.t -> priority:int -> now:int -> unit

val dequeue : t -> now:int -> Access.t option

(** Like {!dequeue} but returns the whole queue record — the interconnect
    layer preserves [msg_priority] across the wire and stamps the outgoing
    frame with [enqueued_at]. *)
val dequeue_entry : t -> now:int -> queued_message option

(** The first parked receiver's process index, or [-1] when none. *)
val pop_receiver : t -> int
val push_receiver : t -> int -> unit
val pop_sender : t -> waiting_sender option
val push_sender : t -> sender:int -> msg:Access.t -> priority:int -> unit

(** Remove one parked receiver process from the blocked queue, preserving
    everyone else's service order; [true] iff it was found.  O(n); used
    only when a timed receive expires. *)
val remove_receiver : t -> index:int -> bool

(** Remove one parked sender by process index, preserving service order of
    the survivors; returns the removed entry.  O(n); used only when a
    timed send expires. *)
val remove_sender : t -> index:int -> waiting_sender option

(** Visit every queued message once, in unspecified order (collector root
    scan; shading is order-insensitive). *)
val iter_messages : (queued_message -> unit) -> t -> unit

(** Visit every blocked sender once, in unspecified order. *)
val iter_senders : (waiting_sender -> unit) -> t -> unit

val mean_queue_wait_ns : t -> float
val discipline_to_string : discipline -> string
