(** Communication port objects: bounded message queues with a queueing
    discipline.  Messages are access descriptors; a full queue blocks the
    sender, an empty one the receiver.

    Type rights on a port access: {!I432.Rights.t1} = send,
    {!I432.Rights.t2} = receive.

    This module holds the pure queue state; the blocking protocol lives in
    the machine's syscall handler.  The queues themselves are host-cost
    structures built by {!make}: a Fifo port's messages sit in a ring over
    parallel arrays grown to the queue's high-water depth, a Priority
    port's in a pairing heap, and parked receivers and senders are each a
    {!Proc_queue} of their processes; service order is identical to a
    sorted list. *)

open I432
open I432_util

type discipline = Fifo | Priority

(** A queued message of a Priority port. *)
type prio_message = {
  msg : Access.t;
  msg_priority : int;
  seq : int;
  enqueued_at : int;
  txn : int;  (** idempotency key of the committing transaction, 0 = none *)
}

type t = {
  self : int;
  capacity : int;
  discipline : discipline;
  mutable q_msg : Access.t array;
      (** Fifo queue: five parallel arrays, the [i]-th message in slot
          [(q_head + i) mod size], grown by doubling up to [capacity] *)
  mutable q_priority : int array;
  mutable q_seq : int array;
  mutable q_at : int array;
  mutable q_txn : int array;
  mutable q_head : int;
  mutable q_len : int;  (** queued messages, either discipline *)
  prio_messages : prio_message Pqueue.t;  (** Priority queue; empty for Fifo *)
  receivers : Proc_queue.t;  (** parked receivers, FIFO *)
  senders : Proc_queue.t;
      (** parked senders, FIFO on a Fifo port and by the priority they
          parked at on a Priority port (FIFO within one); each holds its
          message in [Process.q_msg] and that priority in
          [Process.q_prio] *)
  blocked_receive : Process.status;
      (** [Blocked_receive self], the status of its parked receivers *)
  blocked_send : Process.status;  (** [Blocked_send self] *)
  mutable seq : int;
  mutable last_priority : int;  (** of the message {!pop} returned last *)
  mutable last_enqueued_at : int;
  mutable last_txn : int;
  mutable last_wait_ns : int;  (** its queue wait *)
  mutable sends : int;
      (** process transfers, NIC deliveries and the kernel's posts to a
          fault or scheduler port; the [port.sends] metric skips posts *)
  mutable receives : int;  (** likewise, against [port.receives] *)
  mutable send_blocks : int;
  mutable receive_blocks : int;
  mutable total_queue_wait_ns : int;
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

(** Enqueue in service order (FIFO appends; Priority orders by descending
    priority, FIFO within).  [txn] tags the message with the committing
    transaction's idempotency key (0 = not transactional).  Raises
    [Invalid_argument] when full. *)
val enqueue : ?txn:int -> t -> msg:Access.t -> priority:int -> now:int -> unit

(** Dequeue the head message, leaving its priority, enqueue instant, txn
    key and queue wait in the [last_*] fields (the interconnect carries
    the priority across the wire and stamps the outgoing frame with the
    enqueue instant).  Raises [Invalid_argument] when the queue is
    empty. *)
val pop : t -> now:int -> Access.t

(** {!pop}, or [None] when the queue is empty. *)
val dequeue : t -> now:int -> Access.t option

(** Park a sender with its message, at its current priority, in
    service order. *)
val park_sender : t -> Process.t -> msg:Access.t -> unit

(** Visit every queued message once: a Fifo queue in service order, a
    Priority one in heap order (collector root scan, state images). *)
val iter_messages :
  (msg:Access.t -> priority:int -> seq:int -> enqueued_at:int -> txn:int -> unit) ->
  t ->
  unit

val mean_queue_wait_ns : t -> float
val discipline_to_string : discipline -> string
