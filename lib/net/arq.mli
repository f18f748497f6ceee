(** Per-channel ARQ state: the sender's window of unacked frames and the
    receiver's duplicate filter.

    Both sides cost only the frames they hold.  A round in which nothing
    is due asks {!Unacked.next_due} and stops: O(1), no allocation.  In-order
    first receipts just move the filter's low watermark. *)

(** The sender side: frames sent and not yet acked, keyed by their
    channel sequence number.  Sequence numbers are added in increasing
    order (a channel numbers its frames as it drains them), so the window
    is a ring indexed by sequence number and every walk is in ascending
    order without a sort. *)
module Unacked : sig
  type 'a pending = {
    payload : 'a;
    mutable deadline : int;  (** virtual instant of the next retransmit *)
    mutable tries : int;  (** retransmissions so far *)
  }

  type 'a t

  val create : unit -> 'a t

  (** [add t ~seq payload ~deadline]; [seq] must exceed every sequence
      number added before (raises [Invalid_argument] otherwise). *)
  val add : 'a t -> seq:int -> 'a -> deadline:int -> unit

  (** Remove [seq]; [false] if it was not unacked (a duplicate ack, or a
      frame already given up on or cleared). *)
  val ack : 'a t -> int -> bool

  (** Frames currently unacked. *)
  val length : 'a t -> int

  (** A lower bound on every unacked frame's deadline ([max_int] when
      there is none): no frame is due before it. *)
  val next_due : 'a t -> int

  (** [retransmit_due t ~horizon f] calls [f seq p] on every unacked [p]
      whose deadline is at most [horizon], in ascending [seq] order.  [f]
      either moves [p.deadline] (it retransmitted) and returns [true], or
      returns [false] to remove [p] (it gave up).  Returns at once when
      [horizon < next_due t]. *)
  val retransmit_due :
    'a t -> horizon:int -> (int -> 'a pending -> bool) -> unit

  (** Drop every unacked frame (a killed sender stops retrying). *)
  val clear : 'a t -> unit
end

(** The receiver side: every sequence number ever accepted on the
    channel, as a low watermark (every number below it was seen) plus a
    sparse set of the numbers seen above it.  A lost frame's number is
    never seen, so it holds the watermark and later numbers stay in the
    set: the filter accepts exactly the numbers a set of all seen numbers
    would.  Sequence numbers start at 0. *)
module Seen : sig
  type t

  val create : unit -> t

  (** [first_receipt t seq] is [true], and records [seq], when [seq] was
      never recorded before; [false] for a duplicate. *)
  val first_receipt : t -> int -> bool
end
