(** A point-to-point link: per-hop latency, serialization bandwidth, and
    deterministic fault state.

    A frame departing at [d] with size [s] arrives at
    [d + s * ns_per_byte + latency_ns]; each direction is a serial line,
    so back-to-back frames queue behind one another.  Fault acts (armed
    from an {!I432_fi.Fi.link_plan}) are interpreted at transmit time:
    pending drop/duplicate/reorder counters and one partition window. *)

module Fi := I432_fi.Fi

type t = {
  id : int;
  node_a : int;
  node_b : int;
  latency_ns : int;
  ns_per_byte : int;
  mutable next_free_ab : int;
  mutable next_free_ba : int;
  mutable part_from : int;
  mutable part_until : int;
  mutable pending_drop : int;
  mutable pending_dup : int;
  mutable pending_reorder : int;
  mutable tx : int;  (** frames put on the wire (per copy) *)
  mutable rx : int;  (** frames taken off the wire *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

(** Raises [Invalid_argument] on negative latency or byte cost. *)
val make :
  id:int -> node_a:int -> node_b:int -> latency_ns:int -> ns_per_byte:int -> t

val connects : t -> int -> int -> bool

(** Arm one fault act at virtual instant [at]. *)
val apply : t -> at:int -> Fi.link_act -> unit

(** [transmit t ~now ~src ~size_bytes] puts a frame on the wire no earlier
    than [now].  Returns [(depart, arrivals)]: no arrivals = lost, two =
    duplicated; a reordered frame is held back three extra latencies so a
    later frame can overtake it. *)
val transmit : t -> now:int -> src:int -> size_bytes:int -> int * int list

val note_rx : t -> unit
val to_string : t -> string
