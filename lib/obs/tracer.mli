(** Structured kernel event tracer: one bounded ring of packed four-int
    event slots per machine, shared by its processors and by boot-time
    events, drop-oldest on overflow.

    [Off] is free on the hot path (one field read); [Events] records
    structured events.  An event is a kind, two interned string ids and
    two ints; the seed's
    unstructured trace lines are rendered from the retained events by
    {!Event.legacy_line}, so they are exactly as complete as the ring.
    Readers stream: {!fold} walks the ring and builds an {!Event.t} only
    when its caller asks {!event} for one. *)

type level = Off | Events

type t

val default_capacity : int

(** Field limits of a slot, each checked once where its value is made,
    never at {!emit}: an emitted [cpu] lies in [-1 .. max_cpus - 1]
    (a traced machine refuses more processors), and an interned id passes
    {!fits_id} ({!string_id} raises [Invalid_argument] rather than issue
    an id past it). *)
val max_cpus : int

val max_ids : int

(** [fits_id n] is [n] when it fits a slot's name or detail field
    ([0 <= n < max_ids]); [Invalid_argument] otherwise.  The intern pool
    checks each id it issues with it. *)
val fits_id : int -> int

(** [create ~level ()] sizes one ring that retains the last [capacity]
    events (default {!default_capacity}).  An [Off] tracer allocates no
    ring. *)
val create : ?capacity:int -> level:level -> unit -> t

val level : t -> level
val enabled : t -> bool

(** Intern a string, returning its id for {!emit} (0 when the level is
    [Off], where ids are never consulted).  Id 0 is always "".  An id is
    valid only on the tracer that issued it. *)
val string_id : t -> string -> int

(** Record one event: the only emit path.  [cpu] is the emitting processor
    id, or -1 outside the run loop; [name_id]/[detail_id] come from
    {!string_id}.  Four stores into the ring and no
    range check: a value past its field corrupts its neighbours.  No-op
    when the level is [Off]. *)
val emit :
  t ->
  Event.kind ->
  cpu:int ->
  ts_ns:int ->
  name_id:int ->
  detail_id:int ->
  a:int ->
  b:int ->
  unit

(** {2 Reading}

    A retained event is named by its seq, [emitted - retained] to
    [emitted - 1]; [Invalid_argument] for any other seq.  A reader that
    needs every event of some kind must check {!dropped} first. *)

(** [kinds keep] is a filter for {!fold}: one flag per kind code. *)
val kinds : (Event.kind -> bool) -> bool array

(** [fold ?kinds t ~init f] walks the retained events in seq order and
    folds [f] over the seq of each whose kind [kinds] admits (default:
    every kind).  A slot's kind is read before anything is built; no
    {!Event.t} is made unless [f] asks {!event} for it. *)
val fold : ?kinds:bool array -> t -> init:'a -> ('a -> int -> 'a) -> 'a

val iter : ?kinds:bool array -> t -> (int -> unit) -> unit

(** [to_list ?kinds t f] is [[f s1; f s2; ...]] over the same seqs as
    {!fold}. *)
val to_list : ?kinds:bool array -> t -> (int -> 'a) -> 'a list

(** The retained event with seq [seq], its ids looked up. *)
val event : t -> int -> Event.t

(** A slot's fields as stored, ids not looked up. *)
type slot = {
  ts_ns : int;
  cpu : int;
  code : int;  (** {!Event.kind_to_int} of the kind *)
  name_id : int;
  detail_id : int;
  a : int;
  b : int;
}

val slot : t -> int -> slot

(** All retained events, in emission order, the [i]th with seq
    [emitted - retained + i]: [to_list t (event t)]. *)
val events : t -> Event.t list

(** Events currently held in the ring: [min emitted capacity]. *)
val retained : t -> int

(** Events ever emitted (retained + dropped). *)
val emitted : t -> int

(** Events dropped to ring overflow, on every processor of the machine:
    [emitted - retained]. *)
val dropped : t -> int
