(** Structured kernel event tracer: one bounded ring of {!Event.t} records
    per machine, shared by its processors and by boot-time events,
    drop-oldest on overflow.

    [Off] is free on the hot path (one field read); [Events] records
    structured events.  An event is a kind, two interned string ids and
    two ints (or, for a kind with a renderer, a name id and a detail code
    with two int arguments, rendered to text when read); the seed's
    unstructured trace lines are rendered from the retained events by
    {!Event.legacy_line}, so they are exactly as complete as the ring. *)

type level = Off | Events

type t

val default_capacity : int

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

(** [set_renderer kind render] makes [kind]'s detail a code rather than
    an interned id: an event of that kind stores a code in [detail_id]
    and the code's arguments in [a] and [b], and {!events} reads it as
    [detail = render ~detail ~a ~b] with [a = b = 0].  For a detail that
    would otherwise be formatted per event (the kernel registers its
    deschedule op this way, once, at module initialisation); not for use
    once events of the kind have been emitted. *)
val set_renderer :
  Event.kind -> (detail:int -> a:int -> b:int -> string) -> unit

(** Record one event: the only emit path.  [cpu] is the emitting processor
    id, or -1 outside the run loop; [name_id]/[detail_id] come from
    {!string_id}, or [detail_id] is a code for a kind with a renderer
    ({!set_renderer}).  No-op when the level is [Off]. *)
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

(** All retained events, in emission order, the [i]th with seq
    [emitted - retained + i], each event's detail rendered if its kind has
    a renderer. *)
val events : t -> Event.t list

(** Events currently held in the ring: [min emitted capacity]. *)
val retained : t -> int

(** Events ever emitted (retained + dropped). *)
val emitted : t -> int

(** Events dropped to ring overflow, on every processor of the machine:
    [emitted - retained].  A reader that needs every event of some kind
    must check this first. *)
val dropped : t -> int
