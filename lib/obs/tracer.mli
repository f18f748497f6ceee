(** Structured kernel event tracer: one bounded ring of {!Event.t} records
    per processor (plus one for boot-time events), drop-oldest on overflow
    with a per-ring drop counter.

    [Off] is free on the hot path (one field read); [Events] records
    structured events only; [Events_and_legacy_lines] additionally renders
    the seed's unstructured trace lines (byte-identical, unbounded, immune
    to ring overflow) for legacy consumers. *)

type level = Off | Events | Events_and_legacy_lines

type t

val default_capacity : int

(** [create ~level ~processors ()] sizes one ring of [capacity] events per
    processor plus one for events emitted outside the run loop. *)
val create : ?capacity:int -> level:level -> processors:int -> unit -> t

val level : t -> level
val enabled : t -> bool
val capacity : t -> int
val processors : t -> int

(** {1 Subsystem filtering}

    [set_filter t ~keep:(Some subs)] drops every event whose
    {!Event.category} is not listed, before any per-event work (no seq,
    no interning, no ring store: a filtered event costs one array load).
    [~keep:None] restores the default — everything traced — under which
    streams are byte-identical to a tracer without filtering.  The filter
    survives {!clear}.  Raises [Invalid_argument] on an unknown subsystem
    name. *)
val set_filter : t -> keep:string list option -> unit

(** [wants t ~kind_code] is false when an event of that kind would be
    discarded (level [Off] or subsystem filtered out) — instrumentation
    sites use it to skip computing timestamps and arguments entirely.
    [kind_code] must be a valid dense code from {!Event.kind_to_int}. *)
val wants : t -> kind_code:int -> bool

(** Record one event.  No-op when the level is [Off].  [cpu] is the
    emitting processor id, or -1 outside the run loop. *)
val emit :
  t ->
  ts_ns:int ->
  cpu:int ->
  ?name:string ->
  ?detail:string ->
  ?a:int ->
  ?b:int ->
  Event.kind ->
  unit

(** Intern a string, returning its id for {!emit_raw} (0 when the level
    is [Off], where ids are never consulted).  Id 0 is always "". *)
val string_id : t -> string -> int

(** The allocation- and lookup-free emit path for the kernel's hottest
    seams: [kind_code] is {!Event.kind_to_int} of the kind (computed once
    by the caller), [name_id]/[detail_id] come from {!string_id}.  No-op
    when the level is [Off]. *)
val emit_raw :
  t ->
  ts_ns:int ->
  cpu:int ->
  kind_code:int ->
  name_id:int ->
  detail_id:int ->
  a:int ->
  b:int ->
  unit

(** All retained events, in emission order. *)
val events : t -> Event.t list

(** Events currently held in the rings. *)
val retained : t -> int

(** Events ever emitted (retained + dropped). *)
val emitted : t -> int

(** Events dropped to ring overflow, total and per processor. *)
val dropped : t -> int

val dropped_on : t -> cpu:int -> int

(** The seed-format trace lines, oldest first.  Empty unless the level is
    [Events_and_legacy_lines]. *)
val legacy_lines : t -> string list

val clear : t -> unit
