(** Rights flags carried by an access descriptor.

    Base rights ([read]/[write]) gate the data and access parts of the
    segment; the three type rights are interpreted by the type manager of the
    object's type (e.g. send/receive for ports).  Rights can only be
    restricted through this interface; amplification requires the
    type-definition object (see {!Type_def}). *)

type t = {
  read : bool;
  write : bool;
  type_rights : int;  (** 3-bit mask *)
}

val full : t
val none : t
val read_only : t

(** Named type-right bits (per-type interpretation). *)
val t1 : int

val t2 : int
val t3 : int

val has_read : t -> bool
val has_write : t -> bool
val has_type_right : t -> int -> bool

(** Intersection of two rights sets. *)
val restrict : t -> t -> t

val remove_type_right : t -> int -> t
val equal : t -> t -> bool

(** [subset ~of_ t] is true when [t] grants nothing that [of_] does not. *)
val subset : of_:t -> t -> bool

(** {1 Five-bit encoding}

    [to_bits] packs a rights set into 0..31, read highest, then write,
    then the three type rights, so comparing two encodings as integers
    orders them as [compare] orders the records; type-right bits past
    the three are dropped.  [of_bits] returns one of 32 prebuilt
    records and allocates nothing; it reads the low five bits only. *)

val to_bits : t -> int
val of_bits : int -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
