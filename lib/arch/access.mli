(** Access descriptors — the 432's capabilities.

    An access descriptor names an object-table entry and carries rights.
    Rights can only be restricted through this interface; amplification is
    the privilege of the type manager (see {!Type_def.amplify}).

    A descriptor is one immediate word (the index above the five bits of
    {!Rights.to_bits}), so storing one allocates nothing and pays no
    write barrier, and [compare] orders descriptors by index, then by
    rights as [compare] orders {!Rights.t}. *)

type t [@@immediate]

(** Largest encodable object-table index. *)
val max_index : int

(** Raises [Invalid_argument] on a negative index or one past
    {!max_index}. *)
val make : index:int -> rights:Rights.t -> t

val index : t -> int

(** One of {!Rights.of_bits}'s prebuilt records: allocates nothing. *)
val rights : t -> Rights.t

(** Intersect the descriptor's rights with the given set. *)
val restrict : t -> Rights.t -> t

val read_only : t -> t
val without_type_right : t -> int -> t
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
