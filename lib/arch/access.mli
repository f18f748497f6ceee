(** Access descriptors — the 432's capabilities.

    An access descriptor names an object-table entry and carries rights.
    Rights can only be restricted through this interface; amplification is
    the privilege of the type manager (see {!Type_def.amplify}). *)

type t

(** Raises [Invalid_argument] on a negative index. *)
val make : index:int -> rights:Rights.t -> t

val index : t -> int
val rights : t -> Rights.t

(** Intersect the descriptor's rights with the given set. *)
val restrict : t -> Rights.t -> t

val read_only : t -> t
val without_type_right : t -> int -> t
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
