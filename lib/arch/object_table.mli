(** The global object descriptor table.

    One descriptor per segment: physical base and length of the data part,
    the access part, the object's hardware type, its lifetime level number,
    and the tri-color state used by the parallel garbage collector.  A
    descriptor is named by its index; its fields are columns read and
    written through the accessors below.

    [payload] is an extensible variant through which the kernel attaches
    interpreted state to system objects without the architecture layer
    depending on the kernel. *)

type color = White | Gray | Black

type payload = ..

type t

val create : ?initial_capacity:int -> unit -> t

(** The index itself, once valid.  Raises [Fault Invalid_descriptor] for
    a free or out-of-range index. *)
val lookup : t -> int -> int

(** [lookup] of the descriptor's index. *)
val lookup_access : t -> Access.t -> int

val is_valid : t -> int -> bool

(** The physical address of byte [offset] of the data part [access]
    names, after a data access's checks in the 432's order, each raising
    its fault: a valid descriptor, the read (or, with [write], the write)
    right, the segment present, and [len] bytes at [offset] inside the
    data part.  A write marks the data part dirty.  Reads each of the
    descriptor's words once. *)
val data_address :
  t -> Access.t -> write:bool -> offset:int -> len:int -> int

(** Most access descriptors one object's access part may hold. *)
val max_access_length : int

(** Low-level descriptor allocation; normally reached through {!Sro.allocate}.
    Data part is limited to 64 KB, per the architecture; the access part
    to {!max_access_length} descriptors; the level and a [Custom] id to
    what {!set_level} and {!set_otype} accept.  Returns the new
    descriptor's index, gray (allocate-gray, §8.1). *)
val allocate_entry :
  t ->
  otype:Obj_type.t ->
  base:int ->
  data_length:int ->
  access_length:int ->
  level:int ->
  sro:int ->
  int

(** Frees the descriptor; its index is the next one allocated (LIFO).
    Raises as {!lookup} does. *)
val free_entry : t -> int -> unit

(** GC write barrier: shade the object gray if it is white. *)
val shade : t -> int -> unit

(** Number of barrier shadings since creation. *)
val barrier_shades : t -> int

(** The valid indices in increasing order, over the span {!capacity} had
    when the walk began; [f] may allocate and free. *)
val iter_valid : (int -> unit) -> t -> unit

val count_valid : t -> int

(** [initial_capacity], doubled each time allocation reached it.  Storage
    grows in chunks as indices are first used, not with this figure. *)
val capacity : t -> int

(** {1 Descriptor fields}

    Each takes an index {!lookup} has validated (or {!allocate_entry}
    returned) and reads or writes that descriptor's field; none checks
    validity.  A freed descriptor reads as the vacant one: invalid,
    [Generic], level 0, white, base and length 0, SRO and links -1, an
    empty access part and no payload. *)

val otype : t -> int -> Obj_type.t

(** [Obj_type.equal (otype t i) ty], without building a [Custom]. *)
val has_otype : t -> int -> Obj_type.t -> bool

(** Raises [Invalid_argument] on a [Custom] id that does not fit the
    descriptor (negative, or past 2{^34} - 10). *)
val set_otype : t -> int -> Obj_type.t -> unit

val base : t -> int -> int
val set_base : t -> int -> int -> unit
val data_length : t -> int -> int

(** Raises [Invalid_argument] past 17 bits. *)
val set_data_length : t -> int -> int -> unit

val access_part : t -> int -> Access.t option array

(** Lifetime level number, 0 = global (§5). *)
val level : t -> int -> int

(** Raises [Invalid_argument] on a negative level or one of 2{^24} or
    more; so does {!allocate_entry}. *)
val set_level : t -> int -> int -> unit

(** Tri-color state for the on-the-fly GC (§8.1). *)
val color : t -> int -> color

val set_color : t -> int -> color -> unit

(** Index of the allocating SRO, -1 for primal objects. *)
val sro : t -> int -> int

(** Used by the swapping memory manager (§6.2). *)
val swapped_out : t -> int -> bool

val set_swapped_out : t -> int -> bool -> unit

(** Data part written since the last swap transfer. *)
val dirty : t -> int -> bool

val set_dirty : t -> int -> bool -> unit
val payload : t -> int -> payload option
val set_payload : t -> int -> payload option -> unit

(** Neighbours on the allocating SRO's live-object list, -1 = none.
    Only {!Sro} writes them. *)
val sro_prev : t -> int -> int

val set_sro_prev : t -> int -> int -> unit
val sro_next : t -> int -> int
val set_sro_next : t -> int -> int -> unit

(** {1 Per-table kernel counters}

    These live on the table rather than in module globals so independent
    machines — cluster nodes stepped on different OCaml domains — never
    share mutable state.  A fresh table always starts from the same
    values, which checkpoint-by-replay relies on. *)

(** Next Custom type id for {!Type_def} ([0, 1, 2, ...] per table). *)
val fresh_typedef_id : t -> int

(** The destruction-filter port for process objects (paper §8.2), which
    have a hardware type and hence no type-definition object to carry the
    registration. *)
val set_process_filter_port : t -> int option -> unit

val process_filter_port : t -> int option
