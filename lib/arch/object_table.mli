(** The global object descriptor table.

    One descriptor per segment: physical base and length of the data part,
    the access part, the object's hardware type, its lifetime level number,
    and the tri-color state used by the parallel garbage collector.

    [payload] is an extensible variant through which the kernel attaches
    interpreted state to system objects without the architecture layer
    depending on the kernel. *)

type color = White | Gray | Black

type payload = ..

type entry = {
  index : int;
  mutable valid : bool;
  mutable otype : Obj_type.t;
  mutable base : int;
  mutable data_length : int;
  mutable access_part : Access.t option array;
  mutable level : int;
  mutable color : color;
  mutable sro : int;
  mutable swapped_out : bool;
  mutable dirty : bool;
  mutable payload : payload option;
  mutable sro_prev : int;
  mutable sro_next : int;
      (** Neighbours on the allocating SRO's live-object list, -1 = none.
          Only {!Sro} writes them. *)
}

type t

val create : ?initial_capacity:int -> unit -> t

(** Raises [Fault Invalid_descriptor] for a free or out-of-range index. *)
val lookup : t -> int -> entry

val entry_of_access : t -> Access.t -> entry
val is_valid : t -> int -> bool

(** Most access descriptors one object's access part may hold. *)
val max_access_length : int

(** Low-level descriptor allocation; normally reached through {!Sro.allocate}.
    Data part is limited to 64 KB, per the architecture; the access part
    to {!max_access_length} descriptors. *)
val allocate_entry :
  t ->
  otype:Obj_type.t ->
  base:int ->
  data_length:int ->
  access_length:int ->
  level:int ->
  sro:int ->
  entry

val free_entry : t -> int -> unit

(** GC write barrier: shade the object gray if it is white. *)
val shade : t -> int -> unit

(** Number of barrier shadings since creation. *)
val barrier_shades : t -> int

val iter_valid : (entry -> unit) -> t -> unit
val count_valid : t -> int
val capacity : t -> int

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
