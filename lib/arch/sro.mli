(** Storage resource objects (SROs).

    An SRO describes free memory and allocates segments at a fixed lifetime
    level: a level-0 SRO is a global heap, whose objects are reclaimed one
    at a time (by the collector or an explicit release); a deeper-level
    SRO is a local heap whose entire population can be destroyed in bulk
    when the SRO dies, because the level rule guarantees no reference
    escaped.

    The allocate right is {!Rights.t1} on the SRO's access descriptor. *)

(** Create an SRO governing physical region [base, base+length) that creates
    objects at [level].  Returns a full-rights access to the SRO. *)
val create :
  Object_table.t -> level:int -> base:int -> length:int -> Access.t

(** The create-object instruction: allocate a segment and its descriptor.
    Raises [Fault Storage_exhausted] when no free region fits, and
    [Fault Rights_violation] without the allocate right. *)
val allocate :
  Object_table.t ->
  Access.t ->
  data_length:int ->
  access_length:int ->
  otype:Obj_type.t ->
  Access.t

(** Return one object (by table index) to the SRO that created it. *)
val release_by_access : Object_table.t -> Access.t -> index:int -> unit

(** Carve a child SRO from this SRO's free store — the tree structure of
    §5.  Destroying the parent cascades to children, so a child is a
    local heap: [~level:0] raises [Fault Protocol]. *)
val create_child : Object_table.t -> Access.t -> level:int -> bytes:int -> Access.t

(** Raises [Fault Protocol] if the SRO is a global heap (level 0), which
    is never destroyed: its objects are reclaimed one at a time, by the
    collector, and it keeps no list of them. *)
val check_local : Object_table.t -> Access.t -> unit

(** Destroy a local heap: bulk-free every object it created (cascading
    through child SROs), then the SRO itself.  Returns the number of
    objects reclaimed across the subtree.  Raises as {!check_local} on a
    global heap. *)
val destroy : Object_table.t -> Access.t -> int

val child_count : Object_table.t -> Access.t -> int

val free_bytes : Object_table.t -> Access.t -> int
val level : Object_table.t -> Access.t -> int
val alloc_count : Object_table.t -> Access.t -> int
val live_objects : Object_table.t -> Access.t -> int
val is_live : Object_table.t -> Access.t -> bool
val largest_free : Object_table.t -> Access.t -> int
val region_count : Object_table.t -> Access.t -> int

(**/**)

(* Exposed for the collector's sweep, which frees garbage through the
   owning SRO without holding a user access descriptor. *)
type state

type Object_table.payload += Sro_state of state

val release : Object_table.t -> sro_state:state -> index:int -> unit
val state_of : Object_table.t -> Access.t -> state

(* Swapper support: locate the owning SRO of an object, donate a reclaimed
   physical frame to a free store, and carve a raw frame from one. *)
val state_of_object : Object_table.t -> index:int -> state option
val donate : Object_table.t -> sro_state:state -> base:int -> length:int -> unit
val carve : Object_table.t -> sro_state:state -> size:int -> int option
