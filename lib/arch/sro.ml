(* Storage resource objects (paper §5).

   An SRO "describes free areas of memory and provides the information
   necessary to allocate both physical and logical address space".  Every
   SRO creates objects at a fixed level number: a level-0 SRO is a *global
   heap*; an SRO whose level corresponds to a call depth is a *local heap*
   whose objects can all be destroyed when the SRO is destroyed, because the
   level rule guarantees no reference has escaped.

   The free store is first-fit with address-ordered coalescing on free,
   held in {!I432_util.Free_store} — an augmented balanced tree whose fit
   query returns exactly what a first-fit scan of a base-sorted list would,
   in O(log regions) instead of O(regions).  A local heap's live objects
   form a doubly-linked list threaded through their own descriptors
   ({!Object_table.sro_prev}/[sro_next]), newest first, so tracking a
   new object and untracking a released one are O(1) and allocate
   nothing, and [destroy] walks only this SRO's population.  A global
   heap only counts its objects: they are reclaimed one at a time, by
   the collector's sweep (§8) or an explicit release, so it is never
   destroyed and needs no list, and its objects' link columns stay
   vacant ({!Object_table}).  Destroying a
   global heap, or carving a child at level 0, is refused.

   The SRO itself is an object in the table (type Storage_resource), so
   access to it is capability-controlled: Rights.t1 on an SRO access is the
   allocate right. *)

open I432_util

type state = {
  self : int;  (* object-table index of this SRO *)
  sro_level : int;  (* level of objects created from this SRO *)
  free_store : Free_store.t;  (* free regions, address-ordered *)
  mutable head : int;  (* a local heap's newest live object, -1 = none *)
  mutable live_count : int;  (* live objects allocated here *)
  mutable children : state list;  (* child SROs carved from this store (§5) *)
  mutable live : bool;
  mutable alloc_count : int;
  mutable free_bytes : int;
}

type Object_table.payload += Sro_state of state

let state_of table access =
  Segment.check_type table access Obj_type.Storage_resource;
  match Object_table.payload table (Object_table.lookup_access table access) with
  | Some (Sro_state s) -> s
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "SRO object has no SRO state")

let need_alloc_right access =
  if not (Rights.has_type_right (Access.rights access) Rights.t1) then
    Fault.raise_fault
      (Fault.Rights_violation
         { needed = "allocate (t1)"; held = Access.rights access })

(* Create an SRO governing [region] of physical memory, creating objects at
   [level].  [parent_level] is the level of the object holding the new SRO's
   access; the SRO object itself lives at that level. *)
let create table ~level ~base ~length =
  if length < 0 || base < 0 then invalid_arg "Sro.create: region";
  let self =
    Object_table.allocate_entry table ~otype:Obj_type.Storage_resource ~base:0
      ~data_length:0 ~access_length:8 ~level ~sro:(-1)
  in
  let free_store = Free_store.create () in
  Free_store.insert free_store ~base ~length;
  let s =
    {
      self;
      sro_level = level;
      free_store;
      head = -1;
      live_count = 0;
      children = [];
      live = true;
      alloc_count = 0;
      free_bytes = length;
    }
  in
  Object_table.set_payload table self (Some (Sro_state s));
  Access.make ~index:self ~rights:Rights.full

let check_live s = if not s.live then Fault.raise_fault Fault.Sro_destroyed

let total_free s = Free_store.total s.free_store

(* First-fit carve from the free store. *)
let take_region s size =
  match Free_store.take_first_fit s.free_store ~size with
  | -1 ->
    Fault.raise_fault
      (Fault.Storage_exhausted { requested = size; available = total_free s })
  | base -> base

(* Return a region to the store, coalescing with adjacent neighbours. *)
let give_region s ~base ~length = Free_store.insert s.free_store ~base ~length

let is_global s = s.sro_level = 0

let track_allocated table s index =
  if not (is_global s) then begin
    if s.head >= 0 then
      Object_table.set_sro_prev table (Object_table.lookup table s.head) index;
    Object_table.set_sro_next table index s.head;
    s.head <- index
  end;
  s.live_count <- s.live_count + 1

let untrack_allocated table s index =
  if not (is_global s) then begin
    let prev = Object_table.sro_prev table index
    and next = Object_table.sro_next table index in
    if prev >= 0 then
      Object_table.set_sro_next table (Object_table.lookup table prev) next
    else s.head <- next;
    if next >= 0 then
      Object_table.set_sro_prev table (Object_table.lookup table next) prev
  end;
  s.live_count <- s.live_count - 1

(* The create-object instruction: carve a data part from the free store and
   allocate a descriptor.  Takes ~80 us of virtual time, charged by the
   caller via Timings.allocate_ns. *)
let allocate table access ~data_length ~access_length ~otype =
  need_alloc_right access;
  let s = state_of table access in
  check_live s;
  if data_length < 0 || data_length > 0x10000 then
    invalid_arg "Sro.allocate: data part exceeds 64K";
  let base = if data_length = 0 then 0 else take_region s data_length in
  let index =
    Object_table.allocate_entry table ~otype ~base ~data_length ~access_length
      ~level:s.sro_level ~sro:s.self
  in
  track_allocated table s index;
  s.alloc_count <- s.alloc_count + 1;
  s.free_bytes <- s.free_bytes - data_length;
  Access.make ~index ~rights:Rights.full

(* Return one object's storage to its SRO and invalidate its descriptor.
   Used by the garbage collector's sweep and by explicit destruction. *)
let release table ~sro_state:s ~index =
  let index = Object_table.lookup table index in
  if Object_table.sro table index <> s.self then
    Fault.raise_fault (Fault.Protocol "object released to foreign SRO");
  let length = Object_table.data_length table index in
  give_region s ~base:(Object_table.base table index) ~length;
  s.free_bytes <- s.free_bytes + length;
  untrack_allocated table s index;
  Object_table.free_entry table index

let release_by_access table access ~index =
  let s = state_of table access in
  check_live s;
  release table ~sro_state:s ~index

(* Find the SRO state governing an arbitrary object, if its allocating SRO
   is still alive.  Used by the swapper and the collector. *)
let state_of_object table ~index =
  let sro_index = Object_table.sro table (Object_table.lookup table index) in
  if sro_index >= 0 && Object_table.is_valid table sro_index then
    match Object_table.payload table sro_index with
    | Some (Sro_state s) -> Some s
    | Some _ | None -> None
  else None

(* Donate a physical region to the SRO's free store (used by the swapper
   when it reclaims a resident segment's frame). *)
let donate (_ : Object_table.t) ~sro_state:s ~base ~length =
  give_region s ~base ~length;
  s.free_bytes <- s.free_bytes + length

(* Carve a raw region from the free store without creating a descriptor
   (used by the swapper to find a frame for a segment being brought in). *)
let carve (_ : Object_table.t) ~sro_state:s ~size =
  match Free_store.take_first_fit s.free_store ~size with
  | -1 -> None
  | base ->
    s.free_bytes <- s.free_bytes - size;
    Some base

(* Create a child SRO whose store is carved from this SRO's free regions —
   §5's "uniform tree structure encompassing both processes and storage
   resource objects".  Destroying the parent cascades to children. *)
let create_child table access ~level ~bytes =
  let s = state_of table access in
  check_live s;
  need_alloc_right access;
  if level = 0 then
    Fault.raise_fault
      (Fault.Protocol "a child SRO is a local heap: level 0 refused");
  let base = take_region s bytes in
  s.free_bytes <- s.free_bytes - bytes;
  let child = create table ~level ~base ~length:bytes in
  s.children <- state_of table child :: s.children;
  child

(* Destroy a local heap: bulk-free every object it created (§5: "objects may
   be destroyed whenever their ancestral SRO is destroyed, without leaving
   dangling references"), cascading through child SROs.  Returns how many
   objects were reclaimed across the whole subtree. *)
let rec destroy_state table s =
  (* A child destroyed on its own is no longer live; its index may since
     name another object, so the cascade follows states, not indices. *)
  let from_children =
    List.fold_left
      (fun acc child -> if child.live then acc + destroy_state table child else acc)
      0 s.children
  in
  (* Newest first: the descriptor pool is LIFO, so the oldest object's
     index is the first one the next allocation reuses. *)
  let rec free_from index =
    if index >= 0 then begin
      let index = Object_table.lookup table index in
      let next = Object_table.sro_next table index in
      give_region s ~base:(Object_table.base table index)
        ~length:(Object_table.data_length table index);
      Object_table.free_entry table index;
      free_from next
    end
  in
  free_from s.head;
  let n = s.live_count in
  s.head <- -1;
  s.live_count <- 0;
  s.children <- [];
  s.live <- false;
  Object_table.free_entry table s.self;
  n + from_children

let refuse_global s =
  if is_global s then
    Fault.raise_fault (Fault.Protocol "a global heap is never destroyed")

let check_local table access = refuse_global (state_of table access)

let destroy table access =
  let s = state_of table access in
  check_live s;
  refuse_global s;
  destroy_state table s

(* Introspection for the memory managers and benches. *)

let free_bytes table access = total_free (state_of table access)
let level table access = (state_of table access).sro_level
let alloc_count table access = (state_of table access).alloc_count
let live_objects table access = (state_of table access).live_count

let child_count table access = List.length (state_of table access).children
let is_live table access = (state_of table access).live

(* Largest single allocatable block (fragmentation indicator). *)
let largest_free table access = Free_store.largest (state_of table access).free_store

let region_count table access =
  Free_store.region_count (state_of table access).free_store
