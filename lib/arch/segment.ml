(* Checked segment access: every data or access-part operation goes through
   an access descriptor and is validated for rights, bounds, type, level,
   and presence (swapped-out segments fault so the swapping memory manager
   can intervene, paper §6.2). *)

let need_read table (access : Access.t) =
  let i = Object_table.lookup_access table access in
  if not (Access.rights access).Rights.read then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "read"; held = Access.rights access });
  if Object_table.swapped_out table i then
    Fault.raise_fault (Fault.Segment_swapped_out i);
  i

let need_write table (access : Access.t) =
  let i = Object_table.lookup_access table access in
  if not (Access.rights access).Rights.write then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "write"; held = Access.rights access });
  if Object_table.swapped_out table i then
    Fault.raise_fault (Fault.Segment_swapped_out i);
  i

let check_access_bounds part slot =
  if slot < 0 || slot >= Array.length part then
    Fault.raise_fault
      (Fault.Bounds
         { part = "access"; offset = slot; length = Array.length part })

(* Data part: [Object_table.data_address] runs the same checks, in the
   same order, and a write marks the data part dirty for the swapper. *)

let readable table access offset len =
  Object_table.data_address table access ~write:false ~offset ~len

let writable table access offset len =
  Object_table.data_address table access ~write:true ~offset ~len

let read_u8 table memory access ~offset =
  Memory.read_u8 memory (readable table access offset 1)

let write_u8 table memory access ~offset v =
  Memory.write_u8 memory (writable table access offset 1) v

let read_u16 table memory access ~offset =
  Memory.read_u16 memory (readable table access offset 2)

let write_u16 table memory access ~offset v =
  Memory.write_u16 memory (writable table access offset 2) v

let read_i32 table memory access ~offset =
  Memory.read_i32 memory (readable table access offset 4)

let write_i32 table memory access ~offset v =
  Memory.write_i32 memory (writable table access offset 4) v

let read_bytes table memory access ~offset ~len =
  Memory.blit_to_bytes memory ~src_addr:(readable table access offset len) ~len

let write_bytes table memory access ~offset src =
  Memory.blit_from_bytes memory ~src
    ~dst_addr:(writable table access offset (Bytes.length src))

(* Access part *)

let load_access table access ~slot =
  let part = Object_table.access_part table (need_read table access) in
  check_access_bounds part slot;
  part.(slot)

(* Storing an access descriptor enforces the level rule of §5 ("an access
   for an object may never be stored into an object with a lower (more
   global) level number") and runs the GC gray-bit barrier of §8.1. *)
let store_access table access ~slot stored =
  let i = need_write table access in
  let part = Object_table.access_part table i in
  check_access_bounds part slot;
  (match stored with
  | None -> ()
  | Some a ->
    let target = Object_table.lookup_access table a in
    let stored_level = Object_table.level table target
    and target_level = Object_table.level table i in
    if stored_level > target_level then
      Fault.raise_fault (Fault.Level_violation { stored_level; target_level });
    Object_table.shade table (Access.index a));
  part.(slot) <- stored

(* Metadata available to any holder of a descriptor (no rights needed: the
   432 exposes type and length through inspection instructions). *)

let field get table access = get table (Object_table.lookup_access table access)
let otype table access = field Object_table.otype table access
let level table access = field Object_table.level table access
let data_length table access = field Object_table.data_length table access

let access_length table access =
  Array.length (field Object_table.access_part table access)

let check_type table access expected =
  let i = Object_table.lookup_access table access in
  if not (Object_table.has_otype table i expected) then
    Fault.raise_fault
      (Fault.Type_mismatch { expected; actual = Object_table.otype table i })
