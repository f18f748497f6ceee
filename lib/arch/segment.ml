(* Checked segment access: every data or access-part operation goes through
   an access descriptor and is validated for rights, bounds, type, level,
   and presence (swapped-out segments fault so the swapping memory manager
   can intervene, paper §6.2). *)

let need_read table (access : Access.t) =
  let e = Object_table.entry_of_access table access in
  if not access.Access.rights.Rights.read then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "read"; held = Access.rights access });
  if e.Object_table.swapped_out then
    Fault.raise_fault (Fault.Segment_swapped_out e.Object_table.index);
  e

let need_write table (access : Access.t) =
  let e = Object_table.entry_of_access table access in
  if not access.Access.rights.Rights.write then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "write"; held = Access.rights access });
  if e.Object_table.swapped_out then
    Fault.raise_fault (Fault.Segment_swapped_out e.Object_table.index);
  e

let check_data_bounds (e : Object_table.entry) offset len =
  if offset < 0 || len < 0 || offset + len > e.data_length then
    Fault.raise_fault
      (Fault.Bounds { part = "data"; offset; length = e.data_length })

let check_access_bounds (e : Object_table.entry) slot =
  if slot < 0 || slot >= Array.length e.access_part then
    Fault.raise_fault
      (Fault.Bounds
         { part = "access"; offset = slot; length = Array.length e.access_part })

(* Data part *)

let read_u8 table memory access ~offset =
  let e = need_read table access in
  check_data_bounds e offset 1;
  Memory.read_u8 memory (e.base + offset)

let write_u8 table memory access ~offset v =
  let e = need_write table access in
  check_data_bounds e offset 1;
  e.Object_table.dirty <- true;
  Memory.write_u8 memory (e.base + offset) v

let read_u16 table memory access ~offset =
  let e = need_read table access in
  check_data_bounds e offset 2;
  Memory.read_u16 memory (e.base + offset)

let write_u16 table memory access ~offset v =
  let e = need_write table access in
  check_data_bounds e offset 2;
  e.Object_table.dirty <- true;
  Memory.write_u16 memory (e.base + offset) v

let read_i32 table memory access ~offset =
  let e = need_read table access in
  check_data_bounds e offset 4;
  Memory.read_i32 memory (e.base + offset)

let write_i32 table memory access ~offset v =
  let e = need_write table access in
  check_data_bounds e offset 4;
  e.Object_table.dirty <- true;
  Memory.write_i32 memory (e.base + offset) v

let read_bytes table memory access ~offset ~len =
  let e = need_read table access in
  check_data_bounds e offset len;
  Memory.blit_to_bytes memory ~src_addr:(e.base + offset) ~len

let write_bytes table memory access ~offset src =
  let e = need_write table access in
  check_data_bounds e offset (Bytes.length src);
  e.Object_table.dirty <- true;
  Memory.blit_from_bytes memory ~src ~dst_addr:(e.base + offset)

(* Access part *)

let load_access table access ~slot =
  let e = need_read table access in
  check_access_bounds e slot;
  e.access_part.(slot)

(* Storing an access descriptor enforces the level rule of §5 ("an access
   for an object may never be stored into an object with a lower (more
   global) level number") and runs the GC gray-bit barrier of §8.1. *)
let store_access table access ~slot stored =
  let e = need_write table access in
  check_access_bounds e slot;
  (match stored with
  | None -> ()
  | Some a ->
    let target = Object_table.entry_of_access table a in
    if target.Object_table.level > e.Object_table.level then
      Fault.raise_fault
        (Fault.Level_violation
           {
             stored_level = target.Object_table.level;
             target_level = e.Object_table.level;
           });
    Object_table.shade table (Access.index a));
  e.access_part.(slot) <- stored

(* Metadata available to any holder of a descriptor (no rights needed: the
   432 exposes type and length through inspection instructions). *)

let otype table access = (Object_table.entry_of_access table access).otype
let level table access = (Object_table.entry_of_access table access).level

let data_length table access =
  (Object_table.entry_of_access table access).data_length

let access_length table access =
  Array.length (Object_table.entry_of_access table access).access_part

let check_type table access expected =
  let actual = otype table access in
  if not (Obj_type.equal actual expected) then
    Fault.raise_fault (Fault.Type_mismatch { expected; actual })
