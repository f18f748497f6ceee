(* The global object descriptor table (paper §2).

   "Access descriptors or capabilities name entries in a global object
   descriptor table.  Each object descriptor in this table describes a
   segment ...  The one object descriptor for a given segment provides the
   physical base address and length of the segment, ... what type of object
   it represents, and includes information needed for virtual memory
   management and parallel garbage collection."

   The 432's descriptors are fixed-format words, and so are these: each
   field is a column indexed by the descriptor's index, and a descriptor
   is the row of its index.
   - [meta], one int: the valid bit, the colour, the swapped and dirty
     bits, the level and the otype code (see "Meta word" below);
   - [extent], one int: the data part's base above its 17-bit length;
   - [sro]: the allocating SRO;
   - [sro_prev], [sro_next]: the neighbours on the allocating SRO's
     live list, kept only by local heaps ({!Sro});
   - [access]: the access part, an array of access descriptors (on the
     real 432 it is memory too, but it is only reachable through checked
     access instructions, so an OCaml array preserves the semantics
     exactly).  An object without one holds the shared empty array;
   - [payload]: kernel-interpreted state of system objects (ports,
     processes, processors, SROs, type definitions) as an extensible
     variant, keeping the architecture layer free of kernel
     dependencies.  [None] for the rest.

   Each column is a directory of chunks of [chunk_size] slots, and a
   large column is never copied to grow.  The first chunk starts at
   [initial_capacity] slots and grows once to [chunk_size], so a small
   table stays small.  [capacity] is the span the table reports:
   [initial_capacity], doubled each time allocation reaches it, as a
   table of one array per descriptor would have grown.  A free slot
   holds the vacant row (invalid, [Generic], level 0, white, no extent,
   SRO and links -1, no access part, no payload).

   The dense columns, [meta], [extent] and [sro], get a chunk of their
   own when its first index is allocated.  The sparse ones, the two
   links, [access] and [payload], are vacant for most objects (a plain
   object in a global heap has none of them), so each of their chunks
   starts as one module-level vacant chunk shared by every table, as
   {!Memory}'s untouched pages share one zero page.  Only a write of a
   non-vacant value copies it, to a chunk as long as the dense columns'
   one at that position; writing the vacant value leaves it shared.
   Nothing writes a vacant chunk, so reads need no check.  A plain
   global-heap object's row is then three words. *)

type color = White | Gray | Black

type payload = ..

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type t = {
  mutable meta : int array array;
  mutable extent : int array array;
  mutable sro : int array array;
  mutable sro_prev : int array array;
  mutable sro_next : int array array;
  mutable access : Access.t option array array array;
  mutable payload : payload option array array;
  mutable free : int array;  (* recycled indices, a LIFO stack... *)
  mutable free_top : int;  (* ... of this many *)
  mutable next : int;  (* high-water mark *)
  mutable capacity : int;
  mutable live : int;  (* valid entries, maintained incrementally *)
  mutable barrier_shades : int;  (* gray-bit settings performed (§8.1) *)
  mutable next_typedef_id : int;
      (* Custom type ids handed out by Type_def.create.  Per-table (not a
         module global) so machines on different OCaml domains never share
         a counter: type identity is a per-machine notion, a fresh table
         always numbers its types from 0 (checkpoint replay relies on
         this), and the parallel cluster engine stays bit-identical to the
         sequential one. *)
  mutable process_filter_port : int option;
      (* The destruction-filter port for process objects (paper §8.2).
         Process objects have a hardware type, so there is no
         type-definition object to hang the registration on; it lives
         here, per machine, for the same domain-safety reason. *)
}

(* Meta word: bit 0 valid; bits 1-2 the colour (0 white, 1 gray,
   2 black); bit 3 swapped out; bit 4 dirty; the next [level_bits] the
   level; the bits above them the otype code, 0-8 for the hardware
   types in declaration order and 9 + id for [Custom id].  The vacant
   row's meta word is 0. *)

let valid_bit = 0b1
let color_shift = 1
let color_field = 0b11 lsl color_shift
let swapped_bit = 0b1000
let dirty_bit = 0b10000
let level_shift = 5
let level_bits = 24
let max_level = (1 lsl level_bits) - 1
let otype_shift = level_shift + level_bits
let custom_code = 9
let max_custom_id = (1 lsl (Sys.int_size - otype_shift)) - 1 - custom_code

let otype_code = function
  | Obj_type.Generic -> 0
  | Obj_type.Processor -> 1
  | Obj_type.Process -> 2
  | Obj_type.Port -> 3
  | Obj_type.Dispatching_port -> 4
  | Obj_type.Storage_resource -> 5
  | Obj_type.Domain -> 6
  | Obj_type.Context -> 7
  | Obj_type.Type_definition -> 8
  | Obj_type.Custom id ->
    if id < 0 || id > max_custom_id then
      invalid_arg "Object_table: custom type id out of range";
    custom_code + id

let hardware_types =
  Obj_type.
    [|
      Generic; Processor; Process; Port; Dispatching_port; Storage_resource;
      Domain; Context; Type_definition;
    |]

let otype_of_code code =
  if code < custom_code then hardware_types.(code)
  else Obj_type.Custom (code - custom_code)

let color_code = function White -> 0 | Gray -> 1 | Black -> 2

let color_of_code = function 0 -> White | 1 -> Gray | _ -> Black

let check_level level =
  if level < 0 || level > max_level then
    invalid_arg "Object_table: level out of range"

(* Extent word: the base above the data length, which needs 17 bits
   (a data part holds up to 64 KB inclusive). *)

let length_bits = 17
let length_mask = (1 lsl length_bits) - 1

(* Columns.  Every getter and setter takes an index below the high-water
   mark; past the slots allocated, the directory's or an owned chunk's
   bounds check raises (a vacant chunk is full length). *)

let[@inline] get (dir : int array array) i =
  dir.(i lsr chunk_bits).(i land chunk_mask)

let[@inline] set (dir : int array array) i v =
  dir.(i lsr chunk_bits).(i land chunk_mask) <- v

(* The shared vacant chunks of the sparse columns.  Full length, so
   any slot of a chunk reads the vacant value; never written. *)
let vacant_links = Array.make chunk_size (-1)
let vacant_access : Access.t option array array = Array.make chunk_size [||]
let vacant_payload : payload option array = Array.make chunk_size None

let grown chunk fill =
  let bigger = Array.make chunk_size fill in
  Array.blit chunk 0 bigger 0 (Array.length chunk);
  bigger

let create ?(initial_capacity = 256) () =
  if initial_capacity <= 0 then invalid_arg "Object_table.create";
  let column fill = [| Array.make (min chunk_size initial_capacity) fill |] in
  {
    meta = column 0;
    extent = column 0;
    sro = column (-1);
    sro_prev = [| vacant_links |];
    sro_next = [| vacant_links |];
    access = [| vacant_access |];
    payload = [| vacant_payload |];
    free = [||];
    free_top = 0;
    next = 0;
    capacity = initial_capacity;
    live = 0;
    barrier_shades = 0;
    next_typedef_id = 0;
    process_filter_port = None;
  }

let fresh_typedef_id t =
  let id = t.next_typedef_id in
  t.next_typedef_id <- id + 1;
  id

let set_process_filter_port t port = t.process_filter_port <- port
let process_filter_port t = t.process_filter_port

let slots t =
  let n = Array.length t.meta in
  ((n - 1) * chunk_size) + Array.length t.meta.(n - 1)

(* Room for one more slot: a first chunk smaller than [chunk_size]
   grows to it, then each growth adds a full chunk.  A sparse column
   adds the vacant chunk, and grows a first chunk only if it owns it. *)
let grow t =
  let last = Array.length t.meta - 1 in
  let append = Array.length t.meta.(last) = chunk_size in
  let dense dir fill =
    if append then Array.append dir [| Array.make chunk_size fill |]
    else begin
      dir.(last) <- grown dir.(last) fill;
      dir
    end
  in
  let sparse dir vacant =
    if append then Array.append dir [| vacant |]
    else begin
      if dir.(last) != vacant then dir.(last) <- grown dir.(last) vacant.(0);
      dir
    end
  in
  t.meta <- dense t.meta 0;
  t.extent <- dense t.extent 0;
  t.sro <- dense t.sro (-1);
  t.sro_prev <- sparse t.sro_prev vacant_links;
  t.sro_next <- sparse t.sro_next vacant_links;
  t.access <- sparse t.access vacant_access;
  t.payload <- sparse t.payload vacant_payload

(* A write to a sparse column.  A vacant value needs no slot of its
   own; any other value first copies a vacant chunk to one this table
   owns, as long as the dense columns' chunk at that position.  A
   vacant value is an immediate (-1, [None]) or the one empty array,
   so [!=] tells any other value from it. *)
let[@inline] set_sparse t dir vacant i v =
  let c = i lsr chunk_bits in
  let chunk = dir.(c) in
  if chunk != vacant then chunk.(i land chunk_mask) <- v
  else if v != vacant.(0) then begin
    let own = Array.make (Array.length t.meta.(c)) vacant.(0) in
    dir.(c) <- own;
    own.(i land chunk_mask) <- v
  end

let[@inline] is_valid t index =
  index >= 0 && index < t.next && get t.meta index land valid_bit <> 0

let[@inline] lookup t index =
  if is_valid t index then index
  else Fault.raise_fault (Fault.Invalid_descriptor index)

let[@inline] lookup_access t (access : Access.t) = lookup t (Access.index access)

(* Fields.  [lookup] validates; these read and write the row. *)

let[@inline] otype t i = otype_of_code (get t.meta i lsr otype_shift)
let[@inline] has_otype t i ty =
  let code = get t.meta i lsr otype_shift in
  match ty with
  | Obj_type.Custom id -> code >= custom_code && code - custom_code = id
  | _ -> code = otype_code ty

let set_otype t i ty =
  let code = otype_code ty in
  set t.meta i
    (get t.meta i land ((1 lsl otype_shift) - 1) lor (code lsl otype_shift))

let[@inline] level t i = (get t.meta i lsr level_shift) land max_level

let set_level t i level =
  check_level level;
  set t.meta i
    (get t.meta i land lnot (max_level lsl level_shift)
    lor (level lsl level_shift))

let[@inline] color t i =
  color_of_code ((get t.meta i land color_field) lsr color_shift)

let set_color t i c =
  set t.meta i
    (get t.meta i land lnot color_field lor (color_code c lsl color_shift))

let[@inline] flag t i bit = get t.meta i land bit <> 0

let[@inline] set_flag t i bit on =
  let m = get t.meta i in
  set t.meta i (if on then m lor bit else m land lnot bit)

let[@inline] swapped_out t i = flag t i swapped_bit
let[@inline] set_swapped_out t i on = set_flag t i swapped_bit on
let[@inline] dirty t i = flag t i dirty_bit
let[@inline] set_dirty t i on = set_flag t i dirty_bit on
let[@inline] base t i = get t.extent i asr length_bits
let[@inline] data_length t i = get t.extent i land length_mask

let set_base t i base =
  set t.extent i ((base lsl length_bits) lor data_length t i)

let set_data_length t i len =
  if len < 0 || len > length_mask then
    invalid_arg "Object_table: data length out of range";
  set t.extent i (get t.extent i land lnot length_mask lor len)

(* The checks of {!Segment}'s data accesses, reading the meta and extent
   words once each: through one accessor per field, a run of small reads
   and writes took a quarter more host time than with descriptor
   records. *)
let data_address t (access : Access.t) ~write ~offset ~len =
  let i = Access.index access in
  let chunk = i lsr chunk_bits and slot = i land chunk_mask in
  let m = if i < t.next then t.meta.(chunk).(slot) else 0 in
  if m land valid_bit = 0 then Fault.raise_fault (Fault.Invalid_descriptor i);
  let held = Access.rights access in
  if not (if write then held.Rights.write else held.Rights.read) then
    Fault.raise_fault
      (Fault.Rights_violation
         { needed = (if write then "write" else "read"); held });
  if m land swapped_bit <> 0 then
    Fault.raise_fault (Fault.Segment_swapped_out i);
  let e = t.extent.(chunk).(slot) in
  let length = e land length_mask in
  if offset < 0 || len < 0 || offset + len > length then
    Fault.raise_fault (Fault.Bounds { part = "data"; offset; length });
  if write then t.meta.(chunk).(slot) <- m lor dirty_bit;
  (e asr length_bits) + offset

let[@inline] access_part t i = t.access.(i lsr chunk_bits).(i land chunk_mask)
let[@inline] sro t i = get t.sro i
let[@inline] sro_prev t i = get t.sro_prev i
let[@inline] set_sro_prev t i v = set_sparse t t.sro_prev vacant_links i v
let[@inline] sro_next t i = get t.sro_next i
let[@inline] set_sro_next t i v = set_sparse t t.sro_next vacant_links i v
let[@inline] payload t i = t.payload.(i lsr chunk_bits).(i land chunk_mask)

let[@inline] set_payload t i p = set_sparse t t.payload vacant_payload i p

let max_access_length = 0x4000

let allocate_entry t ~otype ~base ~data_length ~access_length ~level ~sro =
  if data_length < 0 || data_length > 0x10000 then
    invalid_arg "Object_table: data part exceeds 64K";
  if access_length < 0 || access_length > max_access_length then
    invalid_arg "Object_table: access part too large";
  check_level level;
  let code = otype_code otype in
  let index =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      let i = t.next in
      if i >= t.capacity then t.capacity <- 2 * t.capacity;
      if i >= slots t then grow t;
      t.next <- i + 1;
      i
    end
  in
  (* Allocate-gray: a fresh object survives the collection cycle in
     progress, giving the mutator time to make it reachable (the
     standard allocate-black discipline for on-the-fly collectors). *)
  set t.meta index
    (valid_bit
    lor (color_code Gray lsl color_shift)
    lor (level lsl level_shift)
    lor (code lsl otype_shift));
  set t.extent index ((base lsl length_bits) lor data_length);
  set t.sro index sro;
  (* A vacant row already holds no links, no access part and no
     payload. *)
  if access_length > 0 then
    set_sparse t t.access vacant_access index (Array.make access_length None);
  t.live <- t.live + 1;
  index

let free_entry t index =
  let i = lookup t index in
  set t.meta i 0;
  set t.extent i 0;
  set t.sro i (-1);
  set_sro_prev t i (-1);
  set_sro_next t i (-1);
  (* An access part or a payload is in a chunk the table owns. *)
  let chunk = i lsr chunk_bits and slot = i land chunk_mask in
  if Array.length t.access.(chunk).(slot) > 0 then
    t.access.(chunk).(slot) <- [||];
  if Option.is_some t.payload.(chunk).(slot) then
    t.payload.(chunk).(slot) <- None;
  if t.free_top = Array.length t.free then begin
    let bigger = Array.make (max 16 (2 * t.free_top)) 0 in
    Array.blit t.free 0 bigger 0 t.free_top;
    t.free <- bigger
  end;
  t.free.(t.free_top) <- i;
  t.free_top <- t.free_top + 1;
  t.live <- t.live - 1

(* The write barrier of the Dijkstra on-the-fly collector: the hardware sets
   the gray bit "whenever access descriptors are moved" (§8.1). *)
let shade t index =
  if is_valid t index then begin
    let m = get t.meta index in
    if m land color_field = 0 then begin
      set t.meta index (m lor (color_code Gray lsl color_shift));
      t.barrier_shades <- t.barrier_shades + 1
    end
  end

let barrier_shades t = t.barrier_shades

(* Index order over the span the table had when the walk began, as a
   walk over one array of descriptors would have gone. *)
let iter_valid f t =
  let n = t.capacity in
  for i = 0 to n - 1 do
    if is_valid t i then f i
  done

let count_valid t = t.live

let capacity t = t.capacity
