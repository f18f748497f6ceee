(* The global object descriptor table (paper §2).

   "Access descriptors or capabilities name entries in a global object
   descriptor table.  Each object descriptor in this table describes a
   segment ...  The one object descriptor for a given segment provides the
   physical base address and length of the segment, ... what type of object
   it represents, and includes information needed for virtual memory
   management and parallel garbage collection."

   The data part of a segment lives in Memory; the access part is an array
   of access descriptors held directly in the descriptor entry (on the real
   432 it is memory too, but it is only reachable through checked access
   instructions, so an OCaml array preserves the semantics exactly).

   [payload] attaches kernel-interpreted state to system objects (ports,
   processes, processors, SROs, type definitions) via an extensible
   variant, keeping the architecture layer free of kernel dependencies. *)

type color = White | Gray | Black

type payload = ..

type entry = {
  index : int;
  mutable valid : bool;
  mutable otype : Obj_type.t;
  mutable base : int;  (* physical base address of the data part *)
  mutable data_length : int;
  mutable access_part : Access.t option array;
  mutable level : int;  (* lifetime level number, 0 = global (§5) *)
  mutable color : color;  (* tri-color state for the on-the-fly GC (§8.1) *)
  mutable sro : int;  (* index of the allocating SRO, -1 for primal objects *)
  mutable swapped_out : bool;  (* used by the swapping memory manager (§6.2) *)
  mutable dirty : bool;  (* data part written since the last swap transfer *)
  mutable payload : payload option;
  mutable sro_prev : int;  (* neighbours on the allocating SRO's live list, *)
  mutable sro_next : int;  (* -1 = none; written only by Sro *)
}

type t = {
  mutable entries : entry array;  (* [vacant] in every free slot *)
  mutable free : int list;  (* recycled descriptor indices (LIFO pool) *)
  mutable next : int;  (* high-water mark *)
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

(* The one occupant of every free slot.  It is never valid, so [lookup]
   rejects it, and nothing writes it: it is shared by every table. *)
let vacant =
  {
    index = -1;
    valid = false;
    otype = Obj_type.Generic;
    base = 0;
    data_length = 0;
    access_part = [||];
    level = 0;
    color = White;
    sro = -1;
    swapped_out = false;
    dirty = false;
    payload = None;
    sro_prev = -1;
    sro_next = -1;
  }

let create ?(initial_capacity = 256) () =
  if initial_capacity <= 0 then invalid_arg "Object_table.create";
  {
    entries = Array.make initial_capacity vacant;
    free = [];
    next = 0;
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

let grow t =
  let n = Array.length t.entries in
  let bigger = Array.make (2 * n) vacant in
  Array.blit t.entries 0 bigger 0 n;
  t.entries <- bigger

let lookup t index =
  if index < 0 || index >= Array.length t.entries then
    Fault.raise_fault (Fault.Invalid_descriptor index);
  let e = Array.unsafe_get t.entries index in
  if e.valid then e else Fault.raise_fault (Fault.Invalid_descriptor index)

let entry_of_access t (access : Access.t) = lookup t access.Access.index

let is_valid t index =
  index >= 0
  && index < Array.length t.entries
  && (Array.unsafe_get t.entries index).valid

let max_access_length = 0x4000

let allocate_entry t ~otype ~base ~data_length ~access_length ~level ~sro =
  if data_length < 0 || data_length > 0x10000 then
    invalid_arg "Object_table: data part exceeds 64K";
  if access_length < 0 || access_length > max_access_length then
    invalid_arg "Object_table: access part too large";
  let index =
    match t.free with
    | i :: rest ->
      t.free <- rest;
      i
    | [] ->
      if t.next >= Array.length t.entries then grow t;
      let i = t.next in
      t.next <- t.next + 1;
      i
  in
  let e =
    {
      vacant with
      index;
      valid = true;
      otype;
      base;
      data_length;
      access_part =
        (if access_length = 0 then [||] else Array.make access_length None);
      level;
      (* Allocate-gray: a fresh object survives the collection cycle in
         progress, giving the mutator time to make it reachable (the
         standard allocate-black discipline for on-the-fly collectors). *)
      color = Gray;
      sro;
    }
  in
  t.entries.(index) <- e;
  t.live <- t.live + 1;
  e

let free_entry t index =
  let e = lookup t index in
  e.valid <- false;
  e.payload <- None;
  e.access_part <- [||];
  t.entries.(index) <- vacant;
  t.free <- index :: t.free;
  t.live <- t.live - 1

(* The write barrier of the Dijkstra on-the-fly collector: the hardware sets
   the gray bit "whenever access descriptors are moved" (§8.1). *)
let shade t index =
  if is_valid t index then begin
    let e = Array.unsafe_get t.entries index in
    if e.color = White then begin
      e.color <- Gray;
      t.barrier_shades <- t.barrier_shades + 1
    end
  end

let barrier_shades t = t.barrier_shades

let iter_valid f t =
  Array.iter (fun e -> if e.valid then f e) t.entries

let count_valid t = t.live

let capacity t = Array.length t.entries
