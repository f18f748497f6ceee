(* Tests for the architecture substrate: rights, access descriptors, the
   object table, segments (bounds/rights/levels/barrier), SROs (allocation,
   coalescing, local-heap destroy), and user type definitions. *)

open I432

let mk () =
  let table = Object_table.create () in
  let memory = Memory.create ~size_bytes:(1 lsl 20) in
  let sro = Sro.create table ~level:0 ~base:0 ~length:(1 lsl 20) in
  (table, memory, sro)

let alloc ?(data = 64) ?(acc = 4) ?(otype = Obj_type.Generic) table sro =
  Sro.allocate table sro ~data_length:data ~access_length:acc ~otype

let expect_fault name pred f =
  match f () with
  | _ -> Alcotest.failf "%s: expected fault" name
  | exception Fault.Fault cause ->
    Alcotest.(check bool)
      (name ^ ": " ^ Fault.to_string cause)
      true (pred cause)

(* ---------------- Rights ---------------- *)

let test_rights_restrict () =
  let r = Rights.restrict Rights.full Rights.read_only in
  Alcotest.(check bool) "read kept" true (Rights.has_read r);
  Alcotest.(check bool) "write dropped" false (Rights.has_write r);
  Alcotest.(check bool) "type rights dropped" false
    (Rights.has_type_right r Rights.t1)

let test_rights_never_amplify () =
  let weak = Rights.read_only in
  let r = Rights.restrict weak Rights.full in
  Alcotest.(check bool) "subset of weak" true (Rights.subset ~of_:weak r)

let test_rights_remove_type_right () =
  let r = Rights.remove_type_right Rights.full Rights.t2 in
  Alcotest.(check bool) "t1 kept" true (Rights.has_type_right r Rights.t1);
  Alcotest.(check bool) "t2 gone" false (Rights.has_type_right r Rights.t2);
  Alcotest.(check bool) "t3 kept" true (Rights.has_type_right r Rights.t3)

let test_rights_to_string () =
  Alcotest.(check string) "full" "rw123" (Rights.to_string Rights.full);
  Alcotest.(check string) "none" "-----" (Rights.to_string Rights.none)

(* ---------------- Access ---------------- *)

let test_access_restrict_chain () =
  let a = Access.make ~index:3 ~rights:Rights.full in
  let b = Access.read_only a in
  Alcotest.(check int) "index preserved" 3 (Access.index b);
  Alcotest.(check bool) "no write" false (Rights.has_write (Access.rights b));
  let c = Access.restrict b Rights.full in
  Alcotest.(check bool) "restrict cannot re-amplify" false
    (Rights.has_write (Access.rights c))

let test_access_negative_index () =
  Alcotest.check_raises "negative" (Invalid_argument "Access.make: negative index")
    (fun () -> ignore (Access.make ~index:(-1) ~rights:Rights.full));
  (* The index shares one word with the rights bits. *)
  Alcotest.check_raises "past the word"
    (Invalid_argument "Access.make: index out of range") (fun () ->
      ignore (Access.make ~index:(Access.max_index + 1) ~rights:Rights.full));
  let top = Access.make ~index:Access.max_index ~rights:Rights.full in
  Alcotest.(check int) "largest index kept" Access.max_index (Access.index top);
  Alcotest.(check bool) "with its rights" true
    (Rights.equal Rights.full (Access.rights top))

(* ---------------- Object table ---------------- *)

let test_table_lookup_invalid () =
  let table, _, _ = mk () in
  expect_fault "invalid descriptor"
    (function Fault.Invalid_descriptor 999 -> true | _ -> false)
    (fun () -> Object_table.lookup table 999)

let test_table_free_then_lookup () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  Object_table.free_entry table (Access.index a);
  expect_fault "freed descriptor"
    (function Fault.Invalid_descriptor _ -> true | _ -> false)
    (fun () -> Object_table.lookup table (Access.index a))

let test_table_index_recycling () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  let i = Access.index a in
  Object_table.free_entry table i;
  let b = alloc table sro in
  Alcotest.(check int) "index recycled" i (Access.index b)

let test_table_growth () =
  let table = Object_table.create ~initial_capacity:2 () in
  let sro = Sro.create table ~level:0 ~base:0 ~length:(1 lsl 18) in
  for _ = 1 to 100 do
    ignore (alloc ~data:8 ~acc:0 table sro)
  done;
  Alcotest.(check bool) "grew" true (Object_table.capacity table >= 101);
  Alcotest.(check int) "valid count" 101 (Object_table.count_valid table)

let test_table_data_part_limit () =
  let table, _, sro = mk () in
  Alcotest.check_raises "64K+1 rejected"
    (Invalid_argument "Sro.allocate: data part exceeds 64K") (fun () ->
      ignore (alloc ~data:((64 * 1024) + 1) table sro))

let test_table_shade () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  let e = Object_table.lookup_access table a in
  (* Fresh objects are allocated gray so an in-progress collection cannot
     reclaim them before the mutator roots them. *)
  Alcotest.(check bool) "starts gray (allocate-gray)" true
    (Object_table.color table e = Object_table.Gray);
  (* Once whitened (as a collection cycle does), the barrier shades it. *)
  Object_table.set_color table e Object_table.White;
  Object_table.shade table (Access.index a);
  Alcotest.(check bool) "now gray" true
    (Object_table.color table e = Object_table.Gray);
  Alcotest.(check int) "one barrier shade" 1 (Object_table.barrier_shades table)

(* ---------------- Segments ---------------- *)

let test_segment_rw_roundtrip () =
  let table, memory, sro = mk () in
  let a = alloc table sro in
  Segment.write_i32 table memory a ~offset:0 123456;
  Segment.write_i32 table memory a ~offset:4 (-77);
  Alcotest.(check int) "word 0" 123456 (Segment.read_i32 table memory a ~offset:0);
  Alcotest.(check int) "word 1 sign-extended" (-77)
    (Segment.read_i32 table memory a ~offset:4)

let test_segment_bytes_roundtrip () =
  let table, memory, sro = mk () in
  let a = alloc table sro in
  Segment.write_bytes table memory a ~offset:8 (Bytes.of_string "hello 432");
  Alcotest.(check string) "bytes back" "hello 432"
    (Bytes.to_string (Segment.read_bytes table memory a ~offset:8 ~len:9))

let test_segment_u16 () =
  let table, memory, sro = mk () in
  let a = alloc table sro in
  Segment.write_u16 table memory a ~offset:2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Segment.read_u16 table memory a ~offset:2)

let test_segment_bounds () =
  let table, memory, sro = mk () in
  let a = alloc ~data:16 table sro in
  expect_fault "data bounds"
    (function Fault.Bounds { part = "data"; _ } -> true | _ -> false)
    (fun () -> Segment.read_i32 table memory a ~offset:13)

let test_segment_rights_read () =
  let table, memory, sro = mk () in
  let a = alloc table sro in
  let w = Access.restrict a { Rights.none with Rights.write = true } in
  expect_fault "needs read"
    (function Fault.Rights_violation _ -> true | _ -> false)
    (fun () -> Segment.read_u8 table memory w ~offset:0)

let test_segment_rights_write () =
  let table, memory, sro = mk () in
  let a = alloc table sro in
  let r = Access.read_only a in
  expect_fault "needs write"
    (function Fault.Rights_violation _ -> true | _ -> false)
    (fun () -> Segment.write_u8 table memory r ~offset:0 1)

let test_access_part_roundtrip () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  let b = alloc table sro in
  Segment.store_access table a ~slot:0 (Some b);
  match Segment.load_access table a ~slot:0 with
  | Some got -> Alcotest.(check int) "stored AD" (Access.index b) (Access.index got)
  | None -> Alcotest.fail "expected stored access"

let test_access_part_bounds () =
  let table, _, sro = mk () in
  let a = alloc ~acc:2 table sro in
  expect_fault "access bounds"
    (function Fault.Bounds { part = "access"; _ } -> true | _ -> false)
    (fun () -> Segment.load_access table a ~slot:2)

let test_access_part_clear () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  let b = alloc table sro in
  Segment.store_access table a ~slot:1 (Some b);
  Segment.store_access table a ~slot:1 None;
  Alcotest.(check bool) "cleared" true (Segment.load_access table a ~slot:1 = None)

(* The level rule (§5): a shorter-lived (higher level) object's access may
   not be stored into a longer-lived (lower level) object. *)
let test_level_rule_violation () =
  let table, _, sro0 = mk () in
  let sro2 = Sro.create table ~level:2 ~base:(1 lsl 19) ~length:4096 in
  let global_obj = alloc table sro0 in
  let local_obj = alloc table sro2 in
  expect_fault "level violation"
    (function
      | Fault.Level_violation { stored_level = 2; target_level = 0 } -> true
      | _ -> false)
    (fun () -> Segment.store_access table global_obj ~slot:0 (Some local_obj))

let test_level_rule_allowed_down () =
  let table, _, sro0 = mk () in
  let sro2 = Sro.create table ~level:2 ~base:(1 lsl 19) ~length:4096 in
  let global_obj = alloc table sro0 in
  let local_obj = alloc table sro2 in
  (* Global into local is fine: the target dies first. *)
  Segment.store_access table local_obj ~slot:0 (Some global_obj);
  Alcotest.(check bool) "stored" true
    (Segment.load_access table local_obj ~slot:0 <> None)

let test_level_rule_same_level () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  let b = alloc table sro in
  Segment.store_access table a ~slot:0 (Some b);
  Alcotest.(check bool) "same level ok" true
    (Segment.load_access table a ~slot:0 <> None)

let test_store_access_runs_barrier () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  let b = alloc table sro in
  (* Whiten the target first, as a collection cycle would. *)
  let eb = Object_table.lookup_access table b in
  Object_table.set_color table eb Object_table.White;
  let before = Object_table.barrier_shades table in
  Segment.store_access table a ~slot:0 (Some b);
  Alcotest.(check int) "barrier ran" (before + 1) (Object_table.barrier_shades table);
  Alcotest.(check bool) "target shaded" true
    (Object_table.color table eb = Object_table.Gray)

let test_check_type () =
  let table, _, sro = mk () in
  let a = alloc table sro in
  Segment.check_type table a Obj_type.Generic;
  expect_fault "wrong type"
    (function Fault.Type_mismatch _ -> true | _ -> false)
    (fun () -> Segment.check_type table a Obj_type.Port)

let test_swapped_out_faults () =
  let table, memory, sro = mk () in
  let a = alloc table sro in
  Object_table.set_swapped_out table (Object_table.lookup_access table a) true;
  expect_fault "absent segment"
    (function Fault.Segment_swapped_out _ -> true | _ -> false)
    (fun () -> Segment.read_u8 table memory a ~offset:0)

(* ---------------- SRO ---------------- *)

let test_sro_allocate_updates_accounting () =
  let table, _, sro = mk () in
  let free0 = Sro.free_bytes table sro in
  let _ = alloc ~data:256 table sro in
  Alcotest.(check int) "free shrank" (free0 - 256) (Sro.free_bytes table sro);
  Alcotest.(check int) "alloc count" 1 (Sro.alloc_count table sro);
  Alcotest.(check int) "live objects" 1 (Sro.live_objects table sro)

let test_sro_exhaustion () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:0 ~base:0 ~length:128 in
  let _ = alloc ~data:128 ~acc:0 table sro in
  expect_fault "exhausted"
    (function Fault.Storage_exhausted _ -> true | _ -> false)
    (fun () -> alloc ~data:1 ~acc:0 table sro)

let test_sro_release_and_reuse () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:0 ~base:0 ~length:128 in
  let a = alloc ~data:128 ~acc:0 table sro in
  Sro.release_by_access table sro ~index:(Access.index a);
  Alcotest.(check int) "all free again" 128 (Sro.free_bytes table sro);
  let b = alloc ~data:128 ~acc:0 table sro in
  Alcotest.(check bool) "reusable" true (Object_table.is_valid table (Access.index b))

let test_sro_coalescing () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:0 ~base:0 ~length:300 in
  let a = alloc ~data:100 ~acc:0 table sro in
  let b = alloc ~data:100 ~acc:0 table sro in
  let c = alloc ~data:100 ~acc:0 table sro in
  (* Free middle, then neighbours: regions must coalesce back to one. *)
  Sro.release_by_access table sro ~index:(Access.index b);
  Sro.release_by_access table sro ~index:(Access.index a);
  Sro.release_by_access table sro ~index:(Access.index c);
  Alcotest.(check int) "one region" 1 (Sro.region_count table sro);
  Alcotest.(check int) "largest block 300" 300 (Sro.largest_free table sro)

let test_sro_first_fit_fragmentation () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:0 ~base:0 ~length:300 in
  let a = alloc ~data:100 ~acc:0 table sro in
  let _b = alloc ~data:100 ~acc:0 table sro in
  let _c = alloc ~data:100 ~acc:0 table sro in
  Sro.release_by_access table sro ~index:(Access.index a);
  (* 100 free in one hole: a 150-byte request must fault even though... no,
     total free is 100 < 150.  Allocate 60 into the hole instead, leaving a
     split region. *)
  let d = alloc ~data:60 ~acc:0 table sro in
  Alcotest.(check int) "hole split" 40 (Sro.largest_free table sro);
  ignore d

let test_sro_foreign_release_rejected () =
  let table = Object_table.create () in
  let sro1 = Sro.create table ~level:0 ~base:0 ~length:128 in
  let sro2 = Sro.create table ~level:0 ~base:128 ~length:128 in
  let a = alloc ~data:32 ~acc:0 table sro1 in
  expect_fault "foreign SRO"
    (function Fault.Protocol _ -> true | _ -> false)
    (fun () -> Sro.release_by_access table sro2 ~index:(Access.index a))

let test_sro_needs_allocate_right () =
  let table, _, sro = mk () in
  let weak = Access.without_type_right sro Rights.t1 in
  expect_fault "no allocate right"
    (function Fault.Rights_violation _ -> true | _ -> false)
    (fun () -> alloc table weak)

let test_sro_destroy_bulk () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:3 ~base:0 ~length:1024 in
  let objs = List.init 5 (fun _ -> alloc ~data:64 ~acc:0 table sro) in
  let n = Sro.destroy table sro in
  Alcotest.(check int) "all reclaimed" 5 n;
  List.iter
    (fun a ->
      Alcotest.(check bool) "descriptor gone" false
        (Object_table.is_valid table (Access.index a)))
    objs

let test_sro_destroyed_rejects_use () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:3 ~base:0 ~length:1024 in
  let _ = Sro.destroy table sro in
  expect_fault "destroyed SRO"
    (function Fault.Invalid_descriptor _ | Fault.Sro_destroyed -> true | _ -> false)
    (fun () -> alloc table sro)

let test_sro_child_tree () =
  let table = Object_table.create () in
  let root = Sro.create table ~level:0 ~base:0 ~length:4096 in
  let child = Sro.create_child table root ~level:1 ~bytes:1024 in
  let grandchild = Sro.create_child table child ~level:2 ~bytes:256 in
  Alcotest.(check int) "root has one child" 1 (Sro.child_count table root);
  Alcotest.(check int) "child level" 1 (Sro.level table child);
  Alcotest.(check int) "grandchild level" 2 (Sro.level table grandchild);
  (* Parent's free store shrank by the child's whole region. *)
  Alcotest.(check int) "root free" (4096 - 1024) (Sro.free_bytes table root)

let test_sro_destroy_cascades () =
  let table = Object_table.create () in
  let root = Sro.create table ~level:0 ~base:0 ~length:4096 in
  let child = Sro.create_child table root ~level:1 ~bytes:1024 in
  let grandchild = Sro.create_child table child ~level:2 ~bytes:256 in
  let o1 = alloc ~data:32 ~acc:0 table child in
  let o2 = alloc ~data:32 ~acc:0 table grandchild in
  let reclaimed = Sro.destroy table child in
  Alcotest.(check int) "both descendants' objects reclaimed" 2 reclaimed;
  List.iter
    (fun a ->
      Alcotest.(check bool) "object gone" false
        (Object_table.is_valid table (Access.index a)))
    [ o1; o2; child; grandchild ];
  Alcotest.(check bool) "root survives" true
    (Object_table.is_valid table (Access.index root))

(* A level-0 SRO is a global heap: the collector reclaims its objects
   one at a time, so it is never destroyed, and no child is one. *)
let test_sro_global_heap_not_destroyed () =
  let table = Object_table.create () in
  let root = Sro.create table ~level:0 ~base:0 ~length:4096 in
  let a = alloc ~data:32 ~acc:0 table root in
  expect_fault "global heap destroy"
    (function Fault.Protocol _ -> true | _ -> false)
    (fun () -> Sro.destroy table root);
  Alcotest.(check bool) "heap survives" true (Sro.is_live table root);
  Alcotest.(check int) "object survives" 1 (Sro.live_objects table root);
  Alcotest.(check bool) "descriptor valid" true
    (Object_table.is_valid table (Access.index a))

let test_sro_child_not_global () =
  let table = Object_table.create () in
  let root = Sro.create table ~level:0 ~base:0 ~length:4096 in
  expect_fault "level-0 child"
    (function Fault.Protocol _ -> true | _ -> false)
    (fun () -> Sro.create_child table root ~level:0 ~bytes:1024);
  Alcotest.(check int) "no child" 0 (Sro.child_count table root);
  Alcotest.(check int) "nothing carved" 4096 (Sro.free_bytes table root)

let test_sro_child_needs_allocate_right () =
  let table = Object_table.create () in
  let root = Sro.create table ~level:0 ~base:0 ~length:4096 in
  let weak = Access.without_type_right root Rights.t1 in
  expect_fault "child needs t1"
    (function Fault.Rights_violation _ -> true | _ -> false)
    (fun () -> Sro.create_child table weak ~level:1 ~bytes:128)

let test_sro_child_exhausts_parent () =
  let table = Object_table.create () in
  let root = Sro.create table ~level:0 ~base:0 ~length:512 in
  expect_fault "too big for parent"
    (function Fault.Storage_exhausted _ -> true | _ -> false)
    (fun () -> Sro.create_child table root ~level:1 ~bytes:1024)

let test_sro_zero_length_object () =
  let table, _, sro = mk () in
  let a = alloc ~data:0 ~acc:2 table sro in
  Alcotest.(check int) "no data part" 0 (Segment.data_length table a);
  Alcotest.(check int) "access part present" 2 (Segment.access_length table a)

let test_sro_donate_carve () =
  let table = Object_table.create () in
  let sro = Sro.create table ~level:0 ~base:0 ~length:256 in
  let s = Sro.state_of table sro in
  (match Sro.carve table ~sro_state:s ~size:200 with
  | Some base -> Alcotest.(check int) "carved at base" 0 base
  | None -> Alcotest.fail "carve failed");
  Alcotest.(check int) "free after carve" 56 (Sro.free_bytes table sro);
  Sro.donate table ~sro_state:s ~base:0 ~length:200;
  Alcotest.(check int) "free after donate" 256 (Sro.free_bytes table sro);
  Alcotest.(check int) "coalesced" 1 (Sro.region_count table sro)

(* ---------------- Type definitions ---------------- *)

let test_typedef_seal_and_check () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"mailbox" in
  let inst = Type_def.create_instance table td sro ~data_length:32 ~access_length:0 in
  Type_def.check_instance table td inst;
  Alcotest.(check bool) "is instance" true (Type_def.is_instance table td inst);
  Alcotest.(check int) "sealed count" 1 (Type_def.sealed_count table td)

let test_typedef_distinct_types () =
  let table, _, sro = mk () in
  let td1 = Type_def.create table sro ~name:"a" in
  let td2 = Type_def.create table sro ~name:"b" in
  let inst = Type_def.create_instance table td1 sro ~data_length:8 ~access_length:0 in
  Alcotest.(check bool) "not instance of other" false
    (Type_def.is_instance table td2 inst)

let test_typedef_seal_requires_right () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"t" in
  let weak = Access.without_type_right td Rights.t1 in
  let target = alloc table sro in
  expect_fault "seal needs t1"
    (function Fault.Rights_violation _ -> true | _ -> false)
    (fun () -> Type_def.seal table weak ~target)

let test_typedef_seal_generic_only () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"t" in
  let port_obj =
    Sro.allocate table sro ~data_length:0 ~access_length:1 ~otype:Obj_type.Port
  in
  expect_fault "cannot reseal system object"
    (function Fault.Type_mismatch _ -> true | _ -> false)
    (fun () -> Type_def.seal table td ~target:port_obj)

let test_typedef_amplify () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"t" in
  let inst = Type_def.create_instance table td sro ~data_length:8 ~access_length:0 in
  let weak = Access.restrict inst Rights.none in
  Alcotest.(check bool) "weak has nothing" false
    (Rights.has_read (Access.rights weak));
  let strong = Type_def.amplify table td weak ~rights:Rights.full in
  Alcotest.(check bool) "amplified" true (Rights.has_write (Access.rights strong));
  Alcotest.(check int) "same object" (Access.index inst) (Access.index strong)

let test_typedef_amplify_requires_manager_right () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"t" in
  let inst = Type_def.create_instance table td sro ~data_length:8 ~access_length:0 in
  let not_manager = Access.without_type_right td Rights.t2 in
  expect_fault "amplify needs t2"
    (function Fault.Rights_violation _ -> true | _ -> false)
    (fun () -> Type_def.amplify table not_manager inst ~rights:Rights.full)

let test_typedef_amplify_checks_type () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"t" in
  let other = alloc table sro in
  expect_fault "amplify wrong type"
    (function Fault.Type_mismatch _ -> true | _ -> false)
    (fun () -> Type_def.amplify table td other ~rights:Rights.full)

let test_typedef_filter_port_registry () =
  let table, _, sro = mk () in
  let td = Type_def.create table sro ~name:"t" in
  Alcotest.(check (option int)) "no filter" None (Type_def.filter_port table td);
  Type_def.set_filter_port table td ~port_index:42;
  Alcotest.(check (option int)) "registered" (Some 42) (Type_def.filter_port table td);
  let id = Type_def.id table td in
  Alcotest.(check (option int)) "found by id" (Some 42)
    (Type_def.filter_port_for_id table ~id);
  Type_def.clear_filter_port table td;
  Alcotest.(check (option int)) "cleared" None (Type_def.filter_port table td)

(* qcheck: random alloc/free scripts never corrupt SRO accounting: free
   bytes + live bytes = total, and coalescing keeps regions sorted. *)
let prop_sro_accounting =
  QCheck2.Test.make ~name:"SRO alloc/free conserves bytes" ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) (pair bool (int_range 1 64)))
    (fun script ->
      let total = 4096 in
      let table = Object_table.create () in
      let sro = Sro.create table ~level:0 ~base:0 ~length:total in
      let live = ref [] in
      let live_bytes = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc then (
            match Sro.allocate table sro ~data_length:size ~access_length:0
                    ~otype:Obj_type.Generic
            with
            | a ->
              live := (a, size) :: !live;
              live_bytes := !live_bytes + size
            | exception Fault.Fault (Fault.Storage_exhausted _) -> ())
          else
            match !live with
            | [] -> ()
            | (a, size) :: rest ->
              Sro.release_by_access table sro ~index:(Access.index a);
              live := rest;
              live_bytes := !live_bytes - size)
        script;
      Sro.free_bytes table sro = total - !live_bytes
      && Sro.live_objects table sro = List.length !live)

(* qcheck: rights restriction is monotone — restricting never grants. *)
let prop_rights_monotone =
  QCheck2.Test.make ~name:"rights restriction is monotone" ~count:300
    QCheck2.Gen.(
      pair
        (triple bool bool (int_range 0 7))
        (triple bool bool (int_range 0 7)))
    (fun ((r1, w1, t1), (r2, w2, t2)) ->
      let a = { Rights.read = r1; write = w1; type_rights = t1 } in
      let b = { Rights.read = r2; write = w2; type_rights = t2 } in
      let c = Rights.restrict a b in
      Rights.subset ~of_:a c && Rights.subset ~of_:b c)

let suite =
  [
    ("rights restrict", `Quick, test_rights_restrict);
    ("rights never amplify", `Quick, test_rights_never_amplify);
    ("rights remove type right", `Quick, test_rights_remove_type_right);
    ("rights to_string", `Quick, test_rights_to_string);
    ("access restrict chain", `Quick, test_access_restrict_chain);
    ("access negative index", `Quick, test_access_negative_index);
    ("table lookup invalid", `Quick, test_table_lookup_invalid);
    ("table free then lookup", `Quick, test_table_free_then_lookup);
    ("table index recycling", `Quick, test_table_index_recycling);
    ("table growth", `Quick, test_table_growth);
    ("table data part limit", `Quick, test_table_data_part_limit);
    ("table shade", `Quick, test_table_shade);
    ("segment rw roundtrip", `Quick, test_segment_rw_roundtrip);
    ("segment bytes roundtrip", `Quick, test_segment_bytes_roundtrip);
    ("segment u16", `Quick, test_segment_u16);
    ("segment bounds", `Quick, test_segment_bounds);
    ("segment rights read", `Quick, test_segment_rights_read);
    ("segment rights write", `Quick, test_segment_rights_write);
    ("access part roundtrip", `Quick, test_access_part_roundtrip);
    ("access part bounds", `Quick, test_access_part_bounds);
    ("access part clear", `Quick, test_access_part_clear);
    ("level rule violation", `Quick, test_level_rule_violation);
    ("level rule allowed down", `Quick, test_level_rule_allowed_down);
    ("level rule same level", `Quick, test_level_rule_same_level);
    ("store access runs barrier", `Quick, test_store_access_runs_barrier);
    ("check type", `Quick, test_check_type);
    ("swapped out faults", `Quick, test_swapped_out_faults);
    ("sro accounting", `Quick, test_sro_allocate_updates_accounting);
    ("sro exhaustion", `Quick, test_sro_exhaustion);
    ("sro release and reuse", `Quick, test_sro_release_and_reuse);
    ("sro coalescing", `Quick, test_sro_coalescing);
    ("sro first fit fragmentation", `Quick, test_sro_first_fit_fragmentation);
    ("sro foreign release rejected", `Quick, test_sro_foreign_release_rejected);
    ("sro needs allocate right", `Quick, test_sro_needs_allocate_right);
    ("sro destroy bulk", `Quick, test_sro_destroy_bulk);
    ("sro destroyed rejects use", `Quick, test_sro_destroyed_rejects_use);
    ("sro child tree", `Quick, test_sro_child_tree);
    ("sro destroy cascades", `Quick, test_sro_destroy_cascades);
    ("sro global heap not destroyed", `Quick, test_sro_global_heap_not_destroyed);
    ("sro child not global", `Quick, test_sro_child_not_global);
    ("sro child needs allocate right", `Quick, test_sro_child_needs_allocate_right);
    ("sro child exhausts parent", `Quick, test_sro_child_exhausts_parent);
    ("sro zero length object", `Quick, test_sro_zero_length_object);
    ("sro donate carve", `Quick, test_sro_donate_carve);
    ("typedef seal and check", `Quick, test_typedef_seal_and_check);
    ("typedef distinct types", `Quick, test_typedef_distinct_types);
    ("typedef seal requires right", `Quick, test_typedef_seal_requires_right);
    ("typedef seal generic only", `Quick, test_typedef_seal_generic_only);
    ("typedef amplify", `Quick, test_typedef_amplify);
    ("typedef amplify requires manager right", `Quick,
     test_typedef_amplify_requires_manager_right);
    ("typedef amplify checks type", `Quick, test_typedef_amplify_checks_type);
    ("typedef filter port registry", `Quick, test_typedef_filter_port_registry);
    QCheck_alcotest.to_alcotest prop_sro_accounting;
    QCheck_alcotest.to_alcotest prop_rights_monotone;
  ]
