(* The virtual-memory tier: resident-set victim order under every
   policy (level-aware strictness, clock second chance, cross-processor
   clock regression), observational equality of the swapping and
   non-swapping managers when the working set fits in RAM, and crash
   safety of the store-backed swap device across a swap-out write. *)

open I432
open Testkit
module K = I432_kernel
module Obs = I432_obs
module Vm = I432_vm
module MM = Imax.Memory_manager
module Store = I432_store.Store
module Swap_store = I432_store.Swap_store

let everything _ = true

(* Drain the controller pick → remove, recording the victim order. *)
let drain rset =
  let rec go acc =
    match Vm.Resident_set.pick rset ~avoid:(-1) ~evictable:everything with
    | None -> List.rev acc
    | Some i ->
      Vm.Resident_set.remove rset ~index:i;
      go (i :: acc)
  in
  go []

(* ---------------- Resident_set: policy order ---------------- *)

(* Level-aware: strictly higher levels first — a level-2 segment touched
   a moment ago still goes before a level-0 segment idle for ages — and
   LRU order (touch, then arrival) within a level. *)
let test_level_aware_order () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Level_aware () in
  let ins index level now =
    Vm.Resident_set.insert rs ~index ~bytes:16 ~level ~now
  in
  ins 1 0 10;
  ins 2 2 50;
  (* most recent of all, but highest level *)
  ins 3 1 5;
  ins 4 2 1;
  ins 5 0 100;
  ins 6 1 100;
  Alcotest.(check (list int))
    "levels drain high-to-low, LRU within a level"
    [ 4; 2; 3; 6; 1; 5 ] (drain rs)

(* Equal recency everywhere: only the level decides, arrival breaks the
   within-level tie. *)
let test_level_aware_equal_recency () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Level_aware () in
  List.iter
    (fun (index, level) ->
      Vm.Resident_set.insert rs ~index ~bytes:8 ~level ~now:7)
    [ (1, 0); (2, 1); (3, 2); (4, 0); (5, 1); (6, 2) ];
  Alcotest.(check (list int))
    "same stamp: level order, then arrival" [ 3; 6; 2; 5; 1; 4 ] (drain rs)

(* LRU with touch stamps that go *backwards*: processors keep private
   virtual clocks, so an object shared across processors can be touched
   at a smaller [now] than its current stamp.  The lowered key must win
   the next pick. *)
let test_lru_clock_regression () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Lru () in
  Vm.Resident_set.insert rs ~index:1 ~bytes:16 ~level:0 ~now:100;
  Vm.Resident_set.insert rs ~index:2 ~bytes:16 ~level:0 ~now:50;
  (* Another processor, clock behind: index 1 is now the least recent. *)
  Vm.Resident_set.touch rs ~index:1 ~now:10;
  Alcotest.(check (list int)) "lowered stamp picks first" [ 1; 2 ] (drain rs)

(* LRU raising touches (the common case, deferred restamp in the heap):
   the re-touched entry moves behind the untouched ones. *)
let test_lru_restamp () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Lru () in
  List.iter
    (fun i -> Vm.Resident_set.insert rs ~index:i ~bytes:16 ~level:0 ~now:i)
    [ 1; 2; 3 ];
  Vm.Resident_set.touch rs ~index:1 ~now:99;
  Alcotest.(check (list int)) "touched entry evicts last" [ 2; 3; 1 ]
    (drain rs)

(* Clock: the hand clears reference bits as it passes — a touched
   segment survives one sweep, an untouched one is taken. *)
let test_clock_second_chance () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Clock () in
  List.iter
    (fun i -> Vm.Resident_set.insert rs ~index:i ~bytes:16 ~level:0 ~now:i)
    [ 1; 2; 3 ];
  Vm.Resident_set.touch rs ~index:2 ~now:9;
  Alcotest.(check (list int))
    "ring order with 2's reference bit spent on the first pass"
    [ 1; 3; 2 ] (drain rs)

(* Index reuse: the table hands an index back out after a free the
   controller heard about only through re-admission; the stale
   incarnation must never be picked. *)
let test_incarnation_reuse () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Lru () in
  Vm.Resident_set.insert rs ~index:5 ~bytes:16 ~level:0 ~now:1;
  Vm.Resident_set.insert rs ~index:9 ~bytes:16 ~level:0 ~now:2;
  (* Force the old incarnation's node into the heap. *)
  ignore (Vm.Resident_set.pick rs ~avoid:9 ~evictable:everything);
  Vm.Resident_set.remove rs ~index:5;
  Vm.Resident_set.insert rs ~index:5 ~bytes:16 ~level:0 ~now:50;
  Alcotest.(check (list int))
    "reused index sorts by its new stamp" [ 9; 5 ] (drain rs);
  Alcotest.(check int) "drained empty" 0 (Vm.Resident_set.count rs)

let test_envelope_accounting () =
  let rs = Vm.Resident_set.create ~policy:Vm.Policy.Lru ~ram_bytes:100 () in
  Vm.Resident_set.insert rs ~index:1 ~bytes:60 ~level:0 ~now:1;
  Alcotest.(check bool) "60/100 fits" false
    (Vm.Resident_set.over_envelope rs ~extra:0);
  Alcotest.(check bool) "60+50 would not" true
    (Vm.Resident_set.over_envelope rs ~extra:50);
  Vm.Resident_set.insert rs ~index:2 ~bytes:60 ~level:0 ~now:2;
  Alcotest.(check bool) "120/100 is over" true
    (Vm.Resident_set.over_envelope rs ~extra:0);
  Alcotest.(check int) "bytes tracked" 120 (Vm.Resident_set.resident_bytes rs);
  Vm.Resident_set.remove rs ~index:1;
  Alcotest.(check int) "bytes released" 60 (Vm.Resident_set.resident_bytes rs)

(* ---------------- Manager: level-aware end to end ---------------- *)

(* Under a RAM envelope, the level-aware manager evicts the level-2
   segment — the most recently touched object in the set — before any
   level-0 one. *)
let test_manager_level_aware () =
  let m = mk () in
  let table = K.Machine.table m in
  let mm =
    MM.Swapping.create_with ~policy:Vm.Policy.Level_aware ~ram_bytes:96 m
      ~heap_bytes:(64 * 1024)
  in
  let alloc_global () =
    MM.Swapping.allocate mm ~data_length:32 ~access_length:0
      ~otype:Obj_type.Generic
  in
  let a0 = alloc_global () in
  let b2 =
    MM.Swapping.allocate_local mm ~level:2 ~data_length:32
      ~access_length:0 ~otype:Obj_type.Generic
  in
  let _c0 = alloc_global () in
  (* b2 is the most recently used object in the set... *)
  MM.Swapping.touch mm b2;
  Alcotest.(check int) "three residents, envelope full" 96
    (MM.Swapping.resident_bytes mm);
  (* ...and the next admission still evicts it first. *)
  let _d0 = alloc_global () in
  let swapped a =
    Object_table.swapped_out table (Object_table.lookup_access table a)
  in
  Alcotest.(check bool) "level-2 segment went out" true (swapped b2);
  Alcotest.(check bool) "level-0 stayed" false (swapped a0);
  Alcotest.(check int) "one eviction" 1 (MM.Swapping.stats mm).MM.swap_outs;
  (* Touch brings it back (and evicts a level-0 victim to make room). *)
  MM.Swapping.touch mm b2;
  Alcotest.(check bool) "touch faulted it in" false (swapped b2)

(* ---------------- Swapping vs Nonswapping equality ---------------- *)

type ops = {
  op_alloc : data_length:int -> Access.t;
  op_touch : Access.t -> unit;
  op_free : Access.t -> unit;
  op_swap_outs : unit -> int;
}

let nonswap_ops m =
  let mm = MM.Nonswapping.create m ~heap_bytes:(1 lsl 20) in
  {
    op_alloc =
      (fun ~data_length ->
        MM.Nonswapping.allocate mm ~data_length ~access_length:0
          ~otype:Obj_type.Generic);
    op_touch = (fun a -> MM.Nonswapping.touch mm a);
    op_free = (fun a -> MM.Nonswapping.free mm a);
    op_swap_outs = (fun () -> (MM.Nonswapping.stats mm).MM.swap_outs);
  }

let swap_ops m =
  let mm = MM.Swapping.create m ~heap_bytes:(1 lsl 20) in
  {
    op_alloc =
      (fun ~data_length ->
        MM.Swapping.allocate mm ~data_length ~access_length:0
          ~otype:Obj_type.Generic);
    op_touch = (fun a -> MM.Swapping.touch mm a);
    op_free = (fun a -> MM.Swapping.free mm a);
    op_swap_outs = (fun () -> (MM.Swapping.stats mm).MM.swap_outs);
  }

(* Interpret one random script — slot-indexed allocate/touch/free with
   reads folded into a checksum — against a manager. *)
let run_script mk_ops script =
  let m = mk ~trace:true () in
  let ops = mk_ops m in
  let slots = Array.make 8 None in
  let sum = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"worker" (fun () ->
         List.iter
           (fun (code, v) ->
             let s = v mod 8 in
             (match code with
             | 0 ->
               (match slots.(s) with
               | Some o -> ops.op_free o
               | None -> ());
               let o = ops.op_alloc ~data_length:(16 + (8 * (v mod 4))) in
               K.Machine.write_word m o ~offset:0 v;
               slots.(s) <- Some o
             | 1 -> (
               match slots.(s) with
               | Some o ->
                 ops.op_touch o;
                 sum := !sum + K.Machine.read_word m o ~offset:0
               | None -> ())
             | _ -> (
               match slots.(s) with
               | Some o ->
                 ops.op_free o;
                 slots.(s) <- None
               | None -> ()));
             K.Machine.compute m 1)
           script));
  ignore (K.Machine.run m);
  let stream = I432_store.Scenario.event_lines m in
  (stream, !sum, ops.op_swap_outs ())

(* qcheck: on any workload whose live set fits in RAM, the swapping
   manager is observationally identical to the non-swapping one — same
   event stream byte for byte, same read-back checksum — and it never
   evicts. *)
let prop_swap_nonswap_equal =
  QCheck2.Test.make
    ~name:"swapping == non-swapping when the working set fits" ~count:60
    QCheck2.Gen.(
      list_size (int_range 1 60) (pair (int_range 0 2) (int_range 0 1000)))
    (fun script ->
      let s_ns, sum_ns, _ = run_script nonswap_ops script in
      let s_sw, sum_sw, outs = run_script swap_ops script in
      s_ns = s_sw && sum_ns = sum_sw && outs = 0)

(* ---------------- Swap-store crash sweep ---------------- *)


(* Truncate the journal at every byte across a superseding swap-out
   write: recovery must never raise, and the image read back is always
   whole — the new image once its frame committed, the old one (or
   nothing) before that.  A torn tail can lose a swap-out; it can never
   corrupt one. *)
let test_swap_out_crash_sweep () =
  let path = temp_path () in
  let torn = path ^ ".torn" in
  let index = 3 in
  let image_a = Bytes.make 64 'a' in
  let image_b = Bytes.make 96 'b' in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; torn; torn ^ ".tmp" ])
    (fun () ->
      let store = Store.open_ ~sync_every:1 path in
      let dev = Swap_store.device store in
      Vm.Swap_device.write dev ~index ~now_ns:1000 image_a;
      Store.close store;
      let len_a = String.length (read_file path) in
      let store = Store.open_ ~sync_every:1 path in
      let dev = Swap_store.device store in
      Vm.Swap_device.write dev ~index ~now_ns:2000 image_b;
      Store.close store;
      let whole = read_file path in
      let total = String.length whole in
      Alcotest.(check bool) "second write extended the journal" true
        (total > len_a);
      for cut = 0 to total do
        write_file torn (String.sub whole 0 cut);
        (* Reopen at the torn point: recovery never raises. *)
        let s = Store.open_ torn in
        let d = Swap_store.device s in
        (match Vm.Swap_device.read d ~index with
        | None ->
          Alcotest.(check bool)
            (Printf.sprintf "no image only before the first commit (cut %d)"
               cut)
            true (cut < len_a)
        | Some img ->
          let expected = if cut >= total then image_b else image_a in
          Alcotest.(check bytes)
            (Printf.sprintf "image whole at cut %d" cut)
            expected img);
        Store.close s
      done)

(* The swap key is formatted by hand on the fault path; it must stay the
   [Printf] spelling byte for byte, past ten digits too. *)
let prop_swap_key =
  QCheck2.Test.make ~name:"swap store: key_of_index = swap/%010d" ~count:500
    ~print:string_of_int
    QCheck2.Gen.(
      oneof
        [
          oneofl [ 0; 9; 10; 999_999_999; 9_999_999_999; max_int ];
          int_range 0 max_int;
          nat;
        ])
    (fun i -> Swap_store.key_of_index i = Printf.sprintf "swap/%010d" i)

(* ---------------- Clean evictions (dirty bit) ---------------- *)

let counter_value m name = Obs.Metrics.count (K.Machine.metrics m) name

(* A victim whose data never changed since its last swap-in, and whose
   image the device still holds, goes out without a device write: the
   device's write count and swap.bytes_out stand still while
   swap.clean_evictions ticks. *)
let test_clean_eviction_skips_write () =
  let m = mk () in
  let dev = Vm.Swap_device.in_memory () in
  (* Envelope fits exactly two 32-byte segments, LRU victims. *)
  let mm = MM.Swapping.create_with ~ram_bytes:64 ~device:dev m ~heap_bytes:(1 lsl 16) in
  let alloc () =
    MM.Swapping.allocate mm ~data_length:32 ~access_length:0
      ~otype:Obj_type.Generic
  in
  let a = alloc () in
  K.Machine.write_word m a ~offset:0 7;  (* a is dirty *)
  let b = alloc () in
  let _c = alloc () in
  (* a (LRU, dirty) went to the device. *)
  Alcotest.(check int) "first eviction wrote" 1 (Vm.Swap_device.stats dev).Vm.Swap_device.writes;
  MM.Swapping.touch mm a;  (* back in: dirty cleared, image retained *)
  Alcotest.(check bool) "image retained across swap-in" true
    (Vm.Swap_device.mem dev ~index:(Access.index a));
  MM.Swapping.touch mm b;  (* evicts c (no image: writes), reloads b *)
  let writes_before = (Vm.Swap_device.stats dev).Vm.Swap_device.writes in
  let bytes_before = counter_value m "swap.bytes_out" in
  MM.Swapping.touch mm _c;  (* evicts a: untouched since swap-in => clean *)
  Alcotest.(check int) "clean eviction skipped the device write"
    writes_before (Vm.Swap_device.stats dev).Vm.Swap_device.writes;
  Alcotest.(check int) "no bytes charged out" bytes_before
    (counter_value m "swap.bytes_out");
  Alcotest.(check int) "swap.clean_evictions ticked" 1
    (counter_value m "swap.clean_evictions");
  (* The clean victim still reads back whole. *)
  MM.Swapping.touch mm a;
  Alcotest.(check int) "content survived the writeless eviction" 7
    (K.Machine.read_word m a ~offset:0)

(* Re-dirtying a resident segment voids the shortcut: the next eviction
   writes the device again. *)
let test_dirty_eviction_rewrites () =
  let m = mk () in
  let dev = Vm.Swap_device.in_memory () in
  let mm = MM.Swapping.create_with ~ram_bytes:64 ~device:dev m ~heap_bytes:(1 lsl 16) in
  let alloc () =
    MM.Swapping.allocate mm ~data_length:32 ~access_length:0
      ~otype:Obj_type.Generic
  in
  let a = alloc () in
  K.Machine.write_word m a ~offset:0 1;
  let b = alloc () in
  let _c = alloc () in  (* evicts a (dirty: writes) *)
  MM.Swapping.touch mm a;  (* back in, clean *)
  K.Machine.write_word m a ~offset:0 2;  (* dirty again *)
  MM.Swapping.touch mm b;  (* evicts c *)
  let writes_before = (Vm.Swap_device.stats dev).Vm.Swap_device.writes in
  MM.Swapping.touch mm _c;  (* evicts a: dirty => must write *)
  Alcotest.(check int) "dirty victim wrote the device" (writes_before + 1)
    (Vm.Swap_device.stats dev).Vm.Swap_device.writes;
  Alcotest.(check int) "no clean eviction counted" 0
    (counter_value m "swap.clean_evictions");
  MM.Swapping.touch mm a;
  Alcotest.(check int) "latest content read back" 2
    (K.Machine.read_word m a ~offset:0)

(* Index reuse after a free must never let a stale retained image satisfy
   a clean eviction for the new object. *)
let test_stale_image_invalidated () =
  let m = mk () in
  let dev = Vm.Swap_device.in_memory () in
  let mm = MM.Swapping.create_with ~ram_bytes:64 ~device:dev m ~heap_bytes:(1 lsl 16) in
  let alloc () =
    MM.Swapping.allocate mm ~data_length:32 ~access_length:0
      ~otype:Obj_type.Generic
  in
  let a = alloc () in
  K.Machine.write_word m a ~offset:0 99;
  let b = alloc () in
  let _c = alloc () in  (* evicts a *)
  MM.Swapping.touch mm a;  (* retained image for a's index *)
  let a_index = Access.index a in
  MM.Swapping.free mm a;  (* free drops the stale image *)
  Alcotest.(check bool) "free invalidated the retained image" false
    (Vm.Swap_device.mem dev ~index:a_index);
  (* A fresh allocation reusing the index round-trips its own image: the
     clean-eviction shortcut may only ever serve bytes this incarnation
     wrote. *)
  let d = alloc () in
  K.Machine.write_word m d ~offset:0 5;
  MM.Swapping.touch mm b;  (* evict the LRU resident, reload b *)
  MM.Swapping.touch mm d;
  MM.Swapping.touch mm b;
  MM.Swapping.touch mm d;  (* second pass can ride the retained image *)
  Alcotest.(check int) "reused index reads its own image" 5
    (K.Machine.read_word m d ~offset:0)

let suite =
  [
    Alcotest.test_case "level-aware: high levels evict first" `Quick
      test_level_aware_order;
    Alcotest.test_case "level-aware: equal recency, level decides" `Quick
      test_level_aware_equal_recency;
    Alcotest.test_case "lru: backwards clock lowers the key" `Quick
      test_lru_clock_regression;
    Alcotest.test_case "lru: re-touch defers restamp" `Quick test_lru_restamp;
    Alcotest.test_case "clock: second chance" `Quick test_clock_second_chance;
    Alcotest.test_case "reused index supersedes its incarnation" `Quick
      test_incarnation_reuse;
    Alcotest.test_case "envelope accounting" `Quick test_envelope_accounting;
    Alcotest.test_case "manager: level-aware eviction end to end" `Quick
      test_manager_level_aware;
    QCheck_alcotest.to_alcotest prop_swap_nonswap_equal;
    Alcotest.test_case "swap store: crash sweep across a swap-out" `Quick
      test_swap_out_crash_sweep;
    QCheck_alcotest.to_alcotest prop_swap_key;
    Alcotest.test_case "clean eviction skips the device write" `Quick
      test_clean_eviction_skips_write;
    Alcotest.test_case "dirty eviction writes the device" `Quick
      test_dirty_eviction_rewrites;
    Alcotest.test_case "stale retained image is invalidated on reuse" `Quick
      test_stale_image_invalidated;
  ]
