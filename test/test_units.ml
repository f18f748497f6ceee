(* Unit tests for the lower-level pieces not covered through the machine:
   physical memory, timing tables, the bus model, the dispatch queue, and
   port queue ordering — plus deeper qcheck properties (segment I/O
   round-trips, swapping content preservation, composite-filing
   isomorphism over random graphs). *)

open I432
open Imax
module K = I432_kernel

(* ---------------- Memory ---------------- *)

let test_memory_rw_widths () =
  let m = Memory.create ~size_bytes:64 in
  Memory.write_u8 m 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (Memory.read_u8 m 0);
  Memory.write_u16 m 2 0x1234;
  Alcotest.(check int) "u16 little-endian" 0x34 (Memory.read_u8 m 2);
  Alcotest.(check int) "u16" 0x1234 (Memory.read_u16 m 2);
  Memory.write_i32 m 4 (-123456);
  Alcotest.(check int) "i32 sign extension" (-123456) (Memory.read_i32 m 4)

let test_memory_bounds () =
  let m = Memory.create ~size_bytes:8 in
  Alcotest.(check bool) "oob faults" true
    (match Memory.read_u16 m 7 with
    | _ -> false
    | exception Fault.Fault (Fault.Bounds _) -> true);
  Alcotest.(check bool) "negative faults" true
    (match Memory.read_u8 m (-1) with
    | _ -> false
    | exception Fault.Fault (Fault.Bounds _) -> true)

let test_memory_blit_and_fill () =
  let m = Memory.create ~size_bytes:32 in
  Memory.blit_from_bytes m ~src:(Bytes.of_string "abcdef") ~dst_addr:4;
  Alcotest.(check string) "blit back" "cde"
    (Bytes.to_string (Memory.blit_to_bytes m ~src_addr:6 ~len:3));
  Memory.fill m ~addr:4 ~len:6 ~byte:'z';
  Alcotest.(check string) "filled" "zzzzzz"
    (Bytes.to_string (Memory.blit_to_bytes m ~src_addr:4 ~len:6))

let test_memory_traffic_counters () =
  let m = Memory.create ~size_bytes:16 in
  let r0 = Memory.read_count m and w0 = Memory.write_count m in
  Memory.write_u8 m 0 1;
  ignore (Memory.read_u8 m 0);
  Alcotest.(check int) "one read" (r0 + 1) (Memory.read_count m);
  Alcotest.(check int) "one write" (w0 + 1) (Memory.write_count m)

(* ---------------- Timings ---------------- *)

let test_timings_paper_anchors () =
  let t = Timings.default in
  Alcotest.(check int) "65us domain call" 65_000 t.Timings.domain_call_ns;
  Alcotest.(check int) "80us allocation" 80_000 t.Timings.allocate_ns;
  Alcotest.(check int) "8MHz cycle" 125 t.Timings.cycle_ns

let test_timings_scale () =
  let t = Timings.scale Timings.default ~num:2 ~den:1 in
  Alcotest.(check int) "doubled" 130_000 t.Timings.domain_call_ns;
  let h = Timings.scale Timings.default ~num:1 ~den:2 in
  Alcotest.(check int) "halved" 40_000 h.Timings.allocate_ns

let test_timings_us () =
  Alcotest.(check (float 1e-9)) "ns to us" 65.0 (Timings.us 65_000)

(* ---------------- Bus ---------------- *)

let test_bus_no_contention_single () =
  let b = K.Bus.create ~alpha_per_mille:20 ~processors:1 () in
  Alcotest.(check int) "uniprocessor unpenalized" 1000 (K.Bus.penalize b 1000);
  Alcotest.(check (float 1e-9)) "factor 1.0" 1.0 (K.Bus.factor b)

let test_bus_linear_growth () =
  let b = K.Bus.create ~alpha_per_mille:20 ~processors:11 () in
  (* 10 extra processors at 2% each: +20%. *)
  Alcotest.(check int) "20% penalty" 1200 (K.Bus.penalize b 1000);
  K.Bus.set_processors b 2;
  Alcotest.(check int) "2% penalty" 1020 (K.Bus.penalize b 1000)

let test_bus_zero_alpha () =
  let b = K.Bus.create ~alpha_per_mille:0 ~processors:16 () in
  Alcotest.(check int) "no penalty" 777 (K.Bus.penalize b 777)

let test_bus_invalid () =
  Alcotest.check_raises "zero processors"
    (Invalid_argument "Bus.create: processors") (fun () ->
      ignore (K.Bus.create ~processors:0 ()))

(* ---------------- Dispatch queue ---------------- *)

(* A queue over fresh processes 0..3, which stand in for object-table
   indices: [pop] reads as the popped process's index, [None] for
   {!K.Process.none}. *)
let dispatch () =
  let procs =
    Array.init 4 (fun index ->
        K.Process.create ~index ~ordinal:index ~name:"p" ~daemon:false
          ~priority:0 ~system_level:4 ignore)
  in
  (K.Dispatch.create (), procs)

let enqueue (d, procs) i ~priority =
  K.Dispatch.enqueue d ~process:procs.(i) ~priority

let pop (d, _) ~eligible =
  let p = K.Dispatch.pop d ~eligible:(fun p -> eligible p.K.Process.index) in
  if p == K.Process.none then None else Some p.K.Process.index

let mem (d, procs) i = K.Dispatch.mem d ~process:procs.(i)

let test_dispatch_priority_then_fifo () =
  let d = dispatch () in
  enqueue d 1 ~priority:5;
  enqueue d 2 ~priority:9;
  enqueue d 3 ~priority:5;
  let all = fun _ -> true in
  Alcotest.(check (option int)) "highest" (Some 2) (pop d ~eligible:all);
  Alcotest.(check (option int)) "fifo within priority" (Some 1)
    (pop d ~eligible:all);
  Alcotest.(check (option int)) "last" (Some 3) (pop d ~eligible:all);
  Alcotest.(check (option int)) "empty" None (pop d ~eligible:all)

let test_dispatch_skips_ineligible () =
  let d = dispatch () in
  enqueue d 1 ~priority:9;
  enqueue d 2 ~priority:5;
  Alcotest.(check (option int)) "skips head" (Some 2)
    (pop d ~eligible:(fun p -> p <> 1));
  Alcotest.(check bool) "head kept" true (mem d 1)

let test_dispatch_remove () =
  let ((q, procs) as d) = dispatch () in
  enqueue d 1 ~priority:5;
  enqueue d 2 ~priority:5;
  K.Dispatch.remove q ~process:procs.(1);
  Alcotest.(check int) "one left" 1 (K.Dispatch.length q);
  Alcotest.(check bool) "gone" false (mem d 1)

(* ---------------- Port queue ordering ---------------- *)

let mk_port ?(capacity = 8) ?(discipline = K.Port.Fifo) () =
  K.Port.make ~self:0 ~capacity ~discipline

let msg i = Access.make ~index:i ~rights:Rights.full

let test_port_queue_fifo () =
  let p = mk_port () in
  K.Port.enqueue p ~msg:(msg 10) ~priority:1 ~now:0;
  K.Port.enqueue p ~msg:(msg 11) ~priority:9 ~now:0;
  Alcotest.(check (option int)) "fifo ignores priority" (Some 10)
    (Option.map Access.index (K.Port.dequeue p ~now:0))

let test_port_queue_priority () =
  let p = mk_port ~discipline:K.Port.Priority () in
  K.Port.enqueue p ~msg:(msg 10) ~priority:1 ~now:0;
  K.Port.enqueue p ~msg:(msg 11) ~priority:9 ~now:0;
  K.Port.enqueue p ~msg:(msg 12) ~priority:9 ~now:0;
  Alcotest.(check (option int)) "highest first" (Some 11)
    (Option.map Access.index (K.Port.dequeue p ~now:0));
  Alcotest.(check (option int)) "fifo within priority" (Some 12)
    (Option.map Access.index (K.Port.dequeue p ~now:0));
  Alcotest.(check (option int)) "lowest last" (Some 10)
    (Option.map Access.index (K.Port.dequeue p ~now:0))

let test_port_queue_capacity () =
  let p = mk_port ~capacity:2 () in
  K.Port.enqueue p ~msg:(msg 1) ~priority:0 ~now:0;
  K.Port.enqueue p ~msg:(msg 2) ~priority:0 ~now:0;
  Alcotest.(check bool) "full" true (K.Port.is_full p);
  Alcotest.check_raises "enqueue on full" (Invalid_argument "Port.enqueue: full")
    (fun () -> K.Port.enqueue p ~msg:(msg 3) ~priority:0 ~now:0)

let test_port_queue_wait_accounting () =
  let p = mk_port () in
  K.Port.enqueue p ~msg:(msg 1) ~priority:0 ~now:100;
  p.K.Port.receives <- 1;
  ignore (K.Port.dequeue p ~now:600);
  Alcotest.(check (float 1e-9)) "mean wait" 500.0 (K.Port.mean_queue_wait_ns p)

(* ---------------- qcheck: deeper properties ---------------- *)

(* Segment word I/O round-trips at random in-bounds offsets and faults at
   random out-of-bounds offsets. *)
let prop_segment_word_roundtrip =
  QCheck2.Test.make ~name:"segment word I/O roundtrip + bounds" ~count:200
    QCheck2.Gen.(triple (int_range 4 256) (int_range 0 300) int)
    (fun (size, offset, value) ->
      let table = Object_table.create () in
      let memory = Memory.create ~size_bytes:4096 in
      let sro = Sro.create table ~level:0 ~base:0 ~length:4096 in
      let a =
        Sro.allocate table sro ~data_length:size ~access_length:0
          ~otype:Obj_type.Generic
      in
      let value = value land 0x7FFFFFFF in
      if offset + 4 <= size then begin
        Segment.write_i32 table memory a ~offset value;
        Segment.read_i32 table memory a ~offset = value
      end
      else
        match Segment.write_i32 table memory a ~offset value with
        | () -> false
        | exception Fault.Fault (Fault.Bounds _) -> true)

(* Random touch scripts on an overcommitted swapping heap never lose
   content: each object always reads back the last value written. *)
let prop_swapping_preserves_content =
  QCheck2.Test.make ~name:"swapping preserves content under random touches"
    ~count:25
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 0 11) small_int))
    (fun script ->
      let sys =
        System.boot
          ~config:
            {
              System.default_config with
              System.memory_manager = System.Swapping_lru;
              heap_bytes = 4 * 1024;
            }
          ()
      in
      let m = System.machine sys in
      (* 12 KB of objects on a 4 KB heap. *)
      let objs =
        Array.init 12 (fun _ ->
            System.mm_allocate sys ~data_length:1024 ~access_length:0
              ~otype:Obj_type.Generic)
      in
      let shadow = Array.make 12 0 in
      let ok = ref true in
      ignore
        (K.Machine.spawn m ~name:"mutator" (fun () ->
             List.iter
               (fun (idx, v) ->
                 System.mm_touch sys objs.(idx);
                 if K.Machine.read_word m objs.(idx) ~offset:0 <> shadow.(idx)
                 then ok := false;
                 K.Machine.write_word m objs.(idx) ~offset:0 v;
                 shadow.(idx) <- v)
               script));
      let r = System.run sys in
      !ok && r.K.Machine.faulted = 0)

(* Composite filing rebuilds random DAGs-with-cycles isomorphic: same
   payloads, same edge structure, all-fresh descriptors. *)
let prop_filing_isomorphism =
  QCheck2.Test.make ~name:"composite filing is an isomorphism" ~count:30
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 16) (pair (int_range 0 7) (int_range 0 7))))
    (fun (n, edges) ->
      let sys = System.boot () in
      let m = System.machine sys in
      let table = K.Machine.table m in
      let filing = Object_filing.create m in
      let nodes =
        Array.init n (fun i ->
            let a =
              K.Machine.allocate_generic m ~data_length:8 ~access_length:8 ()
            in
            ignore (Object_table.lookup_access table a);
            K.Machine.write_bytes m a ~offset:0
              (Bytes.make 8 (Char.chr (65 + i)));
            a)
      in
      let edges =
        List.filter (fun (s, d) -> s < n && d < n) edges
        |> List.sort_uniq compare
      in
      (* slot number = destination id keeps edges distinguishable. *)
      List.iter
        (fun (s, d) -> Segment.store_access table nodes.(s) ~slot:d (Some nodes.(d)))
        edges;
      ignore (Object_filing.store_graph filing ~key:"g" nodes.(0));
      let root' = Object_filing.retrieve_graph filing ~key:"g" () in
      (* Walk both graphs in lockstep comparing payloads and edges. *)
      let visited = Hashtbl.create 8 in
      let rec compare_nodes a b =
        match Hashtbl.find_opt visited (Access.index a) with
        | Some mapped -> mapped = Access.index b
        | None ->
          Hashtbl.add visited (Access.index a) (Access.index b);
          let len_a = Segment.data_length table a
          and len_b = Segment.data_length table b in
          let part x =
            Object_table.access_part table (Object_table.lookup_access table x)
          in
          len_a = len_b
          && Access.index a <> Access.index b
          && Segment.read_bytes table (K.Machine.memory m) a ~offset:0
               ~len:len_a
             = Segment.read_bytes table (K.Machine.memory m) b ~offset:0
                 ~len:len_b
          && Array.for_all2
               (fun sa sb ->
                 match sa, sb with
                 | None, None -> true
                 | Some ca, Some cb -> compare_nodes ca cb
                 | Some _, None | None, Some _ -> false)
               (part a) (part b)
      in
      compare_nodes nodes.(0) root')

(* Priority-port dequeue order is a stable sort of enqueue order. *)
let prop_priority_port_stable_sort =
  QCheck2.Test.make ~name:"priority port = stable sort by priority" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 0 5))
    (fun priorities ->
      let p = mk_port ~capacity:64 ~discipline:K.Port.Priority () in
      List.iteri
        (fun i prio -> K.Port.enqueue p ~msg:(msg i) ~priority:prio ~now:0)
        priorities;
      let drained = ref [] in
      let rec drain () =
        match K.Port.dequeue p ~now:0 with
        | Some a ->
          drained := Access.index a :: !drained;
          drain ()
        | None -> ()
      in
      drain ();
      let got = List.rev !drained in
      let expected =
        List.mapi (fun i prio -> (-prio, i)) priorities
        |> List.sort compare
        |> List.map snd
      in
      got = expected)

let suite =
  [
    ("memory rw widths", `Quick, test_memory_rw_widths);
    ("memory bounds", `Quick, test_memory_bounds);
    ("memory blit and fill", `Quick, test_memory_blit_and_fill);
    ("memory traffic counters", `Quick, test_memory_traffic_counters);
    ("timings paper anchors", `Quick, test_timings_paper_anchors);
    ("timings scale", `Quick, test_timings_scale);
    ("timings us", `Quick, test_timings_us);
    ("bus no contention single", `Quick, test_bus_no_contention_single);
    ("bus linear growth", `Quick, test_bus_linear_growth);
    ("bus zero alpha", `Quick, test_bus_zero_alpha);
    ("bus invalid", `Quick, test_bus_invalid);
    ("dispatch priority then fifo", `Quick, test_dispatch_priority_then_fifo);
    ("dispatch skips ineligible", `Quick, test_dispatch_skips_ineligible);
    ("dispatch remove", `Quick, test_dispatch_remove);
    ("port queue fifo", `Quick, test_port_queue_fifo);
    ("port queue priority", `Quick, test_port_queue_priority);
    ("port queue capacity", `Quick, test_port_queue_capacity);
    ("port queue wait accounting", `Quick, test_port_queue_wait_accounting);
    QCheck_alcotest.to_alcotest prop_segment_word_roundtrip;
    QCheck_alcotest.to_alcotest prop_swapping_preserves_content;
    QCheck_alcotest.to_alcotest prop_filing_isomorphism;
    QCheck_alcotest.to_alcotest prop_priority_port_stable_sort;
  ]
