(* Tests for the on-the-fly collector: reachability, barrier cooperation,
   destruction filters, local-heap reclamation, and process recovery. *)

open I432
module K = I432_kernel
module G = I432_gc

let mk () =
  let m =
    K.Machine.create
      ~config:{ K.Machine.default_config with K.Machine.processors = 1 }
      ()
  in
  (m, G.Collector.create m)

(* Run one collection cycle from inside a process so virtual time flows. *)
let collect m c =
  let dead = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"collector-driver" (fun () ->
         dead := G.Collector.cycle c));
  let _ = K.Machine.run m in
  !dead

let test_unreachable_collected () =
  let m, c = mk () in
  let garbage = K.Machine.allocate_generic m ~data_length:32 () in
  let table = K.Machine.table m in
  Alcotest.(check bool) "exists" true
    (Object_table.is_valid table (Access.index garbage));
  let dead = collect m c in
  Alcotest.(check bool) "collected at least one" true (dead >= 1);
  Alcotest.(check bool) "descriptor freed" false
    (Object_table.is_valid table (Access.index garbage))

let test_rooted_object_survives () =
  let m, c = mk () in
  let precious = K.Machine.allocate_generic m ~data_length:32 () in
  K.Machine.add_root m precious;
  let _ = collect m c in
  Alcotest.(check bool) "survived" true
    (Object_table.is_valid (K.Machine.table m) (Access.index precious))

let test_reachable_graph_survives () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let root = K.Machine.allocate_generic m ~access_length:2 () in
  let child = K.Machine.allocate_generic m ~access_length:2 () in
  let grandchild = K.Machine.allocate_generic m () in
  Segment.store_access table root ~slot:0 (Some child);
  Segment.store_access table child ~slot:0 (Some grandchild);
  K.Machine.add_root m root;
  let _ = collect m c in
  List.iter
    (fun a ->
      Alcotest.(check bool) "alive" true
        (Object_table.is_valid table (Access.index a)))
    [ root; child; grandchild ]

let test_severed_subgraph_collected () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let root = K.Machine.allocate_generic m ~access_length:2 () in
  let child = K.Machine.allocate_generic m ~access_length:2 () in
  let grandchild = K.Machine.allocate_generic m () in
  Segment.store_access table root ~slot:0 (Some child);
  Segment.store_access table child ~slot:0 (Some grandchild);
  K.Machine.add_root m root;
  let _ = collect m c in
  (* Sever: child and grandchild become garbage together. *)
  Segment.store_access table root ~slot:0 None;
  let _ = collect m c in
  Alcotest.(check bool) "root alive" true
    (Object_table.is_valid table (Access.index root));
  Alcotest.(check bool) "child dead" false
    (Object_table.is_valid table (Access.index child));
  Alcotest.(check bool) "grandchild dead" false
    (Object_table.is_valid table (Access.index grandchild))

let test_cycle_collected () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let a = K.Machine.allocate_generic m ~access_length:1 () in
  let b = K.Machine.allocate_generic m ~access_length:1 () in
  Segment.store_access table a ~slot:0 (Some b);
  Segment.store_access table b ~slot:0 (Some a);
  let _ = collect m c in
  Alcotest.(check bool) "cycle dead" false
    (Object_table.is_valid table (Access.index a)
    || Object_table.is_valid table (Access.index b))

let test_port_messages_are_roots () =
  let m, c = mk () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         let o = K.Machine.allocate_generic m () in
         K.Machine.send m ~port ~msg:o));
  let _ = K.Machine.run m in
  let dead0 = collect m c in
  ignore dead0;
  (* The in-flight message must survive. *)
  let got = ref None in
  ignore
    (K.Machine.spawn m ~name:"r" (fun () -> got := Some (K.Machine.receive m ~port)));
  let _ = K.Machine.run m in
  match !got with
  | Some msg ->
    Alcotest.(check bool) "message object valid" true
      (Object_table.is_valid (K.Machine.table m) (Access.index msg))
  | None -> Alcotest.fail "message lost"

let test_shadow_stack_roots () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let survived = ref false in
  ignore
    (K.Machine.spawn m ~name:"mutator" (fun () ->
         let mine = K.Machine.allocate_generic m () in
         let self = K.Machine.all_processes m in
         (* Pin via the process shadow stack (the stand-in for ADs held in
            context objects). *)
         (match self with
         | p :: _ -> p.K.Process.local_roots <- [ mine ]
         | [] -> ());
         let _ = G.Collector.cycle c in
         survived := Object_table.is_valid table (Access.index mine)));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "pinned object survived" true !survived

let test_write_barrier_preserves_concurrent_store () =
  (* Build the Dijkstra race: the collector is mid-mark; the mutator moves
     the only reference to a white object into an already-black object.  The
     barrier's shading must keep the object alive. *)
  let m, c = mk () in
  let table = K.Machine.table m in
  let black_holder = K.Machine.allocate_generic m ~access_length:1 () in
  let staging = K.Machine.allocate_generic m ~access_length:1 () in
  let precious = K.Machine.allocate_generic m ~access_length:0 () in
  Segment.store_access table staging ~slot:0 (Some precious);
  K.Machine.add_root m black_holder;
  K.Machine.add_root m staging;
  let cfg = { G.Collector.default_config with G.Collector.scan_quantum = 1 } in
  let c2 = G.Collector.create ~config:cfg m in
  ignore c;
  let mutated = ref false in
  ignore
    (K.Machine.spawn m ~name:"collector" ~priority:5 (fun () ->
         ignore
           (G.Collector.cycle c2 ~step:(fun () ->
                (* Between quanta, let the mutator interleave once. *)
                if not !mutated then K.Machine.yield m))));
  ignore
    (K.Machine.spawn m ~name:"mutator" ~priority:5 (fun () ->
         (* Move the only reference: staging -> black_holder. *)
         Segment.store_access table black_holder ~slot:0 (Some precious);
         Segment.store_access table staging ~slot:0 None;
         mutated := true));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "precious survived the race" true
    (Object_table.is_valid table (Access.index precious))

let test_allocation_during_mark_survives () =
  let m, _ = mk () in
  let table = K.Machine.table m in
  let cfg = { G.Collector.default_config with G.Collector.scan_quantum = 1 } in
  let c = G.Collector.create ~config:cfg m in
  (* Some pre-existing population so marking takes several quanta. *)
  let keeproot = K.Machine.allocate_generic m ~access_length:16 () in
  K.Machine.add_root m keeproot;
  for i = 0 to 9 do
    let o = K.Machine.allocate_generic m ~access_length:1 () in
    Segment.store_access table keeproot ~slot:i (Some o)
  done;
  let fresh = ref None in
  ignore
    (K.Machine.spawn m ~name:"collector" ~priority:5 (fun () ->
         ignore (G.Collector.cycle c ~step:(fun () -> K.Machine.yield m))));
  ignore
    (K.Machine.spawn m ~name:"allocator" ~priority:5 (fun () ->
         let o = K.Machine.allocate_generic m () in
         (* Immediately root it through a reachable object. *)
         Segment.store_access table keeproot ~slot:15 (Some o);
         fresh := Some o));
  let _ = K.Machine.run m in
  match !fresh with
  | Some o ->
    Alcotest.(check bool) "fresh object survived" true
      (Object_table.is_valid table (Access.index o))
  | None -> Alcotest.fail "allocator did not run"

let test_destruction_filter_delivers () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let td = Type_def.create table sro ~name:"resource" in
  let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  G.Destruction_filter.register table ~typedef:td ~port;
  let inst = Type_def.create_instance table td sro ~data_length:16 ~access_length:0 in
  let inst_index = Access.index inst in
  (* Drop the only reference by never rooting it; collect. *)
  let _ = collect m c in
  Alcotest.(check bool) "not freed" true (Object_table.is_valid table inst_index);
  Alcotest.(check int) "filtered count" 1 (G.Collector.stats c).G.Collector.filtered;
  (* The type manager drains the corpse. *)
  let drained = ref [] in
  ignore
    (K.Machine.spawn m ~name:"manager" (fun () ->
         drained :=
           G.Destruction_filter.drain m ~port ~finalize:(fun _ -> ())));
  let _ = K.Machine.run m in
  match !drained with
  | [ corpse ] -> Alcotest.(check int) "same object" inst_index (Access.index corpse)
  | _ -> Alcotest.fail "expected exactly one corpse"

(* A type manager already parked on its filter port is woken by the
   delivery, like any receiver: the corpse does not sit beside it. *)
let test_destruction_filter_wakes_parked_manager () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let td = Type_def.create table sro ~name:"resource" in
  let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  G.Destruction_filter.register table ~typedef:td ~port;
  let inst = Type_def.create_instance table td sro ~data_length:16 ~access_length:0 in
  let inst_index = Access.index inst in
  let got = ref None in
  ignore
    (K.Machine.spawn m ~name:"manager" (fun () ->
         got := Some (Access.index (K.Machine.receive m ~port))));
  let parked = K.Machine.run m in
  Alcotest.(check (list string)) "manager parked" [ "manager" ]
    parked.K.Machine.deadlocked;
  let _ = collect m c in
  Alcotest.(check int) "filtered count" 1 (G.Collector.stats c).G.Collector.filtered;
  Alcotest.(check (option int)) "manager received the corpse" (Some inst_index) !got;
  Alcotest.(check (list string)) "invariants hold" [] (I432_fi.Fi.check_invariants m)

let test_unfiltered_custom_freed () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let td = Type_def.create table sro ~name:"plain" in
  let inst = Type_def.create_instance table td sro ~data_length:16 ~access_length:0 in
  let idx = Access.index inst in
  let _ = collect m c in
  Alcotest.(check bool) "freed (no filter)" false (Object_table.is_valid table idx)

let test_filtered_corpse_not_recollected () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let td = Type_def.create table sro ~name:"resource" in
  let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  G.Destruction_filter.register table ~typedef:td ~port;
  let inst = Type_def.create_instance table td sro ~data_length:16 ~access_length:0 in
  let idx = Access.index inst in
  let _ = collect m c in
  (* Second cycle: the corpse sits in the filter port queue, which is a
     root, so it must not be double-delivered or freed. *)
  let _ = collect m c in
  Alcotest.(check bool) "still valid" true (Object_table.is_valid table idx);
  Alcotest.(check int) "delivered once" 1 (G.Collector.stats c).G.Collector.filtered

let test_lost_process_recovered () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  G.Destruction_filter.register_process_filter table port;
  let p = K.Machine.spawn m ~name:"shortlived" (fun () -> ()) in
  let _ = K.Machine.run m in
  let _ = collect m c in
  G.Destruction_filter.clear_process_filter table;
  Alcotest.(check int) "process recovered" 1
    (G.Collector.stats c).G.Collector.processes_recovered;
  Alcotest.(check bool) "object kept for manager" true
    (Object_table.is_valid table (Access.index p))

let test_live_process_not_collected () =
  let m, c = mk () in
  let table = K.Machine.table m in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  (* Blocked forever, but alive: must not be collected. *)
  let p = K.Machine.spawn m ~name:"blocked" (fun () ->
      ignore (K.Machine.receive m ~port))
  in
  let _ = K.Machine.run m in
  let _ = collect m c in
  Alcotest.(check bool) "blocked process survives" true
    (Object_table.is_valid table (Access.index p))

let test_local_heap_cheaper_than_gc () =
  (* The §5/§8.1 claim: objects confined to a local heap are reclaimed in
     bulk by SRO destruction, far cheaper per object than a global scan. *)
  let m, c = mk () in
  ignore c;
  let count = 50 in
  let bulk = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         let local = K.Machine.create_local_sro m ~level:1 ~bytes:(16 * 1024) in
         for _ = 1 to count do
           ignore
             (K.Machine.allocate m local ~data_length:32 ~access_length:0
                ~otype:Obj_type.Generic)
         done;
         bulk := K.Machine.destroy_sro m local));
  let _ = K.Machine.run m in
  Alcotest.(check int) "all reclaimed in bulk" count !bulk

let test_daemon_collects_continuously () =
  let m, _ = mk () in
  let cfg =
    { G.Collector.default_config with G.Collector.idle_sleep_ns = 100_000 }
  in
  let c = G.Collector.create ~config:cfg m in
  ignore (G.Collector.spawn_daemon ~cycles:3 c);
  ignore
    (K.Machine.spawn m ~name:"churn" (fun () ->
         for _ = 1 to 30 do
           ignore (K.Machine.allocate_generic m ~data_length:16 ());
           K.Machine.delay m ~ns:50_000
         done));
  let _ = K.Machine.run m in
  let st = G.Collector.stats c in
  Alcotest.(check bool) "multiple cycles ran" true (st.G.Collector.cycles >= 2);
  Alcotest.(check bool) "garbage swept" true (st.G.Collector.swept > 0)

(* qcheck: random graph mutations never let the collector free a reachable
   object, and repeated collection reaches a fixpoint. *)
let prop_gc_never_frees_reachable =
  QCheck2.Test.make ~name:"GC never frees reachable objects" ~count:40
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 9) (int_range 0 9)))
    (fun edges ->
      let m, c = mk () in
      let table = K.Machine.table m in
      let nodes =
        Array.init 10 (fun _ -> K.Machine.allocate_generic m ~access_length:10 ())
      in
      K.Machine.add_root m nodes.(0);
      (* Wire the requested edges (slot = destination id). *)
      List.iter
        (fun (src, dst) ->
          Segment.store_access table nodes.(src) ~slot:dst (Some nodes.(dst)))
        edges;
      let _ = collect m c in
      (* Everything reachable from node 0 must still be valid. *)
      let reachable = Array.make 10 false in
      let rec dfs i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter (fun (s, d) -> if s = i then dfs d) edges
        end
      in
      dfs 0;
      let ok = ref true in
      Array.iteri
        (fun i r ->
          if r && not (Object_table.is_valid table (Access.index nodes.(i))) then
            ok := false)
        reachable;
      !ok)

let suite =
  [
    ("unreachable collected", `Quick, test_unreachable_collected);
    ("rooted object survives", `Quick, test_rooted_object_survives);
    ("reachable graph survives", `Quick, test_reachable_graph_survives);
    ("severed subgraph collected", `Quick, test_severed_subgraph_collected);
    ("cycle collected", `Quick, test_cycle_collected);
    ("port messages are roots", `Quick, test_port_messages_are_roots);
    ("shadow stack roots", `Quick, test_shadow_stack_roots);
    ("write barrier preserves concurrent store", `Quick,
     test_write_barrier_preserves_concurrent_store);
    ("allocation during mark survives", `Quick, test_allocation_during_mark_survives);
    ("destruction filter delivers", `Quick, test_destruction_filter_delivers);
    ("destruction filter wakes parked manager", `Quick,
     test_destruction_filter_wakes_parked_manager);
    ("unfiltered custom freed", `Quick, test_unfiltered_custom_freed);
    ("filtered corpse not recollected", `Quick, test_filtered_corpse_not_recollected);
    ("lost process recovered", `Quick, test_lost_process_recovered);
    ("live process not collected", `Quick, test_live_process_not_collected);
    ("local heap cheaper than gc", `Quick, test_local_heap_cheaper_than_gc);
    ("daemon collects continuously", `Quick, test_daemon_collects_continuously);
    QCheck_alcotest.to_alcotest prop_gc_never_frees_reachable;
  ]
