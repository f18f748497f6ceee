(* Tests for the iMAX layer: untyped/typed ports (Figures 1-2), the basic
   process manager (nested stop/start over trees, including a qcheck storm),
   schedulers, both memory managers, device-independent I/O, and object
   filing. *)

open I432
open Imax
module K = I432_kernel

let boot ?(processors = 1) ?(scheduling = Scheduler.Null)
    ?(memory_manager = System.Non_swapping) ?(heap_bytes = 1 lsl 20) () =
  System.boot
    ~config:
      {
        System.default_config with
        System.processors;
        scheduling;
        memory_manager;
        heap_bytes;
      }
    ()

(* ---------------- Untyped ports (Figure 1) ---------------- *)

let test_untyped_roundtrip () =
  let sys = boot () in
  let m = System.machine sys in
  let prt = Untyped_ports.create_port m ~message_count:4 () in
  let got = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         let o = K.Machine.allocate_generic m () in
         K.Machine.write_word m o ~offset:0 99;
         Untyped_ports.send m ~prt ~msg:o));
  ignore
    (K.Machine.spawn m ~name:"r" (fun () ->
         let msg = Untyped_ports.receive m ~prt in
         got := K.Machine.read_word m msg ~offset:0));
  let _ = System.run sys in
  Alcotest.(check int) "payload" 99 !got

let test_untyped_message_count_bounds () =
  let sys = boot () in
  let m = System.machine sys in
  Alcotest.(check bool) "zero rejected" true
    (match Untyped_ports.create_port m ~message_count:0 () with
    | _ -> false
    | exception Fault.Fault _ -> true);
  Alcotest.(check bool) "too large rejected" true
    (match
       Untyped_ports.create_port m
         ~message_count:(Untyped_ports.max_msg_cnt + 1)
         ()
     with
    | _ -> false
    | exception Fault.Fault _ -> true)

let test_untyped_send_only_view () =
  let sys = boot () in
  let m = System.machine sys in
  let prt = Untyped_ports.create_port m () in
  let tx = Untyped_ports.send_only prt in
  let rx = Untyped_ports.receive_only prt in
  ignore
    (K.Machine.spawn m ~name:"cannot-receive" (fun () ->
         ignore (Untyped_ports.receive m ~prt:tx)));
  let r1 = System.run sys in
  Alcotest.(check int) "receive via tx faults" 1 r1.K.Machine.faulted;
  ignore
    (K.Machine.spawn m ~name:"cannot-send" (fun () ->
         let o = K.Machine.allocate_generic m () in
         Untyped_ports.send m ~prt:rx ~msg:o));
  let r2 = System.run sys in
  Alcotest.(check int) "send via rx faults" 2 (r1.K.Machine.faulted + r2.K.Machine.faulted - 1)

(* ---------------- Typed ports (Figure 2) ---------------- *)

module Int_message = struct
  (* A user message type with its own 432 representation: an object holding
     one word.  The conversions are this instance's unchecked_conversions. *)
  type t = Access.t

  let to_access t = t
  let of_access a = a
end

module Int_ports = Typed_ports.Make (Int_message)

let test_typed_roundtrip () =
  let sys = boot () in
  let m = System.machine sys in
  let prt = Int_ports.create m ~message_count:4 () in
  let got = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         let o = K.Machine.allocate_generic m () in
         K.Machine.write_word m o ~offset:0 123;
         Int_ports.send m ~prt ~msg:o));
  ignore
    (K.Machine.spawn m ~name:"r" (fun () ->
         let msg = Int_ports.receive m ~prt in
         got := K.Machine.read_word m msg ~offset:0));
  let _ = System.run sys in
  Alcotest.(check int) "payload" 123 !got

let test_typed_identical_cost_to_untyped () =
  (* The paper's zero-overhead claim: the generated operations are identical
     to the untyped ones, so virtual cost per message must be equal. *)
  let run_untyped () =
    let sys = boot () in
    let m = System.machine sys in
    let prt = Untyped_ports.create_port m ~message_count:8 () in
    let sender =
      K.Machine.spawn m ~name:"s" (fun () ->
          for _ = 1 to 50 do
            let o = K.Machine.allocate_generic m () in
            Untyped_ports.send m ~prt ~msg:o
          done)
    in
    ignore
      (K.Machine.spawn m ~name:"r" (fun () ->
           for _ = 1 to 50 do
             ignore (Untyped_ports.receive m ~prt)
           done));
    let _ = System.run sys in
    (K.Machine.process_state m sender).K.Process.cpu_ns
  in
  let run_typed () =
    let sys = boot () in
    let m = System.machine sys in
    let prt = Int_ports.create m ~message_count:8 () in
    let sender =
      K.Machine.spawn m ~name:"s" (fun () ->
          for _ = 1 to 50 do
            let o = K.Machine.allocate_generic m () in
            Int_ports.send m ~prt ~msg:o
          done)
    in
    ignore
      (K.Machine.spawn m ~name:"r" (fun () ->
           for _ = 1 to 50 do
             ignore (Int_ports.receive m ~prt)
           done));
    let _ = System.run sys in
    (K.Machine.process_state m sender).K.Process.cpu_ns
  in
  Alcotest.(check int) "identical virtual cost" (run_untyped ()) (run_typed ())

let test_checked_ports_enforce_type () =
  let sys = boot () in
  let m = System.machine sys in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let td = Type_def.create table sro ~name:"msg_t" in
  let module Checked =
    Typed_ports.Make_checked (struct
      let machine = m
      let typedef = td
    end)
  in
  let prt = Checked.create m ~message_count:4 () in
  let ok = ref false in
  ignore
    (K.Machine.spawn m ~name:"good" (fun () ->
         let inst =
           Type_def.create_instance table td sro ~data_length:8 ~access_length:0
         in
         Checked.send m ~prt ~msg:inst;
         ok := Checked.receive m ~prt |> fun _ -> true));
  let r1 = System.run sys in
  Alcotest.(check int) "sealed message accepted" 0 r1.K.Machine.faulted;
  Alcotest.(check bool) "roundtrip" true !ok;
  ignore
    (K.Machine.spawn m ~name:"bad" (fun () ->
         let plain = K.Machine.allocate_generic m () in
         Checked.send m ~prt ~msg:plain));
  let r2 = System.run sys in
  Alcotest.(check int) "unsealed message faults" 1 r2.K.Machine.faulted

(* ---------------- Process manager ---------------- *)

let test_pm_tree_stop_start () =
  let sys = boot () in
  let pm = System.process_manager sys in
  let hits = ref [] in
  let parent =
    Process_manager.create_process pm ~name:"parent" (fun () ->
        hits := "parent" :: !hits)
  in
  let child =
    Process_manager.create_process pm ~parent ~name:"child" (fun () ->
        hits := "child" :: !hits)
  in
  ignore child;
  Process_manager.stop pm parent;
  let _ = System.run sys in
  Alcotest.(check (list string)) "nothing ran while stopped" [] !hits;
  Process_manager.start pm parent;
  let _ = System.run sys in
  Alcotest.(check int) "both ran after start" 2 (List.length !hits)

let test_pm_nested_counts () =
  let sys = boot () in
  let pm = System.process_manager sys in
  let p = Process_manager.create_process pm ~name:"p" (fun () -> ()) in
  Process_manager.stop pm p;
  Process_manager.stop pm p;
  Alcotest.(check int) "count 2" 2 (Process_manager.stop_count pm p);
  Process_manager.start pm p;
  Alcotest.(check bool) "still stopped" false (Process_manager.is_runnable pm p);
  Process_manager.start pm p;
  Alcotest.(check bool) "runnable" true (Process_manager.is_runnable pm p)

let test_pm_unbalanced_start_faults () =
  let sys = boot () in
  let pm = System.process_manager sys in
  let p = Process_manager.create_process pm ~name:"p" (fun () -> ()) in
  Alcotest.(check bool) "start without stop faults" true
    (match Process_manager.start pm p with
    | () -> false
    | exception Fault.Fault (Fault.Protocol _) -> true)

let test_pm_stop_subtree_only () =
  let sys = boot () in
  let pm = System.process_manager sys in
  let hits = ref [] in
  let parent =
    Process_manager.create_process pm ~name:"parent" (fun () ->
        hits := "parent" :: !hits)
  in
  let child =
    Process_manager.create_process pm ~parent ~name:"child" (fun () ->
        hits := "child" :: !hits)
  in
  (* Stopping the child subtree leaves the parent runnable. *)
  Process_manager.stop pm child;
  let _ = System.run sys in
  Alcotest.(check (list string)) "parent ran" [ "parent" ] !hits

let test_pm_recover_lost_processes () =
  let sys = boot () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  ignore (Process_manager.create_process pm ~name:"ephemeral" (fun () -> ()));
  let _ = System.run sys in
  let c = I432_gc.Collector.create m in
  let recovered = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"janitor" (fun () ->
         ignore (I432_gc.Collector.cycle c);
         recovered := Process_manager.recover_lost_processes pm));
  let _ = System.run sys in
  Alcotest.(check int) "one corpse recovered" 1 !recovered

(* qcheck: a random storm of stop/start pairs over a random tree keeps the
   invariant "runnable iff stop_count = 0", and counts never go negative. *)
let prop_stop_start_storm =
  QCheck2.Test.make ~name:"nested stop/start invariant under storms" ~count:50
    QCheck2.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 1 60) (pair bool (int_range 0 5))))
    (fun (n_procs, storm) ->
      let sys = boot () in
      let pm = System.process_manager sys in
      let procs =
        Array.init n_procs (fun i ->
            let parent = if i = 0 then None else Some (Random.self_init (); i) in
            ignore parent;
            Process_manager.create_process pm
              ~name:(Printf.sprintf "p%d" i)
              (fun () -> ()))
      in
      (* Build a chain: p0 <- p1 <- ... (parents must exist first). *)
      let outstanding = Array.make n_procs 0 in
      List.iter
        (fun (is_stop, idx) ->
          let idx = idx mod n_procs in
          if is_stop then begin
            Process_manager.stop pm procs.(idx);
            outstanding.(idx) <- outstanding.(idx) + 1
          end
          else if outstanding.(idx) > 0 then begin
            Process_manager.start pm procs.(idx);
            outstanding.(idx) <- outstanding.(idx) - 1
          end)
        storm;
      let ok = ref true in
      Array.iteri
        (fun i p ->
          let count = Process_manager.stop_count pm p in
          if count <> outstanding.(i) then ok := false;
          if Process_manager.is_runnable pm p <> (count = 0) then ok := false)
        procs;
      !ok)

(* ---------------- Schedulers ---------------- *)

let test_fair_share_beats_null () =
  let run_policy policy =
    let sys = boot ~scheduling:policy () in
    let m = System.machine sys in
    let pm = System.process_manager sys in
    let sched = System.scheduler sys in
    let users =
      List.map
        (fun (name, prio) ->
          let g = Scheduler.add_group sched name in
          let p =
            Process_manager.create_process pm ~name ~priority:prio (fun () ->
                for _ = 1 to 200 do
                  K.Machine.compute m 10;
                  K.Machine.yield m
                done)
          in
          Scheduler.enroll sched g p;
          p)
        [ ("greedy", 14); ("meek", 2) ]
    in
    let _ = System.run sys ~max_ns:15_000_000 in
    List.map
      (fun p -> float_of_int (K.Machine.process_state m p).K.Process.cpu_ns)
      users
  in
  let null = I432_util.Stats.jain_fairness (Array.of_list (run_policy Scheduler.Null)) in
  let fair =
    I432_util.Stats.jain_fairness (Array.of_list (run_policy Scheduler.Fair_share))
  in
  Alcotest.(check bool)
    (Printf.sprintf "fair %.3f > null %.3f" fair null)
    true (fair > null)

let test_round_robin_equalizes () =
  let sys = boot ~scheduling:Scheduler.Round_robin () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let sched = System.scheduler sys in
  let g = Scheduler.add_group sched "all" in
  let ps =
    List.map
      (fun (name, prio) ->
        let p =
          Process_manager.create_process pm ~name ~priority:prio (fun () ->
              for _ = 1 to 50 do
                K.Machine.compute m 10;
                K.Machine.yield m
              done)
        in
        Scheduler.enroll sched g p;
        p)
      [ ("a", 14); ("b", 2) ]
  in
  let _ = System.run sys in
  (* Round-robin enrollment flattened priorities; both finish. *)
  List.iter
    (fun p ->
      Alcotest.(check int) "priority flattened" 8
        (K.Machine.process_state m p).K.Process.priority)
    ps

(* ---------------- Memory managers ---------------- *)

let test_mm_common_interface_nonswapping () =
  let sys = boot ~memory_manager:System.Non_swapping () in
  Alcotest.(check string) "selected" "non-swapping" (System.mm_name sys);
  let a = System.mm_allocate sys ~data_length:64 ~access_length:0
      ~otype:Obj_type.Generic
  in
  System.mm_touch sys a;
  System.mm_free sys a;
  let st = System.mm_stats sys in
  Alcotest.(check int) "one allocation" 1 st.Memory_manager.allocations;
  Alcotest.(check int) "one free" 1 st.Memory_manager.frees

let test_mm_nonswapping_exhausts () =
  let sys = boot ~memory_manager:System.Non_swapping ~heap_bytes:4096 () in
  Alcotest.(check bool) "exhaustion faults" true
    (match
       List.init 200 (fun _ ->
           System.mm_allocate sys ~data_length:1024 ~access_length:0
             ~otype:Obj_type.Generic)
     with
    | _ -> false
    | exception Fault.Fault (Fault.Storage_exhausted _) -> true)

let test_mm_swapping_survives_overcommit () =
  let sys = boot ~memory_manager:System.Swapping_lru ~heap_bytes:8192 () in
  (* 32 KB of working set on an 8 KB heap: must succeed by swapping. *)
  let objs =
    List.init 32 (fun _ ->
        System.mm_allocate sys ~data_length:1024 ~access_length:0
          ~otype:Obj_type.Generic)
  in
  let st = System.mm_stats sys in
  Alcotest.(check int) "all allocations succeeded" 32 st.Memory_manager.allocations;
  Alcotest.(check bool) "swapped out" true (st.Memory_manager.swap_outs > 0);
  ignore objs

let test_mm_swapping_preserves_content () =
  let sys = boot ~memory_manager:System.Swapping_lru ~heap_bytes:4096 () in
  let m = System.machine sys in
  let first =
    System.mm_allocate sys ~data_length:1024 ~access_length:0
      ~otype:Obj_type.Generic
  in
  ignore
    (K.Machine.spawn m ~name:"writer" (fun () ->
         K.Machine.write_word m first ~offset:0 424242));
  let _ = System.run sys in
  (* Force eviction of [first]. *)
  let _rest =
    List.init 8 (fun _ ->
        System.mm_allocate sys ~data_length:1024 ~access_length:0
          ~otype:Obj_type.Generic)
  in
  let table = K.Machine.table m in
  let e = Object_table.lookup_access table first in
  Alcotest.(check bool) "was swapped out" true
    (Object_table.swapped_out table e);
  (* Touch to bring it back and verify content. *)
  System.mm_touch sys first;
  let got = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"reader" (fun () ->
         got := K.Machine.read_word m first ~offset:0));
  let _ = System.run sys in
  Alcotest.(check int) "content preserved across swap" 424242 !got

let test_mm_swapping_faults_without_touch () =
  let sys = boot ~memory_manager:System.Swapping_lru ~heap_bytes:4096 () in
  let m = System.machine sys in
  let first =
    System.mm_allocate sys ~data_length:1024 ~access_length:0
      ~otype:Obj_type.Generic
  in
  let _rest =
    List.init 8 (fun _ ->
        System.mm_allocate sys ~data_length:1024 ~access_length:0
          ~otype:Obj_type.Generic)
  in
  ignore
    (K.Machine.spawn m ~name:"reader" (fun () ->
         ignore (K.Machine.read_word m first ~offset:0)));
  let r = System.run sys in
  Alcotest.(check int) "absent segment faults" 1 r.K.Machine.faulted

let test_mm_fifo_policy_selectable () =
  let sys = boot ~memory_manager:System.Swapping_fifo () in
  Alcotest.(check string) "selected" "swapping/fifo" (System.mm_name sys)

(* Every memory choice boots the manager it names, and a swapping
   manager's Swap_out events carry its policy's name. *)
let test_mm_choice_names () =
  let choices =
    System.
      [ Non_swapping; Swapping_lru; Swapping_fifo; Swapping_clock;
        Swapping_level ]
  in
  Alcotest.(check int) "memory_choices lists each once"
    (List.length choices)
    (List.length (List.sort_uniq compare System.memory_choices));
  List.iter
    (fun c ->
      let sys = boot ~memory_manager:c () in
      Alcotest.(check string) "mm_name"
        (System.memory_choice_to_string c)
        (System.mm_name sys))
    choices;
  let sys =
    System.boot
      ~config:
        {
          System.default_config with
          System.memory_manager = System.Swapping_level;
          heap_bytes = 4096;
          swap_device = Some (I432_vm.Swap_device.in_memory ());
          trace_level = I432_obs.Tracer.Events;
        }
      ()
  in
  ignore
    (List.init 8 (fun _ ->
         System.mm_allocate sys ~data_length:1024 ~access_length:0
           ~otype:Obj_type.Generic));
  let outs =
    List.filter
      (fun (e : I432_obs.Event.t) -> e.I432_obs.Event.kind = I432_obs.Event.Swap_out)
      (K.Machine.events (System.machine sys))
  in
  Alcotest.(check bool) "evictions traced" true (outs <> []);
  List.iter
    (fun (e : I432_obs.Event.t) ->
      Alcotest.(check string) "Swap_out names the policy" "level"
        e.I432_obs.Event.name)
    outs

(* ---------------- Device I/O ---------------- *)

let test_device_common_interface () =
  let (module T), feed, drain = Device_io.make_loopback_terminal ~name:"tty0" () in
  feed [ "hello"; "world" ];
  Alcotest.(check (option string)) "read 1" (Some "hello") (T.read ());
  Alcotest.(check (option string)) "read 2" (Some "world") (T.read ());
  Alcotest.(check (option string)) "eof" None (T.read ());
  T.write "out";
  Alcotest.(check (list string)) "drained" [ "out" ] (drain ())

let test_device_closed_rejects () =
  let dev = Device_io.make_terminal ~name:"tty1" () in
  let (module T) = dev in
  T.close ();
  Alcotest.(check bool) "closed" false (T.is_open ());
  Alcotest.(check bool) "write raises" true
    (match T.write "x" with
    | () -> false
    | exception Device_io.Device_error _ -> true)

let test_disk_blocks () =
  let (module D) = Device_io.make_disk ~name:"dk0" ~blocks:8 ~block_size:64 () in
  let b = Bytes.make 64 'x' in
  D.write_block 3 b;
  Alcotest.(check bytes) "block back" b (D.read_block 3);
  Alcotest.(check bool) "out of range" true
    (match D.read_block 8 with
    | _ -> false
    | exception Device_io.Device_error _ -> true)

let test_disk_record_subset () =
  (* The device-independent subset works on a disk too (§6.3: any device
     provides the common interface as a subset). *)
  let (module D) = Device_io.make_disk ~name:"dk1" ~blocks:4 ~block_size:32 () in
  (* Downcast a block device to the common device-independent subset. *)
  let common = (module D : Device_io.DEVICE) in
  let (module C) = common in
  C.write "alpha";
  C.write "beta";
  Alcotest.(check int) "still a 4-block disk" 4 (D.block_count ());
  Alcotest.(check string) "same underlying device" D.name C.name

let test_tape_rewind_and_class_ops () =
  let (module T) = Device_io.make_tape ~name:"mt0" ~capacity:16 () in
  T.write "r1";
  T.write "r2";
  Alcotest.(check bool) "at end" true (T.at_end ());
  T.rewind ();
  Alcotest.(check int) "rewound" 0 (T.position ());
  Alcotest.(check (option string)) "replay" (Some "r1") (T.read ())

let test_tape_farm_acquire_release () =
  let sys = boot () in
  let m = System.machine sys in
  let farm = Device_io.create_tape_farm m ~drives:2 in
  let h1 = Option.get (Device_io.acquire_drive farm) in
  let h2 = Option.get (Device_io.acquire_drive farm) in
  Alcotest.(check bool) "pool empty" true (Device_io.acquire_drive farm = None);
  Device_io.release_drive farm h1;
  Device_io.release_drive farm h2;
  Alcotest.(check int) "pool refilled" 2 (Device_io.free_drive_count farm)

let test_tape_farm_rejects_forged_handle () =
  let sys = boot () in
  let m = System.machine sys in
  let farm = Device_io.create_tape_farm m ~drives:1 in
  let forged = K.Machine.allocate_generic m () in
  Alcotest.(check bool) "forged handle rejected" true
    (match Device_io.device_of farm forged with
    | _ -> false
    | exception Fault.Fault (Fault.Type_mismatch _) -> true)

let test_tape_farm_recovers_lost_drives () =
  let sys = boot () in
  let m = System.machine sys in
  let farm = Device_io.create_tape_farm m ~drives:3 in
  ignore
    (K.Machine.spawn m ~name:"careless" (fun () ->
         match Device_io.acquire_drive farm with
         | Some h ->
           let (module T) = Device_io.device_of farm h in
           T.write "data"
         | None -> ()));
  let _ = System.run sys in
  Alcotest.(check int) "one drive lost" 2 (Device_io.free_drive_count farm);
  let c = I432_gc.Collector.create m in
  let n = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"recovery" (fun () ->
         ignore (I432_gc.Collector.cycle c);
         n := Device_io.recover_lost_drives farm));
  let _ = System.run sys in
  Alcotest.(check int) "recovered" 1 !n;
  Alcotest.(check int) "pool restored" 3 (Device_io.free_drive_count farm)

(* ---------------- Object filing ---------------- *)

let test_filing_preserves_data () =
  let sys = boot () in
  let m = System.machine sys in
  let filing = Object_filing.create m in
  let a = K.Machine.allocate_generic m ~data_length:32 () in
  ignore
    (K.Machine.spawn m ~name:"writer" (fun () ->
         K.Machine.write_word m a ~offset:0 31415;
         Object_filing.store filing ~key:"pi" a));
  let _ = System.run sys in
  let b = Object_filing.retrieve filing ~key:"pi" () in
  let got = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"reader" (fun () ->
         got := K.Machine.read_word m b ~offset:0));
  let _ = System.run sys in
  Alcotest.(check int) "data preserved" 31415 !got

let test_filing_preserves_type_identity () =
  let sys = boot () in
  let m = System.machine sys in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let filing = Object_filing.create m in
  let td = Type_def.create table sro ~name:"record_t" in
  let inst = Type_def.create_instance table td sro ~data_length:16 ~access_length:0 in
  ignore
    (K.Machine.spawn m ~name:"w" (fun () ->
         Object_filing.store filing ~key:"rec" inst));
  let _ = System.run sys in
  let expected = Obj_type.Custom (Type_def.id table td) in
  Alcotest.(check (option string)) "filed type"
    (Some (Obj_type.to_string expected))
    (Option.map Obj_type.to_string (Object_filing.filed_type filing ~key:"rec"));
  let back = Object_filing.retrieve_as filing ~key:"rec" ~expected () in
  Alcotest.(check bool) "sealed on retrieval" true
    (Obj_type.equal (Segment.otype table back) expected);
  Alcotest.(check bool) "type manager accepts it" true
    (Type_def.is_instance table td back)

let test_filing_type_assertion_faults () =
  let sys = boot () in
  let m = System.machine sys in
  let filing = Object_filing.create m in
  let a = K.Machine.allocate_generic m ~data_length:8 () in
  ignore
    (K.Machine.spawn m ~name:"w" (fun () ->
         Object_filing.store filing ~key:"plain" a));
  let _ = System.run sys in
  Alcotest.(check bool) "wrong assertion faults" true
    (match
       Object_filing.retrieve_as filing ~key:"plain" ~expected:Obj_type.Port ()
     with
    | _ -> false
    | exception Fault.Fault (Fault.Type_mismatch _) -> true)

let test_filing_composite_graph () =
  let sys = boot () in
  let m = System.machine sys in
  let table = K.Machine.table m in
  let filing = Object_filing.create m in
  (* root -> a, b; a -> b (sharing); b -> root (cycle). *)
  let root = K.Machine.allocate_generic m ~data_length:8 ~access_length:2 () in
  let a = K.Machine.allocate_generic m ~data_length:8 ~access_length:1 () in
  let b = K.Machine.allocate_generic m ~data_length:8 ~access_length:1 () in
  ignore
    (K.Machine.spawn m ~name:"builder" (fun () ->
         K.Machine.write_word m root ~offset:0 1;
         K.Machine.write_word m a ~offset:0 2;
         K.Machine.write_word m b ~offset:0 3;
         Segment.store_access table root ~slot:0 (Some a);
         Segment.store_access table root ~slot:1 (Some b);
         Segment.store_access table a ~slot:0 (Some b);
         Segment.store_access table b ~slot:0 (Some root);
         ignore (Object_filing.store_graph filing ~key:"g" root)));
  let _ = System.run sys in
  Alcotest.(check (option int)) "three nodes filed" (Some 3)
    (Object_filing.graph_size filing ~key:"g");
  (* Retrieve and verify isomorphism. *)
  let root' = Object_filing.retrieve_graph filing ~key:"g" () in
  let got = ref [] in
  ignore
    (K.Machine.spawn m ~name:"checker" (fun () ->
         let a' = Option.get (Segment.load_access table root' ~slot:0) in
         let b' = Option.get (Segment.load_access table root' ~slot:1) in
         let shared = Option.get (Segment.load_access table a' ~slot:0) in
         let back = Option.get (Segment.load_access table b' ~slot:0) in
         got :=
           [
             K.Machine.read_word m root' ~offset:0;
             K.Machine.read_word m a' ~offset:0;
             K.Machine.read_word m b' ~offset:0;
             (if Access.index shared = Access.index b' then 1 else 0);
             (if Access.index back = Access.index root' then 1 else 0);
             (if Access.index root' <> Access.index root then 1 else 0);
           ]));
  let _ = System.run sys in
  Alcotest.(check (list int)) "payloads, sharing, cycle, freshness"
    [ 1; 2; 3; 1; 1; 1 ] !got

let test_filing_composite_preserves_types () =
  let sys = boot () in
  let m = System.machine sys in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let filing = Object_filing.create m in
  let td = Type_def.create table sro ~name:"leaf_t" in
  let root = K.Machine.allocate_generic m ~access_length:1 () in
  let leaf = Type_def.create_instance table td sro ~data_length:8 ~access_length:0 in
  ignore
    (K.Machine.spawn m ~name:"builder" (fun () ->
         Segment.store_access table root ~slot:0 (Some leaf);
         ignore (Object_filing.store_graph filing ~key:"typed" root)));
  let _ = System.run sys in
  let root' = Object_filing.retrieve_graph filing ~key:"typed" () in
  let leaf' = Option.get (Segment.load_access table root' ~slot:0) in
  Alcotest.(check bool) "leaf type preserved through filing" true
    (Type_def.is_instance table td leaf')

let test_filing_missing_key () =
  let sys = boot () in
  let m = System.machine sys in
  let filing = Object_filing.create m in
  Alcotest.(check bool) "not filed" true
    (match Object_filing.retrieve filing ~key:"absent" () with
    | _ -> false
    | exception Object_filing.Not_filed "absent" -> true)

let suite =
  [
    ("untyped roundtrip", `Quick, test_untyped_roundtrip);
    ("untyped message count bounds", `Quick, test_untyped_message_count_bounds);
    ("untyped send-only view", `Quick, test_untyped_send_only_view);
    ("typed roundtrip", `Quick, test_typed_roundtrip);
    ("typed identical cost to untyped", `Quick, test_typed_identical_cost_to_untyped);
    ("checked ports enforce type", `Quick, test_checked_ports_enforce_type);
    ("pm tree stop/start", `Quick, test_pm_tree_stop_start);
    ("pm nested counts", `Quick, test_pm_nested_counts);
    ("pm unbalanced start faults", `Quick, test_pm_unbalanced_start_faults);
    ("pm stop subtree only", `Quick, test_pm_stop_subtree_only);
    ("pm recover lost processes", `Quick, test_pm_recover_lost_processes);
    QCheck_alcotest.to_alcotest prop_stop_start_storm;
    ("fair share beats null", `Quick, test_fair_share_beats_null);
    ("round robin equalizes", `Quick, test_round_robin_equalizes);
    ("mm common interface nonswapping", `Quick, test_mm_common_interface_nonswapping);
    ("mm nonswapping exhausts", `Quick, test_mm_nonswapping_exhausts);
    ("mm swapping survives overcommit", `Quick, test_mm_swapping_survives_overcommit);
    ("mm swapping preserves content", `Quick, test_mm_swapping_preserves_content);
    ("mm swapping faults without touch", `Quick, test_mm_swapping_faults_without_touch);
    ("mm fifo policy selectable", `Quick, test_mm_fifo_policy_selectable);
    ("mm each choice boots the manager it names", `Quick,
      test_mm_choice_names);
    ("device common interface", `Quick, test_device_common_interface);
    ("device closed rejects", `Quick, test_device_closed_rejects);
    ("disk blocks", `Quick, test_disk_blocks);
    ("disk record subset", `Quick, test_disk_record_subset);
    ("tape rewind and class ops", `Quick, test_tape_rewind_and_class_ops);
    ("tape farm acquire/release", `Quick, test_tape_farm_acquire_release);
    ("tape farm rejects forged handle", `Quick, test_tape_farm_rejects_forged_handle);
    ("tape farm recovers lost drives", `Quick, test_tape_farm_recovers_lost_drives);
    ("filing composite graph", `Quick, test_filing_composite_graph);
    ("filing composite preserves types", `Quick,
     test_filing_composite_preserves_types);
    ("filing preserves data", `Quick, test_filing_preserves_data);
    ("filing preserves type identity", `Quick, test_filing_preserves_type_identity);
    ("filing type assertion faults", `Quick, test_filing_type_assertion_faults);
    ("filing missing key", `Quick, test_filing_missing_key);
  ]
