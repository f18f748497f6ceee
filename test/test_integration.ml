(* Full-system integration: boot the richest configuration (multiprocessor,
   fair-share scheduling, swapping memory manager, GC daemon, devices) and
   run a combined workload, then assert global invariants across every
   subsystem at once. *)

open I432
open Imax
module K = I432_kernel

let rich_config =
  {
    System.default_config with
    System.processors = 3;
    memory_manager = System.Swapping_lru;
    heap_bytes = 64 * 1024;
    scheduling = Scheduler.Fair_share;
    run_gc_daemon = true;
    gc_config =
      {
        I432_gc.Collector.default_config with
        I432_gc.Collector.idle_sleep_ns = 500_000;
      };
  }

let test_everything_at_once () =
  let sys = System.boot ~config:rich_config () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let sched = System.scheduler sys in
  let table = K.Machine.table m in

  (* Devices: a tape farm whose drives will be leaked and recovered. *)
  let farm = Device_io.create_tape_farm m ~drives:4 in

  (* IPC fabric: a work port and an Ada entry. *)
  let work = Untyped_ports.create_port m ~message_count:8 () in
  let entry = Ada_tasks.create_entry m () in

  (* Users under fair-share accounting. *)
  let alice = Scheduler.add_group sched "alice" in
  let bob = Scheduler.add_group sched "bob" in

  let produced = ref 0 and consumed = ref 0 and served = ref 0 in

  (* Producer (alice): allocates from the selected memory manager and
     sends through the port. *)
  let producer =
    Process_manager.create_process pm ~name:"producer" ~priority:12 (fun () ->
        for i = 1 to 30 do
          let o =
            System.mm_allocate sys ~data_length:128 ~access_length:0
              ~otype:Obj_type.Generic
          in
          System.mm_touch sys o;
          K.Machine.write_word m o ~offset:0 i;
          Untyped_ports.send m ~prt:work ~msg:o;
          incr produced
        done)
  in
  Scheduler.enroll sched alice producer;

  (* Consumer (bob): receives, computes, frees explicitly half the time so
     the GC daemon has the other half to find. *)
  let consumer =
    Process_manager.create_process pm ~name:"consumer" ~priority:4 (fun () ->
        for i = 1 to 30 do
          let msg = Untyped_ports.receive m ~prt:work in
          K.Machine.compute m 8;
          consumed := !consumed + K.Machine.read_word m msg ~offset:0;
          if i mod 2 = 0 then System.mm_free sys msg
        done)
  in
  Scheduler.enroll sched bob consumer;

  (* A rendezvous server plus a client making entry calls. *)
  ignore
    (Process_manager.create_process pm ~name:"server" (fun () ->
         for _ = 1 to 10 do
           Ada_tasks.accept entry ~body:(fun p ->
               incr served;
               p)
         done));
  ignore
    (Process_manager.create_process pm ~name:"rpc-client" (fun () ->
         let x = K.Machine.allocate_generic m ~data_length:8 () in
         for _ = 1 to 10 do
           ignore (Ada_tasks.call entry ~parameter:x)
         done));

  (* A careless tape user, and a recovery process that runs afterwards. *)
  ignore
    (Process_manager.create_process pm ~name:"tape-user" (fun () ->
         match Device_io.acquire_drive farm with
         | Some h ->
           let (module T) = Device_io.device_of farm h in
           T.write "nightly";
           K.Machine.compute m 40
         | None -> ()));

  let report1 = System.run sys in
  Alcotest.(check (list string)) "no deadlock" [] report1.K.Machine.deadlocked;
  Alcotest.(check int) "all produced" 30 !produced;
  Alcotest.(check int) "payload conserved" (30 * 31 / 2) !consumed;
  Alcotest.(check int) "all rendezvous served" 10 !served;
  Alcotest.(check int) "machine panic-free faults" 0 report1.K.Machine.faulted;

  (* Recovery pass: one explicit GC cycle then drain the farm's filter. *)
  let collector = Option.get (System.collector sys) in
  let recovered = ref 0 in
  ignore
    (Process_manager.create_process pm ~name:"janitor" (fun () ->
         ignore (I432_gc.Collector.cycle collector);
         recovered := Device_io.recover_lost_drives farm;
         ignore (Process_manager.recover_lost_processes pm)));
  let _ = System.run sys in
  Alcotest.(check int) "lost drive recovered" 1 !recovered;
  Alcotest.(check int) "full pool" 4 (Device_io.free_drive_count farm);

  (* Global snapshot invariants. *)
  let snap = K.Snapshot.capture m in
  Alcotest.(check int) "three processors" 3 (List.length snap.K.Snapshot.processors);
  Alcotest.(check bool) "every processor was used" true
    (List.for_all
       (fun c -> c.K.Snapshot.c_busy_ns > 0)
       snap.K.Snapshot.processors);
  Alcotest.(check bool) "GC daemon reclaimed garbage" true
    ((I432_gc.Collector.stats collector).I432_gc.Collector.swept > 0);
  Alcotest.(check bool) "swapper exercised" true
    ((System.mm_stats sys).Memory_manager.swap_outs >= 0);
  Alcotest.(check bool) "collector marked live objects" true
    ((I432_gc.Collector.stats collector).I432_gc.Collector.marked > 0);
  (* The capability system never fabricated descriptors: every live object
     is within table capacity. *)
  Alcotest.(check bool) "table consistent" true
    (snap.K.Snapshot.objects_live <= snap.K.Snapshot.table_capacity);
  ignore table

let test_rerun_determinism_rich_config () =
  (* The whole rich system, run twice, must produce identical traces. *)
  let run () =
    let sys = System.boot ~config:rich_config () in
    let m = System.machine sys in
    let pm = System.process_manager sys in
    let port = Untyped_ports.create_port m ~message_count:4 () in
    let acc = ref 0 in
    for i = 1 to 4 do
      ignore
        (Process_manager.create_process pm ~name:(Printf.sprintf "w%d" i)
           (fun () ->
             for j = 1 to 10 do
               let o = K.Machine.allocate_generic m ~data_length:16 () in
               K.Machine.write_word m o ~offset:0 (i * j);
               Untyped_ports.send m ~prt:port ~msg:o
             done))
    done;
    ignore
      (Process_manager.create_process pm ~name:"sink" (fun () ->
           for _ = 1 to 40 do
             let msg = Untyped_ports.receive m ~prt:port in
             acc := (!acc * 17) + K.Machine.read_word m msg ~offset:0
           done));
    let r = System.run sys in
    (!acc, r.K.Machine.elapsed_ns, r.K.Machine.dispatches)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_snapshot_renders () =
  let sys = System.boot () in
  let m = System.machine sys in
  ignore
    (K.Machine.spawn m ~name:"worker" (fun () -> K.Machine.compute m 100));
  let _ = System.run sys in
  let snap = K.Snapshot.capture m in
  let text = K.Snapshot.render snap in
  Alcotest.(check bool) "mentions the worker" true
    (let contains s sub =
       let n = String.length s and m' = String.length sub in
       let rec go i = i + m' <= n && (String.sub s i m' = sub || go (i + 1)) in
       go 0
     in
     contains text "worker" && contains text "cpu0")

let suite =
  [
    ("everything at once", `Quick, test_everything_at_once);
    ("rerun determinism rich config", `Quick, test_rerun_determinism_rich_config);
    ("snapshot renders", `Quick, test_snapshot_renders);
  ]
