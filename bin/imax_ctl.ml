(* imax_ctl: command-line driver for the iMAX-432 simulator.

   Subcommands boot a configured system, run a canned scenario, and print
   the run report and subsystem statistics.  This is the OEM's "selection
   of packages" knob surfaced as flags: processors, memory manager,
   scheduling policy, and the GC daemon are all chosen at boot.  A
   subcommand takes only the boot flags its scenario reads: loadgen, net
   and checkpoint take -p alone, swap takes all but --memory-manager (its
   --policy picks the manager), and cmdliner rejects any other one with
   exit code 124. *)

open Cmdliner
open I432
open Imax
module K = I432_kernel
module U = I432_util
module Obs = I432_obs
module Fi = I432_fi.Fi
module Net = I432_net
module St = I432_store.Store
module Load = I432_load
module Ckpt = I432_store.Checkpoint
module Scenario = I432_store.Scenario

(* ---------------- exit codes ----------------

   Every scenario failure — a wrong payload sum, a violated invariant, a
   determinism or restore check that does not hold — exits through [die]:
   message on stderr, exit code 1.  Cmdliner keeps its own codes for bad
   invocations (124) and internal errors (125), so scripts can tell a
   failed check from a mistyped flag. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

(* A verifier that found a divergence fails the check by naming its
   first divergent line. *)
let or_die what = function
  | Ok x -> x
  | Error d -> die "%s FAILED: %s" what (Scenario.to_string d)

(* --chrome PATH: write the trace [json ()] renders and say where. *)
let write_chrome chrome_out json =
  Option.iter
    (fun path ->
      Obs.Jout.write_file ~path (json ());
      Printf.printf "chrome trace written to %s\n" path)
    chrome_out

let machines_trace machines () =
  match machines with
  | [ (_, m) ] ->
    Obs.Export.chrome_trace
      ~processors:(K.Machine.processor_count m)
      (K.Machine.tracer m)
  | machines ->
    Obs.Export.chrome_trace_cluster
      (List.map
         (fun (name, m) ->
           (name, K.Machine.processor_count m, K.Machine.tracer m))
         machines)

(* ---------------- shared flags ---------------- *)

let processors =
  let doc = "Number of general data processors." in
  Arg.(value & opt int 2 & info [ "p"; "processors" ] ~docv:"N" ~doc)

(* Every memory manager by its --memory-manager spelling (its name with
   the slash as a dash); swap's --policy names the swapping ones by their
   victim policy alone. *)
let memory_managers =
  List.map
    (fun c ->
      ( String.map
          (function '/' -> '-' | ch -> ch)
          (System.memory_choice_to_string c),
        c ))
    System.memory_choices

let swap_policies =
  List.filter_map
    (fun c ->
      Option.map
        (fun p -> (I432_vm.Policy.to_string p, c))
        (System.memory_policy c))
    System.memory_choices

(* "a, b or c" over an enum's spellings. *)
let doc_choices choices =
  match List.rev_map fst choices with
  | [] -> ""
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

let memory_manager =
  let doc = "Memory manager: " ^ doc_choices memory_managers ^ "." in
  Arg.(
    value
    & opt (enum memory_managers) System.Non_swapping
    & info [ "memory-manager" ] ~doc)

let scheduling =
  let doc = "Scheduling policy: null, round-robin or fair-share." in
  let choices =
    Arg.enum
      [
        ("null", Scheduler.Null);
        ("round-robin", Scheduler.Round_robin);
        ("fair-share", Scheduler.Fair_share);
      ]
  in
  Arg.(value & opt choices Scheduler.Null & info [ "scheduling" ] ~doc)

let gc_daemon =
  let doc = "Run the on-the-fly garbage collector daemon." in
  Arg.(value & flag & info [ "gc" ] ~doc)

let snapshot =
  let doc = "Print a machine snapshot (processes, processors, ports) at exit." in
  Arg.(value & flag & info [ "snapshot" ] ~doc)

let maybe_snapshot snapshot machine =
  if snapshot then print_string (K.Snapshot.summary machine)

let config processors memory_manager scheduling gc_daemon =
  {
    System.default_config with
    System.processors;
    memory_manager;
    scheduling;
    run_gc_daemon = gc_daemon;
  }

let config_term =
  Term.(const config $ processors $ memory_manager $ scheduling $ gc_daemon)

(* Swap picks its memory manager with --policy, so it takes every boot
   flag but --memory-manager. *)
let swap_config_term =
  Term.(
    const (fun p -> config p System.Swapping_lru)
    $ processors $ scheduling $ gc_daemon)

(* The same flag means the same thing in every subcommand: trace, chaos,
   net, store, and checkpoint all build --seed/--chrome/--check from these
   three constructors instead of redeclaring them. *)

let seed_arg ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

let chrome_arg ~doc =
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)

let check_arg ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let int_arg name default ~docv ~doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let flag_arg name ~doc = Arg.(value & flag & info [ name ] ~doc)

let par_arg ~doc = Arg.(value & opt int 1 & info [ "par" ] ~docv:"N" ~doc)

(* Map --par N to a cluster engine, bounds-checked against the host: more
   domains than the OCaml runtime recommends only adds contention, and a
   result under oversubscription would be a meaningless speedup number. *)
let engine_of_par par =
  let limit = Stdlib.Domain.recommended_domain_count () in
  if par < 1 then die "--par %d: need at least one domain" par;
  if par > limit then
    die "--par %d: this host recommends at most %d domain(s)" par limit;
  if par = 1 then Net.Cluster.Seq else Net.Cluster.Par par

let print_report (r : K.Machine.run_report) =
  Printf.printf "elapsed: %.3f ms (virtual, 8 MHz)\n"
    (float_of_int r.K.Machine.elapsed_ns /. 1e6);
  Printf.printf "processes completed: %d, faulted: %d, dispatches: %d, preemptions: %d\n"
    r.K.Machine.completed r.K.Machine.faulted r.K.Machine.dispatches
    r.K.Machine.preemptions;
  match r.K.Machine.deadlocked with
  | [] -> ()
  | names -> Printf.printf "still blocked: %s\n" (String.concat ", " names)

(* ---------------- scenarios ---------------- *)

(* Producer/consumer rings through bounded ports. *)
let scenario_pipeline config snapshot stages messages =
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let ports =
    Array.init stages (fun _ -> Untyped_ports.create_port m ~message_count:8 ())
  in
  ignore
    (Process_manager.create_process pm ~name:"source" (fun () ->
         for i = 1 to messages do
           let o = K.Machine.allocate_generic m ~data_length:8 () in
           K.Machine.write_word m o ~offset:0 i;
           Untyped_ports.send m ~prt:ports.(0) ~msg:o
         done));
  for s = 1 to stages - 1 do
    ignore
      (Process_manager.create_process pm ~name:(Printf.sprintf "stage%d" s)
         (fun () ->
           for _ = 1 to messages do
             let msg = Untyped_ports.receive m ~prt:ports.(s - 1) in
             K.Machine.compute m 5;
             Untyped_ports.send m ~prt:ports.(s) ~msg
           done))
  done;
  let sum = ref 0 in
  ignore
    (Process_manager.create_process pm ~name:"sink" (fun () ->
         for _ = 1 to messages do
           let msg = Untyped_ports.receive m ~prt:ports.(stages - 1) in
           sum := !sum + K.Machine.read_word m msg ~offset:0
         done));
  let report = System.run sys in
  Printf.printf "pipeline: %d messages through %d stages, payload sum %d\n"
    messages stages !sum;
  print_report report;
  maybe_snapshot snapshot m;
  if !sum <> messages * (messages + 1) / 2 then
    die "pipeline: payload sum %d, expected %d" !sum
      (messages * (messages + 1) / 2)

(* Allocation churn with or without the GC daemon. *)
let scenario_churn config snapshot rounds =
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let table = K.Machine.table m in
  ignore
    (Process_manager.create_process pm ~name:"churner" (fun () ->
         let root = K.Machine.allocate_generic m ~access_length:8 () in
         K.Machine.add_root m root;
         for _ = 1 to rounds do
           for i = 0 to 7 do
             let o = K.Machine.allocate_generic m ~data_length:64 () in
             Segment.store_access table root ~slot:i (Some o)
           done;
           for i = 0 to 7 do
             Segment.store_access table root ~slot:i None
           done;
           K.Machine.yield m
         done));
  let report = System.run sys in
  Printf.printf "churn: %d rounds (%d objects allocated)\n" rounds (rounds * 8);
  Printf.printf "descriptors live at halt: %d\n" (Object_table.count_valid table);
  (match System.collector sys with
  | Some c ->
    let st = I432_gc.Collector.stats c in
    Printf.printf "gc: %d cycles, %d reclaimed\n" st.I432_gc.Collector.cycles
      st.I432_gc.Collector.swept
  | None -> print_endline "gc: daemon not configured");
  print_report report;
  maybe_snapshot snapshot m

(* The tape farm recovery story end to end. *)
let scenario_tapes config snapshot drives =
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let farm = Device_io.create_tape_farm m ~drives in
  for i = 1 to drives do
    ignore
      (Process_manager.create_process pm ~name:(Printf.sprintf "client%d" i)
         (fun () ->
           match Device_io.acquire_drive farm with
           | Some h ->
             let (module T) = Device_io.device_of farm h in
             T.write (Printf.sprintf "dataset-%d" i)
           | None -> ()))
  done;
  let _ = System.run sys in
  Printf.printf "drives free after careless clients: %d/%d\n"
    (Device_io.free_drive_count farm)
    drives;
  let collector = I432_gc.Collector.create m in
  ignore
    (Process_manager.create_process pm ~name:"recovery" (fun () ->
         ignore (I432_gc.Collector.cycle collector);
         ignore (Device_io.recover_lost_drives farm)));
  let report = System.run sys in
  Printf.printf "drives free after recovery: %d/%d\n"
    (Device_io.free_drive_count farm)
    drives;
  print_report report;
  maybe_snapshot snapshot m

(* Rendezvous demo: an adder task serving entry calls. *)
let scenario_rendezvous config snapshot calls =
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let adder_entry = Ada_tasks.create_entry m () in
  ignore
    (Ada_tasks.create_task m ~name:"adder" (fun () ->
         for _ = 1 to calls do
           Ada_tasks.accept adder_entry ~body:(fun parameter ->
               let v = K.Machine.read_word m parameter ~offset:0 in
               K.Machine.write_word m parameter ~offset:0 (v + 1);
               parameter)
         done));
  let final = ref 0 in
  ignore
    (Ada_tasks.create_task m ~name:"caller" (fun () ->
         let x = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.write_word m x ~offset:0 0;
         for _ = 1 to calls do
           ignore (Ada_tasks.call adder_entry ~parameter:x)
         done;
         final := K.Machine.read_word m x ~offset:0));
  let report = System.run sys in
  Printf.printf "rendezvous: %d entry calls, final value %d\n" calls !final;
  print_report report;
  maybe_snapshot snapshot m;
  if !final <> calls then
    die "rendezvous: final value %d, expected %d" !final calls

(* Print-spooler workload: clients submit jobs to a spool port, a spooler
   daemon forwards them to a slow printer behind a two-slot port, clients
   sleep between submissions.  At the default size the printer keeps up
   and no sender blocks (the pinned legacy transcript has no block-send);
   a heavier load (say 50 clients of 50 jobs) fills the printer port and
   parks the spooler.  Exercises spawn/dispatch/preempt, send/receive,
   blocking receives, sleep/wake and allocation. *)
let boot_spooler ~config ~clients ~jobs =
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let spool = Untyped_ports.create_port m ~message_count:8 () in
  let printer = Untyped_ports.create_port m ~message_count:2 () in
  let total = clients * jobs in
  let printed = ref 0 in
  ignore
    (Process_manager.create_process pm ~name:"spooler" (fun () ->
         for _ = 1 to total do
           let job = Untyped_ports.receive m ~prt:spool in
           K.Machine.compute m 2;
           Untyped_ports.send m ~prt:printer ~msg:job
         done));
  ignore
    (Process_manager.create_process pm ~name:"printer" (fun () ->
         for _ = 1 to total do
           let job = Untyped_ports.receive m ~prt:printer in
           K.Machine.compute m 10;
           printed := !printed + 1;
           ignore (K.Machine.read_word m job ~offset:0)
         done));
  for c = 1 to clients do
    ignore
      (Process_manager.create_process pm ~name:(Printf.sprintf "client%d" c)
         (fun () ->
           for j = 1 to jobs do
             let job = K.Machine.allocate_generic m ~data_length:16 () in
             K.Machine.write_word m job ~offset:0 ((c * 100) + j);
             Untyped_ports.send m ~prt:spool ~msg:job;
             K.Machine.delay m ~ns:50_000
           done))
  done;
  (* A low-priority batch job whose compute bursts outrun the hardware time
     slice, so the trace also shows involuntary preemption. *)
  ignore
    (Process_manager.create_process pm ~name:"batch" ~priority:4 (fun () ->
         for _ = 1 to 2 do
           K.Machine.compute m 12_000
         done));
  (sys, printed)

let run_spooler ~config ~clients ~jobs =
  let sys, printed = boot_spooler ~config ~clients ~jobs in
  let report = System.run sys in
  (System.machine sys, report, !printed)

let scenario_trace config snapshot clients jobs chrome_out dump legacy =
  let config = { config with System.trace_level = Obs.Tracer.Events } in
  let m, report, printed = run_spooler ~config ~clients ~jobs in
  let tracer = K.Machine.tracer m in
  (* The legacy transcript is rendered from the ring, so a ring that
     overflowed would print a silently truncated one: refuse instead. *)
  if legacy && Obs.Tracer.dropped tracer > 0 then begin
    Printf.eprintf
      "trace --legacy: the ring dropped %d of %d events; the legacy \
       transcript would be incomplete\n"
      (Obs.Tracer.dropped tracer)
      (Obs.Tracer.emitted tracer);
    exit 1
  end;
  Printf.printf "spooler: %d clients x %d jobs, %d printed\n" clients jobs
    printed;
  Printf.printf "trace: %d events emitted, %d retained, %d dropped\n"
    (Obs.Tracer.emitted tracer)
    (Obs.Tracer.retained tracer)
    (Obs.Tracer.dropped tracer);
  print_report report;
  if dump then List.iter print_endline (Scenario.event_lines m);
  if legacy then
    Obs.Tracer.iter tracer (fun seq ->
        Option.iter print_endline
          (Obs.Event.legacy_line (Obs.Tracer.event tracer seq)));
  write_chrome chrome_out (machines_trace [ ("", m) ]);
  maybe_snapshot snapshot m

let scenario_metrics config snapshot clients jobs json_out =
  let config = { config with System.trace_level = Obs.Tracer.Events } in
  let m, report, printed = run_spooler ~config ~clients ~jobs in
  Printf.printf "spooler: %d clients x %d jobs, %d printed\n" clients jobs
    printed;
  print_report report;
  print_string (Obs.Metrics.render (K.Machine.metrics m));
  (match json_out with
  | Some path ->
    Obs.Jout.write_file ~path (Obs.Metrics.to_json (K.Machine.metrics m));
    Printf.printf "metrics written to %s\n" path
  | None -> ());
  maybe_snapshot snapshot m

(* Chaos: the spooler workload hardened with timed operations, bounded
   allocation retry, and supervised producers — run under a seeded fault
   plan.  One processor hard-fault mid-run is the default; the system must
   degrade to N-1 processors and still drain every surviving job. *)
let run_chaos ~config ~seed ~clients ~jobs ~faults =
  let config = { config with System.trace_level = Obs.Tracer.Events } in
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let spool = Untyped_ports.create_port m ~message_count:8 () in
  let printer = Untyped_ports.create_port m ~message_count:2 () in
  let horizon_ns = max 300_000 (jobs * 50_000) in
  let plan =
    Fi.random ~seed ~horizon_ns ~processors:config.System.processors
      ~count:4 ~cpu_faults:faults
  in
  Fi.arm m plan;
  let printed = ref 0 in
  let dropped = ref 0 in
  (* Stages drain until quiet rather than counting to a fixed total:
     faulted producers may send fewer jobs, restarted ones more. *)
  ignore
    (Process_manager.create_process pm ~name:"spooler" (fun () ->
         let quiet = ref 0 in
         while !quiet < 3 do
           match K.Machine.receive_timeout m ~port:spool ~timeout_ns:200_000 with
           | Some job ->
             quiet := 0;
             K.Machine.compute m 2;
             if
               not
                 (K.Machine.send_timeout m ~port:printer ~msg:job
                    ~timeout_ns:200_000)
             then incr dropped
           | None -> incr quiet
         done));
  ignore
    (Process_manager.create_process pm ~name:"printer" (fun () ->
         let quiet = ref 0 in
         while !quiet < 3 do
           match
             K.Machine.receive_timeout m ~port:printer ~timeout_ns:200_000
           with
           | Some job ->
             quiet := 0;
             K.Machine.compute m 10;
             ignore (K.Machine.read_word m job ~offset:0);
             incr printed
           | None -> incr quiet
         done));
  for c = 1 to clients do
    ignore
      (Process_manager.create_supervised pm
         ~name:(Printf.sprintf "prod%d" c)
         (fun () ->
           for j = 1 to jobs do
             let job =
               K.Machine.allocate_retry m (K.Machine.global_sro m)
                 ~data_length:16 ~access_length:4 ~otype:Obj_type.Generic ()
             in
             K.Machine.write_word m job ~offset:0 ((c * 100) + j);
             if not (K.Machine.send_timeout m ~port:spool ~msg:job
                       ~timeout_ns:300_000)
             then incr dropped;
             K.Machine.delay m ~ns:30_000
           done))
  done;
  let report = System.run sys in
  (m, plan, report, !printed, !dropped)

let chaos_event_kind (k : Obs.Event.kind) =
  match k with
  | Obs.Event.Fi_inject | Obs.Event.Cpu_offline | Obs.Event.Proc_requeued
  | Obs.Event.Alloc_retry | Obs.Event.Timeout_fired | Obs.Event.Proc_restarted
  | Obs.Event.Fault ->
    true
  | _ -> false

let scenario_chaos config snapshot seed clients jobs faults chrome_out check =
  let chaos =
    Scenario.make ~name:"chaos"
      ~streams:(fun (m, _, _, printed, dropped) ->
        [
          ("events", Scenario.event_lines m);
          ("printed", [ string_of_int printed ]);
          ("dropped", [ string_of_int dropped ]);
        ])
      (fun () -> run_chaos ~config ~seed ~clients ~jobs ~faults)
  in
  let ((m, plan, report, printed, dropped) as first) = Scenario.play chaos in
  print_string (Fi.to_string plan);
  Printf.printf "chaos: %d clients x %d jobs, %d printed, %d dropped\n" clients
    jobs printed dropped;
  Printf.printf "processors online at halt: %d/%d\n"
    (K.Machine.online_processors m)
    (K.Machine.processor_count m);
  print_endline "recovery log:";
  let tracer = K.Machine.tracer m in
  Obs.Tracer.iter ~kinds:(Obs.Tracer.kinds chaos_event_kind) tracer (fun seq ->
      Printf.printf "  %s\n" (Obs.Event.to_string (Obs.Tracer.event tracer seq)));
  print_report report;
  (match Fi.check_invariants m with
  | [] -> print_endline "invariants: ok"
  | violations ->
    print_endline "invariants VIOLATED:";
    List.iter (Printf.printf "  %s\n") violations;
    die "chaos: %d invariant violations" (List.length violations));
  write_chrome chrome_out (machines_trace [ ("", m) ]);
  maybe_snapshot snapshot m;
  if check then begin
    (* Same seed, fresh machine: the event streams must be identical. *)
    or_die "determinism check" (Scenario.same_seed ~first chaos);
    print_endline "determinism check: identical event streams"
  end

(* Net: the spooler split across an N-node star cluster joined by the
   virtual interconnect, optionally under a seeded link-fault plan.
   Nodes 0..N-2 each run [clients] users sending composite jobs through
   an imported surrogate port; node N-1 (the printshop) owns the real
   queue.  The printer drains until quiet so a plan hostile enough to
   lose frames still halts cleanly.  Returns the cluster, the link plan
   armed, and the list the printer records into. *)
let boot_net ~processors ~nodes ~seed ~clients ~jobs ~link_faults ~partitions
    ?latency () =
  let cluster = Net.Cluster.create ?default_latency_ns:latency () in
  let trace_level = Obs.Tracer.Events in
  let config = { K.Machine.default_config with processors; trace_level } in
  let client_nodes =
    Array.init (nodes - 1) (fun i ->
        Net.Cluster.boot_node cluster
          ~name:
            (if nodes = 2 then "clients"
             else Printf.sprintf "clients%d" (i + 1))
          ~config ())
  in
  let node_b, mb = Net.Cluster.boot_node cluster ~name:"printshop" ~config () in
  Array.iter
    (fun (id, _) -> ignore (Net.Cluster.connect cluster id node_b))
    client_nodes;
  let plan =
    if link_faults > 0 || partitions > 0 then begin
      let horizon_ns = max 2_000_000 (clients * jobs * 300_000) in
      let p =
        Fi.random_links ~seed ~horizon_ns ~links:(nodes - 1)
          ~count:link_faults ~partitions
      in
      Net.Cluster.arm_links cluster p;
      Some p
    end
    else None
  in
  let queue = K.Machine.create_port mb ~capacity:8 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:node_b ~name:"printer"
    ~mask:Rights.read_only queue;
  let printed = ref [] in
  ignore
    (K.Machine.spawn mb ~name:"printer" (fun () ->
         let quiet = ref 0 in
         while !quiet < 3 do
           match
             K.Machine.receive_timeout mb ~port:queue ~timeout_ns:2_000_000
           with
           | Some job ->
             quiet := 0;
             let owner = K.Machine.read_word mb job ~offset:0 in
             let seq = K.Machine.read_word mb job ~offset:4 in
             K.Machine.compute mb 25;
             printed := (owner, seq) :: !printed
           | None -> incr quiet
         done));
  Array.iteri
    (fun i (id, ma) ->
      let surrogate = Net.Cluster.import cluster ~node:id ~name:"printer" in
      for u = 1 to clients do
        (* Users are numbered globally so every job's owner field is
           unique cluster-wide (and unchanged in the 2-node case). *)
        let u = (i * clients) + u in
        ignore
          (K.Machine.spawn ma
             ~name:(Printf.sprintf "user%d" u)
             (fun () ->
               for j = 1 to jobs do
                 let job = K.Machine.allocate_generic ma ~data_length:16 () in
                 K.Machine.write_word ma job ~offset:0 u;
                 K.Machine.write_word ma job ~offset:4 j;
                 K.Machine.compute ma 10;
                 K.Machine.send ma ~port:surrogate ~msg:job;
                 (* Spread traffic across the fault plan's horizon so armed
                    link faults actually meet frames in flight. *)
                 K.Machine.delay ma ~ns:400_000
               done))
      done)
    client_nodes;
  (cluster, plan, printed)

(* [kill = Some (name, kill_ns, restart_at)] stages the whole-node
   failure story through [Ckpt.stage_rejoin]: checkpoint every node into
   a scratch journal at the round boundary at or below [kill_ns], kill
   [name] there, and (when [restart_at] is set) splice a checkpoint
   replay back in at the restart instant.  The boot closure rebuilds the
   identical scenario, which is what makes the replay — and therefore
   the rejoin — deterministic. *)
let run_net ~processors ~nodes ~engine ~seed ~clients ~jobs ~link_faults
    ~partitions ~latency ~kill =
  let quantum_ns = 200_000 in
  let boot =
    boot_net ~processors ~nodes ~seed ~clients ~jobs ~link_faults ~partitions
      ~latency
  in
  let cluster, plan, printed = boot () in
  (* The list of the printer incarnation alive at halt: a printshop
     rejoin splices in a replay whose printer records into its own boot's
     list, re-printing the checkpointed jobs there. *)
  let printed = ref printed in
  let staged =
    match kill with
    | None -> None
    | Some (victim_name, kill_ns, restart_at) ->
      let victim =
        let rec find i =
          if i >= nodes then
            die "--kill-node %s: no such node (try --topology)" victim_name
          else if String.equal (Net.Cluster.node_name cluster i) victim_name
          then i
          else find (i + 1)
        in
        find 0
      in
      if kill_ns < quantum_ns then
        die "--kill-node %s@%d: kill instant must be at least one %d ns round"
          victim_name kill_ns quantum_ns;
      (match restart_at with
      | Some at when at <= kill_ns ->
        die "--restart-at %d: must come after the kill at %d ns" at kill_ns
      | _ -> ());
      let path = St.scratch_path "imax_net_ckpt.journal" in
      St.fresh_path path;
      let store = St.open_ path in
      (* The checkpoint sits on the kill instant's round boundary: work
         the victim did inside the final partial round is rolled back
         and re-done after the restart (the at-least-once seam DESIGN.md
         documents). *)
      let nplan =
        Ckpt.stage_rejoin
          { Ckpt.store; ckpt_ns = kill_ns; kill_ns; restart_ns = restart_at }
          ~key:"net" ~node:victim ~seed ~engine ~quantum_ns
          ~boot:(fun () ->
            let c, _, p = boot () in
            if victim = nodes - 1 then printed := p;
            c)
          cluster
      in
      Some (store, nplan, victim)
  in
  (* Counters and the round/horizon clock are cumulative across resumed
     runs, so this report covers the run up to the checkpoint too. *)
  let report = Net.Cluster.run cluster ~engine ~quantum_ns () in
  Option.iter (fun (store, _, _) -> St.close store) staged;
  let nplan = Option.map (fun (_, nplan, victim) -> (nplan, victim)) staged in
  (* Re-fetch from the cluster: a restarted node's machine record was
     replaced by the checkpoint replay mid-run. *)
  let machines = Array.init nodes (Net.Cluster.machine cluster) in
  (cluster, plan, nplan, report, List.rev !(!printed), machines)

let scenario_net processors nodes par seed clients jobs link_faults partitions
    latency kill_spec restart_at topology chrome_out check =
  if nodes < 2 then die "--nodes %d: a cluster needs at least 2 nodes" nodes;
  let kill =
    match (kill_spec, restart_at) with
    | None, None -> None
    | None, Some _ -> die "--restart-at: requires --kill-node"
    | Some spec, restart_at -> (
      match String.rindex_opt spec '@' with
      | None -> die "--kill-node %s: expected NAME@NS" spec
      | Some i ->
        let name = String.sub spec 0 i in
        let at =
          String.sub spec (i + 1) (String.length spec - i - 1)
        in
        (match int_of_string_opt at with
        | Some at when at > 0 -> Some (name, at, restart_at)
        | _ -> die "--kill-node %s: expected NAME@NS with NS > 0" spec))
  in
  let engine = engine_of_par par in
  let net engine =
    Scenario.make ~name:"net"
      ~streams:(fun (cluster, _, _, report, printed, machines) ->
        ( "printed",
          List.map (fun (owner, seq) -> Printf.sprintf "%d %d" owner seq) printed
        )
        :: ("report", [ Net.Cluster.report_to_string report ])
        :: Array.to_list
             (Array.mapi
                (fun i m ->
                  (Net.Cluster.node_name cluster i, Scenario.event_lines m))
                machines))
      (fun () ->
        run_net ~processors ~nodes ~engine ~seed ~clients ~jobs ~link_faults
          ~partitions ~latency ~kill)
  in
  let ((cluster, plan, nplan, report, printed, machines) as first) =
    Scenario.play (net engine)
  in
  (match plan with
  | Some p -> print_string (Fi.link_plan_to_string p)
  | None -> ());
  (match nplan with
  | Some (p, _) -> print_string (Fi.node_plan_to_string p)
  | None -> ());
  Printf.printf "net: %d clients x %d jobs across %d nodes, %d printed\n"
    ((nodes - 1) * clients) jobs nodes (List.length printed);
  print_string (Net.Cluster.report_to_string report);
  (match nplan with
  | Some (_, victim) ->
    (* A node-failure run must terminate cleanly: every remote send either
       delivered or dead-lettered; nothing may still hang in the
       interconnect at halt. *)
    if
      Net.Cluster.frames_in_flight cluster <> 0
      || Net.Cluster.total_unacked cluster <> 0
      || Net.Cluster.total_backlog cluster <> 0
    then die "net --kill-node: frames still pending at halt";
    Array.iteri
      (fun i m ->
        if Net.Cluster.node_alive cluster i then
          match Fi.check_invariants m with
          | [] -> ()
          | violations ->
            List.iter (Printf.printf "  %s\n") violations;
            die "net --kill-node: node %S violates %d invariant(s)"
              (Net.Cluster.node_name cluster i)
              (List.length violations))
      machines;
    if Net.Cluster.node_alive cluster victim then
      Printf.printf
        "rejoin: node %S restored from its checkpoint and re-homed (name \
         service at epoch %d)\n"
        (Net.Cluster.node_name cluster victim)
        (Net.Name_service.epoch (Net.Cluster.name_service cluster))
    else
      Printf.printf "node %S still down at halt (no --restart-at)\n"
        (Net.Cluster.node_name cluster victim)
  | None -> ());
  if topology then print_string (Net.Cluster.topology cluster);
  write_chrome chrome_out (fun () -> Net.Cluster.chrome_trace cluster);
  if check then begin
    (* Loud-loss gate: with no fault plan of any kind armed, a lost frame
       means the ARQ gave up on a healthy fabric — always a bug. *)
    if
      report.Net.Cluster.frames_lost > 0
      && Option.is_none plan && Option.is_none nplan
    then
      die "net --check: %d frame(s) lost with no fault plan armed"
        report.Net.Cluster.frames_lost;
    (* Same seed, fresh cluster, SEQUENTIAL engine: printed output and
       every node's event stream must be identical.  With --par this is
       the cross-engine gate — a parallel run proven byte-identical to
       the sequential one.  A --kill-node run re-stages the whole
       checkpoint/kill/rejoin sequence. *)
    or_die "determinism check" (Scenario.equal_engines ~first net engine);
    if engine = Net.Cluster.Seq then
      print_endline "determinism check: identical event streams on all nodes"
    else
      Printf.printf
        "determinism check: %d-domain run identical to sequential on all \
         nodes\n"
        par
  end

(* Store: file composite graphs (sharing and a cycle included) into a
   fresh journal, tombstone a third, optionally compact, and — with
   --check — close, reopen, and verify every surviving graph reconstructs
   isomorphically on a fresh machine. *)
exception Check_failed of string

let scenario_store config path graphs compact_flag par check =
  let par_domains =
    match engine_of_par par with Net.Cluster.Par d -> d | _ -> 1
  in
  let config = { config with System.trace_level = Obs.Tracer.Events } in
  let sys = System.boot ~config () in
  let m = System.machine sys in
  let table = K.Machine.table m in
  St.fresh_path path;
  let store = St.open_ path in
  St.attach store m;
  let shared = K.Machine.allocate_generic m ~data_length:8 () in
  K.Machine.write_word m shared ~offset:0 432;
  let key i = Printf.sprintf "g%03d" i in
  let filed = ref 0 in
  for i = 0 to graphs - 1 do
    let root =
      K.Machine.allocate_generic m ~data_length:16 ~access_length:3 ()
    in
    K.Machine.write_word m root ~offset:0 i;
    Segment.store_access table root ~slot:0 (Some shared);
    Segment.store_access table root ~slot:1 (Some root);
    filed := !filed + St.store_graph store m ~key:(key i) root
  done;
  for i = 0 to graphs - 1 do
    if i mod 3 = 0 then St.delete store ~key:(key i)
  done;
  let reclaimed = if compact_flag then St.compact store else 0 in
  Printf.printf "store: %d graphs filed (%d objects), %d live after tombstones\n"
    graphs !filed (St.count store);
  let appends, syncs, compactions, written, freed = St.stats store in
  Printf.printf
    "journal: %d appends, %d syncs, %d compactions, %d bytes written, %d \
     reclaimed\n"
    appends syncs compactions written freed;
  if compact_flag then
    Printf.printf "compaction reclaimed %d bytes (file now %d live records)\n"
      reclaimed (St.count store);
  St.close store;
  if check then begin
    (* The journal handle is a single-domain object, so the parallel check
       reads every wire image up front; verification — reconstruct on a
       fresh machine, re-capture, compare — shares nothing and fans out
       over the key space round-robin, each domain on its own machine. *)
    let store2 = St.open_ path in
    let wires =
      Array.of_list
        (List.map
           (fun key ->
             match St.get_wire store2 ~key with
             | Some w -> (key, w)
             | None -> die "store check: %S lost its wire image" key)
           (St.keys store2))
    in
    St.close store2;
    let verify_slice d =
      let sys2 = System.boot ~config () in
      let m2 = System.machine sys2 in
      Array.iteri
        (fun idx (key, stored) ->
          if idx mod par_domains = d then begin
            let root = Object_filing.reconstruct m2 stored in
            let rebuilt = Object_filing.capture m2 root in
            if not (Object_filing.wire_equal stored rebuilt) then
              raise (Check_failed key)
          end)
        wires
    in
    (try
       if par_domains = 1 then verify_slice 0
       else begin
         let pool = Net.Par_exec.create ~domains:par_domains in
         Fun.protect
           ~finally:(fun () -> Net.Par_exec.shutdown pool)
           (fun () -> Net.Par_exec.run pool ~tasks:par_domains verify_slice)
       end
     with Check_failed key ->
       die "store check: %S not isomorphic after reopen" key);
    Printf.printf
      "store check: %d graphs verified across close/reopen (%d domain(s))\n"
      (Array.length wires) par_domains
  end

(* Checkpoint: run a deterministic spooler workload — the one [trace]
   runs, or [net]'s at two nodes — kill it at a chosen virtual-time
   instant (or a cluster at a round boundary), checkpoint, re-boot +
   replay + resume, and — with --check — fail unless the resumed event
   stream is bit-identical to an uninterrupted run's.

   The straight run of a cluster always uses the sequential engine; the
   victim and the restored cluster use --par's engine.  With --check this
   proves checkpoint/restore composes with the parallel engine: kill a
   parallel run, restore it, and the streams still match a sequential run
   that was never killed.  The victim is dropped once saved: the only way
   back is through the store. *)
let scenario_checkpoint processors path kill_ns rounds quantum_ns cluster
    clients jobs par check =
  let engine = engine_of_par par in
  if par > 1 && not cluster then
    die "--par %d: only --cluster checkpoints run on multiple domains" par;
  let key = if cluster then "cluster" else "machine" in
  St.fresh_path path;
  let store = St.open_ path in
  let result =
    if cluster then
      let spool engine =
        Scenario.cluster ~name:"checkpoint" ~engine ~quantum_ns (fun () ->
            let cluster, _, _ =
              boot_net ~processors ~nodes:2 ~seed:0 ~clients ~jobs
                ~link_faults:0 ~partitions:0 ()
            in
            cluster)
      in
      let seq = spool Net.Cluster.Seq in
      Scenario.kill_restore
        ~expected:(seq.Scenario.streams (Scenario.play seq))
        (spool engine) ~store ~key
        ~bound:(Ckpt.Rounds { rounds; quantum_ns })
    else
      let trace_level = Obs.Tracer.Events in
      let config = { System.default_config with processors; trace_level } in
      Scenario.kill_restore
        (Scenario.machine ~name:"checkpoint" (fun () ->
             System.machine (fst (boot_spooler ~config ~clients ~jobs))))
        ~store ~key ~bound:(Ckpt.Virtual_ns kill_ns)
  in
  let r = Option.get (Ckpt.load store ~key) in
  St.close store;
  (if cluster then
     Printf.printf
       "checkpoint: killed the cluster after %d rounds of %d ns, %d node \
        images filed under \"cluster\"\n"
       rounds quantum_ns
       (List.length r.Ckpt.c_nodes)
   else
     Printf.printf
       "checkpoint: killed at %d virtual ns (machine clock %d ns), image %d \
        bytes, filed under \"machine\"\n"
       kill_ns r.Ckpt.c_now_ns
       (List.fold_left (fun a (_, i) -> a + String.length i) 0 r.Ckpt.c_nodes));
  let events m = Obs.Tracer.retained (K.Machine.tracer m) in
  match or_die "kill/restore check" result with
  | Scenario.Machine m ->
    Printf.printf "restore: replayed to the kill point and resumed to %d ns\n"
      (K.Machine.now m);
    if check then
      Printf.printf
        "kill/restore check: resumed stream identical to the straight run \
         (%d events)\n"
        (events m)
  | Scenario.Cluster c ->
    print_endline "restore: replayed the recorded rounds and resumed to halt";
    if check then
      for i = 0 to Net.Cluster.node_count c - 1 do
        Printf.printf
          "kill/restore check: node %S stream identical to the straight run \
           (%d events)\n"
          (Net.Cluster.node_name c i)
          (events (Net.Cluster.machine c i))
      done

(* ---------------- commands ---------------- *)

let pipeline_cmd =
  let stages = int_arg "stages" 4 ~docv:"N" ~doc:"Pipeline stages." in
  let messages = int_arg "messages" 100 ~docv:"N" ~doc:"Messages." in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Multi-stage port pipeline across processors.")
    Term.(const scenario_pipeline $ config_term $ snapshot $ stages $ messages)

let churn_cmd =
  let rounds = int_arg "rounds" 50 ~docv:"N" ~doc:"Churn rounds." in
  Cmd.v
    (Cmd.info "churn" ~doc:"Allocation churn; pair with --gc to reclaim.")
    Term.(const scenario_churn $ config_term $ snapshot $ rounds)

let tapes_cmd =
  let drives = int_arg "drives" 6 ~docv:"N" ~doc:"Tape drives." in
  Cmd.v
    (Cmd.info "tapes" ~doc:"Lost tape drives recovered by destruction filters.")
    Term.(const scenario_tapes $ config_term $ snapshot $ drives)

let rendezvous_cmd =
  let calls = int_arg "calls" 50 ~docv:"N" ~doc:"Entry calls." in
  Cmd.v
    (Cmd.info "rendezvous" ~doc:"Ada rendezvous implemented on 432 ports.")
    Term.(const scenario_rendezvous $ config_term $ snapshot $ calls)

let clients_arg = int_arg "clients" 3 ~docv:"N" ~doc:"Spooler clients."

let jobs_arg = int_arg "jobs" 5 ~docv:"N" ~doc:"Jobs per client."

let trace_cmd =
  let chrome =
    chrome_arg ~doc:"Write a Chrome trace-event JSON file (Perfetto-loadable)."
  in
  let dump = flag_arg "dump" ~doc:"Print every retained event." in
  let legacy =
    flag_arg "legacy"
      ~doc:
        "Also render and print the legacy-format trace lines from the \
         retained events; exits 1 if the ring dropped any."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the spooler workload with event tracing enabled.")
    Term.(
      const scenario_trace $ config_term $ snapshot $ clients_arg $ jobs_arg
      $ chrome $ dump $ legacy)

let metrics_cmd =
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Write the metrics registry as JSON.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run the spooler workload and dump the metrics registry.")
    Term.(
      const scenario_metrics $ config_term $ snapshot $ clients_arg $ jobs_arg
      $ json)

let chaos_cmd =
  let seed = seed_arg ~default:7 ~doc:"Fault-plan seed." in
  let faults =
    int_arg "faults" 1 ~docv:"N"
      ~doc:"Processor hard-faults to inject (capped at processors - 1)."
  in
  let chrome =
    chrome_arg ~doc:"Write a Chrome trace-event JSON file (Perfetto-loadable)."
  in
  let check =
    check_arg
      ~doc:
        "Re-run with the same seed and fail unless the event streams are \
         identical."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a timeout-tolerant spooler under a seeded fault-injection \
          plan and check post-run invariants.")
    Term.(
      const scenario_chaos $ config_term $ snapshot $ seed $ clients_arg
      $ jobs_arg $ faults $ chrome $ check)

let net_cmd =
  let nodes =
    int_arg "nodes" 2 ~docv:"N"
      ~doc:
        "Cluster size: N-1 client nodes in a star around one printshop \
         node."
  in
  let par =
    par_arg
      ~doc:
        "Step cluster nodes on this many OCaml domains (1 = sequential \
         engine); results are byte-identical either way."
  in
  let seed = seed_arg ~default:11 ~doc:"Link-fault seed." in
  let link_faults =
    int_arg "link-faults" 0 ~docv:"N"
      ~doc:"Drop/duplicate/reorder bursts to draw into the plan."
  in
  let partitions =
    int_arg "partitions" 0 ~docv:"N"
      ~doc:"Partition windows to draw into the plan."
  in
  let latency =
    int_arg "latency" 250_000 ~docv:"NS"
      ~doc:"Per-hop link latency (virtual ns)."
  in
  let topology =
    flag_arg "topology"
      ~doc:"Dump nodes, links, channels, and exported names at exit."
  in
  let chrome =
    chrome_arg
      ~doc:
        "Write a multi-process Chrome trace with cross-node frame flow \
         arrows."
  in
  let kill_node =
    Arg.(
      value
      & opt (some string) None
      & info [ "kill-node" ] ~docv:"NAME@NS"
          ~doc:
            "Checkpoint the cluster, then kill node NAME at virtual instant \
             NS; sends to the dead node retry with bounded backoff and \
             dead-letter instead of hanging.")
  in
  let restart_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "restart-at" ] ~docv:"NS"
          ~doc:
            "With --kill-node: splice a checkpoint replay of the dead node \
             back in at this instant, republishing its names under a bumped \
             name-service epoch.")
  in
  let check =
    check_arg
      ~doc:
        "Re-run with the same seed and fail unless printed output and every \
         node's event stream are identical.  Also fails loudly if any frame \
         was lost with no fault plan armed."
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:
         "Run the spooler split across an N-node star cluster over the \
          virtual interconnect, optionally under a seeded link-fault plan, \
          a staged whole-node kill/rejoin, and on multiple OCaml domains.")
    Term.(
      const scenario_net $ processors $ nodes $ par $ seed $ clients_arg
      $ jobs_arg $ link_faults $ partitions $ latency $ kill_node $ restart_at
      $ topology $ chrome $ check)

let path_arg ~default =
  Arg.(
    value & opt string default
    & info [ "path" ] ~docv:"PATH"
        ~doc:"Journal file (recreated; PATH.tmp is the compaction scratch).")

let store_cmd =
  let graphs = int_arg "graphs" 24 ~docv:"N" ~doc:"Composite graphs to file." in
  let compact =
    flag_arg "compact" ~doc:"Compact the journal after tombstoning."
  in
  let check =
    check_arg
      ~doc:
        "Close, reopen, and fail unless every surviving graph reconstructs \
         isomorphically on a fresh machine."
  in
  let par =
    par_arg
      ~doc:
        "With --check: verify graphs on this many OCaml domains, each with \
         its own fresh machine."
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "File object graphs into the persistent store's journal, tombstone \
          some, and verify recovery across close/reopen.")
    Term.(
      const scenario_store $ config_term
      $ path_arg ~default:(St.scratch_path "imax_store.journal")
      $ graphs $ compact $ par $ check)

let checkpoint_cmd =
  let kill_ns =
    int_arg "kill-ns" 200_000 ~docv:"NS"
      ~doc:"Kill the single-machine run at this virtual-time instant."
  in
  let rounds =
    int_arg "rounds" 4 ~docv:"N"
      ~doc:"With --cluster: kill after this many interconnect rounds."
  in
  let quantum =
    int_arg "quantum" 100_000 ~docv:"NS"
      ~doc:"With --cluster: interconnect round quantum (virtual ns)."
  in
  let cluster =
    flag_arg "cluster"
      ~doc:
        "Checkpoint a two-node cluster at a round boundary instead of a \
         single machine."
  in
  let check =
    check_arg
      ~doc:
        "Fail unless the killed-and-restored run's event stream is \
         bit-identical to an uninterrupted run's."
  in
  let par =
    par_arg
      ~doc:
        "With --cluster: run the victim and the restored cluster on this \
         many OCaml domains (the straight reference run stays sequential)."
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Kill a deterministic run at a chosen instant, checkpoint it into \
          the store, then restore by replay and resume — provably \
          bit-identical to a run that was never killed.")
    Term.(
      const scenario_checkpoint $ processors
      $ path_arg ~default:(St.scratch_path "imax_ckpt.journal")
      $ kill_ns $ rounds $ quantum $ cluster $ clients_arg $ jobs_arg $ par
      $ check)

(* Open-loop traffic harness: replay a seeded arrival schedule through the
   typed-port request path and report end-to-end latency quantiles from
   the request spans.  --nodes >= 2 drives the same schedule across the
   virtual interconnect; --check proves the whole run — arrival stream,
   span stream, merged metrics — is a pure function of the seed (and with
   --par, byte-identical to the sequential cluster engine). *)
let scenario_loadgen processors users rate sessions requests mix pattern seed
    nodes par workers pumps chrome_out check =
  let profile =
    match Load.Mix.profile_of_string mix with
    | Some p -> p
    | None ->
      die "--mix %s: expected one of %s" mix
        (String.concat ", "
           (Array.to_list
              (Array.map Load.Mix.profile_name Load.Mix.profiles)))
  in
  let pattern =
    match Load.Arrival.pattern_of_string pattern with
    | Some p -> p
    | None -> die "--pattern %s: expected poisson or bursty" pattern
  in
  if nodes < 1 then die "--nodes %d: need at least one node" nodes;
  let spec =
    {
      Load.Arrival.seed;
      users;
      sessions;
      requests_per_session = requests;
      rate_rps = rate;
      pattern;
      profile;
    }
  in
  let engine = engine_of_par par in
  let opt n = if n > 0 then Some n else None in
  let loadgen engine =
    Scenario.make ~name:"loadgen" ~streams:Load.Loadgen.streams (fun () ->
        if nodes = 1 then
          Load.Loadgen.run_machine ~processors ?workers:(opt workers)
            ?pumps:(opt pumps) ~trace_level:Obs.Tracer.Events ~spec ()
        else
          Load.Loadgen.run_cluster ~nodes ~processors ?workers:(opt workers)
            ?pumps:(opt pumps) ~engine ~trace_level:Obs.Tracer.Events ~spec ())
  in
  let o = Scenario.play (loadgen engine) in
  let total = Load.Arrival.total spec in
  if o.Load.Loadgen.o_completed <> total then
    die "loadgen: %d of %d requests completed (%d issued, %d blocked)"
      o.Load.Loadgen.o_completed total o.Load.Loadgen.o_issued
      o.Load.Loadgen.o_deadlocked;
  if o.Load.Loadgen.o_deadlocked <> 0 then
    die "loadgen: %d processes still blocked at halt"
      o.Load.Loadgen.o_deadlocked;
  let us ns = ns /. 1e3 in
  Printf.printf
    "loadgen: %d users x %d sessions x %d requests = %d (%s, %s mix)\n" users
    sessions requests total
    (Load.Arrival.pattern_name pattern)
    (Load.Mix.profile_name profile);
  Printf.printf "offered %.0f rps (realized %.0f), achieved %.0f rps\n" rate
    (Load.Arrival.offered_rps o.Load.Loadgen.o_requests)
    (Load.Loadgen.achieved_rps o);
  Printf.printf "horizon %.1f ms, last request retired at %.1f ms\n"
    (float_of_int (Load.Arrival.horizon_ns o.Load.Loadgen.o_requests) /. 1e6)
    (float_of_int o.Load.Loadgen.o_last_done_ns /. 1e6);
  Printf.printf "latency p50 %.1f us  p99 %.1f us  p999 %.1f us\n"
    (us (Load.Loadgen.quantile o 0.5))
    (us (Load.Loadgen.quantile o 0.99))
    (us (Load.Loadgen.quantile o 0.999));
  Array.iter
    (fun cls ->
      match
        Obs.Metrics.find_log_histogram o.Load.Loadgen.o_metrics
          (Obs.Span.latency_name cls)
      with
      | Some lh when lh.Obs.Metrics.l_hist.U.Stats.lh_count > 0 ->
        Printf.printf "  %-10s %6d reqs  p50 %8.1f us  p99 %8.1f us\n" cls
          lh.Obs.Metrics.l_hist.U.Stats.lh_count
          (us (Load.Loadgen.class_quantile o ~cls 0.5))
          (us (Load.Loadgen.class_quantile o ~cls 0.99))
      | _ -> ())
    Load.Mix.names;
  write_chrome chrome_out (machines_trace o.Load.Loadgen.o_machines);
  if check then begin
    (* Same seed, fresh run: the arrival schedule, the request-span event
       stream, and the merged metrics must all be byte-identical.  The
       re-run uses the SEQUENTIAL engine, so with --par on a cluster this
       is also the cross-engine determinism gate. *)
    or_die
      (Printf.sprintf "loadgen --check (seed %d)" seed)
      (Scenario.equal_engines ~first:o loadgen engine);
    Printf.printf
      "loadgen check passed: arrival, span, and metrics streams \
       byte-identical%s\n"
      (if nodes > 1 && par > 1 then " across Par/Seq engines" else "")
  end

let loadgen_cmd =
  let users =
    int_arg "users" 100 ~docv:"N" ~doc:"Simulated users issuing requests."
  in
  let rate =
    Arg.(
      value & opt float 20_000.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Aggregate offered load, requests per virtual second.")
  in
  let sessions =
    int_arg "sessions" 2 ~docv:"N" ~doc:"Sessions per user, back to back."
  in
  let requests = int_arg "requests" 4 ~docv:"N" ~doc:"Requests per session." in
  let mix =
    Arg.(
      value & opt string "typical"
      & info [ "mix" ] ~docv:"PROFILE"
          ~doc:
            "CPI weight profile: typical, compute, memory, control, or mixed.")
  in
  let pattern =
    Arg.(
      value & opt string "poisson"
      & info [ "pattern" ] ~docv:"P"
          ~doc:"Arrival pattern: poisson or bursty.")
  in
  let seed = seed_arg ~default:42 ~doc:"Arrival-schedule seed." in
  let nodes =
    int_arg "nodes" 1 ~docv:"N"
      ~doc:
        "1 = single machine; >= 2 drives the schedule across an \
         N-node cluster (node 0 serves, the rest issue)."
  in
  let par =
    par_arg
      ~doc:
        "With --nodes >= 2: step cluster nodes on this many OCaml domains \
         (1 = sequential engine); results are byte-identical either way."
  in
  let workers =
    int_arg "workers" 0 ~docv:"N"
      ~doc:"Serving processes (0 = twice the processor count)."
  in
  let pumps =
    int_arg "pumps" 0 ~docv:"N"
      ~doc:"Issuing processes (per client node when clustered)."
  in
  let chrome =
    chrome_arg
      ~doc:
        "Write a Chrome trace (request spans as async slices) to this path."
  in
  let check =
    check_arg
      ~doc:
        "Re-run the same seed and fail unless arrival, request-span, and \
         merged-metrics streams are byte-identical (with --par: against \
         the sequential engine)."
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a seeded open-loop arrival schedule through the typed-port \
          request path and report end-to-end latency quantiles from the \
          request spans.")
    Term.(
      const scenario_loadgen $ processors $ users $ rate $ sessions
      $ requests $ mix $ pattern $ seed $ nodes $ par $ workers $ pumps
      $ chrome $ check)

(* Swap: the virtual-memory tier end to end.  A multiuser touch workload
   runs against a swapping memory manager whose resident set is bounded
   by --ram-bytes and whose evicted segment images live in a store-backed
   swap device (journaled, CRC-framed, compacted in virtual time).  Every
   read verifies the payload written at allocation, so a corrupt image
   cannot go unnoticed.  --check re-runs the seed on a fresh journal and
   compares event streams, then kills a third run mid-swap, checkpoints
   it, restores by replay, and requires the resumed stream to be
   bit-identical to the straight run's. *)
let scenario_swap config path policy objects object_bytes users touches
    ram_bytes seed kill_ns chrome_out check =
  if objects <= 0 then die "--objects %d: need at least one object" objects;
  if object_bytes <= 0 then die "--object-bytes %d: need a positive size"
      object_bytes;
  if users <= 0 then die "--users %d: need at least one user" users;
  let ws = objects * object_bytes in
  let ram_bytes = if ram_bytes > 0 then ram_bytes else max object_bytes (ws / 4) in
  let boots = ref [] in
  (* A closed loop: each touch is a request due at once, with 4 units of
     compute after it. *)
  let users =
    List.init users (fun u -> (u + 1, List.init touches (fun _ -> (0, 1, 4))))
  in
  let boot_sys () =
    let n = List.length !boots + 1 in
    (* A million-object working set appends constantly: raise the fsync
       cadence. *)
    let w =
      Load.Working_set.boot
        ~config:
          {
            config with
            System.memory_manager = policy;
            trace_level = Obs.Tracer.Events;
          }
        ~journal:(if n = 1 then path else Printf.sprintf "%s.%d" path n)
        ~sync_every:256 ~ram_bytes ~objects ~object_bytes ~seed ~users
    in
    boots := w :: !boots;
    Load.Working_set.machine w
  in
  let m = boot_sys () in
  let report = K.Machine.run m in
  let tally = Load.Working_set.tally (List.hd !boots) in
  Printf.printf "swap: %s policy, %d objects x %d B = %d KB working set\n"
    (System.memory_choice_to_string policy)
    objects object_bytes (ws / 1024);
  Printf.printf "envelope: %d KB RAM (%.1fx over-commit), %d KB heap\n"
    (ram_bytes / 1024)
    (float_of_int ws /. float_of_int ram_bytes)
    (Load.Working_set.heap_bytes ~ram_bytes / 1024);
  print_report report;
  Printf.printf "swap traffic: %d faults, %d ins, %d outs, %d pressure events\n"
    tally.faults tally.swap_ins tally.swap_outs tally.pressure;
  (match tally.resident with
  | Some (n, b) ->
    Printf.printf "residents at halt: %d (%d KB of %d KB envelope)\n" n
      (b / 1024) (ram_bytes / 1024);
    if b > ram_bytes then
      die "swap: resident set (%d B) exceeds the RAM envelope (%d B)" b
        ram_bytes
  | None -> ());
  (match tally.device with
  | Some (name, ds) ->
    Printf.printf "device %S: %d writes (%d KB), %d reads (%d KB), %d drops\n"
      name ds.writes (ds.bytes_written / 1024) ds.reads (ds.bytes_read / 1024)
      ds.drops
  | None -> ());
  if tally.corrupt > 0 then
    die "swap: %d of %d payload reads came back corrupt" tally.corrupt
      tally.touches;
  Printf.printf "payload check: %d reads verified, 0 corrupt\n" tally.touches;
  write_chrome chrome_out (machines_trace [ ("", m) ]);
  if check then begin
    (* Same seed, fresh journal: the event stream — swap events, journal
       appends, the lot — must be identical. *)
    let swap = Scenario.machine ~name:"swap" boot_sys in
    let straight = Scenario.Machine m in
    let expected = swap.Scenario.streams straight in
    or_die "swap check" (Scenario.same_seed ~first:straight swap);
    Printf.printf "determinism check: identical event streams (%d events)\n"
      (Obs.Tracer.retained (K.Machine.tracer m));
    (* Kill mid-swap, checkpoint, restore by replay, resume: the resumed
       stream must match the straight run exactly. *)
    let kill_ns =
      if kill_ns > 0 then kill_ns
      else max 1 (report.K.Machine.elapsed_ns / 2)
    in
    let ckpt_path = path ^ ".ckpt" in
    St.fresh_path ckpt_path;
    let ckpt_store = St.open_ ckpt_path in
    ignore
      (or_die "swap kill/restore check"
         (Scenario.kill_restore ~expected swap ~store:ckpt_store ~key:"swap"
            ~bound:(Ckpt.Virtual_ns kill_ns)));
    St.close ckpt_store;
    Printf.printf
      "kill/restore check: killed at %d ns mid-swap, resumed stream \
       identical\n"
      kill_ns
  end;
  List.iter (fun w -> St.close (Load.Working_set.store w)) !boots

let swap_cmd =
  let policy =
    let doc = "Victim policy: " ^ doc_choices swap_policies ^ "." in
    Arg.(
      value
      & opt (enum swap_policies) System.Swapping_lru
      & info [ "policy" ] ~doc)
  in
  let objects =
    int_arg "objects" 4096 ~docv:"N" ~doc:"Live objects in the working set."
  in
  let object_bytes =
    int_arg "object-bytes" 256 ~docv:"B" ~doc:"Data bytes per object."
  in
  let users =
    int_arg "users" 8 ~docv:"N" ~doc:"Concurrent touching processes."
  in
  let touches =
    int_arg "touches" 400 ~docv:"N" ~doc:"Random touches per user."
  in
  let ram_bytes =
    int_arg "ram-bytes" 0 ~docv:"B"
      ~doc:
        "Resident-set RAM envelope in bytes (0 = a quarter of the \
         working set)."
  in
  let seed = seed_arg ~default:7 ~doc:"Touch-schedule seed." in
  let kill_ns =
    int_arg "kill-ns" 0 ~docv:"NS"
      ~doc:
        "With --check: kill the victim run at this virtual instant (0 \
         = halfway through the straight run)."
  in
  let chrome =
    chrome_arg
      ~doc:"Write a Chrome trace (fault-in slices, vm category) to this path."
  in
  let check =
    check_arg
      ~doc:
        "Fail unless a same-seed re-run's event stream is byte-identical, \
         and a run killed mid-swap, checkpointed, and restored by replay \
         resumes bit-identically."
  in
  Cmd.v
    (Cmd.info "swap"
       ~doc:
         "Multiuser working set held inside a bounded RAM envelope by the \
          swapping memory manager, with evicted segments on a store-backed \
          swap device.")
    Term.(
      const scenario_swap $ swap_config_term
      $ path_arg ~default:(St.scratch_path "imax_swap.journal")
      $ policy $ objects $ object_bytes $ users $ touches $ ram_bytes $ seed
      $ kill_ns $ chrome $ check)

(* ---------------- txn: transactional banking ---------------- *)

let scenario_txn path accounts transfers workers seed cluster kill_ns
    restart_ns ckpt_ns check =
  if accounts < 2 then die "--accounts %d: need at least 2" accounts;
  let max_transfers = I432_txn.Banking.max_transfers ~cluster in
  if transfers > max_transfers then begin
    (* A value the scenario cannot take is a bad invocation, like a flag
       it does not read: one line on stderr, cmdliner's exit code 124. *)
    Printf.eprintf
      "imax_ctl txn: --transfers %d: at most %d%s (the completion port holds \
       at most %d messages)\n"
      transfers max_transfers
      (if cluster then " with --cluster" else "")
      K.Machine.max_port_capacity;
    exit Cmd.Exit.cli_error
  end;
  if kill_ns > 0 && not cluster then
    die "--kill-ns: the kill/rejoin variant needs --cluster";
  let restart_ns =
    if kill_ns > 0 && restart_ns = 0 then 2 * kill_ns else restart_ns
  in
  if kill_ns > 0 && restart_ns <= kill_ns then
    die "--restart-ns %d: must come after the kill at %d ns" restart_ns kill_ns;
  if ckpt_ns > 0 && kill_ns = 0 then
    die "--ckpt-ns: only meaningful with --kill-ns";
  if ckpt_ns > kill_ns then
    die "--ckpt-ns %d: the checkpoint must precede the kill at %d ns" ckpt_ns
      kill_ns;
  let txn_counters m =
    List.filter
      (fun c -> String.starts_with ~prefix:"txn." (Obs.Metrics.counter_name c))
      (Obs.Metrics.counters (K.Machine.metrics m))
  in
  let print_result tag (r : I432_txn.Banking.result) =
    Printf.printf "%s: %s\n" tag (I432_txn.Banking.result_to_string r);
    let lats = Array.of_list (List.sort compare r.I432_txn.Banking.latencies) in
    let n = Array.length lats in
    if n > 0 then begin
      let q = U.Stats.nearest_rank ~empty:0 lats in
      Printf.printf
        "completion latency: p50 %d ns, p99 %d ns over %d samples\n" (q 0.5)
        (q 0.99) n
    end
  in
  let die_unless_sound tag r =
    List.iter (die "%s: %s" tag) (I432_txn.Banking.violations r)
  in
  St.fresh_path path;
  let store = St.open_ path in
  if cluster then begin
    let rejoin =
      if kill_ns = 0 then None
      else begin
        let ckpt_path = path ^ ".ckpt" in
        St.fresh_path ckpt_path;
        Some
          {
            Ckpt.store = St.open_ ckpt_path;
            ckpt_ns = (if ckpt_ns > 0 then ckpt_ns else kill_ns);
            kill_ns;
            restart_ns = Some restart_ns;
          }
      end
    in
    let cr =
      I432_txn.Banking.run_cluster ~workers ?rejoin ~history_store:store
        ~accounts ~transfers ~seed ()
    in
    let r = cr.I432_txn.Banking.res in
    Printf.printf "banking cluster: %d accounts on %s, auditor on %s%s\n"
      accounts
      (Net.Cluster.node_name cr.I432_txn.Banking.cluster
         cr.I432_txn.Banking.bank_node)
      (Net.Cluster.node_name cr.I432_txn.Banking.cluster
         cr.I432_txn.Banking.audit_node)
      (if kill_ns > 0 then
         Printf.sprintf ", bank killed at %d ns, rejoined at %d ns" kill_ns
           restart_ns
       else "");
    print_result "cluster" r;
    Printf.printf "%s\n"
      (Net.Cluster.report_to_string cr.I432_txn.Banking.report);
    Printf.printf "txn-level dup frames dropped by the NIC: %d\n"
      (Net.Cluster.txn_dup_drops cr.I432_txn.Banking.cluster);
    die_unless_sound "cluster" r;
    if check then begin
      if
        kill_ns > 0
        && not
             (Net.Cluster.node_alive cr.I432_txn.Banking.cluster
                cr.I432_txn.Banking.bank_node)
      then die "check FAILED: bank node did not rejoin";
      (* An early checkpoint leaves a rollback window of commits whose
         completions already escaped — the rejoin MUST re-send them and
         the audit NIC MUST drop them. *)
      if
        ckpt_ns > 0
        && Net.Cluster.txn_dup_drops cr.I432_txn.Banking.cluster = 0
      then
        die
          "check FAILED: checkpoint at %d ns predates the kill yet the NIC \
           dropped no duplicate frames"
          ckpt_ns;
      Printf.printf
        "check: %s exactly-once across %s\n"
        (if kill_ns > 0 then "kill-mid-commit rejoin kept delivery"
         else "cluster delivery")
        (Printf.sprintf "%d commits" r.I432_txn.Banking.committed)
    end;
    Option.iter (fun r -> St.close r.Ckpt.store) rejoin
  end
  else begin
    let machine, history, r =
      I432_txn.Banking.run ~workers ~history_store:store ~accounts ~transfers
        ~seed ()
    in
    Printf.printf "banking: %d accounts, %d transfers, %d tellers, seed %d\n"
      accounts transfers workers seed;
    print_result "banking" r;
    List.iter
      (fun c ->
        Printf.printf "  %s = %d\n" (Obs.Metrics.counter_name c)
          (Obs.Metrics.counter_value c))
      (txn_counters machine);
    die_unless_sound "banking" r;
    List.iter
      (die "history FAILED: %s does not replay to its live state")
      (I432_txn.History.diverged (Option.get history));
    Printf.printf
      "history: %d accounts tracked, every one replays to its live balance \
       (imax_ctl history acct0 --path %s)\n"
      accounts path;
    if check then begin
      (* Same seed, same configuration (history journaled to a scratch
         twin), same bytes. *)
      let twin = path ^ ".check" in
      let banking =
        Scenario.make ~name:"txn"
          ~streams:(fun (m, _, (r : I432_txn.Banking.result)) ->
            [
              ("committed", [ string_of_int r.I432_txn.Banking.committed ]);
              ("events", Scenario.event_lines m);
            ])
          (fun () ->
            St.fresh_path twin;
            let twin_store = St.open_ twin in
            let run =
              I432_txn.Banking.run ~workers ~history_store:twin_store
                ~accounts ~transfers ~seed ()
            in
            St.close twin_store;
            run)
      in
      or_die "check" (Scenario.same_seed ~first:(machine, history, r) banking);
      (* Kill-mid-commit rejoin on the cluster variant proves the
         exactly-once seam end to end.  Checkpointing well before the
         kill rolls already-completed commits back, so the audit NIC has
         real duplicate frames to drop. *)
      let ckpt_path = path ^ ".ckpt" in
      St.fresh_path ckpt_path;
      let ckpt_store = St.open_ ckpt_path in
      let cr =
        I432_txn.Banking.run_cluster ~workers
          ~rejoin:(I432_txn.Banking.rollback_window ckpt_store)
          ~accounts ~transfers ~seed ()
      in
      die_unless_sound "kill/rejoin" cr.I432_txn.Banking.res;
      let drops = Net.Cluster.txn_dup_drops cr.I432_txn.Banking.cluster in
      if drops = 0 then
        die
          "check FAILED: rollback window produced no duplicate frames for \
           the NIC to drop";
      St.close ckpt_store;
      Printf.printf
        "check: same-seed streams identical; kill-mid-commit rejoin kept %d \
         commits exactly-once (%d duplicate frames dropped)\n"
        cr.I432_txn.Banking.res.I432_txn.Banking.committed drops
    end
  end;
  St.close store

let txn_cmd =
  let accounts =
    int_arg "accounts" 6 ~docv:"N" ~doc:"Bank accounts (token-guarded)."
  in
  let transfers =
    int_arg "transfers" 60 ~docv:"N" ~doc:"Transfers in the seeded mix."
  in
  let workers =
    int_arg "workers" 4 ~docv:"N" ~doc:"Concurrent teller processes."
  in
  let seed = seed_arg ~default:7 ~doc:"Transfer-mix seed." in
  let cluster =
    flag_arg "cluster"
      ~doc:
        "Two-node variant: accounts and tellers on node $(b,bank), the \
         auditor behind an exported port on node $(b,audit)."
  in
  let kill_ns =
    int_arg "kill-ns" 0 ~docv:"NS"
      ~doc:
        "With --cluster: kill the bank node at this virtual instant and \
         rejoin it from its checkpoint."
  in
  let restart_ns =
    int_arg "restart-ns" 0 ~docv:"NS"
      ~doc:"With --kill-ns: rejoin instant (must follow the kill)."
  in
  let ckpt_ns =
    int_arg "ckpt-ns" 0 ~docv:"NS"
      ~doc:
        "With --kill-ns: checkpoint instant (default: the kill itself). \
         Setting it well before the kill rolls committed work back on \
         rejoin, forcing the audit NIC to dedup re-sent completions."
  in
  let check =
    check_arg
      ~doc:
        "Fail unless the run conserves total balance with exactly-once \
         completion, a same-seed re-run's event stream is byte-identical, \
         and a kill-mid-commit checkpoint/rejoin of the bank node still \
         delivers every commit exactly once."
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:
         "Transactional banking: atomic multi-port transfer groups with \
          idempotency keys and event-sourced account history.")
    Term.(
      const scenario_txn
      $ path_arg ~default:(St.scratch_path "imax_txn.journal")
      $ accounts $ transfers $ workers $ seed $ cluster $ kill_ns $ restart_ns
      $ ckpt_ns $ check)

(* ---------------- history: audit an object's event log ---------------- *)

let scenario_history path name to_ns =
  if not (Sys.file_exists path) then
    die "%s: no journal (run `imax_ctl txn` first or pass --path)" path;
  let store = St.open_ path in
  let recs = I432_txn.History.records store ~name in
  (match I432_txn.History.replay store ~name ~to_ns:0 with
  | None -> die "%s: no history filed under this name" name
  | Some base ->
    Printf.printf "%s: base image %d bytes, %d committed mutations\n" name
      (Bytes.length base) (List.length recs));
  List.iteri
    (fun i (commit_ns, key, writes) ->
      Printf.printf "  #%d at %d ns key=%d %s\n" (i + 1) commit_ns key
        (String.concat ", "
           (List.map
              (fun (off, w) -> Printf.sprintf "[%d]=%d" off w)
              writes)))
    recs;
  let bound = if to_ns > 0 then to_ns else max_int in
  (match I432_txn.History.replay store ~name ~to_ns:bound with
  | None -> ()
  | Some img ->
    Printf.printf "replayed to %s: word[0] = %ld\n"
      (if to_ns > 0 then Printf.sprintf "%d ns" to_ns else "end of history")
      (Bytes.get_int32_le img 0));
  St.close store

let history_cmd =
  let obj_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Tracked object name (e.g. acct0).")
  in
  let to_ns =
    int_arg "to-ns" 0 ~docv:"NS"
      ~doc:"Replay only mutations committed at or before this instant."
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Audit an object's event-sourced history: list its committed \
          mutations and replay its state to a point in virtual time.")
    Term.(
      const scenario_history
      $ path_arg ~default:(St.scratch_path "imax_txn.journal")
      $ obj_name $ to_ns)

(* ---------------- image: pinned state images ---------------- *)

(* A machine stopped part-way by a [Machine.run] bound, holding what no
   run-to-end world does: senders parked on a Fifo and on a Priority
   port, parked receivers (one with a deadline), a sleeping, a stopped
   and a ready process, queued messages (one a transaction's), a stored
   AD, a recorded fault, a pending injection and two armed counters. *)
let midrun_world () =
  let m =
    K.Machine.create
      ~config:{ K.Machine.default_config with K.Machine.processors = 2 }
      ()
  in
  let port capacity discipline =
    K.Machine.create_port m ~capacity ~discipline ()
  in
  let fifo = port 1 K.Port.Fifo and prio = port 1 K.Port.Priority in
  let inbox = port 2 K.Port.Fifo and outbox = port 2 K.Port.Fifo in
  let msg () = K.Machine.allocate_generic m ~data_length:8 () in
  let box = K.Machine.allocate_generic m ~data_length:8 ~access_length:2 () in
  K.Machine.add_root m box;
  let spawn ?priority ?start_after name body =
    K.Machine.spawn m ?priority ?start_after ~name body
  in
  (* A body that sends one message allocated now, before the run. *)
  let send port =
    let msg = msg () in
    fun () -> K.Machine.send m ~port ~msg
  in
  let fifo_a = send fifo and fifo_b = send fifo in
  ignore (spawn "fifo-send" (fun () -> fifo_a (); fifo_b ()));
  (* prio-hi starts late and parks ahead of prio-lo; prio-idle never
     runs beside the spinners. *)
  List.iter
    (fun (name, priority, start_after) ->
      ignore (spawn ~priority ~start_after name (send prio)))
    [
      ("prio-fill", 10, 0);
      ("prio-lo", 9, 0);
      ("prio-hi", 11, 500_000);
      ("prio-idle", 4, 0);
    ];
  ignore (spawn "waiter" (fun () -> ignore (K.Machine.receive m ~port:inbox)));
  ignore
    (spawn "timed" (fun () ->
         ignore (K.Machine.receive_timeout m ~port:inbox ~timeout_ns:50_000_000)));
  ignore (spawn "sleeper" (fun () -> K.Machine.delay m ~ns:50_000_000));
  let plain = send outbox and txn_msg = msg () in
  ignore
    (spawn "txn" (fun () ->
         plain ();
         ignore (K.Machine.txn_try m ~key:9 ~sends:[ (outbox, txn_msg) ] ())));
  let stored = msg () in
  ignore
    (spawn "keeper" (fun () -> K.Machine.store_access m box ~slot:1 (Some stored)));
  ignore (spawn "faulty" (fun () -> Fault.raise_fault (Fault.Protocol "midrun")));
  K.Machine.set_stopped m (spawn "stopped" (fun () -> ())) true;
  for i = 1 to 3 do
    let spinner =
      spawn (Printf.sprintf "spin%d" i) (fun () ->
          while true do
            K.Machine.compute m 50;
            K.Machine.yield m
          done)
    in
    if i = 3 then K.Machine.set_affinity m spinner (Some 0)
  done;
  K.Machine.schedule_injection m ~at_ns:1_000_000 (K.Machine.Inj_alloc_fault 2);
  K.Machine.schedule_injection m ~at_ns:1_000_000
    (K.Machine.Inj_port_delay 7_000);
  K.Machine.schedule_injection m ~at_ns:50_000_000 (K.Machine.Inj_transient 1);
  ignore (K.Machine.run ~max_ns:2_000_000 m);
  [ ("", m) ]

(* Five small worlds, each run to its end, and [midrun_world], each
   machine printed as [Snapshot.state_image] (every object's type,
   lengths, level, SRO, data and access part, every port, process,
   processor and SRO) and then as its [--snapshot] summary.  A runtest
   rule diffs their output against bin/state-images.expected, so a
   change to how the kernel stores or reads its state must leave it
   byte-identical.  Each world returns its machines by node name ("" for
   a single machine). *)
let image_worlds =
  [
    ( "spooler",
      fun () ->
        let config =
          {
            System.default_config with
            System.processors = 2;
            trace_level = Obs.Tracer.Events;
          }
        in
        let m, _, _ = run_spooler ~config ~clients:3 ~jobs:5 in
        [ ("", m) ] );
    ( "chaos",
      fun () ->
        let config = { System.default_config with System.processors = 4 } in
        let m, _, _, _, _ =
          run_chaos ~config ~seed:7 ~clients:4 ~jobs:6 ~faults:1
        in
        [ ("", m) ] );
    ( "swap",
      fun () ->
        let journal = St.scratch_path "imax_image_swap.journal" in
        St.fresh_path journal;
        let w =
          Load.Working_set.boot
            ~config:
              {
                System.default_config with
                System.processors = 2;
                memory_manager = System.Swapping_lru;
                trace_level = Obs.Tracer.Events;
              }
            ~journal ~sync_every:4 ~ram_bytes:(48 * 64 / 4) ~objects:48
            ~object_bytes:64 ~seed:5
            ~users:
              (List.init 2 (fun u -> (u + 1, List.init 20 (fun _ -> (0, 1, 4)))))
        in
        let m = Load.Working_set.machine w in
        ignore (K.Machine.run m);
        St.close (Load.Working_set.store w);
        St.remove_files journal;
        [ ("", m) ] );
    ( "banking",
      fun () ->
        let m, _, _ =
          I432_txn.Banking.run ~processors:2 ~accounts:6 ~transfers:40 ~seed:7
            ()
        in
        [ ("", m) ] );
    ( "cluster",
      fun () ->
        let cluster, _, _ =
          boot_net ~processors:2 ~nodes:3 ~seed:11 ~clients:2 ~jobs:3
            ~link_faults:0 ~partitions:0 ()
        in
        ignore (Net.Cluster.run cluster ());
        List.init (Net.Cluster.node_count cluster) (fun i ->
            (Net.Cluster.node_name cluster i, Net.Cluster.machine cluster i)) );
    ("midrun", midrun_world);
  ]

let scenario_image () =
  List.iter
    (fun (world, machines) ->
      List.iter
        (fun (node, m) ->
          Printf.printf "== %s%s\n" world (if node = "" then "" else " " ^ node);
          print_string (K.Snapshot.state_image m);
          print_string (K.Snapshot.summary m))
        (machines ()))
    image_worlds

let image_cmd =
  Cmd.v
    (Cmd.info "image"
       ~doc:
         "Run five small worlds (spooler, chaos, swap, banking, a 3-node \
          cluster) to their end and a sixth part-way, and print each \
          machine's full state image and its --snapshot summary.")
    Term.(const scenario_image $ const ())

let main =
  Cmd.group
    (Cmd.info "imax_ctl" ~version:"1.0"
       ~doc:"Drive the iMAX-432 object-based multiprocessor simulator.")
    [
      pipeline_cmd; churn_cmd; tapes_cmd; rendezvous_cmd; trace_cmd;
      metrics_cmd; chaos_cmd; net_cmd; store_cmd; checkpoint_cmd; swap_cmd;
      loadgen_cmd; txn_cmd; history_cmd; image_cmd;
    ]

let () = exit (Cmd.eval main)
