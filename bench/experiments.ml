(* The reproduction harness: one experiment per quantitative claim or
   mechanism in the paper.  Each experiment prints a table; EXPERIMENTS.md
   records paper-vs-measured for each.

   The paper has no numbered evaluation tables; the ids E1..E10 are defined
   in DESIGN.md §4 and map to the paper's sections. *)

open I432
open Imax
module K = I432_kernel
module G = I432_gc
module U = I432_util

let fmt_us = U.Table.fmt_us
let fi = float_of_int

let boot ?(processors = 1) ?(alpha = 20) () =
  K.Machine.create
    ~config:
      {
        K.Machine.default_config with
        K.Machine.processors;
        bus_alpha_per_mille = alpha;
      }
    ()

(* ------------------------------------------------------------------ *)
(* E1: domain switch cost (§2: "about 65 microseconds ... compares
   reasonably with the cost of procedure activation on other contemporary
   processors")                                                        *)
(* ------------------------------------------------------------------ *)

let e1_domain_switch () =
  let iterations = 10_000 in
  let measure ~inter =
    let m = boot ~alpha:0 () in
    let dom = K.Domain.create (K.Machine.table m) (K.Machine.global_sro m) ~name:"pkg" in
    let p =
      K.Machine.spawn m ~name:"caller" (fun () ->
          for _ = 1 to iterations do
            if inter then K.Machine.domain_call m dom (fun () -> ())
            else K.Machine.intra_call m (fun () -> ())
          done)
    in
    let _ = K.Machine.run m in
    let st = K.Machine.process_state m p in
    let tm = K.Machine.timings m in
    (* Remove the one-time dispatch cost, then per-call. *)
    fi (st.K.Process.cpu_ns - tm.Timings.dispatch_ns) /. fi iterations
  in
  let inter = measure ~inter:true in
  let intra = measure ~inter:false in
  U.Table.print ~title:"E1: domain switch vs intra-domain call (10k calls)"
    ~header:[ "call kind"; "per call (us)"; "paper (us)" ]
    ~aligns:[ U.Table.Left; U.Table.Right; U.Table.Right ]
    [
      [ "inter-domain (call+return)"; U.Table.fmt_float (inter /. 1000.0); "~65 + return" ];
      [ "intra-domain activation"; U.Table.fmt_float (intra /. 1000.0); "\"contemporary\"" ];
      [ "ratio"; U.Table.fmt_float (inter /. intra); "~10x" ];
    ]

(* ------------------------------------------------------------------ *)
(* E2: allocation cost (§5: "80 microseconds at 8 megahertz to allocate a
   segment from an SRO")                                               *)
(* ------------------------------------------------------------------ *)

let e2_allocation () =
  let iterations = 5_000 in
  let measure ~size ~local =
    let m = boot ~alpha:0 () in
    let p =
      K.Machine.spawn m ~name:"alloc" (fun () ->
          let sro =
            if local then K.Machine.create_local_sro m ~level:1 ~bytes:(1 lsl 21)
            else K.Machine.global_sro m
          in
          for _ = 1 to iterations do
            let a =
              K.Machine.allocate m sro ~data_length:size ~access_length:0
                ~otype:Obj_type.Generic
            in
            (* Free immediately so the heap never exhausts. *)
            K.Machine.release m sro ~index:(Access.index a)
          done)
    in
    let _ = K.Machine.run m in
    let st = K.Machine.process_state m p in
    let tm = K.Machine.timings m in
    let per =
      fi (st.K.Process.cpu_ns - tm.Timings.dispatch_ns) /. fi iterations
    in
    (* Subtract the release cost to isolate creation. *)
    per -. fi tm.Timings.destroy_ns
    -. if local then fi tm.Timings.allocate_ns /. fi iterations else 0.0
  in
  let rows =
    List.map
      (fun size ->
        [
          Printf.sprintf "%d B, global heap" size;
          U.Table.fmt_float (measure ~size ~local:false /. 1000.0);
          "80";
        ])
      [ 16; 256; 4096; 65536 ]
    @ [
        [
          "256 B, local heap";
          U.Table.fmt_float (measure ~size:256 ~local:true /. 1000.0);
          "80";
        ];
      ]
  in
  U.Table.print ~title:"E2: segment allocation from an SRO (5k create/destroy)"
    ~header:[ "allocation"; "create (us)"; "paper (us)" ]
    ~aligns:[ U.Table.Left; U.Table.Right; U.Table.Right ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: multiprocessor scaling (§3: "a factor of 10 in total processing
   power of a single 432 system is realizable")                        *)
(* ------------------------------------------------------------------ *)

let e3_scaling () =
  let work_units = 3_000 in
  let jobs = 32 in
  let throughput ~processors ~alpha =
    let m = boot ~processors ~alpha () in
    for i = 1 to jobs do
      ignore
        (K.Machine.spawn m ~name:(Printf.sprintf "job%d" i) (fun () ->
             K.Machine.compute m work_units))
    done;
    let r = K.Machine.run m in
    (* Units of useful work per second of wall (virtual) time. *)
    fi (jobs * work_units) /. (fi r.K.Machine.elapsed_ns /. 1e9)
  in
  let base = throughput ~processors:1 ~alpha:20 in
  let base_ideal = throughput ~processors:1 ~alpha:0 in
  let rows =
    List.map
      (fun n ->
        let contended = throughput ~processors:n ~alpha:20 /. base in
        let ideal = throughput ~processors:n ~alpha:0 /. base_ideal in
        [
          string_of_int n;
          U.Table.fmt_float ideal;
          U.Table.fmt_float contended;
        ])
      [ 1; 2; 4; 6; 8; 10; 12; 14; 16 ]
  in
  U.Table.print
    ~title:
      "E3: total processing power vs processors (32 compute jobs; paper: \
       ~10x realizable)"
    ~header:[ "processors"; "speedup (no bus contention)"; "speedup (2%/cpu bus)" ]
    ~aligns:[ U.Table.Right; U.Table.Right; U.Table.Right ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: typed ports cost exactly what untyped ports cost (§4, Figs 1-2) *)
(* ------------------------------------------------------------------ *)

module Ap = Typed_ports.Make (Typed_ports.Access_message)

let e4_typed_untyped () =
  let messages = 20_000 in
  let run_variant variant =
    let m = boot ~alpha:0 () in
    let untyped = Untyped_ports.create_port m ~message_count:64 () in
    let typed = Ap.create m ~message_count:64 () in
    let payload = K.Machine.allocate_generic m ~data_length:8 () in
    let sender =
      K.Machine.spawn m ~name:"s" (fun () ->
          for _ = 1 to messages do
            match variant with
            | `Untyped -> Untyped_ports.send m ~prt:untyped ~msg:payload
            | `Typed -> Ap.send m ~prt:typed ~msg:payload
          done)
    in
    let receiver =
      K.Machine.spawn m ~name:"r" (fun () ->
          for _ = 1 to messages do
            match variant with
            | `Untyped -> ignore (Untyped_ports.receive m ~prt:untyped)
            | `Typed -> ignore (Ap.receive m ~prt:typed)
          done)
    in
    let _ = K.Machine.run m in
    let cpu p = (K.Machine.process_state m p).K.Process.cpu_ns in
    (fi (cpu sender) /. fi messages, fi (cpu receiver) /. fi messages)
  in
  let us, ur = run_variant `Untyped in
  let ts, tr = run_variant `Typed in
  U.Table.print
    ~title:"E4: Typed_Ports vs Untyped_Ports per-message cost (20k msgs)"
    ~header:[ "interface"; "send (us)"; "receive (us)"; "penalty" ]
    ~aligns:[ U.Table.Left; U.Table.Right; U.Table.Right; U.Table.Right ]
    [
      [ "Untyped_Ports (Fig. 1)"; fmt_us (int_of_float us); fmt_us (int_of_float ur); "-" ];
      [
        "Typed_Ports (Fig. 2)";
        fmt_us (int_of_float ts);
        fmt_us (int_of_float tr);
        Printf.sprintf "%.2fx (paper: identical)" (ts /. us);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E5: IPC latency and throughput across disciplines and fan-in        *)
(* ------------------------------------------------------------------ *)

let e5_ipc () =
  let messages_per_sender = 2_000 in
  let scenario ~senders ~receivers ~discipline =
    let m = boot ~processors:(senders + receivers) ~alpha:0 () in
    let port = K.Machine.create_port m ~capacity:16 ~discipline () in
    let total = senders * messages_per_sender in
    let base = total / receivers and extra = total mod receivers in
    for s = 1 to senders do
      ignore
        (K.Machine.spawn m ~name:(Printf.sprintf "s%d" s) ~priority:s
           (fun () ->
             let payload = K.Machine.allocate_generic m ~data_length:8 () in
             for _ = 1 to messages_per_sender do
               K.Machine.send m ~port ~msg:payload
             done))
    done;
    for r = 1 to receivers do
      let quota = base + if r <= extra then 1 else 0 in
      ignore
        (K.Machine.spawn m ~name:(Printf.sprintf "r%d" r) (fun () ->
             for _ = 1 to quota do
               ignore (K.Machine.receive m ~port)
             done))
    done;
    let report = K.Machine.run m in
    let _, receives, send_blocks, recv_blocks, depth, wait =
      K.Machine.port_stats m port
    in
    let throughput = fi receives /. (fi report.K.Machine.elapsed_ns /. 1e9) in
    [
      Printf.sprintf "%d->%d %s" senders receivers
        (K.Port.discipline_to_string discipline);
      Printf.sprintf "%.0f" (throughput /. 1000.0);
      U.Table.fmt_float (wait /. 1000.0);
      string_of_int send_blocks;
      string_of_int recv_blocks;
      string_of_int depth;
    ]
  in
  U.Table.print
    ~title:"E5: port IPC (2k msgs/sender, queue capacity 16)"
    ~header:
      [ "scenario"; "kmsg/s"; "mean queue wait (us)"; "send blocks";
        "recv blocks"; "max depth" ]
    ~aligns:
      [ U.Table.Left; U.Table.Right; U.Table.Right; U.Table.Right;
        U.Table.Right; U.Table.Right ]
    [
      scenario ~senders:1 ~receivers:1 ~discipline:K.Port.Fifo;
      scenario ~senders:4 ~receivers:1 ~discipline:K.Port.Fifo;
      scenario ~senders:4 ~receivers:1 ~discipline:K.Port.Priority;
      scenario ~senders:4 ~receivers:4 ~discipline:K.Port.Fifo;
    ]

(* ------------------------------------------------------------------ *)
(* E6: scheduling policies (§6.1)                                      *)
(* ------------------------------------------------------------------ *)

let e6_schedulers () =
  let run_policy policy =
    let sys =
      System.boot
        ~config:{ System.default_config with System.scheduling = policy } ()
    in
    let m = System.machine sys in
    let pm = System.process_manager sys in
    let sched = System.scheduler sys in
    let users =
      List.map
        (fun (name, prio) ->
          let g = Scheduler.add_group sched name in
          let p =
            Process_manager.create_process pm ~name ~priority:prio (fun () ->
                for _ = 1 to 2_000 do
                  K.Machine.compute m 10;
                  K.Machine.yield m
                done)
          in
          Scheduler.enroll sched g p;
          p)
        [ ("user-a(prio 14)", 14); ("user-b(prio 8)", 8); ("user-c(prio 2)", 2) ]
    in
    let horizon = 50_000_000 in
    let _ = System.run sys ~max_ns:horizon in
    let consumed =
      List.map
        (fun p -> fi (K.Machine.process_state m p).K.Process.cpu_ns /. 1e6)
        users
    in
    let fairness = U.Stats.jain_fairness (Array.of_list consumed) in
    let total = List.fold_left ( +. ) 0.0 consumed in
    (consumed, fairness, total)
  in
  let rows =
    List.map
      (fun policy ->
        let consumed, fairness, total = run_policy policy in
        Scheduler.policy_to_string policy
        :: List.map (fun c -> U.Table.fmt_float c) consumed
        @ [ U.Table.fmt_float ~decimals:3 fairness; U.Table.fmt_float total ])
      [ Scheduler.Null; Scheduler.Round_robin; Scheduler.Fair_share ]
  in
  U.Table.print
    ~title:
      "E6: resource-control policies over the basic process manager (50 ms \
       horizon, 3 users)"
    ~header:
      [ "policy"; "user-a CPU (ms)"; "user-b CPU (ms)"; "user-c CPU (ms)";
        "Jain"; "total (ms)" ]
    ~aligns:
      [ U.Table.Left; U.Table.Right; U.Table.Right; U.Table.Right;
        U.Table.Right; U.Table.Right ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: swapping vs non-swapping memory manager (§6.2)                  *)
(* ------------------------------------------------------------------ *)

let e7_memory_managers () =
  let object_bytes = 1024 in
  let objects = 48 in  (* 48 KB working set *)
  let touches = 400 in
  let run_mm choice ~heap_bytes =
    let sys =
      System.boot
        ~config:
          {
            System.default_config with
            System.memory_manager = choice;
            heap_bytes;
          }
        ()
    in
    let m = System.machine sys in
    match
      Array.init objects (fun _ ->
          System.mm_allocate sys ~data_length:object_bytes ~access_length:0
            ~otype:Obj_type.Generic)
    with
    | exception Fault.Fault (Fault.Storage_exhausted _) ->
      [
        Printf.sprintf "%s, %dK heap"
          (System.memory_choice_to_string choice)
          (heap_bytes / 1024);
        "failed";
        "-";
        "-";
        "-";
      ]
    | objs ->
      let prng = U.Prng.create ~seed:99 in
      let p =
        K.Machine.spawn m ~name:"mutator" (fun () ->
            for _ = 1 to touches do
              let target = objs.(U.Prng.int prng objects) in
              System.mm_touch sys target;
              K.Machine.write_word m target ~offset:0 1
            done)
      in
      let _ = System.run sys in
      let st = System.mm_stats sys in
      let cpu = (K.Machine.process_state m p).K.Process.cpu_ns in
      [
        Printf.sprintf "%s, %dK heap"
          (System.memory_choice_to_string choice)
          (heap_bytes / 1024);
        "ok";
        Printf.sprintf "%d/%d" st.Memory_manager.swap_ins
          st.Memory_manager.swap_outs;
        U.Table.fmt_float (fi cpu /. fi touches /. 1000.0);
        string_of_int st.Memory_manager.alloc_faults;
      ]
  in
  U.Table.print
    ~title:
      "E7: memory-manager implementations under a 48K working set (400 \
       random touches)"
    ~header:
      [ "configuration"; "workload"; "swaps in/out"; "us/touch";
        "pressure events" ]
    ~aligns:
      [ U.Table.Left; U.Table.Right; U.Table.Right; U.Table.Right; U.Table.Right ]
    [
      run_mm System.Non_swapping ~heap_bytes:(128 * 1024);
      run_mm System.Non_swapping ~heap_bytes:(16 * 1024);
      run_mm System.Swapping_lru ~heap_bytes:(128 * 1024);
      run_mm System.Swapping_lru ~heap_bytes:(16 * 1024);
      run_mm System.Swapping_fifo ~heap_bytes:(16 * 1024);
    ]

(* ------------------------------------------------------------------ *)
(* E8: the on-the-fly garbage collector (§8.1)                         *)
(* ------------------------------------------------------------------ *)

let e8_gc () =
  (* Mutators churn: allocate short-lived objects linked under a root, then
     sever.  Compare mutator progress with the collector daemon off/on, and
     global collection vs local-heap bulk destruction. *)
  let churn_rounds = 60 in
  let objs_per_round = 12 in
  let run ~daemon ~local =
    let m = boot ~processors:2 ~alpha:0 () in
    let table = K.Machine.table m in
    let collector =
      G.Collector.create
        ~config:
          {
            G.Collector.default_config with
            G.Collector.idle_sleep_ns = 300_000;
          }
        m
    in
    if daemon then ignore (G.Collector.spawn_daemon collector);
    let p =
      K.Machine.spawn m ~name:"mutator" (fun () ->
          if local then
            for _ = 1 to churn_rounds do
              let heap = K.Machine.create_local_sro m ~level:1 ~bytes:(64 * 1024) in
              for _ = 1 to objs_per_round do
                ignore
                  (K.Machine.allocate m heap ~data_length:64 ~access_length:2
                     ~otype:Obj_type.Generic)
              done;
              ignore (K.Machine.destroy_sro m heap)
            done
          else begin
            let root = K.Machine.allocate_generic m ~access_length:16 () in
            K.Machine.add_root m root;
            for _ = 1 to churn_rounds do
              for i = 0 to objs_per_round - 1 do
                let o = K.Machine.allocate_generic m ~data_length:64 ~access_length:2 () in
                Segment.store_access table root ~slot:(i mod 16) (Some o)
              done;
              for i = 0 to 15 do
                Segment.store_access table root ~slot:i None
              done;
              K.Machine.yield m
            done
          end)
    in
    (* Capture the process record up front: once the mutator finishes, the
       collector may legitimately reclaim its process *object*. *)
    let pstate = K.Machine.process_state m p in
    let report = K.Machine.run m in
    let st = G.Collector.stats collector in
    let live = Object_table.count_valid table in
    let mutator_ms = fi pstate.K.Process.cpu_ns /. 1e6 in
    ( report.K.Machine.elapsed_ns,
      st.G.Collector.swept,
      st.G.Collector.cycles,
      live,
      mutator_ms )
  in
  let no_gc = run ~daemon:false ~local:false in
  let with_gc = run ~daemon:true ~local:false in
  let local = run ~daemon:false ~local:true in
  let row label (elapsed, swept, cycles, live, mutator_ms) =
    [
      label;
      U.Table.fmt_float (fi elapsed /. 1e6);
      string_of_int swept;
      string_of_int cycles;
      string_of_int live;
      U.Table.fmt_float mutator_ms;
    ]
  in
  U.Table.print
    ~title:
      "E8: reclamation of 720 short-lived objects (2 processors; collector \
       runs on the spare)"
    ~header:
      [ "configuration"; "elapsed (ms)"; "objects reclaimed"; "GC cycles";
        "descriptors live at end"; "mutator CPU (ms)" ]
    ~aligns:
      [ U.Table.Left; U.Table.Right; U.Table.Right; U.Table.Right;
        U.Table.Right; U.Table.Right ]
    [
      row "no collection (leak)" no_gc;
      row "on-the-fly daemon (global heap)" with_gc;
      row "local heaps, bulk destroy" local;
    ]

(* ------------------------------------------------------------------ *)
(* E9: destruction filters recover lost objects (§8.2)                 *)
(* ------------------------------------------------------------------ *)

let e9_destruction_filters () =
  let drives = 8 in
  let run ~with_filter =
    let sys = System.boot () in
    let m = System.machine sys in
    let pm = System.process_manager sys in
    let farm = Device_io.create_tape_farm m ~drives in
    if not with_filter then
      (* Disable the filter: lost drives are then simply collected. *)
      Type_def.clear_filter_port (K.Machine.table m)
        (Device_io.farm_typedef farm);
    for i = 1 to drives do
      ignore
        (Process_manager.create_process pm ~name:(Printf.sprintf "client%d" i)
           (fun () ->
             match Device_io.acquire_drive farm with
             | Some h ->
               let (module T) = Device_io.device_of farm h in
               T.write "data";
               K.Machine.compute m 20
             | None -> ()))
    done;
    let _ = System.run sys in
    let lost_before = drives - Device_io.free_drive_count farm in
    let collector = G.Collector.create m in
    ignore
      (K.Machine.spawn m ~name:"recovery" (fun () ->
           ignore (G.Collector.cycle collector);
           ignore (Device_io.recover_lost_drives farm)));
    let _ = System.run sys in
    (lost_before, Device_io.free_drive_count farm)
  in
  let lost_f, free_f = run ~with_filter:true in
  let lost_n, free_n = run ~with_filter:false in
  U.Table.print
    ~title:"E9: lost tape drives with and without destruction filters"
    ~header:
      [ "configuration"; "drives lost by clients"; "drives usable after GC";
        "paper" ]
    ~aligns:[ U.Table.Left; U.Table.Right; U.Table.Right; U.Table.Left ]
    [
      [
        "destruction filter registered";
        string_of_int lost_f;
        Printf.sprintf "%d/%d" free_f drives;
        "all recovered";
      ];
      [
        "no filter";
        string_of_int lost_n;
        Printf.sprintf "%d/%d" free_n drives;
        "\"short one tape drive\"";
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E10: nested stop/start over process trees (§6.1)                    *)
(* ------------------------------------------------------------------ *)

let e10_stop_start () =
  let sys = System.boot () in
  let m = System.machine sys in
  let pm = System.process_manager sys in
  let prng = U.Prng.create ~seed:7 in
  (* A three-level tree of workers. *)
  let progress = Array.make 7 0 in
  let body i () =
    for _ = 1 to 200 do
      progress.(i) <- progress.(i) + 1;
      K.Machine.compute m 5;
      K.Machine.yield m
    done
  in
  let root = Process_manager.create_process pm ~name:"root" (body 0) in
  let mids =
    List.init 2 (fun i ->
        Process_manager.create_process pm ~parent:root
          ~name:(Printf.sprintf "mid%d" i)
          (body (1 + i)))
  in
  let _leaves =
    List.concat_map
      (fun (j, parent) ->
        List.init 2 (fun i ->
            Process_manager.create_process pm ~parent
              ~name:(Printf.sprintf "leaf%d.%d" j i)
              (body (3 + (2 * j) + i))))
      (List.mapi (fun j p -> (j, p)) mids)
  in
  (* Storm: random stop/start pairs on random subtree roots, interleaved
     with execution. *)
  let storms = ref 0 in
  let violations = ref 0 in
  let targets = Array.of_list (root :: mids) in
  for _ = 1 to 30 do
    let target = U.Prng.choose prng targets in
    Process_manager.stop pm target;
    incr storms;
    (* While stopped, none of the subtree's counters may advance. *)
    let snapshot = Array.copy progress in
    let _ = System.run sys ~max_ns:(K.Machine.now m + 2_000_000) in
    if Process_manager.stop_count pm target > 0 then begin
      (* Workers outside the stopped subtree advanced; inside must not. *)
      if Process_manager.is_runnable pm target then incr violations
    end;
    ignore snapshot;
    Process_manager.start pm target
  done;
  let _ = System.run sys in
  let all_done = Array.for_all (fun p -> p = 200) progress in
  U.Table.print
    ~title:"E10: nested stop/start storms over a 7-process tree"
    ~header:[ "metric"; "value"; "expected" ]
    ~aligns:[ U.Table.Left; U.Table.Right; U.Table.Right ]
    [
      [ "stop/start storms applied"; string_of_int !storms; "30" ];
      [ "invariant violations"; string_of_int !violations; "0" ];
      [ "all workers completed"; string_of_bool all_done; "true" ];
    ]

(* ------------------------------------------------------------------ *)
(* E11: the Ada rendezvous built on ports (§4: the port mechanism "is
   used by the Ada compiler to implement the Ada model")               *)
(* ------------------------------------------------------------------ *)

let e11_rendezvous () =
  let calls = 2_000 in
  (* Raw one-way port messaging: the general mechanism. *)
  let raw () =
    let m = boot ~alpha:0 () in
    let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
    ignore
      (K.Machine.spawn m ~name:"s" (fun () ->
           let payload = K.Machine.allocate_generic m ~data_length:8 () in
           for _ = 1 to calls do
             K.Machine.send m ~port ~msg:payload
           done));
    ignore
      (K.Machine.spawn m ~name:"r" (fun () ->
           for _ = 1 to calls do
             ignore (K.Machine.receive m ~port)
           done));
    (K.Machine.run m).K.Machine.elapsed_ns
  in
  (* Synchronous rendezvous: entry call + accept + reply. *)
  let rendezvous () =
    let m = boot ~alpha:0 () in
    let e = Ada_tasks.create_entry m () in
    ignore
      (K.Machine.spawn m ~name:"server" (fun () ->
           for _ = 1 to calls do
             Ada_tasks.accept e ~body:(fun p -> p)
           done));
    ignore
      (K.Machine.spawn m ~name:"client" (fun () ->
           let x = K.Machine.allocate_generic m ~data_length:8 () in
           for _ = 1 to calls do
             ignore (Ada_tasks.call e ~parameter:x)
           done));
    (K.Machine.run m).K.Machine.elapsed_ns
  in
  let raw_ns = raw () in
  let rdv_ns = rendezvous () in
  U.Table.print
    ~title:
      "E11: Ada rendezvous vs raw port messaging (2k interactions, 1 \
       processor)"
    ~header:[ "mechanism"; "us/interaction"; "vs raw" ]
    ~aligns:[ U.Table.Left; U.Table.Right; U.Table.Right ]
    [
      [ "raw send/receive (one-way)"; U.Table.fmt_float (fi raw_ns /. fi calls /. 1000.0); "1.00x" ];
      [
        "Ada entry call (synchronous, with reply)";
        U.Table.fmt_float (fi rdv_ns /. fi calls /. 1000.0);
        Printf.sprintf "%.2fx" (fi rdv_ns /. fi raw_ns);
      ];
    ]

let all =
  [
    ("e1", "domain switch cost (paper: ~65 us)", e1_domain_switch);
    ("e2", "SRO allocation cost (paper: ~80 us)", e2_allocation);
    ("e3", "multiprocessor scaling (paper: ~10x)", e3_scaling);
    ("e4", "typed vs untyped ports (paper: identical)", e4_typed_untyped);
    ("e5", "IPC latency/throughput across disciplines", e5_ipc);
    ("e6", "scheduling policies and fairness", e6_schedulers);
    ("e7", "swapping vs non-swapping memory managers", e7_memory_managers);
    ("e8", "on-the-fly GC vs local-heap reclamation", e8_gc);
    ("e9", "destruction filters recover lost objects", e9_destruction_filters);
    ("e10", "nested stop/start over process trees", e10_stop_start);
    ("e11", "Ada rendezvous built on ports", e11_rendezvous);
  ]
