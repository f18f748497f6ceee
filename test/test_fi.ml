(* Fault injection, recovery, and timed operations (DESIGN.md §8).

   Covers the fault-record ordering contract, fault-port routing, timed
   send/receive (both firing and non-firing), bounded allocation retry,
   processor hard-fault recovery (the machine must degrade to N-1, not
   panic), supervision restart policies, and — via qcheck — the post-run
   invariants of whole machines run under random seeded fault plans. *)

open I432
open Imax
open Testkit
module K = I432_kernel
module Obs = I432_obs
module Fi = I432_fi.Fi

let has_kind m kind =
  List.exists (fun (e : Obs.Event.t) -> e.Obs.Event.kind = kind)
    (K.Machine.events m)

(* ---------------- fault recording ---------------- *)

(* Regression for the documented contract: Machine.faults returns emission
   order (first fault recorded first), even though the machine accumulates
   newest-first internally. *)
let test_faults_ordering () =
  let m = mk () in
  List.iter
    (fun (name, prio) ->
      ignore
        (K.Machine.spawn m ~name ~priority:prio (fun () ->
             Fault.raise_fault (Fault.Protocol name))))
    [ ("first", 12); ("second", 8); ("third", 4) ];
  let _ = K.Machine.run m in
  Alcotest.(check (list string))
    "emission order" [ "first"; "second"; "third" ]
    (List.map fst (K.Machine.faults m))

let test_fault_port_routing () =
  let m = mk () in
  let fault_port =
    K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo ()
  in
  K.Machine.set_fault_port m fault_port;
  List.iter
    (fun (name, prio) ->
      ignore
        (K.Machine.spawn m ~name ~priority:prio (fun () ->
             Fault.raise_fault (Fault.Protocol "bang"))))
    [ ("loud", 12); ("quiet", 4) ];
  let corpses = ref [] in
  ignore
    (K.Machine.spawn m ~name:"supervisor" ~priority:1 (fun () ->
         for _ = 1 to 2 do
           let corpse = K.Machine.receive m ~port:fault_port in
           corpses :=
             (K.Machine.process_state m corpse).K.Process.name :: !corpses
         done));
  let _ = K.Machine.run m in
  Alcotest.(check (list string))
    "corpses in fault order" [ "loud"; "quiet" ] (List.rev !corpses);
  Alcotest.(check int) "both recorded" 2 (List.length (K.Machine.faults m))

(* ---------------- timed operations ---------------- *)

let test_receive_timeout_fires () =
  let m = mk ~trace:true () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let got = ref (Some (Access.make ~index:0 ~rights:Rights.full)) in
  ignore
    (K.Machine.spawn m ~name:"waiter" (fun () ->
         got := K.Machine.receive_timeout m ~port ~timeout_ns:50_000));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "timed out" true (!got = None);
  Alcotest.(check bool) "Timeout_fired emitted" true
    (has_kind m Obs.Event.Timeout_fired);
  (* The waiter must have left the port's receiver queue behind it. *)
  Alcotest.(check (list string)) "no invariant violations" []
    (Fi.check_invariants m)

let test_receive_timeout_delivered () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let got = ref None in
  ignore
    (K.Machine.spawn m ~name:"waiter" (fun () ->
         got := K.Machine.receive_timeout m ~port ~timeout_ns:5_000_000));
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         K.Machine.delay m ~ns:10_000;
         let o = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.write_word m o ~offset:0 77;
         K.Machine.send m ~port ~msg:o));
  let _ = K.Machine.run m in
  (match !got with
  | Some msg ->
    Alcotest.(check int) "payload" 77 (K.Machine.read_word m msg ~offset:0)
  | None -> Alcotest.fail "receive timed out despite a sender");
  Alcotest.(check int) "no faults" 0 (List.length (K.Machine.faults m))

let test_receive_timeout_poll () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let polled = ref (Some (Access.make ~index:0 ~rights:Rights.full)) in
  ignore
    (K.Machine.spawn m ~name:"poller" (fun () ->
         polled := K.Machine.receive_timeout m ~port ~timeout_ns:0));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "empty poll returns None" true (!polled = None)

let test_send_timeout_fires () =
  let m = mk ~trace:true () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let accepted = ref true in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         let a = K.Machine.allocate_generic m ~data_length:8 () in
         let b = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.send m ~port ~msg:a;
         (* port now full; nobody ever receives *)
         accepted := K.Machine.send_timeout m ~port ~msg:b ~timeout_ns:40_000));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "send timed out" false !accepted;
  Alcotest.(check bool) "Timeout_fired emitted" true
    (has_kind m Obs.Event.Timeout_fired);
  Alcotest.(check (list string)) "no invariant violations" []
    (Fi.check_invariants m)

let test_send_timeout_accepted () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let accepted = ref false in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         let a = K.Machine.allocate_generic m ~data_length:8 () in
         let b = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.send m ~port ~msg:a;
         accepted :=
           K.Machine.send_timeout m ~port ~msg:b ~timeout_ns:5_000_000));
  ignore
    (K.Machine.spawn m ~name:"drain" (fun () ->
         K.Machine.delay m ~ns:20_000;
         ignore (K.Machine.receive m ~port);
         ignore (K.Machine.receive m ~port)));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "late space still accepts" true !accepted;
  Alcotest.(check int) "drained" 0
    (let table = K.Machine.table m in
     let left = ref 0 in
     Object_table.iter_valid
       (fun i ->
         match Object_table.payload table i with
         | Some (K.Port.Port_state p) -> left := !left + K.Port.queue_length p
         | Some _ | None -> ())
       table;
     !left)

(* An armed port delay is charged at the next port syscall, whatever its
   wait mode: a conditional op costs exactly the delay more than without
   one, and leaves nothing armed. *)
let test_port_delay_charged_by_cond_ops () =
  let cost op ~delay =
    let m = mk () in
    let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
    if delay > 0 then
      K.Machine.schedule_injection m ~at_ns:0 (K.Machine.Inj_port_delay delay);
    let spent = ref 0 in
    ignore
      (K.Machine.spawn m ~name:"poller" (fun () ->
           let msg = alloc m () in
           let t0 = K.Machine.now m in
           op m port msg;
           spent := K.Machine.now m - t0));
    ignore (K.Machine.run m);
    Alcotest.(check int) "delay consumed" 0 (K.Machine.armed_port_delay_ns m);
    !spent
  in
  List.iter
    (fun (what, op) ->
      Alcotest.(check int) what 30_000
        (cost op ~delay:30_000 - cost op ~delay:0))
    [
      ("cond_send", fun m port msg -> ignore (K.Machine.cond_send m ~port ~msg));
      ("cond_receive", fun m port _ -> ignore (K.Machine.cond_receive m ~port));
    ]

(* ---------------- bounded allocation retry ---------------- *)

let test_allocate_retry_recovers () =
  let m = mk ~trace:true () in
  K.Machine.schedule_injection m ~at_ns:0 (K.Machine.Inj_alloc_fault 2);
  let reclaims = ref 0 in
  K.Machine.set_reclaim_hook m (Some (fun () -> incr reclaims; 0));
  let ok = ref false in
  ignore
    (K.Machine.spawn m ~name:"alloc" (fun () ->
         let o =
           K.Machine.allocate_retry m (K.Machine.global_sro m) ~data_length:16
             ~access_length:4 ~otype:Obj_type.Generic ()
         in
         K.Machine.write_word m o ~offset:0 1;
         ok := true));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "allocation eventually succeeded" true !ok;
  Alcotest.(check int) "reclaim hook ran per retry" 2 !reclaims;
  Alcotest.(check bool) "Alloc_retry emitted" true
    (has_kind m Obs.Event.Alloc_retry);
  Alcotest.(check int) "no faults" 0 (List.length (K.Machine.faults m))

let test_allocate_retry_exhausts () =
  let m = mk () in
  (* More forced failures than 1 + max_retries attempts: must re-raise. *)
  K.Machine.schedule_injection m ~at_ns:0 (K.Machine.Inj_alloc_fault 10);
  ignore
    (K.Machine.spawn m ~name:"alloc" (fun () ->
         ignore
           (K.Machine.allocate_retry m (K.Machine.global_sro m) ~max_retries:2
              ~backoff_ns:1_000 ~data_length:16 ~access_length:4
              ~otype:Obj_type.Generic ())));
  let _ = K.Machine.run m in
  Alcotest.(check bool) "faulted with Storage_exhausted" true
    (match K.Machine.faults m with
    | [ (_, Fault.Storage_exhausted _) ] -> true
    | _ -> false)

(* ---------------- processor hard-fault recovery ---------------- *)

(* 4 GDPs, one hard-faulted mid-run: the workload must complete on the
   remaining 3 without a panic, the victim's process must be requeued, and
   the same seed must replay an identical event stream. *)
let chaos_run () =
  let m = mk ~processors:4 ~trace:true () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let consumed = ref 0 in
  for c = 1 to 4 do
    ignore
      (K.Machine.spawn m
         ~name:(Printf.sprintf "p%d" c)
         (fun () ->
           for _ = 1 to 8 do
             let o = K.Machine.allocate_generic m ~data_length:16 () in
             ignore (K.Machine.send_timeout m ~port ~msg:o ~timeout_ns:400_000);
             K.Machine.compute m 20
           done))
  done;
  ignore
    (K.Machine.spawn m ~name:"sink" (fun () ->
         let quiet = ref 0 in
         while !quiet < 3 do
           match K.Machine.receive_timeout m ~port ~timeout_ns:100_000 with
           | Some _ ->
             quiet := 0;
             incr consumed
           | None -> incr quiet
         done));
  K.Machine.schedule_injection m ~at_ns:120_000 (K.Machine.Inj_cpu_fault 2);
  let report = K.Machine.run m in
  (m, report, !consumed)

let test_processor_failure_recovery () =
  let m, report, consumed = chaos_run () in
  Alcotest.(check int) "one GDP offline" 3 (K.Machine.online_processors m);
  Alcotest.(check bool) "work still completed" true (consumed > 0);
  Alcotest.(check int) "all processes ran to completion" 5
    report.K.Machine.completed;
  Alcotest.(check bool) "Cpu_offline emitted" true
    (has_kind m Obs.Event.Cpu_offline);
  Alcotest.(check (list string)) "no invariant violations" []
    (Fi.check_invariants m)

let test_processor_failure_deterministic () =
  ok "same seed"
    (I432_store.Scenario.(
       same_seed
         (make ~name:"hard-fault"
            ~streams:(fun (m, _, consumed) ->
              [
                ("consumed", [ string_of_int consumed ]);
                ("events", event_lines m);
              ])
            chaos_run)))

let test_fail_processor_idempotent () =
  let m = mk ~processors:3 () in
  K.Machine.fail_processor m 1;
  K.Machine.fail_processor m 1;
  Alcotest.(check int) "counted once" 2 (K.Machine.online_processors m)

(* ---------------- supervision ---------------- *)

let test_supervised_restart () =
  let m = mk ~trace:true () in
  let pm = Process_manager.create m in
  let attempts = ref 0 in
  let finished = ref false in
  let access =
    Process_manager.create_supervised pm ~name:"flaky"
      ~policy:{ Process_manager.max_restarts = 3; backoff_ns = 10_000 }
      (fun () ->
        incr attempts;
        if !attempts = 1 then Fault.raise_fault (Fault.Protocol "first try")
        else finished := true)
  in
  let _ = K.Machine.run m in
  Alcotest.(check int) "two incarnations ran" 2 !attempts;
  Alcotest.(check bool) "second incarnation finished" true !finished;
  Alcotest.(check int) "one restart consumed" 1
    (Process_manager.restart_count pm access);
  Alcotest.(check bool) "Proc_restarted emitted" true
    (has_kind m Obs.Event.Proc_restarted);
  Alcotest.(check bool) "incarnation chain followed" true
    (Access.index (Process_manager.current_incarnation pm access)
    <> Access.index access)

let test_supervised_budget () =
  let m = mk () in
  let pm = Process_manager.create m in
  let attempts = ref 0 in
  let access =
    Process_manager.create_supervised pm ~name:"doomed"
      ~policy:{ Process_manager.max_restarts = 2; backoff_ns = 1_000 }
      (fun () ->
        incr attempts;
        Fault.raise_fault (Fault.Protocol "always"))
  in
  let _ = K.Machine.run m in
  Alcotest.(check int) "initial run + 2 restarts" 3 !attempts;
  Alcotest.(check int) "budget spent" 2
    (Process_manager.restart_count pm access);
  Alcotest.(check int) "every incarnation recorded a fault" 3
    (List.length (K.Machine.faults m))

let test_unsupervised_untouched () =
  let m = mk () in
  let pm = Process_manager.create m in
  let attempts = ref 0 in
  ignore
    (Process_manager.create_process pm ~name:"mortal" (fun () ->
         incr attempts;
         Fault.raise_fault (Fault.Protocol "once")));
  let _ = K.Machine.run m in
  Alcotest.(check int) "no restart" 1 !attempts

(* ---------------- whole-machine chaos invariants ---------------- *)

(* A small timeout-tolerant workload run under a seeded random plan; after
   the run every Fi invariant must hold, whatever the plan did. *)
let run_under_plan seed =
  let m = mk ~processors:3 ~trace:true () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  for c = 1 to 3 do
    ignore
      (K.Machine.spawn m
         ~name:(Printf.sprintf "p%d" c)
         (fun () ->
           for _ = 1 to 5 do
             let o = K.Machine.allocate_generic m ~data_length:16 () in
             ignore (K.Machine.send_timeout m ~port ~msg:o ~timeout_ns:100_000);
             K.Machine.delay m ~ns:10_000
           done))
  done;
  ignore
    (K.Machine.spawn m ~name:"sink" (fun () ->
         let quiet = ref 0 in
         while !quiet < 3 do
           match K.Machine.receive_timeout m ~port ~timeout_ns:50_000 with
           | Some _ -> quiet := 0
           | None -> incr quiet
         done));
  let plan =
    Fi.random ~seed ~horizon_ns:200_000 ~processors:3 ~count:3 ~cpu_faults:1
  in
  Fi.arm m plan;
  ignore (K.Machine.run ~max_ns:50_000_000 m);
  m

let test_chaos_invariants_fixed_seed () =
  let m = run_under_plan 42 in
  Alcotest.(check (list string)) "invariants hold" [] (Fi.check_invariants m);
  Alcotest.(check bool) "plan fired" true (has_kind m Obs.Event.Fi_inject)

let prop_chaos_invariants =
  QCheck2.Test.make ~name:"random fault plans preserve machine invariants"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> Fi.check_invariants (run_under_plan seed) = [])

(* The queue-state clause fires when a port is corrupted behind the
   kernel's back: a message slipped in beside a parked receiver, a slot
   freed beside a parked sender. *)
let test_invariants_catch_queue_state () =
  let m = mk () in
  let rport = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let sport = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"waiter" (fun () ->
         ignore (K.Machine.receive m ~port:rport)));
  ignore
    (K.Machine.spawn m ~name:"pusher" (fun () ->
         K.Machine.send m ~port:sport ~msg:(alloc m ());
         K.Machine.send m ~port:sport ~msg:(alloc m ())));
  ignore (K.Machine.run m);
  Alcotest.(check (list string)) "legitimately parked waiters pass" []
    (Fi.check_invariants m);
  let table = K.Machine.table m in
  let rp = K.Port.state_of table rport and sp = K.Port.state_of table sport in
  K.Port.enqueue rp ~msg:(alloc m ()) ~priority:0 ~now:0;
  ignore (K.Port.dequeue sp ~now:0);
  Alcotest.(check (list string)) "both corruptions reported"
    [
      Printf.sprintf "port #%d parks receivers beside a non-empty queue (1 queued)"
        rp.K.Port.self;
      Printf.sprintf "port #%d parks senders beside a free slot (0/1 queued)"
        sp.K.Port.self;
    ]
    (List.sort compare (Fi.check_invariants m))

let test_plan_generation_deterministic () =
  let gen () =
    Fi.random ~seed:9 ~horizon_ns:1_000_000 ~processors:4 ~count:6
      ~cpu_faults:2
  in
  Alcotest.(check string) "same seed, same plan" (Fi.to_string (gen ()))
    (Fi.to_string (gen ()));
  let p = gen () in
  Alcotest.(check bool) "events sorted by instant" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Fi.at_ns <= b.Fi.at_ns && sorted rest
       | _ -> true
     in
     sorted p.Fi.events);
  (* 2 cpu faults requested over 4 processors: both may fire, but the ids
     must be distinct and leave a survivor. *)
  let cpu_ids =
    List.filter_map
      (fun (e : Fi.event) ->
        match e.Fi.inj with
        | K.Machine.Inj_cpu_fault id -> Some id
        | _ -> None)
      p.Fi.events
  in
  Alcotest.(check bool) "distinct victims" true
    (List.length (List.sort_uniq compare cpu_ids) = List.length cpu_ids);
  Alcotest.(check bool) "a survivor remains" true (List.length cpu_ids <= 3)

let suite =
  [
    Alcotest.test_case "faults list is emission-ordered" `Quick
      test_faults_ordering;
    Alcotest.test_case "fault port routes corpses in order" `Quick
      test_fault_port_routing;
    Alcotest.test_case "receive timeout fires" `Quick test_receive_timeout_fires;
    Alcotest.test_case "receive timeout beaten by sender" `Quick
      test_receive_timeout_delivered;
    Alcotest.test_case "zero-timeout receive polls" `Quick
      test_receive_timeout_poll;
    Alcotest.test_case "send timeout fires on a full port" `Quick
      test_send_timeout_fires;
    Alcotest.test_case "send timeout beaten by receiver" `Quick
      test_send_timeout_accepted;
    Alcotest.test_case "conditional ops consume an armed port delay" `Quick
      test_port_delay_charged_by_cond_ops;
    Alcotest.test_case "allocation retry recovers" `Quick
      test_allocate_retry_recovers;
    Alcotest.test_case "allocation retry re-raises when spent" `Quick
      test_allocate_retry_exhausts;
    Alcotest.test_case "hard fault degrades to N-1" `Quick
      test_processor_failure_recovery;
    Alcotest.test_case "hard-fault run is deterministic" `Quick
      test_processor_failure_deterministic;
    Alcotest.test_case "fail_processor is idempotent" `Quick
      test_fail_processor_idempotent;
    Alcotest.test_case "supervised process restarts" `Quick
      test_supervised_restart;
    Alcotest.test_case "restart budget is enforced" `Quick
      test_supervised_budget;
    Alcotest.test_case "unsupervised faults do not restart" `Quick
      test_unsupervised_untouched;
    Alcotest.test_case "fixed-seed chaos keeps invariants" `Quick
      test_chaos_invariants_fixed_seed;
    QCheck_alcotest.to_alcotest prop_chaos_invariants;
    Alcotest.test_case "invariants catch parked waiters beside the queue"
      `Quick test_invariants_catch_queue_state;
    Alcotest.test_case "plan generation is deterministic" `Quick
      test_plan_generation_deterministic;
  ]
