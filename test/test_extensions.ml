(* Tests for the extended surface: context objects (activation records with
   levels), fault ports, the Ada rendezvous layer, interface interposition,
   and the §7.3 level discipline. *)

open I432
open Imax
module K = I432_kernel

let mk = Testkit.mk

let boot ?(processors = 1) () =
  System.boot ~config:{ System.default_config with System.processors } ()

(* ---------------- Context objects ---------------- *)

let test_context_create_destroy () =
  let m = mk () in
  let table = K.Machine.table m in
  let ctx =
    K.Context.create table (K.Machine.global_sro m) ~depth:1 ~caller:None
      ~slots:4
  in
  Alcotest.(check int) "depth" 1 (K.Context.depth table ctx);
  Alcotest.(check bool) "no caller" true (K.Context.caller table ctx = None);
  Alcotest.(check bool) "typed as context" true
    (Obj_type.equal (Segment.otype table ctx) Obj_type.Context);
  K.Context.destroy table ctx;
  Alcotest.(check bool) "descriptor freed" false
    (Object_table.is_valid table (Access.index ctx))

let test_context_double_destroy () =
  let m = mk () in
  let table = K.Machine.table m in
  let ctx =
    K.Context.create table (K.Machine.global_sro m) ~depth:1 ~caller:None
      ~slots:4
  in
  K.Context.destroy table ctx;
  Alcotest.(check bool) "second destroy faults" true
    (match K.Context.destroy table ctx with
    | () -> false
    | exception Fault.Fault _ -> true)

let test_context_locals_level_rule () =
  (* A deeper context's object may not be parked in a shallower context. *)
  let m = mk () in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let shallow = K.Context.create table sro ~depth:1 ~caller:None ~slots:4 in
  let deep_sro = Sro.create table ~level:3 ~base:(1 lsl 21) ~length:4096 in
  let deep_obj =
    Sro.allocate table deep_sro ~data_length:16 ~access_length:0
      ~otype:Obj_type.Generic
  in
  Alcotest.(check bool) "level rule enforced" true
    (match K.Context.set_local table shallow ~slot:0 (Some deep_obj) with
    | () -> false
    | exception Fault.Fault (Fault.Level_violation _) -> true);
  (* The other direction is fine. *)
  let deep_ctx = K.Context.create table sro ~depth:3 ~caller:None ~slots:4 in
  let global_obj = K.Machine.allocate_generic m () in
  K.Context.set_local table deep_ctx ~slot:0 (Some global_obj);
  Alcotest.(check bool) "global into deep ok" true
    (K.Context.get_local table deep_ctx ~slot:0 <> None)

let test_call_in_context_nesting () =
  let m = mk () in
  let table = K.Machine.table m in
  let depths = ref [] in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         K.Machine.call_in_context m (fun outer ->
             depths := K.Context.depth table outer :: !depths;
             K.Machine.call_in_context m (fun inner ->
                 depths := K.Context.depth table inner :: !depths;
                 Alcotest.(check (option int))
                   "inner's caller is outer"
                   (Some (Access.index outer))
                   (K.Context.caller table inner)))));
  let _ = K.Machine.run m in
  Alcotest.(check (list int)) "depths 1 then 2" [ 1; 2 ] (List.rev !depths)

let test_call_in_context_cleans_up () =
  let m = mk () in
  let table = K.Machine.table m in
  let before = Object_table.count_valid table in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         K.Machine.call_in_context m (fun _ -> ());
         K.Machine.call_in_context m (fun _ -> ())));
  let _ = K.Machine.run m in
  (* Only the process object itself remains beyond the baseline. *)
  Alcotest.(check int) "contexts freed" (before + 1)
    (Object_table.count_valid table)

let test_call_in_context_outside_process () =
  let m = mk () in
  Alcotest.(check bool) "refused outside process" true
    (match K.Machine.call_in_context m (fun _ -> ()) with
    | () -> false
    | exception Fault.Fault (Fault.Protocol _) -> true)

let test_current_context () =
  let m = mk () in
  let saw = ref None in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         K.Machine.call_in_context m (fun ctx ->
             saw :=
               Option.map
                 (fun c -> Access.index c = Access.index ctx)
                 (K.Machine.current_context m))));
  let _ = K.Machine.run m in
  Alcotest.(check (option bool)) "current context visible" (Some true) !saw

(* ---------------- Fault ports ---------------- *)

let test_fault_port_delivery () =
  let m = mk () in
  let fault_port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  K.Machine.set_fault_port m fault_port;
  let victim = K.Machine.allocate_generic m ~data_length:8 () in
  ignore
    (K.Machine.spawn m ~name:"crasher" (fun () ->
         ignore (K.Machine.read_word m victim ~offset:999)));
  let seen = ref None in
  ignore
    (K.Machine.spawn m ~name:"supervisor" (fun () ->
         let corpse = K.Machine.receive m ~port:fault_port in
         let st = K.Machine.process_state m corpse in
         seen := Some st.K.Process.name));
  let _ = K.Machine.run m in
  Alcotest.(check (option string)) "corpse delivered" (Some "crasher") !seen

let test_fault_port_multiple () =
  let m = mk () in
  let fault_port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  K.Machine.set_fault_port m fault_port;
  for i = 1 to 3 do
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "c%d" i) (fun () ->
           Fault.raise_fault (Fault.Protocol "bang")))
  done;
  let names = ref [] in
  ignore
    (K.Machine.spawn m ~name:"supervisor" ~priority:1 (fun () ->
         for _ = 1 to 3 do
           let corpse = K.Machine.receive m ~port:fault_port in
           names := (K.Machine.process_state m corpse).K.Process.name :: !names
         done));
  let _ = K.Machine.run m in
  Alcotest.(check int) "three corpses" 3 (List.length !names)

let test_fault_port_requires_port () =
  let m = mk () in
  let not_port = K.Machine.allocate_generic m () in
  Alcotest.(check bool) "rejects non-port" true
    (match K.Machine.set_fault_port m not_port with
    | () -> false
    | exception Fault.Fault (Fault.Type_mismatch _) -> true)

(* ---------------- Ada tasks ---------------- *)

let test_rendezvous_roundtrip () =
  let sys = boot () in
  let m = System.machine sys in
  let e = Ada_tasks.create_entry m () in
  ignore
    (Ada_tasks.create_task m ~name:"server" (fun () ->
         Ada_tasks.accept e ~body:(fun parameter ->
             let v = K.Machine.read_word m parameter ~offset:0 in
             K.Machine.write_word m parameter ~offset:0 (2 * v);
             parameter)));
  let result = ref 0 in
  ignore
    (Ada_tasks.create_task m ~name:"client" (fun () ->
         let x = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.write_word m x ~offset:0 21;
         let r = Ada_tasks.call e ~parameter:x in
         result := K.Machine.read_word m r ~offset:0));
  let report = System.run sys in
  Alcotest.(check int) "doubled" 42 !result;
  Alcotest.(check (list string)) "no deadlock" [] report.K.Machine.deadlocked;
  Alcotest.(check int) "one call" 1 (Ada_tasks.call_count e);
  Alcotest.(check int) "one accept" 1 (Ada_tasks.accept_count e)

let test_rendezvous_caller_blocks_until_reply () =
  (* The caller must not proceed before the server replies: server delays,
     caller's completion time must reflect it. *)
  let sys = boot ~processors:2 () in
  let m = System.machine sys in
  let e = Ada_tasks.create_entry m () in
  let order = ref [] in
  ignore
    (Ada_tasks.create_task m ~name:"server" (fun () ->
         Ada_tasks.accept e ~body:(fun p ->
             K.Machine.delay m ~ns:5_000_000;
             order := "served" :: !order;
             p)));
  ignore
    (Ada_tasks.create_task m ~name:"client" (fun () ->
         let x = K.Machine.allocate_generic m ~data_length:8 () in
         ignore (Ada_tasks.call e ~parameter:x);
         order := "returned" :: !order));
  let _ = System.run sys in
  Alcotest.(check (list string)) "rendezvous order" [ "served"; "returned" ]
    (List.rev !order)

let test_rendezvous_fifo_service () =
  let sys = boot () in
  let m = System.machine sys in
  let e = Ada_tasks.create_entry m () in
  let served = ref [] in
  ignore
    (Ada_tasks.create_task m ~name:"server" ~priority:1 (fun () ->
         for _ = 1 to 3 do
           Ada_tasks.accept e ~body:(fun p ->
               served := K.Machine.read_word m p ~offset:0 :: !served;
               p)
         done));
  for i = 1 to 3 do
    ignore
      (Ada_tasks.create_task m ~name:(Printf.sprintf "client%d" i) ~priority:(10 - i)
         (fun () ->
           let x = K.Machine.allocate_generic m ~data_length:8 () in
           K.Machine.write_word m x ~offset:0 i;
           ignore (Ada_tasks.call e ~parameter:x)))
  done;
  let _ = System.run sys in
  Alcotest.(check (list int)) "calls served in queue order" [ 1; 2; 3 ]
    (List.rev !served)

let test_try_accept_else_branch () =
  let sys = boot () in
  let m = System.machine sys in
  let e = Ada_tasks.create_entry m () in
  let took_else = ref false in
  ignore
    (Ada_tasks.create_task m ~name:"server" (fun () ->
         if not (Ada_tasks.try_accept e ~body:(fun p -> p)) then
           took_else := true));
  let _ = System.run sys in
  Alcotest.(check bool) "else branch taken" true !took_else

let test_select_two_entries () =
  let sys = boot () in
  let m = System.machine sys in
  let a = Ada_tasks.create_entry m () in
  let b = Ada_tasks.create_entry m () in
  let hits = ref [] in
  ignore
    (Ada_tasks.create_task m ~name:"server" ~priority:1 (fun () ->
         for _ = 1 to 2 do
           ignore
             (Ada_tasks.select
                [
                  (a, fun p -> hits := "a" :: !hits; p);
                  (b, fun p -> hits := "b" :: !hits; p);
                ])
         done));
  ignore
    (Ada_tasks.create_task m ~name:"caller-b" (fun () ->
         let x = K.Machine.allocate_generic m ~data_length:8 () in
         ignore (Ada_tasks.call b ~parameter:x)));
  ignore
    (Ada_tasks.create_task m ~name:"caller-a" (fun () ->
         let x = K.Machine.allocate_generic m ~data_length:8 () in
         ignore (Ada_tasks.call a ~parameter:x)));
  let report = System.run sys in
  Alcotest.(check (list string)) "no deadlock" [] report.K.Machine.deadlocked;
  Alcotest.(check int) "both served" 2 (List.length !hits);
  Alcotest.(check bool) "one of each" true
    (List.mem "a" !hits && List.mem "b" !hits)

let test_select_timeout () =
  let sys = boot () in
  let m = System.machine sys in
  let e = Ada_tasks.create_entry m () in
  let result = ref true in
  ignore
    (Ada_tasks.create_task m ~name:"server" (fun () ->
         result := Ada_tasks.select ~until:2_000_000 [ (e, fun p -> p) ]));
  let _ = System.run sys in
  Alcotest.(check bool) "timed out without accepting" false !result

(* ---------------- Interposition ---------------- *)

let test_interposer_transparent () =
  let sys = boot () in
  let m = System.machine sys in
  let (module Ports), trace = Interpose.wrap (module Interpose.Real) in
  let prt = Ports.create_port m ~message_count:4 () in
  let got = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         let o = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.write_word m o ~offset:0 5;
         Ports.send m ~prt ~msg:o));
  ignore
    (K.Machine.spawn m ~name:"r" (fun () ->
         got := K.Machine.read_word m (Ports.receive m ~prt) ~offset:0));
  let _ = System.run sys in
  Alcotest.(check int) "payload intact" 5 !got;
  Alcotest.(check int) "trace has send+receive" 2 (List.length (trace ()))

let test_interposer_censors () =
  let sys = boot () in
  let m = System.machine sys in
  let hooks =
    {
      Interpose.default_hooks with
      Interpose.on_send =
        (fun msg ->
          if K.Machine.read_word m msg ~offset:0 < 0 then None else Some msg);
    }
  in
  let (module Ports), trace = Interpose.wrap ~hooks (module Interpose.Real) in
  let prt = Ports.create_port m ~message_count:8 () in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         List.iter
           (fun v ->
             let o = K.Machine.allocate_generic m ~data_length:8 () in
             K.Machine.write_word m o ~offset:0 v;
             Ports.send m ~prt ~msg:o)
           [ 1; -2; 3 ]));
  let got = ref [] in
  ignore
    (K.Machine.spawn m ~name:"r" (fun () ->
         for _ = 1 to 2 do
           got := K.Machine.read_word m (Ports.receive m ~prt) ~offset:0 :: !got
         done));
  let _ = System.run sys in
  Alcotest.(check (list int)) "censored stream" [ 1; 3 ] (List.rev !got);
  let dropped =
    List.length
      (List.filter
         (function Interpose.Dropped _ -> true | _ -> false)
         (trace ()))
  in
  Alcotest.(check int) "one dropped" 1 dropped

let test_interposer_receive_hook_transforms () =
  (* The on_receive hook can rewrite what the wrapped code sees — here it
     substitutes a sanitized copy for every delivered message. *)
  let sys = boot () in
  let m = System.machine sys in
  let hooks =
    {
      Interpose.default_hooks with
      Interpose.on_receive =
        (fun msg ->
          let copy = K.Machine.allocate_generic m ~data_length:8 () in
          K.Machine.write_word m copy ~offset:0
            (1000 + K.Machine.read_word m msg ~offset:0);
          copy);
    }
  in
  let (module Ports), _ = Interpose.wrap ~hooks (module Interpose.Real) in
  let prt = Ports.create_port m ~message_count:4 () in
  let got = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         let o = K.Machine.allocate_generic m ~data_length:8 () in
         K.Machine.write_word m o ~offset:0 7;
         Ports.send m ~prt ~msg:o));
  ignore
    (K.Machine.spawn m ~name:"r" (fun () ->
         got := K.Machine.read_word m (Ports.receive m ~prt) ~offset:0));
  let _ = System.run sys in
  Alcotest.(check int) "receiver sees the transformed message" 1007 !got

let test_interposers_stack () =
  let sys = boot () in
  let m = System.machine sys in
  let (module Audited), counts = Interpose.auditor (module Interpose.Real) in
  let (module Stacked), _ = Interpose.wrap (module Audited) in
  let prt = Stacked.create_port m ~message_count:4 () in
  ignore
    (K.Machine.spawn m ~name:"s" (fun () ->
         let o = K.Machine.allocate_generic m () in
         Stacked.send m ~prt ~msg:o));
  ignore
    (K.Machine.spawn m ~name:"r" (fun () -> ignore (Stacked.receive m ~prt)));
  let _ = System.run sys in
  Alcotest.(check (pair int int)) "inner auditor saw traffic" (1, 1) (counts ())

(* ---------------- Levels discipline ---------------- *)

let test_levels_roundtrip () =
  List.iter
    (fun (l, n) ->
      Alcotest.(check int) "to_int" n (Levels.to_int l);
      Alcotest.(check string) "of_int . to_int" (Levels.to_string l)
        (Levels.to_string (Levels.of_int n)))
    [ (Levels.Level1, 1); (Levels.Level2, 2); (Levels.Level3, 3); (Levels.User, 4) ]

let test_levels_fault_rules () =
  let timeout = Fault.Protocol "timeout waiting for device" in
  let bounds = Fault.Bounds { part = "data"; offset = 1; length = 0 } in
  Alcotest.(check bool) "L1 never faults" false (Levels.may_fault Levels.Level1 timeout);
  Alcotest.(check bool) "L2 timeout ok" true (Levels.may_fault Levels.Level2 timeout);
  Alcotest.(check bool) "L2 bounds not ok" false (Levels.may_fault Levels.Level2 bounds);
  Alcotest.(check bool) "L3 anything" true (Levels.may_fault Levels.Level3 bounds);
  Alcotest.(check bool) "user anything" true (Levels.may_fault Levels.User bounds)

let test_levels_async_boundary () =
  Alcotest.(check bool) "2->3 async" true
    (Levels.must_be_asynchronous ~src:Levels.Level2 ~dst:Levels.Level3);
  Alcotest.(check bool) "3->2 async" true
    (Levels.must_be_asynchronous ~src:Levels.Level3 ~dst:Levels.Level2);
  Alcotest.(check bool) "1->2 may be sync" false
    (Levels.must_be_asynchronous ~src:Levels.Level1 ~dst:Levels.Level2);
  Alcotest.(check bool) "user->user may be sync" false
    (Levels.must_be_asynchronous ~src:Levels.User ~dst:Levels.User)

let test_levels_no_upward_reply_dependency () =
  Alcotest.(check bool) "2 must not await 3" false
    (Levels.may_await_reply ~src:Levels.Level2 ~dst:Levels.Level3);
  Alcotest.(check bool) "3 may await 4" true
    (Levels.may_await_reply ~src:Levels.Level3 ~dst:Levels.User)

let test_levels_spawn_panic_rule () =
  let m = mk () in
  ignore
    (Levels.spawn m ~level:Levels.Level2 ~name:"sys2" (fun () ->
         Fault.raise_fault (Fault.Bounds { part = "data"; offset = 0; length = 0 })));
  Alcotest.(check bool) "level-2 fault panics the machine" true
    (match K.Machine.run m with
    | _ -> false
    | exception K.Machine.Kernel_panic _ -> true)

let test_levels_async_notify () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let results = ref [] in
  ignore
    (Levels.spawn m ~level:Levels.Level2 ~name:"notifier" (fun () ->
         let msg = K.Machine.allocate_generic m () in
         (* First fits; second must be refused, never blocked on. *)
         results := Levels.async_notify m ~src:Levels.Level2 ~port ~msg :: !results;
         results := Levels.async_notify m ~src:Levels.Level2 ~port ~msg :: !results));
  let r = K.Machine.run m in
  Alcotest.(check (list bool)) "non-blocking posts" [ true; false ] (List.rev !results);
  Alcotest.(check (list string)) "notifier never blocked" [] r.K.Machine.deadlocked

let test_levels_sync_call_guard () =
  let sys = boot () in
  let m = System.machine sys in
  let e = Ada_tasks.create_entry m () in
  let refused = ref false in
  ignore
    (Levels.spawn m ~level:Levels.Level2 ~name:"caller" (fun () ->
         let x = K.Machine.allocate_generic m () in
         match
           Levels.sync_call m ~src:Levels.Level2 ~dst:Levels.Level3 ~entry:e
             ~parameter:x
         with
        | _ -> ()
        | exception Levels.Discipline_violation _ -> refused := true));
  let _ = System.run sys in
  Alcotest.(check bool) "upward sync call refused" true !refused

let suite =
  [
    ("context create/destroy", `Quick, test_context_create_destroy);
    ("context double destroy", `Quick, test_context_double_destroy);
    ("context locals level rule", `Quick, test_context_locals_level_rule);
    ("call_in_context nesting", `Quick, test_call_in_context_nesting);
    ("call_in_context cleans up", `Quick, test_call_in_context_cleans_up);
    ("call_in_context outside process", `Quick, test_call_in_context_outside_process);
    ("current context", `Quick, test_current_context);
    ("fault port delivery", `Quick, test_fault_port_delivery);
    ("fault port multiple", `Quick, test_fault_port_multiple);
    ("fault port requires port", `Quick, test_fault_port_requires_port);
    ("rendezvous roundtrip", `Quick, test_rendezvous_roundtrip);
    ("rendezvous caller blocks until reply", `Quick,
     test_rendezvous_caller_blocks_until_reply);
    ("rendezvous fifo service", `Quick, test_rendezvous_fifo_service);
    ("try_accept else branch", `Quick, test_try_accept_else_branch);
    ("select two entries", `Quick, test_select_two_entries);
    ("select timeout", `Quick, test_select_timeout);
    ("interposer transparent", `Quick, test_interposer_transparent);
    ("interposer censors", `Quick, test_interposer_censors);
    ("interposer receive hook transforms", `Quick,
     test_interposer_receive_hook_transforms);
    ("interposers stack", `Quick, test_interposers_stack);
    ("levels roundtrip", `Quick, test_levels_roundtrip);
    ("levels fault rules", `Quick, test_levels_fault_rules);
    ("levels async boundary", `Quick, test_levels_async_boundary);
    ("levels no upward reply dependency", `Quick,
     test_levels_no_upward_reply_dependency);
    ("levels spawn panic rule", `Quick, test_levels_spawn_panic_rule);
    ("levels async notify", `Quick, test_levels_async_notify);
    ("levels sync call guard", `Quick, test_levels_sync_call_guard);
  ]
