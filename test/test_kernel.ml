(* Tests for the kernel: the run loop, processes, ports (blocking, rights,
   disciplines), dispatching, time slicing, domain calls, local heaps, bus
   contention, and determinism across runs. *)

open I432
module K = I432_kernel
module Obs = I432_obs

let mk ?(processors = 1) ?(alpha = 0) () =
  K.Machine.create
    ~config:
      {
        K.Machine.default_config with
        K.Machine.processors;
        bus_alpha_per_mille = alpha;
      }
    ()

let run = K.Machine.run

(* ---------------- Basic process execution ---------------- *)

let test_single_process_runs () =
  let m = mk () in
  let hits = ref 0 in
  let _ = K.Machine.spawn m ~name:"p" (fun () -> hits := 42) in
  let r = run m in
  Alcotest.(check int) "body ran" 42 !hits;
  Alcotest.(check int) "completed" 1 r.K.Machine.completed

let test_processes_accumulate_time () =
  let m = mk () in
  let p = K.Machine.spawn m ~name:"p" (fun () -> K.Machine.compute m 100) in
  let _ = run m in
  let st = K.Machine.process_state m p in
  Alcotest.(check bool) "cpu time charged" true (st.K.Process.cpu_ns >= 100_000)

let test_spawn_many () =
  let m = mk () in
  let n = ref 0 in
  for i = 1 to 50 do
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "p%d" i) (fun () -> incr n))
  done;
  let r = run m in
  Alcotest.(check int) "all ran" 50 !n;
  Alcotest.(check int) "all completed" 50 r.K.Machine.completed

let test_priority_order_single_cpu () =
  let m = mk () in
  let order = ref [] in
  let mk_proc name prio =
    ignore
      (K.Machine.spawn m ~name ~priority:prio (fun () ->
           order := name :: !order))
  in
  mk_proc "low" 1;
  mk_proc "high" 10;
  mk_proc "mid" 5;
  let _ = run m in
  Alcotest.(check (list string)) "highest first" [ "high"; "mid"; "low" ]
    (List.rev !order)

let test_yield_interleaves () =
  let m = mk () in
  let log = ref [] in
  let worker name () =
    for i = 1 to 3 do
      log := (name, i) :: !log;
      K.Machine.yield m
    done
  in
  ignore (K.Machine.spawn m ~name:"a" (worker "a"));
  ignore (K.Machine.spawn m ~name:"b" (worker "b"));
  let _ = run m in
  let names = List.rev_map fst !log in
  (* With equal priorities and yields, the two processes alternate. *)
  Alcotest.(check (list string)) "alternation"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    names

let test_exit_process () =
  let m = mk () in
  let after = ref false in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         if true then K.Machine.exit_process m;
         after := true));
  let r = run m in
  Alcotest.(check bool) "code after exit unreached" false !after;
  Alcotest.(check int) "completed" 1 r.K.Machine.completed

let test_delay_advances_clock () =
  let m = mk () in
  ignore (K.Machine.spawn m ~name:"p" (fun () -> K.Machine.delay m ~ns:5_000_000));
  let r = run m in
  Alcotest.(check bool) "elapsed >= delay" true
    (r.K.Machine.elapsed_ns >= 5_000_000)

let test_delays_order_events () =
  let m = mk () in
  let log = ref [] in
  ignore
    (K.Machine.spawn m ~name:"late" (fun () ->
         K.Machine.delay m ~ns:2_000_000;
         log := "late" :: !log));
  ignore
    (K.Machine.spawn m ~name:"early" (fun () ->
         K.Machine.delay m ~ns:1_000_000;
         log := "early" :: !log));
  let _ = run m in
  Alcotest.(check (list string)) "wake order" [ "early"; "late" ] (List.rev !log)

let test_fault_recorded () =
  let m = mk () in
  let victim = K.Machine.allocate_generic m ~data_length:4 () in
  ignore
    (K.Machine.spawn m ~name:"bad" (fun () ->
         ignore (K.Machine.read_word m victim ~offset:100)));
  let r = run m in
  Alcotest.(check int) "faulted" 1 r.K.Machine.faulted;
  match K.Machine.faults m with
  | [ ("bad", Fault.Bounds _) ] -> ()
  | _ -> Alcotest.fail "expected one bounds fault from 'bad'"

let test_fault_below_level3_panics () =
  let m = mk () in
  ignore
    (K.Machine.spawn m ~name:"sys" ~system_level:2 (fun () ->
         Fault.raise_fault (Fault.Protocol "boom")));
  Alcotest.(check bool) "panics" true
    (match run m with
    | _ -> false
    | exception K.Machine.Kernel_panic _ -> true)

let test_fault_at_level4_does_not_panic () =
  let m = mk () in
  ignore
    (K.Machine.spawn m ~name:"user" ~system_level:4 (fun () ->
         Fault.raise_fault (Fault.Protocol "boom")));
  let r = run m in
  Alcotest.(check int) "contained" 1 r.K.Machine.faulted

(* ---------------- Ports ---------------- *)

let test_port_send_receive () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let got = ref (-1) in
  let obj = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         K.Machine.write_word m obj ~offset:0 7;
         K.Machine.send m ~port ~msg:obj));
  ignore
    (K.Machine.spawn m ~name:"receiver" (fun () ->
         let msg = K.Machine.receive m ~port in
         got := K.Machine.read_word m msg ~offset:0));
  let _ = run m in
  Alcotest.(check int) "payload" 7 !got

let test_port_fifo_order () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  let order = ref [] in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         for i = 1 to 5 do
           let o = K.Machine.allocate_generic m () in
           K.Machine.write_word m o ~offset:0 i;
           K.Machine.send m ~port ~msg:o
         done));
  ignore
    (K.Machine.spawn m ~name:"receiver" (fun () ->
         for _ = 1 to 5 do
           let msg = K.Machine.receive m ~port in
           order := K.Machine.read_word m msg ~offset:0 :: !order
         done));
  let _ = run m in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_port_priority_discipline () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Priority () in
  let order = ref [] in
  (* Three senders with different priorities enqueue before the receiver
     starts (receiver has lowest priority so it runs last). *)
  let send_with prio v =
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "s%d" v) ~priority:prio
         (fun () ->
           let o = K.Machine.allocate_generic m () in
           K.Machine.write_word m o ~offset:0 v;
           K.Machine.send m ~port ~msg:o))
  in
  send_with 3 30;
  send_with 9 90;
  send_with 6 60;
  ignore
    (K.Machine.spawn m ~name:"receiver" ~priority:1 (fun () ->
         for _ = 1 to 3 do
           let msg = K.Machine.receive m ~port in
           order := K.Machine.read_word m msg ~offset:0 :: !order
         done));
  let _ = run m in
  Alcotest.(check (list int)) "highest priority first" [ 90; 60; 30 ]
    (List.rev !order)

let test_port_sender_blocks_when_full () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let sent = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         for _ = 1 to 5 do
           let o = K.Machine.allocate_generic m () in
           K.Machine.send m ~port ~msg:o;
           incr sent
         done));
  let _ = run m in
  (* No receiver: the sender fills the queue (2) and blocks on the third. *)
  Alcotest.(check int) "sent until full" 2 !sent;
  let _, _, send_blocks, _, _, _ = K.Machine.port_stats m port in
  Alcotest.(check int) "one blocking send" 1 send_blocks

let test_port_blocked_sender_resumes () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let sent = ref 0 and received = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         for _ = 1 to 4 do
           let o = K.Machine.allocate_generic m () in
           K.Machine.send m ~port ~msg:o;
           incr sent
         done));
  ignore
    (K.Machine.spawn m ~name:"receiver" (fun () ->
         for _ = 1 to 4 do
           let _ = K.Machine.receive m ~port in
           incr received
         done));
  let r = run m in
  Alcotest.(check int) "all sent" 4 !sent;
  Alcotest.(check int) "all received" 4 !received;
  Alcotest.(check (list string)) "no deadlock" [] r.K.Machine.deadlocked

let test_port_receiver_blocks_then_wakes () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let got = ref false in
  ignore
    (K.Machine.spawn m ~name:"receiver" ~priority:10 (fun () ->
         let _ = K.Machine.receive m ~port in
         got := true));
  ignore
    (K.Machine.spawn m ~name:"sender" ~priority:1 (fun () ->
         K.Machine.delay m ~ns:1_000_000;
         let o = K.Machine.allocate_generic m () in
         K.Machine.send m ~port ~msg:o));
  let _ = run m in
  Alcotest.(check bool) "receiver woke" true !got

let test_port_send_requires_right () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let no_send = Access.without_type_right port Rights.t1 in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         let o = K.Machine.allocate_generic m () in
         K.Machine.send m ~port:no_send ~msg:o));
  let r = run m in
  Alcotest.(check int) "rights fault" 1 r.K.Machine.faulted

let test_port_receive_requires_right () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let no_recv = Access.without_type_right port Rights.t2 in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         ignore (K.Machine.receive m ~port:no_recv)));
  let r = run m in
  Alcotest.(check int) "rights fault" 1 r.K.Machine.faulted

let test_port_wrong_object_type () =
  let m = mk () in
  let not_a_port = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         let o = K.Machine.allocate_generic m () in
         K.Machine.send m ~port:not_a_port ~msg:o));
  let r = run m in
  Alcotest.(check int) "type fault" 1 r.K.Machine.faulted

let test_port_capacity_limit () =
  let m = mk () in
  let limit = K.Machine.max_port_capacity in
  ignore (K.Machine.create_port m ~capacity:limit ~discipline:K.Port.Fifo ());
  Alcotest.check_raises "one past the limit"
    (Invalid_argument
       (Printf.sprintf
          "Machine.create_port: capacity %d exceeds max_port_capacity (%d)"
          (limit + 1) limit))
    (fun () ->
      ignore
        (K.Machine.create_port m ~capacity:(limit + 1)
           ~discipline:K.Port.Fifo ()))

let test_cond_send_on_full () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let results = ref [] in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         for _ = 1 to 3 do
           let o = K.Machine.allocate_generic m () in
           results := K.Machine.cond_send m ~port ~msg:o :: !results
         done));
  let _ = run m in
  Alcotest.(check (list bool)) "first accepted, rest refused"
    [ true; false; false ] (List.rev !results)

let test_cond_receive_on_empty () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let got = ref (Some (Access.make ~index:0 ~rights:Rights.none)) in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         got := K.Machine.cond_receive m ~port));
  let _ = run m in
  Alcotest.(check bool) "none on empty" true (!got = None)

(* ---------------- Port transfer characterisation ---------------- *)

(* Every port op against every queue state it can meet, on both
   disciplines.  A case renders as one line: the op's result, the port's
   statistics (sends/receives/send blocks/receive blocks/max depth/mean
   wait), each process's sent/received/blocks counters, the run's final
   clock, the event sequence as kind:name (spawns and allocations
   omitted) and the op each leave from a processor renders as in the
   seed's "descheduled on" line. *)

(* The op of a leave event's seed line, "process X descheduled on <op>". *)
let leave_op (e : Obs.Event.t) =
  let prefix = "process " ^ e.Obs.Event.name ^ " descheduled on " in
  let n = String.length prefix in
  match Obs.Event.legacy_line e with
  | Some line when String.length line > n && String.sub line 0 n = prefix ->
    Some (String.sub line n (String.length line - n))
  | Some _ | None -> None

let xfer_send op m ~port ~msg =
  match op with
  | `Block ->
    K.Machine.send m ~port ~msg;
    "()"
  | `Cond -> string_of_bool (K.Machine.cond_send m ~port ~msg)
  | `Timed timeout_ns ->
    string_of_bool (K.Machine.send_timeout m ~port ~msg ~timeout_ns)

let xfer_receive op m ~port =
  let got =
    match op with
    | `Block -> Some (K.Machine.receive m ~port)
    | `Cond -> K.Machine.cond_receive m ~port
    | `Timed timeout_ns -> K.Machine.receive_timeout m ~port ~timeout_ns
  in
  match got with
  | None -> "none"
  | Some msg -> string_of_int (K.Machine.read_word m msg ~offset:0)

(* [scenario m port spawn msg result] spawns the case's processes; the
   process under test stores its op's rendering in [result]. *)
let xfer_case ~capacity ~discipline scenario =
  let m = Testkit.mk ~trace:true () in
  let port = K.Machine.create_port m ~capacity ~discipline () in
  let spawn name priority body =
    ignore (K.Machine.spawn m ~name ~priority body)
  in
  let msg n =
    let o = Testkit.alloc m () in
    K.Machine.write_word m o ~offset:0 n;
    o
  in
  let result = ref "-" in
  scenario m port spawn msg result;
  let report = run m in
  let s, r, sb, rb, depth, wait = K.Machine.port_stats m port in
  let procs =
    List.rev_map
      (fun (p : K.Process.t) ->
        Printf.sprintf "%s:%d/%d/%d" p.K.Process.name p.K.Process.messages_sent
          p.K.Process.messages_received p.K.Process.blocks)
      (K.Machine.all_processes m)
  in
  let events = K.Machine.events m in
  let kinds =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.kind with
        | Obs.Event.Spawn | Obs.Event.Allocate -> None
        | k -> Some (Obs.Event.kind_to_string k ^ ":" ^ e.Obs.Event.name))
      events
  in
  let descheds = List.filter_map leave_op events in
  Printf.sprintf "%s | %d/%d/%d/%d/%d/%.0f | %s | %d | %s | %s" !result s r sb rb
    depth wait (String.concat " " procs) report.K.Machine.elapsed_ns
    (String.concat " " kinds) (String.concat "," descheds)

let tx op m port msg result () = result := xfer_send op m ~port ~msg:(msg 1)
let rx op m port result () = result := xfer_receive op m ~port

let parked_receiver op =
  ( "parked receiver",
    2,
    fun m port spawn msg result ->
      spawn "rx" 10 (fun () -> ignore (K.Machine.receive m ~port));
      spawn "tx" 5 (tx op m port msg result) )

let room op =
  ("room", 2, fun m port spawn msg result -> spawn "tx" 5 (tx op m port msg result))

(* A drainer frees the slot 50 us later: a blocked send is admitted, an
   expiring one has given up by then. *)
let full op =
  ( "full",
    1,
    fun m port spawn msg result ->
      spawn "fill" 10 (fun () -> K.Machine.send m ~port ~msg:(msg 0));
      spawn "tx" 5 (tx op m port msg result);
      spawn "drain" 1 (fun () ->
          K.Machine.delay m ~ns:50_000;
          ignore (K.Machine.receive m ~port)) )

(* The later, higher-priority message overtakes on a Priority port. *)
let queued op =
  ( "queued",
    2,
    fun m port spawn msg result ->
      spawn "hi" 10 (fun () ->
          K.Machine.delay m ~ns:1_000;
          K.Machine.send m ~port ~msg:(msg 2));
      spawn "lo" 9 (fun () -> K.Machine.send m ~port ~msg:(msg 1));
      spawn "rx" 1 (fun () ->
          K.Machine.delay m ~ns:10_000;
          rx op m port result ()) )

let full_sender_parked op =
  ( "full, sender parked",
    1,
    fun m port spawn msg result ->
      spawn "f1" 10 (fun () -> K.Machine.send m ~port ~msg:(msg 1));
      spawn "f2" 9 (fun () -> K.Machine.send m ~port ~msg:(msg 2));
      spawn "rx" 1 (rx op m port result) )

(* A sender feeds the port 50 us later. *)
let empty op =
  ( "empty",
    2,
    fun m port spawn msg result ->
      spawn "rx" 10 (rx op m port result);
      spawn "tx" 5 (fun () ->
          K.Machine.delay m ~ns:50_000;
          K.Machine.send m ~port ~msg:(msg 1)) )

let xfer_rows =
  let rows name cases op =
    List.map
      (fun case ->
        let c, capacity, scenario = case op in
        (name ^ " / " ^ c, capacity, scenario))
      cases
  in
  rows "send" [ parked_receiver; room; full ] `Block
  @ rows "cond_send" [ parked_receiver; room; full ] `Cond
  @ rows "send_timeout" [ parked_receiver; room; full ] (`Timed 1_000_000)
  @ rows "send_timeout, expiring" [ full ] (`Timed 10_000)
  @ rows "receive" [ queued; full_sender_parked; empty ] `Block
  @ rows "cond_receive" [ queued; full_sender_parked; empty ] `Cond
  @ rows "receive_timeout" [ queued; full_sender_parked; empty ] (`Timed 1_000_000)
  @ rows "receive_timeout, expiring" [ empty ] (`Timed 10_000)

(* One line per case and discipline.  A send handed straight to a parked
   receiver counts a port receive in every wait mode. *)
let xfer_expected =
  [
    ("FIFO send / parked receiver",
     "() | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 186625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive");
    ("FIFO send / room",
     "() | 1/0/0/0/1/0 | tx:1/0/0 | 114625 | ready:tx dispatch:tx send:tx finish:tx | ");
    ("FIFO send / full",
     "() | 2/1/1/0/1/236625 | fill:1/0/0 tx:1/0/1 drain:0/1/0 | 373250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx send:tx block-send:tx dispatch:drain sleep:drain wake:drain ready:drain dispatch:drain receive:drain ready:tx finish:drain dispatch:tx finish:tx | send,delay(50000ns)");
    ("FIFO cond_send / parked receiver",
     "true | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 186625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive");
    ("FIFO cond_send / room",
     "true | 1/0/0/0/1/0 | tx:1/0/0 | 114625 | ready:tx dispatch:tx send:tx finish:tx | ");
    ("FIFO cond_send / full",
     "false | 1/1/0/0/1/220625 | fill:1/0/0 tx:0/0/0 drain:0/1/0 | 335250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx finish:tx dispatch:drain sleep:drain wake:drain ready:drain dispatch:drain receive:drain finish:drain | delay(50000ns)");
    ("FIFO send_timeout / parked receiver",
     "true | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 186625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive");
    ("FIFO send_timeout / room",
     "true | 1/0/0/0/1/0 | tx:1/0/0 | 114625 | ready:tx dispatch:tx send:tx finish:tx | ");
    ("FIFO send_timeout / full",
     "true | 2/1/1/0/1/236625 | fill:1/0/0 tx:1/0/1 drain:0/1/0 | 373250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx block-send:tx dispatch:drain sleep:drain wake:drain ready:drain dispatch:drain receive:drain send:tx ready:tx finish:drain dispatch:tx finish:tx | timed-send(1000000ns),delay(50000ns)");
    ("FIFO send_timeout, expiring / full",
     "false | 1/1/1/0/1/236625 | fill:1/0/0 tx:0/0/1 drain:0/1/0 | 351250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx block-send:tx dispatch:drain timeout-fired:tx ready:tx sleep:drain dispatch:tx finish:tx wake:drain ready:drain dispatch:drain receive:drain finish:drain | timed-send(10000ns),delay(50000ns)");
    ("FIFO receive / queued",
     "1 | 2/1/0/0/2/180625 | hi:1/0/0 lo:1/0/0 rx:0/1/0 | 317750 | ready:hi ready:lo ready:rx dispatch:hi sleep:hi dispatch:lo wake:hi ready:hi send:lo finish:lo dispatch:hi send:hi finish:hi dispatch:rx sleep:rx wake:rx ready:rx dispatch:rx receive:rx finish:rx | delay(1000ns),delay(10000ns)");
    ("FIFO receive / full, sender parked",
     "1 | 2/1/1/0/1/164625 | f1:1/0/0 f2:1/0/1 rx:0/1/0 | 301750 | ready:f1 ready:f2 ready:rx dispatch:f1 send:f1 finish:f1 dispatch:f2 send:f2 block-send:f2 dispatch:rx receive:rx ready:f2 finish:rx dispatch:f2 finish:f2 | send");
    ("FIFO receive / empty",
     "1 | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 259125 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx sleep:tx wake:tx ready:tx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive,delay(50000ns)");
    ("FIFO cond_receive / queued",
     "1 | 2/1/0/0/2/180625 | hi:1/0/0 lo:1/0/0 rx:0/1/0 | 317750 | ready:hi ready:lo ready:rx dispatch:hi sleep:hi dispatch:lo wake:hi ready:hi send:lo finish:lo dispatch:hi send:hi finish:hi dispatch:rx sleep:rx wake:rx ready:rx dispatch:rx receive:rx finish:rx | delay(1000ns),delay(10000ns)");
    ("FIFO cond_receive / full, sender parked",
     "1 | 2/1/1/0/1/164625 | f1:1/0/0 f2:1/0/1 rx:0/1/0 | 301750 | ready:f1 ready:f2 ready:rx dispatch:f1 send:f1 finish:f1 dispatch:f2 send:f2 block-send:f2 dispatch:rx receive:rx ready:f2 finish:rx dispatch:f2 finish:f2 | send");
    ("FIFO cond_receive / empty",
     "none | 1/0/0/0/1/0 | rx:0/0/0 tx:1/0/0 | 220625 | ready:rx ready:tx dispatch:rx finish:rx dispatch:tx sleep:tx wake:tx ready:tx dispatch:tx send:tx finish:tx | delay(50000ns)");
    ("FIFO receive_timeout / queued",
     "1 | 2/1/0/0/2/180625 | hi:1/0/0 lo:1/0/0 rx:0/1/0 | 317750 | ready:hi ready:lo ready:rx dispatch:hi sleep:hi dispatch:lo wake:hi ready:hi send:lo finish:lo dispatch:hi send:hi finish:hi dispatch:rx sleep:rx wake:rx ready:rx dispatch:rx receive:rx finish:rx | delay(1000ns),delay(10000ns)");
    ("FIFO receive_timeout / full, sender parked",
     "1 | 2/1/1/0/1/164625 | f1:1/0/0 f2:1/0/1 rx:0/1/0 | 301750 | ready:f1 ready:f2 ready:rx dispatch:f1 send:f1 finish:f1 dispatch:f2 send:f2 block-send:f2 dispatch:rx receive:rx ready:f2 finish:rx dispatch:f2 finish:f2 | send");
    ("FIFO receive_timeout / empty",
     "1 | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 259125 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx sleep:tx wake:tx ready:tx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | timed-receive(1000000ns),delay(50000ns)");
    ("FIFO receive_timeout, expiring / empty",
     "none | 1/0/0/1/1/0 | rx:0/0/1 tx:1/0/0 | 236625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx timeout-fired:rx ready:rx sleep:tx dispatch:rx finish:rx wake:tx ready:tx dispatch:tx send:tx finish:tx | timed-receive(10000ns),delay(50000ns)");
    ("priority send / parked receiver",
     "() | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 186625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive");
    ("priority send / room",
     "() | 1/0/0/0/1/0 | tx:1/0/0 | 114625 | ready:tx dispatch:tx send:tx finish:tx | ");
    ("priority send / full",
     "() | 2/1/1/0/1/236625 | fill:1/0/0 tx:1/0/1 drain:0/1/0 | 373250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx send:tx block-send:tx dispatch:drain sleep:drain wake:drain ready:drain dispatch:drain receive:drain ready:tx finish:drain dispatch:tx finish:tx | send,delay(50000ns)");
    ("priority cond_send / parked receiver",
     "true | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 186625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive");
    ("priority cond_send / room",
     "true | 1/0/0/0/1/0 | tx:1/0/0 | 114625 | ready:tx dispatch:tx send:tx finish:tx | ");
    ("priority cond_send / full",
     "false | 1/1/0/0/1/220625 | fill:1/0/0 tx:0/0/0 drain:0/1/0 | 335250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx finish:tx dispatch:drain sleep:drain wake:drain ready:drain dispatch:drain receive:drain finish:drain | delay(50000ns)");
    ("priority send_timeout / parked receiver",
     "true | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 186625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive");
    ("priority send_timeout / room",
     "true | 1/0/0/0/1/0 | tx:1/0/0 | 114625 | ready:tx dispatch:tx send:tx finish:tx | ");
    ("priority send_timeout / full",
     "true | 2/1/1/0/1/236625 | fill:1/0/0 tx:1/0/1 drain:0/1/0 | 373250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx block-send:tx dispatch:drain sleep:drain wake:drain ready:drain dispatch:drain receive:drain send:tx ready:tx finish:drain dispatch:tx finish:tx | timed-send(1000000ns),delay(50000ns)");
    ("priority send_timeout, expiring / full",
     "false | 1/1/1/0/1/236625 | fill:1/0/0 tx:0/0/1 drain:0/1/0 | 351250 | ready:fill ready:tx ready:drain dispatch:fill send:fill finish:fill dispatch:tx block-send:tx dispatch:drain timeout-fired:tx ready:tx sleep:drain dispatch:tx finish:tx wake:drain ready:drain dispatch:drain receive:drain finish:drain | timed-send(10000ns),delay(50000ns)");
    ("priority receive / queued",
     "2 | 2/1/0/0/2/66000 | hi:1/0/0 lo:1/0/0 rx:0/1/0 | 317750 | ready:hi ready:lo ready:rx dispatch:hi sleep:hi dispatch:lo wake:hi ready:hi send:lo finish:lo dispatch:hi send:hi finish:hi dispatch:rx sleep:rx wake:rx ready:rx dispatch:rx receive:rx finish:rx | delay(1000ns),delay(10000ns)");
    ("priority receive / full, sender parked",
     "1 | 2/1/1/0/1/164625 | f1:1/0/0 f2:1/0/1 rx:0/1/0 | 301750 | ready:f1 ready:f2 ready:rx dispatch:f1 send:f1 finish:f1 dispatch:f2 send:f2 block-send:f2 dispatch:rx receive:rx ready:f2 finish:rx dispatch:f2 finish:f2 | send");
    ("priority receive / empty",
     "1 | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 259125 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx sleep:tx wake:tx ready:tx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | receive,delay(50000ns)");
    ("priority cond_receive / queued",
     "2 | 2/1/0/0/2/66000 | hi:1/0/0 lo:1/0/0 rx:0/1/0 | 317750 | ready:hi ready:lo ready:rx dispatch:hi sleep:hi dispatch:lo wake:hi ready:hi send:lo finish:lo dispatch:hi send:hi finish:hi dispatch:rx sleep:rx wake:rx ready:rx dispatch:rx receive:rx finish:rx | delay(1000ns),delay(10000ns)");
    ("priority cond_receive / full, sender parked",
     "1 | 2/1/1/0/1/164625 | f1:1/0/0 f2:1/0/1 rx:0/1/0 | 301750 | ready:f1 ready:f2 ready:rx dispatch:f1 send:f1 finish:f1 dispatch:f2 send:f2 block-send:f2 dispatch:rx receive:rx ready:f2 finish:rx dispatch:f2 finish:f2 | send");
    ("priority cond_receive / empty",
     "none | 1/0/0/0/1/0 | rx:0/0/0 tx:1/0/0 | 220625 | ready:rx ready:tx dispatch:rx finish:rx dispatch:tx sleep:tx wake:tx ready:tx dispatch:tx send:tx finish:tx | delay(50000ns)");
    ("priority receive_timeout / queued",
     "2 | 2/1/0/0/2/66000 | hi:1/0/0 lo:1/0/0 rx:0/1/0 | 317750 | ready:hi ready:lo ready:rx dispatch:hi sleep:hi dispatch:lo wake:hi ready:hi send:lo finish:lo dispatch:hi send:hi finish:hi dispatch:rx sleep:rx wake:rx ready:rx dispatch:rx receive:rx finish:rx | delay(1000ns),delay(10000ns)");
    ("priority receive_timeout / full, sender parked",
     "1 | 2/1/1/0/1/164625 | f1:1/0/0 f2:1/0/1 rx:0/1/0 | 301750 | ready:f1 ready:f2 ready:rx dispatch:f1 send:f1 finish:f1 dispatch:f2 send:f2 block-send:f2 dispatch:rx receive:rx ready:f2 finish:rx dispatch:f2 finish:f2 | send");
    ("priority receive_timeout / empty",
     "1 | 1/1/0/1/0/0 | rx:0/1/1 tx:1/0/0 | 259125 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx sleep:tx wake:tx ready:tx dispatch:tx send:tx receive:rx ready:rx finish:tx dispatch:rx finish:rx | timed-receive(1000000ns),delay(50000ns)");
    ("priority receive_timeout, expiring / empty",
     "none | 1/0/0/1/1/0 | rx:0/0/1 tx:1/0/0 | 236625 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx timeout-fired:rx ready:rx sleep:tx dispatch:rx finish:rx wake:tx ready:tx dispatch:tx send:tx finish:tx | timed-receive(10000ns),delay(50000ns)");
  ]

let test_port_transfer_characterisation () =
  let bad = ref [] in
  List.iter
    (fun discipline ->
      List.iter
        (fun (name, capacity, scenario) ->
          let key = K.Port.discipline_to_string discipline ^ " " ^ name in
          let got = xfer_case ~capacity ~discipline scenario in
          match List.assoc_opt key xfer_expected with
          | Some want when want = got -> ()
          | Some _ | None ->
            bad := Printf.sprintf "    (%S,\n     %S);" key got :: !bad)
        xfer_rows)
    [ K.Port.Fifo; K.Port.Priority ];
  if !bad <> [] then
    Alcotest.failf "port transfer cases differ:\n%s"
      (String.concat "\n" (List.rev !bad))

(* ---------------- Run-loop characterisation ---------------- *)

(* How the run loop steps, idles and halts.  A case renders as one line:
   the run report (elapsed, completed/faulted, deadlocked,
   dispatches/preemptions), each processor's clock/idle time, and the
   event sequence as kind:name (spawns and allocations omitted). *)

let loop_case ~processors ?max_ns ?max_steps setup =
  let m = Testkit.mk ~processors ~trace:true () in
  setup m;
  let r = run ?max_ns ?max_steps m in
  let cpus =
    List.map
      (fun (c : K.Snapshot.processor_line) ->
        Printf.sprintf "%d/%d" c.K.Snapshot.c_clock_ns c.K.Snapshot.c_idle_ns)
      (K.Snapshot.capture m).K.Snapshot.processors
  in
  let kinds =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.kind with
        | Obs.Event.Spawn | Obs.Event.Allocate -> None
        | k -> Some (Obs.Event.kind_to_string k ^ ":" ^ e.Obs.Event.name))
      (K.Machine.events m)
  in
  Printf.sprintf "%d %d/%d [%s] %d/%d | %s | %s" r.K.Machine.elapsed_ns
    r.K.Machine.completed r.K.Machine.faulted
    (String.concat "," r.K.Machine.deadlocked)
    r.K.Machine.dispatches r.K.Machine.preemptions (String.concat " " cpus)
    (String.concat " " kinds)

(* [n] rounds of 100 compute units, yielding between rounds. *)
let spinner m ?daemon name n =
  K.Machine.spawn m ?daemon ~name (fun () ->
      for _ = 1 to n do
        K.Machine.compute m 100;
        K.Machine.yield m
      done)

let ping_pong m =
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let msg = Testkit.alloc m () in
  ignore
    (K.Machine.spawn m ~name:"rx" (fun () ->
         for _ = 1 to 2 do
           ignore (K.Machine.receive m ~port)
         done));
  ignore
    (K.Machine.spawn m ~name:"tx" (fun () ->
         for _ = 1 to 2 do
           K.Machine.send m ~port ~msg
         done))

(* A waiter that parks on [port] with a 100 us deadline. *)
let timed_waiter m port =
  K.Machine.spawn m ~name:"waiter" (fun () ->
      ignore (K.Machine.receive_timeout m ~port ~timeout_ns:100_000))

(* The instant [timed_waiter]'s deadline lands on when it runs alone:
   step 1 dispatches it, step 2 parks it. *)
let waiter_deadline () =
  let m = Testkit.mk ~processors:1 () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let w = timed_waiter m port in
  ignore (run ~max_steps:2 m);
  Option.get (K.Machine.process_state m w).K.Process.timeout_at

let sleeper m ~name ~at = K.Machine.spawn m ~name ~start_after:at (fun () -> ())

let loop_rows =
  [
    ( "ready process bound to a busy cpu",
      (fun () ->
        loop_case ~processors:2 (fun m ->
            K.Machine.set_affinity m (spinner m "owner" 3) (Some 0);
            K.Machine.set_affinity m (spinner m "bound" 1) (Some 0))) );
    ( "affinity to a failed cpu",
      (fun () ->
        loop_case ~processors:2 (fun m ->
            K.Machine.fail_processor m 1;
            K.Machine.set_affinity m (spinner m "orphan" 1) (Some 1);
            ignore (spinner m "worker" 2))) );
    ( "sleeper kept company by a daemon",
      (fun () ->
        loop_case ~processors:1 (fun m ->
            ignore
              (K.Machine.spawn m ~daemon:true ~name:"tick" (fun () ->
                   while true do
                     K.Machine.delay m ~ns:30_000
                   done));
            ignore
              (K.Machine.spawn m ~name:"sleeper" (fun () ->
                   K.Machine.delay m ~ns:100_000)))) );
    ( "stopped ready non-daemon",
      (fun () ->
        loop_case ~processors:1 (fun m ->
            K.Machine.set_stopped m (spinner m "held" 1) true;
            ignore (spinner m "worker" 2))) );
    ( "timed receive past max_ns",
      (fun () ->
        loop_case ~processors:1 ~max_ns:200_000 (fun m ->
            let port =
              K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo ()
            in
            ignore
              (K.Machine.spawn m ~name:"waiter" (fun () ->
                   ignore
                     (K.Machine.receive_timeout m ~port ~timeout_ns:1_000_000)))))
    );
    ( "far sleeper, unbounded",
      (fun () ->
        loop_case ~processors:2 (fun m ->
            ignore
              (K.Machine.spawn m ~name:"far" (fun () ->
                   K.Machine.delay m ~ns:(1 lsl 60))))) );
    ( "every cpu failed mid-run",
      (fun () ->
        loop_case ~processors:2 (fun m ->
            ignore (spinner m "a" 10);
            ignore (spinner m "b" 10);
            K.Machine.schedule_injection m ~at_ns:150_000
              (K.Machine.Inj_cpu_fault 0);
            K.Machine.schedule_injection m ~at_ns:250_000
              (K.Machine.Inj_cpu_fault 1))) );
    ( "sleepers with equal wake instants",
      (fun () ->
        loop_case ~processors:1 (fun m ->
            List.iter
              (fun name -> ignore (sleeper m ~name ~at:50_000))
              [ "s1"; "s2"; "s3" ])) );
    ( "wake and deadline at one instant",
      (fun () ->
        let at = waiter_deadline () in
        loop_case ~processors:1 (fun m ->
            ignore (sleeper m ~name:"early" ~at);
            let port =
              K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo ()
            in
            ignore (timed_waiter m port);
            ignore (sleeper m ~name:"late" ~at))) );
    ( "deadline disarmed by a peer",
      (fun () ->
        loop_case ~processors:1 (fun m ->
            let port =
              K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo ()
            in
            let msg = Testkit.alloc m () in
            ignore
              (K.Machine.spawn m ~name:"waiter" (fun () ->
                   ignore
                     (K.Machine.receive_timeout m ~port ~timeout_ns:500_000)));
            ignore
              (K.Machine.spawn m ~name:"peer" (fun () ->
                   K.Machine.send m ~port ~msg));
            ignore
              (K.Machine.spawn m ~name:"after" (fun () ->
                   K.Machine.delay m ~ns:1_000_000)))) );
    ( "timeout re-armed on one process",
      (fun () ->
        loop_case ~processors:1 (fun m ->
            let port =
              K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo ()
            in
            let msg = Testkit.alloc m () in
            ignore
              (K.Machine.spawn m ~name:"waiter" (fun () ->
                   for _ = 1 to 2 do
                     ignore
                       (K.Machine.receive_timeout m ~port ~timeout_ns:300_000)
                   done));
            ignore
              (K.Machine.spawn m ~name:"peer" (fun () ->
                   K.Machine.send m ~port ~msg)))) );
    ( "far sleeper, max_ns = max_int",
      (fun () ->
        loop_case ~processors:2 ~max_ns:max_int (fun m ->
            ignore
              (K.Machine.spawn m ~name:"far" (fun () ->
                   K.Machine.delay m ~ns:(max_int - 1_000_000))))) );
    ( "sleep past max_int wraps",
      (fun () ->
        loop_case ~processors:1 (fun m ->
            ignore
              (K.Machine.spawn m ~name:"wrap" (fun () ->
                   K.Machine.delay m ~ns:max_int)))) );
    ("max_steps 1", fun () -> loop_case ~processors:1 ~max_steps:1 ping_pong);
    ("max_steps 2", fun () -> loop_case ~processors:1 ~max_steps:2 ping_pong);
    ("max_steps 7", fun () -> loop_case ~processors:1 ~max_steps:7 ping_pong);
  ]

(* A differing or missing case fails with its rendered line, ready to
   paste here. *)
let loop_expected =
  [
    ("ready process bound to a busy cpu",
     "632401 2/0 [] 6/0 | 632400/0 632401/632401 | ready:owner ready:bound dispatch:owner yield:owner ready:owner dispatch:bound yield:bound ready:bound dispatch:owner yield:owner ready:owner dispatch:bound finish:bound dispatch:owner yield:owner ready:owner dispatch:owner finish:owner");
    ("affinity to a failed cpu",
     "316200 1/0 [] 3/0 | 316200/0 0/0 | cpu-offline: ready:orphan ready:worker dispatch:worker yield:worker ready:worker dispatch:worker yield:worker ready:worker dispatch:worker finish:worker");
    ("sleeper kept company by a daemon",
     "188000 1/0 [] 6/0 | 188000/56000 | ready:tick ready:sleeper dispatch:tick sleep:tick dispatch:sleeper sleep:sleeper wake:tick ready:tick dispatch:tick sleep:tick wake:tick ready:tick dispatch:tick sleep:tick wake:sleeper ready:sleeper dispatch:sleeper wake:tick ready:tick finish:sleeper dispatch:tick sleep:tick");
    ("stopped ready non-daemon",
     "310000 1/0 [] 3/0 | 310000/0 | ready:held stop:held ready:worker dispatch:worker yield:worker ready:worker dispatch:worker yield:worker ready:worker dispatch:worker finish:worker");
    ("timed receive past max_ns",
     "200001 0/0 [waiter] 1/0 | 200001/150001 | ready:waiter dispatch:waiter block-receive:waiter");
    ("far sleeper, unbounded",
     "1152921504606891857 1/0 [] 2/0 | 1152921504606891856/1152921504606846976 1152921504606891857/1152921504606891857 | ready:far dispatch:far sleep:far wake:far ready:far dispatch:far finish:far");
    ("every cpu failed mid-run",
     "293760 0/0 [] 4/0 | 169320/0 293760/0 | ready:a ready:b dispatch:a dispatch:b yield:a ready:a yield:b ready:b dispatch:a dispatch:b fi-inject: cpu-offline: proc-requeued:a ready:a yield:b ready:b fi-inject: cpu-offline:");
    ("sleepers with equal wake instants",
     "116000 3/0 [] 3/0 | 116000/50000 | wake:s3 ready:s3 wake:s2 ready:s2 wake:s1 ready:s1 dispatch:s3 finish:s3 dispatch:s2 finish:s2 dispatch:s1 finish:s1");
    ("wake and deadline at one instant",
     "216000 3/0 [] 4/0 | 216000/100000 | ready:waiter dispatch:waiter block-receive:waiter wake:late ready:late wake:early ready:early timeout-fired:waiter ready:waiter dispatch:late finish:late dispatch:early finish:early dispatch:waiter finish:waiter");
    ("deadline disarmed by a peer",
     "1128000 3/0 [] 5/0 | 1128000/978000 | ready:waiter ready:peer ready:after dispatch:waiter block-receive:waiter dispatch:peer send:peer receive:waiter ready:waiter finish:peer dispatch:after sleep:after dispatch:waiter finish:waiter wake:after ready:after dispatch:after finish:after");
    ("timeout re-armed on one process",
     "456000 2/0 [] 4/0 | 456000/300000 | ready:waiter ready:peer dispatch:waiter block-receive:waiter dispatch:peer send:peer receive:waiter ready:waiter finish:peer dispatch:waiter block-receive:waiter timeout-fired:waiter ready:waiter dispatch:waiter finish:waiter");
    ("far sleeper, max_ns = max_int",
     "4611686018426432784 1/0 [] 2/0 | 4611686018426432783/4611686018426387903 4611686018426432784/4611686018426432784 | ready:far dispatch:far sleep:far wake:far ready:far dispatch:far finish:far");
    ("sleep past max_int wraps",
     "44000 1/0 [] 2/0 | 44000/0 | ready:wrap dispatch:wrap sleep:wrap wake:wrap ready:wrap dispatch:wrap finish:wrap");
    ("max_steps 1",
     "22000 0/0 [] 1/0 | 22000/0 | ready:rx ready:tx dispatch:rx");
    ("max_steps 2",
     "50000 0/0 [rx] 1/0 | 50000/0 | ready:rx ready:tx dispatch:rx block-receive:rx");
    ("max_steps 7",
     "118000 1/0 [] 3/0 | 118000/0 | ready:rx ready:tx dispatch:rx block-receive:rx dispatch:tx send:tx receive:rx ready:rx send:tx finish:tx dispatch:rx");
  ]

let test_run_loop_characterisation () =
  let bad =
    List.filter_map
      (fun (name, case) ->
        let got = case () in
        match List.assoc_opt name loop_expected with
        | Some want when want = got -> None
        | Some _ | None -> Some (Printf.sprintf "    (%S,\n     %S);" name got))
      loop_rows
  in
  if bad <> [] then
    Alcotest.failf "run loop cases differ:\n%s" (String.concat "\n" bad)

let test_deadlock_detected () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"waiter" (fun () ->
         ignore (K.Machine.receive m ~port)));
  let r = run m in
  Alcotest.(check (list string)) "reported" [ "waiter" ] r.K.Machine.deadlocked

(* ---------------- Multiprocessor ---------------- *)

let test_multiprocessor_parallel_speedup () =
  let work machine () = K.Machine.compute machine 2000 in
  let elapsed n =
    let m = mk ~processors:n () in
    for i = 1 to 8 do
      ignore (K.Machine.spawn m ~name:(Printf.sprintf "w%d" i) (work m))
    done;
    (run m).K.Machine.elapsed_ns
  in
  let t1 = elapsed 1 in
  let t4 = elapsed 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 cpus faster (t1=%d t4=%d)" t1 t4)
    true
    (float_of_int t1 /. float_of_int t4 > 3.0)

let test_multiprocessor_all_used () =
  let m = mk ~processors:4 () in
  for i = 1 to 8 do
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "w%d" i) (fun () ->
           K.Machine.compute m 1000))
  done;
  let _ = run m in
  Array.iter
    (fun u -> Alcotest.(check bool) "utilized" true (u > 0.0))
    (K.Machine.processor_utilizations m)

let test_bus_contention_slows () =
  let m1 = mk ~processors:1 ~alpha:50 () in
  let m8 = mk ~processors:8 ~alpha:50 () in
  Alcotest.(check bool) "more cpus, more contention" true
    (K.Bus.factor (K.Machine.bus m8) > K.Bus.factor (K.Machine.bus m1))
  [@@warning "-a"]

let test_determinism () =
  let trial () =
    let m = mk ~processors:3 () in
    let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
    let total = ref 0 in
    for i = 1 to 5 do
      ignore
        (K.Machine.spawn m ~name:(Printf.sprintf "s%d" i) (fun () ->
             for j = 1 to 10 do
               let o = K.Machine.allocate_generic m () in
               K.Machine.write_word m o ~offset:0 (i * j);
               K.Machine.send m ~port ~msg:o
             done))
    done;
    ignore
      (K.Machine.spawn m ~name:"r" (fun () ->
           for _ = 1 to 50 do
             let msg = K.Machine.receive m ~port in
             total := (!total * 31) + K.Machine.read_word m msg ~offset:0
           done));
    let r = run m in
    (!total, r.K.Machine.elapsed_ns)
  in
  let a = trial () in
  let b = trial () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* ---------------- Time slice and preemption ---------------- *)

let test_time_slice_preempts () =
  let m = mk () in
  let log = ref [] in
  let hog name () =
    for _ = 1 to 3 do
      (* Each burst far exceeds the 10 ms default slice. *)
      K.Machine.compute m 15_000;
      log := name :: !log
    done
  in
  ignore (K.Machine.spawn m ~name:"a" (hog "a"));
  ignore (K.Machine.spawn m ~name:"b" (hog "b"));
  let r = run m in
  Alcotest.(check bool) "preemptions happened" true (r.K.Machine.preemptions > 0);
  (* Preemption interleaves the two hogs rather than running a then b. *)
  let seq = List.rev !log in
  Alcotest.(check bool) "interleaved" true
    (match seq with
    | "a" :: rest -> List.exists (fun x -> x = "b") (List.filteri (fun i _ -> i < 3) rest)
    | "b" :: rest -> List.exists (fun x -> x = "a") (List.filteri (fun i _ -> i < 3) rest)
    | _ -> false)

(* ---------------- Stop / start (kernel bit) ---------------- *)

let test_stopped_process_does_not_run () =
  let m = mk () in
  let hits = ref 0 in
  let p = K.Machine.spawn m ~name:"p" (fun () -> incr hits) in
  K.Machine.set_stopped m p true;
  let _ = run m in
  Alcotest.(check int) "never ran" 0 !hits;
  K.Machine.set_stopped m p false;
  let _ = run m in
  Alcotest.(check int) "ran after start" 1 !hits

let test_stop_blocked_process_defers_wake () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let got = ref false in
  let receiver =
    K.Machine.spawn m ~name:"receiver" (fun () ->
        let _ = K.Machine.receive m ~port in
        got := true)
  in
  ignore
    (K.Machine.spawn m ~name:"sender" ~priority:1 (fun () ->
         K.Machine.delay m ~ns:1_000;
         let o = K.Machine.allocate_generic m () in
         K.Machine.send m ~port ~msg:o));
  (* Stop the receiver before its message arrives: delivery must not run
     it. *)
  K.Machine.set_stopped m receiver true;
  let _ = run m in
  Alcotest.(check bool) "stopped receiver did not run" false !got;
  K.Machine.set_stopped m receiver false;
  let _ = run m in
  Alcotest.(check bool) "ran after start" true !got

let test_scheduler_port_notified () =
  let m = mk () in
  let sched_port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  let p = K.Machine.spawn m ~name:"p" (fun () -> K.Machine.compute m 1) in
  K.Machine.set_scheduler_port m p sched_port;
  K.Machine.set_stopped m p true;
  K.Machine.set_stopped m p false;
  let sends, _, _, _, _, _ = K.Machine.port_stats m sched_port in
  Alcotest.(check int) "two mix transitions" 2 sends

(* A notification reaches a scheduler parked on its port like any send:
   the scheduler wakes with the process object. *)
let test_scheduler_port_wakes_parked_scheduler () =
  let m = mk () in
  let sched_port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
  let seen = ref None in
  ignore
    (K.Machine.spawn m ~name:"scheduler" (fun () ->
         seen := Some (K.Machine.receive m ~port:sched_port)));
  let _ = run m in
  let p = K.Machine.spawn m ~name:"p" (fun () -> K.Machine.compute m 1) in
  K.Machine.set_scheduler_port m p sched_port;
  K.Machine.set_stopped m p true;
  let _ = run m in
  Alcotest.(check (option int)) "scheduler woke with the process"
    (Some (Access.index p))
    (Option.map Access.index !seen)

(* ---------------- Domains and local heaps ---------------- *)

let test_domain_call_charges_65us () =
  let m = mk () in
  let sro = K.Machine.global_sro m in
  let dom = K.Domain.create (K.Machine.table m) sro ~name:"pkg" in
  let p =
    K.Machine.spawn m ~name:"caller" (fun () ->
        K.Machine.domain_call m dom (fun () -> ()))
  in
  let _ = run m in
  let st = K.Machine.process_state m p in
  let tm = K.Machine.timings m in
  let expected =
    tm.Timings.dispatch_ns + tm.Timings.domain_call_ns
    + tm.Timings.domain_return_ns
  in
  Alcotest.(check int) "65us call + return charged" expected st.K.Process.cpu_ns

let test_domain_call_nesting_depth () =
  let m = mk () in
  let sro = K.Machine.global_sro m in
  let dom = K.Domain.create (K.Machine.table m) sro ~name:"pkg" in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         K.Machine.domain_call m dom (fun () ->
             K.Machine.domain_call m dom (fun () -> ()))));
  let _ = run m in
  let d = K.Domain.state_of (K.Machine.table m) dom in
  Alcotest.(check int) "two calls" 2 d.K.Domain.calls;
  Alcotest.(check int) "max depth 2" 2 d.K.Domain.max_depth;
  Alcotest.(check int) "balanced" 0 d.K.Domain.depth

let test_domain_call_propagates_exception () =
  let m = mk () in
  let sro = K.Machine.global_sro m in
  let dom = K.Domain.create (K.Machine.table m) sro ~name:"pkg" in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         K.Machine.domain_call m dom (fun () ->
             Fault.raise_fault (Fault.Protocol "inner"))));
  let _ = run m in
  let d = K.Domain.state_of (K.Machine.table m) dom in
  Alcotest.(check int) "return accounted despite raise" 1 d.K.Domain.returns

let test_domain_private_environment () =
  let m = mk () in
  let sro = K.Machine.global_sro m in
  let table = K.Machine.table m in
  let dom = K.Domain.create table sro ~name:"pkg" in
  let secret = K.Machine.allocate_generic m () in
  K.Domain.set_private table dom ~slot:0 secret;
  match K.Domain.get_private table dom ~slot:0 with
  | Some got -> Alcotest.(check int) "kept" (Access.index secret) (Access.index got)
  | None -> Alcotest.fail "missing private capability"

let test_local_heap_lifecycle () =
  let m = mk () in
  let reclaimed = ref 0 in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         let local = K.Machine.create_local_sro m ~level:1 ~bytes:4096 in
         let _a =
           K.Machine.allocate m local ~data_length:64 ~access_length:0
             ~otype:Obj_type.Generic
         in
         let _b =
           K.Machine.allocate m local ~data_length:64 ~access_length:0
             ~otype:Obj_type.Generic
         in
         reclaimed := K.Machine.destroy_sro m local));
  let _ = run m in
  Alcotest.(check int) "bulk reclaim" 2 !reclaimed

let test_local_heap_level_confinement () =
  let m = mk () in
  let table = K.Machine.table m in
  let faulted = ref false in
  ignore
    (K.Machine.spawn m ~name:"p" (fun () ->
         let local = K.Machine.create_local_sro m ~level:1 ~bytes:4096 in
         let local_obj =
           K.Machine.allocate m local ~data_length:16 ~access_length:0
             ~otype:Obj_type.Generic
         in
         let global_obj = K.Machine.allocate_generic m () in
         (match Segment.store_access table global_obj ~slot:0 (Some local_obj) with
         | () -> ()
         | exception Fault.Fault (Fault.Level_violation _) -> faulted := true);
         ignore (K.Machine.destroy_sro m local)));
  let _ = run m in
  Alcotest.(check bool) "escape prevented" true !faulted

let test_global_heap_destroy_refused () =
  let m = mk () in
  let refused = ref false in
  let p =
    K.Machine.spawn m ~name:"p" (fun () ->
        match K.Machine.destroy_sro m (K.Machine.global_sro m) with
        | _ -> ()
        | exception Fault.Fault (Fault.Protocol _) -> refused := true)
  in
  let _ = run m in
  Alcotest.(check bool) "refused" true !refused;
  (* Refused before the destroy time is charged: the process paid its
     dispatch alone. *)
  Alcotest.(check int) "nothing charged"
    (K.Machine.timings m).Timings.dispatch_ns
    (K.Machine.process_state m p).K.Process.cpu_ns

(* ---------------- Allocation cost ---------------- *)

let test_allocation_charges_80us () =
  let m = mk () in
  let p =
    K.Machine.spawn m ~name:"alloc" (fun () ->
        ignore (K.Machine.allocate_generic m ()))
  in
  let _ = run m in
  let st = K.Machine.process_state m p in
  let tm = K.Machine.timings m in
  Alcotest.(check int) "80us + dispatch"
    (tm.Timings.dispatch_ns + tm.Timings.allocate_ns)
    st.K.Process.cpu_ns

(* ---------------- Run-loop edges ---------------- *)

let test_boot_time_operations_are_free () =
  (* Outside the run loop there is no executing processor: configuration
     work is charged to nobody. *)
  let m = mk () in
  let _ = K.Machine.allocate_generic m () in
  K.Machine.charge m 1_000_000;
  Alcotest.(check int) "clock untouched" 0 (K.Machine.now m)

let test_run_respects_max_steps () =
  let m = mk () in
  ignore
    (K.Machine.spawn m ~name:"spinner" (fun () ->
         while true do
           K.Machine.yield m
         done));
  let r = K.Machine.run m ~max_steps:100 in
  Alcotest.(check bool) "terminated by step bound" true
    (r.K.Machine.completed = 0)

let test_run_respects_max_ns () =
  let m = mk () in
  ignore
    (K.Machine.spawn m ~name:"sleeper" (fun () ->
         K.Machine.delay m ~ns:1_000_000_000));
  let r = K.Machine.run m ~max_ns:2_000_000 in
  Alcotest.(check bool) "halted near the bound" true
    (r.K.Machine.elapsed_ns < 100_000_000)

let test_empty_machine_runs () =
  let m = mk () in
  let r = K.Machine.run m in
  Alcotest.(check int) "nothing completed" 0 r.K.Machine.completed;
  Alcotest.(check int) "no time passed" 0 r.K.Machine.elapsed_ns

let test_spawn_from_local_sro () =
  (* Processes are created from an SRO like any object (§5). *)
  let m = mk () in
  let sro = K.Machine.create_local_sro m ~level:1 ~bytes:4096 in
  let hits = ref 0 in
  let p = K.Machine.spawn m ~name:"local" ~sro (fun () -> incr hits) in
  let _ = run m in
  Alcotest.(check int) "ran" 1 !hits;
  Alcotest.(check int) "process object at SRO's level" 1
    (Segment.level (K.Machine.table m) p)

let test_trace_records_lifecycle () =
  let m =
    K.Machine.create
      ~config:
        {
          K.Machine.default_config with
          K.Machine.trace_level = I432_obs.Tracer.Events;
        }
      ()
  in
  ignore (K.Machine.spawn m ~name:"traced" (fun () -> K.Machine.yield m));
  let _ = run m in
  let lines =
    List.filter_map I432_obs.Event.legacy_line (K.Machine.events m)
  in
  let mentions sub line =
    let n = String.length line and m' = String.length sub in
    let rec go i = i + m' <= n && (String.sub line i m' = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "spawn traced" true
    (List.exists (mentions "spawn traced") lines);
  Alcotest.(check bool) "finish traced" true
    (List.exists (mentions "finished") lines)

let test_trace_disabled_by_default () =
  let m = mk () in
  ignore (K.Machine.spawn m ~name:"quiet" (fun () -> ()));
  let _ = run m in
  Alcotest.(check (list string)) "no trace" []
    (List.filter_map I432_obs.Event.legacy_line (K.Machine.events m))

(* The seed's op text, verbatim: the seed traced "process X descheduled
   on <op>" with it whenever a process left its processor. *)
let seed_op_to_string = function
  | K.Syscall.Send { wait = Block; _ } -> "send"
  | K.Syscall.Receive { wait = Block; _ } -> "receive"
  | K.Syscall.Send { wait = Timeout ns; _ } ->
    Printf.sprintf "timed-send(%dns)" ns
  | K.Syscall.Receive { wait = Timeout ns; _ } ->
    Printf.sprintf "timed-receive(%dns)" ns
  | K.Syscall.Delay ns -> Printf.sprintf "delay(%dns)" ns
  | K.Syscall.Yield -> "yield"
  | K.Syscall.Preempt -> "preempt"
  | K.Syscall.Exit -> "exit"
  | K.Syscall.Txn_try { t_receives; t_sends; t_writes; _ } ->
    Printf.sprintf "txn-try(%dr/%ds/%dw)" (List.length t_receives)
      (List.length t_sends) (List.length t_writes)

(* Each op shape, performed by a traced process on a full port (for a
   send) or an empty one (for a receive): the event that takes the
   process off its processor renders the seed's line for the op, and an
   op that keeps its processor (a poll, a transaction) renders none. *)
let test_op_renderer_matches_seed () =
  let leaves op =
    let m = Testkit.mk ~trace:true () in
    let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
    let msg = Testkit.alloc m () in
    let op = op port msg in
    ignore
      (K.Machine.spawn m ~name:"p" (fun () ->
           (match op with
           | K.Syscall.Send _ -> ignore (K.Machine.cond_send m ~port ~msg)
           | _ -> ());
           ignore (K.Syscall.perform op)));
    ignore (run m);
    (op, List.filter_map Obs.Event.legacy_line (K.Machine.events m))
  in
  let send wait port msg = K.Syscall.Send { port; msg; wait } in
  let receive wait port _ = K.Syscall.Receive { port; wait } in
  let always op _ _ = op in
  let txn port msg =
    K.Syscall.Txn_try
      { t_key = 7; t_receives = []; t_sends = [ (port, msg) ];
        t_writes = [ (msg, 0, 1) ] }
  in
  let waits = [ K.Syscall.Block; Timeout 1; Timeout 1_000_000 ] in
  let polls = [ K.Syscall.Timeout 0; Timeout (-5) ] in
  let descheduled =
    List.concat_map (fun w -> [ send w; receive w ]) waits
    @ List.map
        (fun op -> always op)
        [ K.Syscall.Delay 0; Delay 123_456; Delay max_int; Yield; Preempt;
          Exit ]
  in
  List.iter
    (fun op ->
      let op, lines = leaves op in
      let seed = "process p descheduled on " ^ seed_op_to_string op in
      Alcotest.(check (list string)) seed [ seed ]
        (List.filter (fun l -> l <> "process p finished") (List.tl lines)))
    descheduled;
  List.iter
    (fun op ->
      let op, lines = leaves op in
      Alcotest.(check (list string)) (seed_op_to_string op)
        [ "process p finished" ] (List.tl lines))
    (List.concat_map (fun w -> [ send w; receive w ]) polls @ [ txn ])

let test_obj_type_helpers () =
  Alcotest.(check bool) "process is system" true (Obj_type.is_system Obj_type.Process);
  Alcotest.(check bool) "generic is not" false (Obj_type.is_system Obj_type.Generic);
  Alcotest.(check bool) "custom is not" false (Obj_type.is_system (Obj_type.Custom 3));
  Alcotest.(check bool) "custom ids distinguish" false
    (Obj_type.equal (Obj_type.Custom 1) (Obj_type.Custom 2));
  Alcotest.(check string) "custom prints id" "custom(7)"
    (Obj_type.to_string (Obj_type.Custom 7))

(* ---------------- Processor affinity ---------------- *)

let test_affinity_pins_process () =
  let m = mk ~processors:2 () in
  let p =
    K.Machine.spawn m ~name:"pinned" (fun () -> K.Machine.compute m 500)
  in
  K.Machine.set_affinity m p (Some 1);
  let _ = run m in
  (* All the work landed on processor 1. *)
  let utils = K.Machine.processor_utilizations m in
  Alcotest.(check bool) "cpu1 busy" true (utils.(1) > 0.0);
  let st = K.Machine.process_state m p in
  Alcotest.(check bool) "completed" true (st.K.Process.status = K.Process.Finished)

let test_affinity_partition () =
  let m = mk ~processors:2 () in
  let log = ref [] in
  (* Two workers pinned to different processors interleave in virtual time
     rather than serializing. *)
  let spawn_pinned name cpu =
    let p =
      K.Machine.spawn m ~name (fun () ->
          for _ = 1 to 3 do
            K.Machine.compute m 100;
            log := name :: !log;
            K.Machine.yield m
          done)
    in
    K.Machine.set_affinity m p (Some cpu)
  in
  spawn_pinned "a" 0;
  spawn_pinned "b" 1;
  let r = run m in
  Alcotest.(check int) "both completed" 2 r.K.Machine.completed;
  Alcotest.(check int) "six work items" 6 (List.length !log);
  Alcotest.(check bool) "interleaved across processors" true
    (match List.rev !log with
    | first :: second :: _ -> first <> second
    | _ -> false)

let test_affinity_invalid_processor () =
  let m = mk ~processors:2 () in
  let p = K.Machine.spawn m ~name:"p" (fun () -> ()) in
  Alcotest.check_raises "bad id"
    (Invalid_argument "Machine.set_affinity: no such processor") (fun () ->
      K.Machine.set_affinity m p (Some 5))

let test_affinity_lift_rebalances () =
  let m = mk ~processors:2 () in
  let p =
    K.Machine.spawn m ~name:"pinned" (fun () ->
        for _ = 1 to 2 do
          K.Machine.compute m 10;
          K.Machine.yield m
        done)
  in
  K.Machine.set_affinity m p (Some 0);
  K.Machine.set_affinity m p None;
  let r = run m in
  Alcotest.(check int) "completed after lifting" 1 r.K.Machine.completed

(* qcheck: random send/receive scripts over random port capacities preserve
   messages — everything sent is received exactly once, in FIFO order. *)
let prop_port_conservation =
  QCheck2.Test.make ~name:"ports conserve messages (random scripts)" ~count:60
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 40))
    (fun (capacity, count) ->
      let m = mk () in
      let port = K.Machine.create_port m ~capacity ~discipline:K.Port.Fifo () in
      let received = ref [] in
      ignore
        (K.Machine.spawn m ~name:"s" (fun () ->
             for i = 1 to count do
               let o = K.Machine.allocate_generic m ~data_length:8 () in
               K.Machine.write_word m o ~offset:0 i;
               K.Machine.send m ~port ~msg:o
             done));
      ignore
        (K.Machine.spawn m ~name:"r" (fun () ->
             for _ = 1 to count do
               let msg = K.Machine.receive m ~port in
               received := K.Machine.read_word m msg ~offset:0 :: !received
             done));
      let r = run m in
      r.K.Machine.deadlocked = []
      && List.rev !received = List.init count (fun i -> i + 1))

(* qcheck: N senders, M receivers, no message lost or duplicated. *)
let prop_port_many_to_many =
  QCheck2.Test.make ~name:"N:M port traffic conserves payload sum" ~count:40
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 4) (int_range 1 20))
    (fun (senders, receivers, per_sender) ->
      let m = mk ~processors:2 () in
      let port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
      let total = senders * per_sender in
      (* Distribute receives across receivers. *)
      let base = total / receivers and extra = total mod receivers in
      let received_sum = ref 0 and received_n = ref 0 in
      for s = 1 to senders do
        ignore
          (K.Machine.spawn m ~name:(Printf.sprintf "s%d" s) (fun () ->
               for i = 1 to per_sender do
                 let o = K.Machine.allocate_generic m ~data_length:8 () in
                 K.Machine.write_word m o ~offset:0 ((s * 1000) + i);
                 K.Machine.send m ~port ~msg:o
               done))
      done;
      for r = 1 to receivers do
        let quota = base + if r <= extra then 1 else 0 in
        ignore
          (K.Machine.spawn m ~name:(Printf.sprintf "r%d" r) (fun () ->
               for _ = 1 to quota do
                 let msg = K.Machine.receive m ~port in
                 received_sum := !received_sum + K.Machine.read_word m msg ~offset:0;
                 incr received_n
               done))
      done;
      let report = run m in
      let expected_sum =
        let s = ref 0 in
        for snd = 1 to senders do
          for i = 1 to per_sender do
            s := !s + (snd * 1000) + i
          done
        done;
        !s
      in
      report.K.Machine.deadlocked = []
      && !received_n = total
      && !received_sum = expected_sum)

(* qcheck: the progress state the run loop keeps at status transitions
   (counts and the timer heap) matches [Fi.check_progress]'s recount
   after every single step of a random script.  Processes mix sleeps,
   delayed starts, timed and untimed sends and receives, exits and
   faults; between steps the script stops and starts them, rebinds them
   (to failed processors too) and fails processors. *)
type script_op =
  | Op_delay of int
  | Op_send of int * int option  (* port, timeout *)
  | Op_receive of int * int option
  | Op_yield
  | Op_exit
  | Op_fault

type control =
  | C_stop of int  (* process, modulo the script's count *)
  | C_start of int
  | C_bind of int * int option
  | C_fail of int  (* processor *)

let script_cpus = 3

let gen_script =
  let open QCheck2.Gen in
  let timeout = opt (int_range 0 60_000) in
  let op =
    frequency
      [
        (3, map (fun ns -> Op_delay ns) (int_range 0 60_000));
        (4, map2 (fun p t -> Op_send (p, t)) (int_range 0 1) timeout);
        (4, map2 (fun p t -> Op_receive (p, t)) (int_range 0 1) timeout);
        (1, pure Op_yield);
        (1, pure Op_exit);
        (1, pure Op_fault);
      ]
  in
  let proc =
    triple (frequency [ (1, pure true); (3, pure false) ])
      (opt (int_range 0 80_000))
      (list_size (int_range 2 8) op)
  in
  let cpu = int_range 0 (script_cpus - 1) in
  let ctl =
    pair (int_range 0 15)
      (oneof
         [
           map (fun i -> C_stop i) nat;
           map (fun i -> C_start i) nat;
           map2 (fun i c -> C_bind (i, c)) nat (opt cpu);
           map (fun c -> C_fail c) cpu;
         ])
  in
  (* A failing script is reported as drawn: shrinking re-runs the whole
     script per candidate, and a broken count can keep a run from halting
     until its step bound. *)
  no_shrink (pair (list_size (int_range 2 6) proc) (list_size (int_range 0 8) ctl))

(* Step the script one run-loop step at a time for 120 steps; [true]
   when the audit held after every one. *)
let run_script m (procs, ctls) =
  let ports =
    Array.init 2 (fun _ ->
        K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo ())
  in
  let msg = Testkit.alloc m () in
  let op = function
    | Op_delay ns -> K.Machine.delay m ~ns
    | Op_send (p, None) -> K.Machine.send m ~port:ports.(p) ~msg
    | Op_send (p, Some timeout_ns) ->
      ignore (K.Machine.send_timeout m ~port:ports.(p) ~msg ~timeout_ns)
    | Op_receive (p, None) -> ignore (K.Machine.receive m ~port:ports.(p))
    | Op_receive (p, Some timeout_ns) ->
      ignore (K.Machine.receive_timeout m ~port:ports.(p) ~timeout_ns)
    | Op_yield -> K.Machine.yield m
    | Op_exit -> K.Machine.exit_process m
    | Op_fault -> failwith "scripted fault"
  in
  let handles =
    Array.of_list
      (List.mapi
         (fun i (daemon, start_after, ops) ->
           K.Machine.spawn m ~daemon ?start_after ~name:(Printf.sprintf "p%d" i)
             (fun () -> List.iter op ops))
         procs)
  in
  let proc i = handles.(i mod Array.length handles) in
  let control = function
    | C_stop i -> K.Machine.set_stopped m (proc i) true
    | C_start i -> K.Machine.set_stopped m (proc i) false
    | C_bind (i, cpu) -> K.Machine.set_affinity m (proc i) cpu
    | C_fail cpu -> K.Machine.fail_processor m cpu
  in
  let audit () = I432_fi.Fi.check_progress m = [] in
  let ok = ref (audit ()) in
  for step = 0 to 120 do
    List.iter (fun (at, c) -> if at = step then control c) ctls;
    ignore (run ~max_steps:1 m);
    if !ok then ok := audit ()
  done;
  !ok

let prop_progress_state_audited =
  QCheck2.Test.make ~name:"progress state = recount after every step"
    ~count:150 gen_script (fun script ->
      let m = mk ~processors:script_cpus () in
      let stepwise = run_script m script in
      ignore (run m);
      stepwise && I432_fi.Fi.check_invariants m = [])

let suite =
  [
    ("single process runs", `Quick, test_single_process_runs);
    ("processes accumulate time", `Quick, test_processes_accumulate_time);
    ("spawn many", `Quick, test_spawn_many);
    ("priority order single cpu", `Quick, test_priority_order_single_cpu);
    ("yield interleaves", `Quick, test_yield_interleaves);
    ("exit process", `Quick, test_exit_process);
    ("delay advances clock", `Quick, test_delay_advances_clock);
    ("delays order events", `Quick, test_delays_order_events);
    ("fault recorded", `Quick, test_fault_recorded);
    ("fault below level 3 panics", `Quick, test_fault_below_level3_panics);
    ("fault at level 4 contained", `Quick, test_fault_at_level4_does_not_panic);
    ("port send receive", `Quick, test_port_send_receive);
    ("port fifo order", `Quick, test_port_fifo_order);
    ("port priority discipline", `Quick, test_port_priority_discipline);
    ("port sender blocks when full", `Quick, test_port_sender_blocks_when_full);
    ("port blocked sender resumes", `Quick, test_port_blocked_sender_resumes);
    ("port receiver blocks then wakes", `Quick, test_port_receiver_blocks_then_wakes);
    ("port send requires right", `Quick, test_port_send_requires_right);
    ("port receive requires right", `Quick, test_port_receive_requires_right);
    ("port wrong object type", `Quick, test_port_wrong_object_type);
    ("port capacity limit", `Quick, test_port_capacity_limit);
    ("cond send on full", `Quick, test_cond_send_on_full);
    ("cond receive on empty", `Quick, test_cond_receive_on_empty);
    ("port transfer characterisation", `Quick, test_port_transfer_characterisation);
    ("run loop characterisation", `Quick, test_run_loop_characterisation);
    ("deadlock detected", `Quick, test_deadlock_detected);
    ("multiprocessor parallel speedup", `Quick, test_multiprocessor_parallel_speedup);
    ("multiprocessor all used", `Quick, test_multiprocessor_all_used);
    ("bus contention slows", `Quick, test_bus_contention_slows);
    ("determinism", `Quick, test_determinism);
    ("time slice preempts", `Quick, test_time_slice_preempts);
    ("stopped process does not run", `Quick, test_stopped_process_does_not_run);
    ("stop blocked process defers wake", `Quick, test_stop_blocked_process_defers_wake);
    ("scheduler port notified", `Quick, test_scheduler_port_notified);
    ("scheduler port wakes parked scheduler", `Quick,
     test_scheduler_port_wakes_parked_scheduler);
    ("domain call charges 65us", `Quick, test_domain_call_charges_65us);
    ("domain call nesting depth", `Quick, test_domain_call_nesting_depth);
    ("domain call propagates exception", `Quick, test_domain_call_propagates_exception);
    ("domain private environment", `Quick, test_domain_private_environment);
    ("local heap lifecycle", `Quick, test_local_heap_lifecycle);
    ("local heap level confinement", `Quick, test_local_heap_level_confinement);
    ("global heap destroy refused", `Quick, test_global_heap_destroy_refused);
    ("allocation charges 80us", `Quick, test_allocation_charges_80us);
    ("boot-time operations are free", `Quick, test_boot_time_operations_are_free);
    ("run respects max_steps", `Quick, test_run_respects_max_steps);
    ("run respects max_ns", `Quick, test_run_respects_max_ns);
    ("empty machine runs", `Quick, test_empty_machine_runs);
    ("spawn from local sro", `Quick, test_spawn_from_local_sro);
    ("trace records lifecycle", `Quick, test_trace_records_lifecycle);
    ("trace disabled by default", `Quick, test_trace_disabled_by_default);
    ("obj_type helpers", `Quick, test_obj_type_helpers);
    ("affinity pins process", `Quick, test_affinity_pins_process);
    ("affinity partition", `Quick, test_affinity_partition);
    ("affinity invalid processor", `Quick, test_affinity_invalid_processor);
    ("affinity lift rebalances", `Quick, test_affinity_lift_rebalances);
    QCheck_alcotest.to_alcotest prop_port_conservation;
    QCheck_alcotest.to_alcotest prop_port_many_to_many;
    QCheck_alcotest.to_alcotest prop_progress_state_audited;
    ("op renderer matches the seed", `Quick, test_op_renderer_matches_seed);
  ]
