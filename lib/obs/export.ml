(* Chrome trace-event exporter.

   Renders an event stream as the Trace Event JSON format understood by
   Perfetto and chrome://tracing:

   - one track (tid) per processor, plus a "boot" track for events emitted
     outside the run loop;
   - duration slices ("B"/"E") covering each residency of a process on a
     processor, opened at Dispatch and closed at the event that takes the
     process off its cpu;
   - instant events ("i") for the remaining kinds, categorized by
     subsystem (proc/dispatch/port/sro/domain/gc/net);
   - flow arrows ("s"/"f") from each port send to the receive that
     consumed the same message, paired in FIFO order per (port, message)
     so re-sent payloads get distinct arrows;
   - async slices ("b"/"e") for the collector's mark and sweep phases,
     which span yields and so cannot nest inside the per-cpu slices.

   A cluster trace ({!chrome_trace_cluster}) renders one pid per node with
   the same per-node treatment, plus cross-node flow arrows pairing each
   frame transmission with the frame arrival on the peer node.

   Timestamps are the simulator's virtual nanoseconds divided by 1000 (the
   format counts microseconds), so traces of identical runs are identical
   files. *)

let us ns = float_of_int ns /. 1000.0

let field_args (e : Event.t) =
  let open Jout in
  List.filter_map
    (fun x -> x)
    [
      Some ("seq", Int e.Event.seq);
      (if e.Event.name = "" then None else Some ("process", Str e.Event.name));
      (if e.Event.detail = "" then None else Some ("detail", Str e.Event.detail));
      (if e.Event.a = 0 then None else Some ("a", Int e.Event.a));
      (if e.Event.b = 0 then None else Some ("b", Int e.Event.b));
    ]

let entry ?(extra = []) ?(args = []) ?(pid = 0) ~name ~cat ~ph ~ts_ns ~tid () =
  let open Jout in
  Obj
    ([
       ("name", Str name);
       ("cat", Str cat);
       ("ph", Str ph);
       ("ts", Float (us ts_ns));
       ("pid", Int pid);
       ("tid", Int tid);
     ]
    @ extra
    @ if args = [] then [] else [ ("args", Obj args) ])

let meta ?(pid = 0) ~name ~tid ~value () =
  let open Jout in
  Obj
    [
      ("name", Str name);
      ("ph", Str "M");
      ("pid", Int pid);
      ("tid", Int tid);
      ("args", Obj [ ("name", Str value) ]);
    ]

(* Walk one node's trace ring, emitting its slices, instants, per-node
   flow arrows and GC async slices through [add].  [flow_seq] is shared
   across nodes so flow ids stay globally unique in a cluster trace.
   Events are built one at a time from the ring, never as a list. *)
let walk_stream ~pid ~processors ~add ~flow_seq tracer =
  let tid_of cpu = if cpu < 0 || cpu >= processors then processors else cpu in
  let open_slice = Array.make (processors + 1) None in
  let max_ts = ref 0 in
  let close ~tid ~ts_ns =
    match open_slice.(tid) with
    | None -> ()
    | Some name ->
      open_slice.(tid) <- None;
      add ts_ns (entry ~name ~cat:"dispatch" ~ph:"E" ~ts_ns ~tid ~pid ())
  in
  (* Pending sends per (port, message), consumed FIFO by receives. *)
  let pending : (int * int, (int * int) Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  Tracer.iter tracer (fun seq ->
      let e = Tracer.event tracer seq in
      let tid = tid_of e.Event.cpu in
      let ts_ns = e.Event.ts_ns in
      if ts_ns > !max_ts then max_ts := ts_ns;
      let instant ?(name = Event.kind_to_string e.Event.kind) () =
        add ts_ns
          (entry ~name ~cat:(Event.category e.Event.kind) ~ph:"i" ~ts_ns ~tid
             ~pid
             ~extra:[ ("s", Jout.Str "t") ]
             ~args:(field_args e) ())
      in
      match e.Event.kind with
      | Event.Dispatch ->
        close ~tid ~ts_ns;
        open_slice.(tid) <- Some e.Event.name;
        add ts_ns
          (entry ~name:e.Event.name ~cat:"dispatch" ~ph:"B" ~ts_ns ~tid ~pid
             ~args:(field_args e) ())
      | Event.Exit | Event.Finish -> close ~tid ~ts_ns
      | Event.Yield | Event.Preempt | Event.Sleep | Event.Fault
      | Event.Block_send | Event.Block_receive ->
        instant ();
        close ~tid ~ts_ns
      | Event.Send ->
        instant ();
        let key = (e.Event.a, e.Event.b) in
        let q =
          match Hashtbl.find_opt pending key with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace pending key q;
            q
        in
        Queue.push (ts_ns, tid) q
      | Event.Receive ->
        instant ();
        (match Hashtbl.find_opt pending (e.Event.a, e.Event.b) with
        | Some q when not (Queue.is_empty q) ->
          let send_ts, send_tid = Queue.pop q in
          let id = !flow_seq in
          incr flow_seq;
          add send_ts
            (entry ~name:"msg" ~cat:"flow" ~ph:"s" ~ts_ns:send_ts ~tid:send_tid
               ~pid
               ~extra:[ ("id", Jout.Int id) ]
               ())
          ;
          add ts_ns
            (entry ~name:"msg" ~cat:"flow" ~ph:"f" ~ts_ns ~tid ~pid
               ~extra:[ ("id", Jout.Int id); ("bp", Jout.Str "e") ]
               ())
        | Some _ | None -> ())
      | Event.Gc_mark_begin ->
        add ts_ns
          (entry ~name:"gc-mark" ~cat:"gc" ~ph:"b" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int 1) ]
             ())
      | Event.Gc_mark_end ->
        add ts_ns
          (entry ~name:"gc-mark" ~cat:"gc" ~ph:"e" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int 1) ]
             ~args:(field_args e) ())
      | Event.Gc_sweep_begin ->
        add ts_ns
          (entry ~name:"gc-sweep" ~cat:"gc" ~ph:"b" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int 2) ]
             ())
      | Event.Gc_sweep_end ->
        add ts_ns
          (entry ~name:"gc-sweep" ~cat:"gc" ~ph:"e" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int 2) ]
             ~args:(field_args e) ())
      | Event.Cpu_offline ->
        (* The processor is gone: mark the moment and close any residency
           slice still open on its track. *)
        instant ();
        close ~tid ~ts_ns
      (* Request spans: one async slice per request id, issue to
         completion.  Async ids only need to be unique per (cat, name), so
         the request id itself is the slice id — ids do not collide with
         the GC slices (cat "gc") or flow arrows. *)
      | Event.Req_issue ->
        add ts_ns
          (entry
             ~name:(if e.Event.detail = "" then "request" else e.Event.detail)
             ~cat:"load" ~ph:"b" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int e.Event.a) ]
             ~args:(field_args e) ())
      | Event.Req_done ->
        add ts_ns
          (entry
             ~name:(if e.Event.detail = "" then "request" else e.Event.detail)
             ~cat:"load" ~ph:"e" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int e.Event.a) ]
             ~args:(field_args e) ())
      (* Fault-in spans: one async slice per swap fault on the faulting
         processor's track, fault to swap-in (the object index is the
         slice id; cat "vm" keeps ids from colliding with request or GC
         slices).  Swap-outs are instants — eviction is synchronous
         inside the faulting charge. *)
      | Event.Swap_fault ->
        instant ();
        add ts_ns
          (entry ~name:"fault-in" ~cat:"vm" ~ph:"b" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int e.Event.a) ]
             ~args:(field_args e) ())
      | Event.Swap_in ->
        add ts_ns
          (entry ~name:"fault-in" ~cat:"vm" ~ph:"e" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int e.Event.a) ]
             ~args:(field_args e) ())
      | Event.Spawn | Event.Ready | Event.Wake | Event.Stop | Event.Start
      | Event.Allocate | Event.Release | Event.Sro_create | Event.Sro_destroy
      | Event.Domain_call | Event.Domain_return | Event.Fi_inject
      | Event.Proc_requeued | Event.Alloc_retry | Event.Timeout_fired
      | Event.Proc_restarted | Event.Remote_send | Event.Remote_deliver
      | Event.Frame_tx | Event.Frame_rx | Event.Journal_append
      | Event.Journal_sync | Event.Store_compact | Event.Ckpt_save
      | Event.Ckpt_restore | Event.Node_kill | Event.Node_restart
      | Event.Frame_dead | Event.Dead_letter | Event.Swap_out
      | Event.Txn_commit | Event.Txn_abort | Event.Txn_dup_drop
      | Event.Hist_append ->
        instant ());
  (* Close slices still open at the end of the trace. *)
  for tid = 0 to processors do
    close ~tid ~ts_ns:!max_ts
  done

let wrap sorted =
  let open Jout in
  Obj
    [
      ("traceEvents", Arr (List.map snd sorted));
      ("displayTimeUnit", Str "ms");
      ( "otherData",
        Obj
          [
            ("schema", Str "imax432-trace/1");
            ("clock", Str "virtual-ns (8 MHz 432 timings)");
          ] );
    ]

let sort_entries out =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev out)

let chrome_trace ~processors tracer =
  let out = ref [] in
  (* (sort key ns, json); metadata sorts first. *)
  let add ts_ns j = out := (ts_ns, j) :: !out in
  add (-1) (meta ~name:"process_name" ~tid:0 ~value:"imax432" ());
  for c = 0 to processors - 1 do
    add (-1)
      (meta ~name:"thread_name" ~tid:c ~value:(Printf.sprintf "cpu%d" c) ())
  done;
  add (-1) (meta ~name:"thread_name" ~tid:processors ~value:"boot" ());
  let flow_seq = ref 0 in
  walk_stream ~pid:0 ~processors ~add ~flow_seq tracer;
  wrap (sort_entries !out)

let frame_tx = Tracer.kinds (fun k -> k = Event.Frame_tx)
let frame_rx = Tracer.kinds (fun k -> k = Event.Frame_rx)

(* Cluster trace: one pid per node (in list order), each rendered exactly
   like a single-machine trace, plus cross-node flow arrows pairing every
   frame transmission ([Frame_tx], b = destination node) with the arrival
   that consumed it ([Frame_rx], b = source node) — retransmissions and
   duplicated deliveries pair FIFO per (port name, src, dst, seq, kind). *)
let chrome_trace_cluster nodes =
  let out = ref [] in
  let add ts_ns j = out := (ts_ns, j) :: !out in
  List.iteri
    (fun pid (name, processors, _) ->
      add (-1)
        (meta ~pid ~name:"process_name" ~tid:0
           ~value:(Printf.sprintf "node%d %s" pid name)
           ());
      for c = 0 to processors - 1 do
        add (-1)
          (meta ~pid ~name:"thread_name" ~tid:c
             ~value:(Printf.sprintf "cpu%d" c)
             ())
      done;
      add (-1) (meta ~pid ~name:"thread_name" ~tid:processors ~value:"boot" ()))
    nodes;
  let flow_seq = ref 0 in
  List.iteri
    (fun pid (_, processors, tracer) ->
      walk_stream ~pid ~processors ~add ~flow_seq tracer)
    nodes;
  (* Cross-node frame arrows: collect transmissions, then consume them with
     arrivals in virtual-time order. *)
  let tx : (string * int * int * int * string, (int * int * int) Queue.t)
      Hashtbl.t =
    Hashtbl.create 64
  in
  List.iteri
    (fun pid (_, processors, tracer) ->
      let tid_of cpu = if cpu < 0 || cpu >= processors then processors else cpu in
      Tracer.iter ~kinds:frame_tx tracer (fun seq ->
          let e = Tracer.event tracer seq in
          let key = (e.Event.name, pid, e.Event.b, e.Event.a, e.Event.detail) in
          let q =
            match Hashtbl.find_opt tx key with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace tx key q;
              q
          in
          Queue.push (e.Event.ts_ns, pid, tid_of e.Event.cpu) q))
    nodes;
  let rx = ref [] in
  List.iteri
    (fun pid (_, processors, tracer) ->
      let tid_of cpu = if cpu < 0 || cpu >= processors then processors else cpu in
      Tracer.iter ~kinds:frame_rx tracer (fun seq ->
          let e = Tracer.event tracer seq in
          rx :=
            ( e.Event.ts_ns,
              e.Event.seq,
              (e.Event.name, e.Event.b, pid, e.Event.a, e.Event.detail),
              pid,
              tid_of e.Event.cpu )
            :: !rx))
    nodes;
  let rx = List.sort compare (List.rev !rx) in
  List.iter
    (fun (ts_ns, _, key, pid, tid) ->
      match Hashtbl.find_opt tx key with
      | Some q when not (Queue.is_empty q) ->
        let send_ts, send_pid, send_tid = Queue.pop q in
        let id = !flow_seq in
        incr flow_seq;
        add send_ts
          (entry ~name:"frame" ~cat:"net" ~ph:"s" ~ts_ns:send_ts ~tid:send_tid
             ~pid:send_pid
             ~extra:[ ("id", Jout.Int id) ]
             ());
        add ts_ns
          (entry ~name:"frame" ~cat:"net" ~ph:"f" ~ts_ns ~tid ~pid
             ~extra:[ ("id", Jout.Int id); ("bp", Jout.Str "e") ]
             ())
      | Some _ | None -> ())
    rx;
  wrap (sort_entries !out)
