(* The open-loop traffic harness.

   Shape: N pump processes replay the precomputed arrival schedule —
   sleeping to each request's scheduled instant and sending it, never
   waiting for completions (open-loop: offered load is an input; when the
   servers fall behind, queues and latency grow, which is exactly the
   signal a saturation knee is made of).  W worker processes receive,
   execute the request's CPI-mix recipe, and record the span: end-to-end
   latency from the *scheduled* arrival to service completion, so pump
   slippage, send cost, queueing and service are all inside the number.

   Request identity is threaded through send -> dispatch -> receive in the
   message object itself: (id, class, issue instant) are data words
   written at boot (boot-time stores are free in virtual time), so the
   pump's per-request cost is one delay plus one send instruction.  All
   message objects are preallocated at boot for the same reason — an 80 us
   create-object per request would serialize the pumps long before the
   workers saturate.

   Termination uses poison pills, not timeouts: when the last request has
   been served the finishing worker sends one poison message per sibling.
   Every process therefore exits deterministically, and a run never
   reports deadlocked processes.

   Cluster determinism: the only state shared across machines is
   immutable (the schedule).  Mutable state is partitioned — completion
   refs and the span recorder live on the server machine, issue counters
   on each client's own registry — so the parallel cluster engine's
   single-writer discipline holds and Seq/Par runs are byte-identical. *)

module K = I432_kernel
module Obs = I432_obs
module Net = I432_net
module St = I432_store

(* Typed-port instance carrying raw access descriptors (paper Figure 2);
   the single-machine harness issues every request through it. *)
module Port = Imax.Typed_ports.Make (Imax.Typed_ports.Access_message)

(* ------------------------------------------------------------------ *)
(* Request header codec                                                *)
(* ------------------------------------------------------------------ *)

(* Data words: [0] id+1 (0 = poison pill), [1] class code, [2]/[3] the
   scheduled arrival instant split 30/30 — data words are i32, and a long
   run's virtual clock does not fit one. *)
let header_bytes = 16
let at_mask = (1 lsl 30) - 1

let write_header m msg ~id ~cls ~at_ns =
  K.Machine.write_word m msg ~offset:0 (id + 1);
  K.Machine.write_word m msg ~offset:4 cls;
  K.Machine.write_word m msg ~offset:8 (at_ns land at_mask);
  K.Machine.write_word m msg ~offset:12 (at_ns lsr 30)

(* The header's four charged reads, in word order, returning bare ints:
   the id first ([-1] for a poison pill, whose other words are never
   read), then the class, then the two halves of the instant. *)
let read_id m msg = K.Machine.read_word m msg ~offset:0 - 1
let read_cls m msg = K.Machine.read_word m msg ~offset:4

let read_at m msg =
  let lo = K.Machine.read_word m msg ~offset:8 in
  let hi = K.Machine.read_word m msg ~offset:12 in
  (hi lsl 30) lor lo

(* ------------------------------------------------------------------ *)
(* Pumps and workers                                                   *)
(* ------------------------------------------------------------------ *)

(* Preallocate one message object per request at boot, headers already
   written.  Boot-time charges are free, so the schedule's cost model
   starts clean at t=0. *)
let boot_messages m reqs =
  Array.map
    (fun (r : Arrival.request) ->
      let msg =
        K.Machine.allocate_generic m ~data_length:header_bytes
          ~access_length:0 ()
      in
      write_header m msg ~id:r.Arrival.r_id ~cls:r.Arrival.r_cls
        ~at_ns:r.Arrival.r_at_ns;
      msg)
    reqs

let boot_poison m =
  let msg =
    K.Machine.allocate_generic m ~data_length:header_bytes ~access_length:0 ()
  in
  K.Machine.write_word m msg ~offset:0 0;
  msg

(* Spawn [pumps] issuing processes over [reqs]/[msgs] (round-robin
   partition, which preserves per-pump arrival order).  [send_msg] is the
   transport: a typed-port send on a single machine, a surrogate-port
   send on a cluster client. *)
let spawn_pumps m ~label ~pumps ~reqs ~msgs ~issued ~send_msg =
  let n = Array.length reqs in
  let pumps = max 1 (min pumps n) in
  let cls_ids = Array.map (K.Machine.string_id m) Mix.names in
  for p = 0 to pumps - 1 do
    let name = Printf.sprintf "%s%d" label p in
    let name_id = K.Machine.string_id m name in
    ignore
      (K.Machine.spawn m ~name (fun () ->
           let i = ref p in
           while !i < n do
             let r = reqs.(!i) in
             let nowv = K.Machine.now m in
             if r.Arrival.r_at_ns > nowv then
               K.Machine.delay m ~ns:(r.Arrival.r_at_ns - nowv);
             Obs.Metrics.incr issued;
             K.Machine.emit m Obs.Event.Req_issue ~name_id
               ~detail_id:cls_ids.(r.Arrival.r_cls) ~a:r.Arrival.r_id
               ~b:r.Arrival.r_session;
             send_msg msgs.(!i);
             i := !i + pumps
           done))
  done;
  pumps

(* Spawn [workers] serving processes.  [recv] blocks for the next message;
   [send_poison] injects one shutdown pill (used [workers - 1] times by
   whichever worker retires the last request). *)
let spawn_workers m ~workers ~recorder ~remaining ~last_done_ns ~recv
    ~send_poison =
  let workers = max 1 workers in
  let cls_ids = Array.map (K.Machine.string_id m) Mix.names in
  for w = 0 to workers - 1 do
    let name = Printf.sprintf "worker%d" w in
    let name_id = K.Machine.string_id m name in
    ignore
      (K.Machine.spawn m ~name (fun () ->
           let scratch =
             K.Machine.allocate_generic m ~data_length:256 ~access_length:0 ()
           in
           let rec loop () =
             let msg = recv () in
             let id = read_id m msg in
             if id >= 0 (* else poison: all requests retired *) then begin
               let cls = read_cls m msg in
               let at_ns = read_at m msg in
               Mix.service m ~scratch (Mix.of_code cls);
               let nowv = K.Machine.now m in
               let latency_ns = nowv - at_ns in
               decr remaining;
               if nowv > !last_done_ns then last_done_ns := nowv;
               Obs.Span.completed recorder ~cls ~latency_ns;
               K.Machine.emit m Obs.Event.Req_done ~name_id
                 ~detail_id:cls_ids.(cls) ~a:id ~b:latency_ns;
               if !remaining = 0 then
                 for _ = 2 to workers do
                   send_poison ()
                 done
               else loop ()
             end
           in
           loop ()))
  done;
  workers

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_spec : Arrival.spec;
  o_requests : Arrival.request array;  (* the schedule that was replayed *)
  o_machines : (string * K.Machine.t) list;  (* node-order, server first *)
  o_metrics : Obs.Metrics.t;  (* fresh registry, node-order merge *)
  o_issued : int;
  o_completed : int;
  o_last_done_ns : int;  (* virtual instant the last request retired *)
  o_deadlocked : int;  (* processes still blocked at halt; 0 by design *)
  o_chaos : (int * int option) option;  (* (kill, restart) instants staged *)
}

let merged_metrics machines =
  let dst = Obs.Metrics.create () in
  List.iter
    (fun (_, m) -> Obs.Metrics.merge_into ~dst ~src:(K.Machine.metrics m))
    machines;
  dst

let outcome ?chaos ~spec ~reqs ~machines ~last_done_ns ~deadlocked () =
  let metrics = merged_metrics machines in
  {
    o_spec = spec;
    o_requests = reqs;
    o_machines = machines;
    o_metrics = metrics;
    o_issued = Obs.Metrics.count metrics "load.requests_issued";
    o_completed = Obs.Metrics.count metrics "load.requests_completed";
    o_last_done_ns = last_done_ns;
    o_deadlocked = deadlocked;
    o_chaos = chaos;
  }

(* Virtual-time throughput actually delivered, requests per second. *)
let achieved_rps o =
  if o.o_last_done_ns = 0 then 0.0
  else
    float_of_int o.o_completed /. (float_of_int o.o_last_done_ns /. 1e9)

let latency_hist o =
  match Obs.Metrics.find_log_histogram o.o_metrics "load.latency_ns" with
  | Some h -> h
  | None -> failwith "Loadgen: no load.latency_ns histogram"

let quantile o q = Obs.Metrics.log_quantile (latency_hist o) q

let class_quantile o ~cls q =
  match
    Obs.Metrics.find_log_histogram o.o_metrics (Obs.Span.latency_name cls)
  with
  | Some h -> Obs.Metrics.log_quantile h q
  | None -> 0.0

(* Canonical request-span stream rendering: every load-subsystem event of
   every machine, node order then seq order — the byte-equality surface
   for --check and the determinism tests.  Streamed from each ring: only
   load events are built, one at a time. *)
let load_kinds = Obs.Tracer.kinds (fun k -> Obs.Event.category k = "load")

let span_stream o =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      let tr = K.Machine.tracer m in
      Obs.Tracer.iter ~kinds:load_kinds tr (fun seq ->
          Buffer.add_string buf name;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Obs.Event.to_string (Obs.Tracer.event tr seq));
          Buffer.add_char buf '\n'))
    o.o_machines;
  Buffer.contents buf

let streams o =
  List.map
    (fun (name, s) -> (name, String.split_on_char '\n' s))
    [
      ("arrivals", Arrival.render o.o_requests);
      ("spans", span_stream o);
      ("metrics", Obs.Metrics.render o.o_metrics);
    ]

(* ------------------------------------------------------------------ *)
(* Single machine                                                      *)
(* ------------------------------------------------------------------ *)

let machine_config ~processors ~trace_level =
  {
    K.Machine.default_config with
    K.Machine.processors;
    memory_bytes = 1 lsl 24;
    global_heap_bytes = (1 lsl 24) - 4096;
    trace_level;
  }

let run_machine ?(processors = 4) ?(workers = 0) ?(pumps = 4)
    ?(trace_level = Obs.Tracer.Off) ~spec () =
  let workers = if workers > 0 then workers else 2 * processors in
  let reqs = Arrival.generate spec in
  let total = Array.length reqs in
  let m = K.Machine.create ~config:(machine_config ~processors ~trace_level) () in
  let recorder = Obs.Span.recorder (K.Machine.metrics m) ~classes:Mix.names in
  let issued = Obs.Metrics.counter (K.Machine.metrics m) "load.requests_issued" in
  let prt =
    Port.create m
      ~message_count:(min (total + workers) Imax.Untyped_ports.max_msg_cnt)
      ()
  in
  let msgs = boot_messages m reqs in
  let poison = boot_poison m in
  let remaining = ref total in
  let last_done_ns = ref 0 in
  ignore
    (spawn_workers m ~workers ~recorder ~remaining ~last_done_ns
       ~recv:(fun () -> Port.receive m ~prt)
       ~send_poison:(fun () -> Port.send m ~prt ~msg:poison));
  ignore
    (spawn_pumps m ~label:"pump" ~pumps ~reqs ~msgs ~issued
       ~send_msg:(fun msg -> Port.send m ~prt ~msg));
  let report = K.Machine.run m in
  outcome ~spec ~reqs
    ~machines:[ ("machine", m) ]
    ~last_done_ns:!last_done_ns
    ~deadlocked:(List.length report.K.Machine.deadlocked)
    ()

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)
(* ------------------------------------------------------------------ *)

let port_name = "loadgen"

(* Cluster runs step in 100 us rounds. *)
let quantum_ns = 100_000

exception Round_limit of { rounds : int; horizon_ns : int }

(* A run with no round bound of its own must end quiescent: one that ran
   out of rounds would hand back a truncated schedule as if complete. *)
let run_to_quiescence cl ~engine =
  let r = Net.Cluster.run cl ~engine ~quantum_ns () in
  match r.Net.Cluster.stop with
  | Net.Cluster.Quiescent -> ()
  | Net.Cluster.Round_limit ->
    raise
      (Round_limit
         { rounds = r.Net.Cluster.rounds; horizon_ns = r.Net.Cluster.horizon_ns })

(* Read back from the trace rings, a completion set is whole only if no
   machine's ring dropped an event: refuse a partial one instead. *)
let req_done_kinds = Obs.Tracer.kinds (fun k -> k = Obs.Event.Req_done)

let req_done machines =
  List.concat_map
    (fun (name, m) ->
      let dropped = Obs.Tracer.dropped (K.Machine.tracer m) in
      if dropped > 0 then
        failwith
          (Printf.sprintf
             "Loadgen.req_done: %s dropped %d trace events; its Req_done \
              events are incomplete"
             name dropped);
      let tr = K.Machine.tracer m in
      Obs.Tracer.to_list ~kinds:req_done_kinds tr (Obs.Tracer.event tr))
    machines

(* [nodes] total machines: node 0 serves, nodes 1.. issue.  Users are
   partitioned across the client nodes; each client preallocates only its
   own requests' messages.  The request port is exported cluster-wide and
   every client sends through its local surrogate, so the same send
   instruction crosses the interconnect (frames, ARQ, link latency are
   all inside the measured span). *)
let run_cluster ?(nodes = 2) ?(processors = 2) ?(workers = 0) ?(pumps = 2)
    ?(engine = Net.Cluster.Seq) ?(trace_level = Obs.Tracer.Off) ?rejoin ~spec
    () =
  if nodes < 2 then invalid_arg "Loadgen.run_cluster: nodes";
  if Option.is_some rejoin && trace_level = Obs.Tracer.Off then
    invalid_arg "Loadgen.run_cluster: rejoin needs trace_level Events";
  let workers = if workers > 0 then workers else 2 * processors in
  let clients = nodes - 1 in
  let reqs = Arrival.generate spec in
  let total = Array.length reqs in
  let boot () =
    (* A wide window keeps the interconnect itself from throttling the
       offered load: above-knee sweep points must overload the server's
       workers, not the ARQ channel. *)
    let cl = Net.Cluster.create ~window:256 () in
    let config = machine_config ~processors ~trace_level in
    let server_id, server =
      Net.Cluster.boot_node cl ~name:"lg-server" ~config ()
    in
    let client_ms =
      List.init clients (fun j ->
          let _, m =
            Net.Cluster.boot_node cl
              ~name:(Printf.sprintf "lg-client%d" j)
              ~config ()
          in
          m)
    in
    List.iteri
      (fun j _ -> ignore (Net.Cluster.connect cl server_id (j + 1)))
      client_ms;
    let recorder =
      Obs.Span.recorder (K.Machine.metrics server) ~classes:Mix.names
    in
    let prt =
      K.Machine.create_port server
        ~capacity:(min (total + workers) Imax.Untyped_ports.max_msg_cnt)
        ~discipline:K.Port.Fifo ()
    in
    Net.Cluster.export cl ~node:server_id ~name:port_name prt;
    let poison = boot_poison server in
    let remaining = ref total in
    let last_done_ns = ref 0 in
    ignore
      (spawn_workers server ~workers ~recorder ~remaining ~last_done_ns
         ~recv:(fun () -> K.Machine.receive server ~port:prt)
         ~send_poison:(fun () -> K.Machine.send server ~port:prt ~msg:poison));
    List.iteri
      (fun j m ->
        (* Client j owns the users with u mod clients = j; its slice of the
           schedule keeps global arrival order. *)
        let mine =
          Array.of_list
            (List.filter
               (fun (r : Arrival.request) -> r.Arrival.r_user mod clients = j)
               (Array.to_list reqs))
        in
        let msgs = boot_messages m mine in
        let issued =
          Obs.Metrics.counter (K.Machine.metrics m) "load.requests_issued"
        in
        let surrogate = Net.Cluster.import cl ~node:(j + 1) ~name:port_name in
        ignore
          (spawn_pumps m ~label:"pump" ~pumps ~reqs:mine ~msgs ~issued
             ~send_msg:(fun msg -> K.Machine.send m ~port:surrogate ~msg)))
      client_ms;
    (cl, last_done_ns)
  in
  let cl, last_done_ns = boot () in
  (* Node 0, the server, is the one killed and spliced back in. *)
  Option.iter
    (fun r ->
      ignore
        (St.Checkpoint.stage_rejoin r ~key:"loadgen" ~node:0
           ~seed:spec.Arrival.seed ~engine ~quantum_ns
           ~boot:(fun () -> fst (boot ()))
           cl))
    rejoin;
  run_to_quiescence cl ~engine;
  (* Re-fetch from the cluster: a rejoin replaced the server machine by
     its checkpoint replay mid-run. *)
  let machines =
    List.init nodes (fun i ->
        (Net.Cluster.node_name cl i, Net.Cluster.machine cl i))
  in
  let last_done_ns =
    match rejoin with
    | None -> !last_done_ns
    | Some _ ->
      (* The boot closure's ref died with the killed server incarnation;
         read the retirement instants back off the spliced machine's
         Req_done events instead. *)
      List.fold_left
        (fun acc (e : Obs.Event.t) -> max acc e.Obs.Event.ts_ns)
        0 (req_done machines)
  in
  outcome
    ?chaos:
      (Option.map St.Checkpoint.(fun r -> (r.kill_ns, r.restart_ns)) rejoin)
    ~spec ~reqs ~machines ~last_done_ns ~deadlocked:0 ()
