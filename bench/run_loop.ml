(* Host cost of the run loop as processes are added: a paired ratio of
   the host time per request of one loadgen run at 512 workers over the
   same schedule at 8.  The extra workers only ever wait on the request
   port, so a run-loop step that costs O(1) in the processes keeps the
   ratio near 1 (x1.1 on a 2-vCPU x86-64 host); a step that walks every
   process reads about x4 there.

   One machine, 4 processors, 4 pumps, 4 users at 15k req/s aggregate,
   20,000 requests per user (2,500 in smoke mode): the scaling run of
   ROADMAP.md.

   The gate also bounds the OCaml minor-heap words one untraced run at 8
   workers allocates per request, schedule and boot included.  That count
   is the same on every host for a given binary, so it catches an
   allocation creeping back into create-object, the schedule or the
   dispatch path where a timing ratio could not.  It reads 60.6 with
   timers on their processes, unboxed port queues, in-place carving and
   allocation-free draws, observes and header reads, built without
   -opaque (62.6 with it); the hashed ready queue with a handler closure
   per syscall read 368.6, and the intrusive ready queue over the
   pairing-heap timers 149.7.

   Its traced twin, the same run at trace level [Events], may allocate at
   most one word per request more: a traced event is eight stores into a
   preallocated ring, so tracing adds only the boot-time interning of
   names.  A detail formatted per event (the deschedule's op text, before
   it became three ints rendered when the trace is read) read 46.9 words
   per request more than its untraced twin and fails it.

   Beside it, the same count for one untraced 3-node x 2-GDP cluster run
   (4 users at 10k req/s aggregate, 500 requests each, in both modes):
   every request crosses the wire codec, the NIC pump and the ARQ, so
   the bound catches a per-round or per-frame allocation coming back
   into the cluster round.  It reads 255.1 (259.1 built with -opaque);
   the hashed ready queue read 604.6, the pairing-heap timers 378.5.

   Last, the words per transfer of one untraced banking run (2 GDPs, 4
   tellers, 8 accounts, 4,000 transfers, seed 1): two group commits each,
   so a [Map] functor applied per [Txn_try] read 1,293.6 and fails; the
   one-tally validation read 723.5 over the hashed ready queue, 538.1
   over the pairing-heap timers, 447.6 while the result counted commits
   by sorting every key, 405.9 built with -opaque, and reads 391.9 now.
   Its history-on twin, the same run filing every commit's record into a
   store on a scratch journal, prices a record: it reads 398.3 (412.3
   built with -opaque), the key string of each of the two records a
   transfer files and nothing else.  A record through
   a polymorphic [Hashtbl] directory, a [Buffer]-built key and text, a
   closure per encode and boxed CRC arguments read 573.4.

   Under all of these, the syscall probes price the kernel seam itself:
   the words one [yield], one [delay] and one send/receive round trip
   (two sends, two receives between two processes), one queued message
   (a send to a port with room, then a receive of it) and one timed
   receive that times out allocate on a bare machine of 1 and of 2 GDPs.
   Each is the difference between a run of 20,000 iterations and one of
   10,000, over 10,000, so boot and teardown cancel and the reading is
   exact.  Each is bounded at its reading:
   - a yield, 5 words: the effect and its continuation, nothing else
     (the hashed ready queue and a handler closure per syscall read 49);
   - a delay, 7 words on 1 and 2 GDPs: the effect with its [Delay] op
     (98 and 100 with the hashed ready queue, 25 and 27 over the
     pairing-heap timers, whose entry took 16 and each idle processor's
     look at the heap 2 more);
   - a round trip, 34 words: 20 for four effects and 14 for the four op
     records (174, then 52, when a delivered message came back as
     [R_msg_option (Some msg)] and a parked receiver took a queue cell
     and a fresh [Blocked_receive] status);
   - a queued message, 17 words: two effects and the [Send] and
     [Receive] op records, nothing for the queue slot or the result;
   - a receive timeout, 12 words: the effect, its [Receive] op and
     [Timeout] wait, and the deadline's [Some] in
     [Process.timeout_at]. *)

module K = I432_kernel
module Load = I432_load
module Banking = I432_txn.Banking
module St = I432_store.Store

let base_workers = 8
let test_workers = 512
let limit = 2.0
let words_limit = 61.0
let cluster_words_limit = 256.0
let traced_words_slack = 1.0
let bank_transfers = 4_000
let bank_words_limit = 392.0
let bank_history_words_limit = 399.0

(* One syscall probe: its JSON key, what one iteration does, and its
   bound. *)
type probe = {
  key : string;
  gdps : int;
  what : string;
  bodies : K.Machine.t -> int -> unit;  (* spawn the bodies of [n] iterations *)
  bound : float;
}

let probe_iterations = 10_000

let yields m n =
  ignore
    (K.Machine.spawn m ~name:"yielder" (fun () ->
         for _ = 1 to n do
           K.Machine.yield m
         done))

let delays m n =
  ignore
    (K.Machine.spawn m ~name:"sleeper" (fun () ->
         for _ = 1 to n do
           K.Machine.delay m ~ns:1_000
         done))

let round_trips m n =
  let port () = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let there = port () and back = port () in
  let msg = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"ping" (fun () ->
         for _ = 1 to n do
           K.Machine.send m ~port:there ~msg;
           ignore (K.Machine.receive m ~port:back)
         done));
  ignore
    (K.Machine.spawn m ~name:"pong" (fun () ->
         for _ = 1 to n do
           K.Machine.send m ~port:back ~msg:(K.Machine.receive m ~port:there)
         done))

(* One process sends to a port with room for two and takes the message
   back itself: the message waits in the queue between the two. *)
let queued_messages m n =
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let msg = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"queuer" (fun () ->
         for _ = 1 to n do
           K.Machine.send m ~port ~msg;
           ignore (K.Machine.receive m ~port)
         done))

(* A timed receive on a port nobody sends to: every one times out. *)
let receive_timeouts m n =
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"waiter" (fun () ->
         for _ = 1 to n do
           ignore (K.Machine.receive_timeout m ~port ~timeout_ns:1_000)
         done))

let probes =
  [
    { key = "yield_words_1gdp"; gdps = 1; what = "yield"; bodies = yields; bound = 5.0 };
    { key = "yield_words_2gdp"; gdps = 2; what = "yield"; bodies = yields; bound = 5.0 };
    { key = "delay_words_1gdp"; gdps = 1; what = "delay"; bodies = delays; bound = 7.0 };
    { key = "delay_words_2gdp"; gdps = 2; what = "delay"; bodies = delays; bound = 7.0 };
    { key = "round_trip_words_1gdp"; gdps = 1; what = "round trip";
      bodies = round_trips; bound = 34.0 };
    { key = "round_trip_words_2gdp"; gdps = 2; what = "round trip";
      bodies = round_trips; bound = 34.0 };
    { key = "queued_words_1gdp"; gdps = 1; what = "queued message";
      bodies = queued_messages; bound = 17.0 };
    { key = "queued_words_2gdp"; gdps = 2; what = "queued message";
      bodies = queued_messages; bound = 17.0 };
    { key = "timeout_words_1gdp"; gdps = 1; what = "receive timeout";
      bodies = receive_timeouts; bound = 12.0 };
    { key = "timeout_words_2gdp"; gdps = 2; what = "receive timeout";
      bodies = receive_timeouts; bound = 12.0 };
  ]

type result = {
  requests : int;  (* per run *)
  paired : Paired.t;  (* host ns per run: base 8 workers, test 512 *)
  minor_words_per_request : float;  (* one untraced run at 8 workers *)
  traced_words_per_request : float;  (* the same run, traced *)
  cluster_requests : int;
  cluster_words_per_request : float;  (* one untraced 3-node run *)
  bank_words_per_transfer : float;  (* one untraced banking run *)
  bank_history_words_per_transfer : float;  (* the same, filing history *)
  probe_words : (probe * float) list;  (* words per iteration *)
}

let spec ~smoke =
  {
    Load.Arrival.seed = 1;
    users = 4;
    sessions = 1;
    requests_per_session = (if smoke then 2_500 else 20_000);
    rate_rps = 15_000.0;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Typical;
  }

let cluster_spec =
  {
    Load.Arrival.seed = 1;
    users = 4;
    sessions = 1;
    requests_per_session = 500;
    rate_rps = 10_000.0;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Typical;
  }

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words_per_iteration probe =
  let run n =
    minor_words_of (fun () ->
        let m =
          K.Machine.create
            ~config:{ K.Machine.default_config with processors = probe.gdps }
            ()
        in
        probe.bodies m n;
        let report = K.Machine.run m in
        if report.K.Machine.completed <> List.length (K.Machine.all_processes m)
        then failwith ("run_loop: " ^ probe.key ^ " probe did not complete"))
  in
  let n = probe_iterations in
  (run (2 * n) -. run n) /. float_of_int n

let measure ~smoke () =
  let spec = spec ~smoke in
  let run ?trace_level workers () =
    let o =
      Load.Loadgen.run_machine ?trace_level ~processors:4 ~pumps:4 ~workers
        ~spec ()
    in
    if o.Load.Loadgen.o_completed <> Load.Arrival.total spec then
      failwith "run_loop: loadgen run did not complete every request"
  in
  let requests = Load.Arrival.total spec in
  let words_per_request ?trace_level () =
    minor_words_of (run ?trace_level base_workers) /. float_of_int requests
  in
  let minor_words_per_request = words_per_request () in
  let traced_words_per_request =
    words_per_request ~trace_level:I432_obs.Tracer.Events ()
  in
  let cluster_requests = Load.Arrival.total cluster_spec in
  let cluster_words_per_request =
    minor_words_of (fun () ->
        let o =
          Load.Loadgen.run_cluster ~nodes:3 ~processors:2 ~spec:cluster_spec ()
        in
        if o.Load.Loadgen.o_completed <> cluster_requests then
          failwith "run_loop: cluster run did not complete every request")
    /. float_of_int cluster_requests
  in
  let bank_words ?history_store () =
    let before = Gc.minor_words () in
    let _, _, r =
      Banking.run ~processors:2 ~workers:4 ~trace:false ?history_store
        ~accounts:8 ~transfers:bank_transfers ~seed:1 ()
    in
    let words = Gc.minor_words () -. before in
    List.iter (fun v -> failwith ("run_loop: banking run: " ^ v))
      (Banking.violations r);
    words /. float_of_int bank_transfers
  in
  let bank_words_per_transfer = bank_words () in
  (* No periodic fsync, as in the benchmark's bank-history workload: the
     count does not depend on it, and 1,000 fsyncs would only add time. *)
  let bank_history_words_per_transfer =
    let path = St.scratch_path "run_loop_history.journal" in
    St.fresh_path path;
    let store = St.open_ ~sync_every:max_int path in
    Fun.protect
      ~finally:(fun () ->
        St.close store;
        St.remove_files path)
      (fun () -> bank_words ~history_store:store ())
  in
  let probe_words = List.map (fun p -> (p, words_per_iteration p)) probes in
  {
    requests;
    probe_words;
    minor_words_per_request;
    traced_words_per_request;
    cluster_requests;
    cluster_words_per_request;
    bank_words_per_transfer;
    bank_history_words_per_transfer;
    paired =
      Paired.measure
        ~trials:(if smoke then 5 else 9)
        ~batch:1 ~base:(run base_workers) ~test:(run test_workers);
  }

let per_request ns r = ns /. float_of_int r.requests
let traced_words_limit r = r.minor_words_per_request +. traced_words_slack

let check_words r =
  r.minor_words_per_request <= words_limit
  && r.traced_words_per_request <= traced_words_limit r
  && r.cluster_words_per_request <= cluster_words_limit
  && r.bank_words_per_transfer <= bank_words_limit
  && r.bank_history_words_per_transfer <= bank_history_words_limit
  && List.for_all (fun (p, words) -> words <= p.bound) r.probe_words
let check r = r.paired.Paired.ratio <= limit && check_words r

let print_summary r =
  Printf.printf
    "Run loop at %d vs %d workers (%d requests): %.0f vs %.0f host ns per \
     request, median ratio x%.2f (limit x%.1f); %.1f minor words per \
     request at %d (limit %.0f), %.1f traced (limit %.1f); cluster %.1f \
     minor words per request (limit %.0f); bank %.1f minor words per \
     transfer (limit %.0f), %.1f filing history (limit %.0f)\n"
    test_workers base_workers r.requests
    (per_request r.paired.Paired.test_ns r)
    (per_request r.paired.Paired.base_ns r)
    r.paired.Paired.ratio limit r.minor_words_per_request base_workers
    words_limit r.traced_words_per_request (traced_words_limit r)
    r.cluster_words_per_request cluster_words_limit r.bank_words_per_transfer
    bank_words_limit r.bank_history_words_per_transfer bank_history_words_limit;
  List.iter
    (fun (p, words) ->
      Printf.printf "  %.1f minor words per %s on %d GDP%s (limit %.0f)\n" words
        p.what p.gdps (if p.gdps = 1 then "" else "s") p.bound)
    r.probe_words

let to_json r =
  let open Json_out in
  Obj
    ([
      ("requests", Int r.requests);
      ("base_workers", Int base_workers);
      ("test_workers", Int test_workers);
      ("base_ns_per_request", Float (per_request r.paired.Paired.base_ns r));
      ("test_ns_per_request", Float (per_request r.paired.Paired.test_ns r));
      ("ratio", Float r.paired.Paired.ratio);
      ("limit", Float limit);
      ("minor_words_per_request", Float r.minor_words_per_request);
      ("words_limit", Float words_limit);
      ("traced_minor_words_per_request", Float r.traced_words_per_request);
      ("traced_words_limit", Float (traced_words_limit r));
      ("cluster_requests", Int r.cluster_requests);
      ( "cluster_minor_words_per_request",
        Float r.cluster_words_per_request );
      ("cluster_words_limit", Float cluster_words_limit);
      ("bank_transfers", Int bank_transfers);
      ("bank_minor_words_per_transfer", Float r.bank_words_per_transfer);
      ("bank_words_limit", Float bank_words_limit);
      ( "bank_history_words_per_transfer",
        Float r.bank_history_words_per_transfer );
      ("bank_history_words_per_transfer_limit", Float bank_history_words_limit);
    ]
    @ List.concat_map
        (fun (p, words) ->
          [ (p.key, Float words); (p.key ^ "_limit", Float p.bound) ])
        r.probe_words)
