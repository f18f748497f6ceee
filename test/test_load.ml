(* Load-generator tests: the log-bucketed latency histogram, the seeded
   arrival streams, the CPI mix, and the open-loop harness itself —
   including the determinism gates the PR promises (same seed => byte
   identical arrival stream, request-span stream, and merged metrics,
   sequential or parallel cluster engine alike). *)

open I432_util
module K = I432_kernel
module Obs = I432_obs
module Net = I432_net
module Load = I432_load
module Scenario = I432_store.Scenario
module Ckpt = I432_store.Checkpoint

(* ---------------- Stats.log_hist ---------------- *)

let test_log_hist_basic () =
  let h = Stats.log_hist_create ~per_decade:16 ~lo:10.0 ~decades:6 () in
  Alcotest.(check int) "empty count" 0 h.Stats.lh_count;
  Alcotest.(check (float 1e-9)) "empty quantile" 0.0 (Stats.log_hist_quantile h 0.5);
  List.iter (Stats.log_hist_observe h) [ 100.0; 1_000.0; 10_000.0 ];
  Alcotest.(check int) "count" 3 h.Stats.lh_count;
  Alcotest.(check (float 1e-9)) "mean" (11_100.0 /. 3.0) (Stats.log_hist_mean h);
  Alcotest.(check (float 1e-9)) "min" 100.0 (Stats.log_hist_min h);
  Alcotest.(check (float 1e-9)) "max" 10_000.0 (Stats.log_hist_max h);
  (* Geometric buckets at 16/decade have <= ~15.5% relative width; the
     quantile must land within one bucket of the true value. *)
  let q50 = Stats.log_hist_quantile h 0.5 in
  Alcotest.(check bool) "p50 near 1000" true (q50 > 850.0 && q50 < 1200.0);
  Alcotest.(check (float 1e-9)) "p0 = min" 100.0 (Stats.log_hist_quantile h 0.0);
  Alcotest.(check (float 1e-9)) "p1 = max" 10_000.0 (Stats.log_hist_quantile h 1.0)

let test_log_hist_under_overflow () =
  let h = Stats.log_hist_create ~per_decade:8 ~lo:100.0 ~decades:2 () in
  Stats.log_hist_observe h 1.0;
  (* below lo *)
  Stats.log_hist_observe h 1e9;
  (* beyond the last bucket *)
  Stats.log_hist_observe h Float.nan;
  (* ignored *)
  Alcotest.(check int) "underflow" 1 h.Stats.lh_underflow;
  Alcotest.(check int) "overflow" 1 h.Stats.lh_overflow;
  Alcotest.(check int) "count excludes nan" 2 h.Stats.lh_count;
  Alcotest.(check (float 1e-9)) "min is underflowed obs" 1.0 (Stats.log_hist_min h);
  Alcotest.(check (float 1e-9)) "max is overflowed obs" 1e9 (Stats.log_hist_max h)

let test_log_hist_invalid () =
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Stats.log_hist_create: per_decade") (fun () ->
      ignore (Stats.log_hist_create ~per_decade:0 ~lo:10.0 ~decades:3 ()));
  let h = Stats.log_hist_create ~per_decade:4 ~lo:1.0 ~decades:3 () in
  Alcotest.check_raises "bad q" (Invalid_argument "Stats.log_hist_quantile")
    (fun () -> ignore (Stats.log_hist_quantile h 1.5))

let test_log_hist_merge_shape () =
  let a = Stats.log_hist_create ~per_decade:8 ~lo:10.0 ~decades:3 () in
  let b = Stats.log_hist_create ~per_decade:16 ~lo:10.0 ~decades:3 () in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Stats.log_hist_merge_into: shape mismatch") (fun () ->
      Stats.log_hist_merge_into ~dst:a ~src:b)

let pos_float_gen = QCheck2.Gen.(map (fun f -> 1.0 +. f) (float_bound_inclusive 1e6))

let prop_log_hist_quantile_bounds =
  QCheck2.Test.make ~name:"log_hist quantile within [min, max], monotone"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) pos_float_gen)
    (fun xs ->
      let h = Stats.log_hist_create ~per_decade:16 ~lo:10.0 ~decades:9 () in
      List.iter (Stats.log_hist_observe h) xs;
      let qs = List.map (Stats.log_hist_quantile h) [ 0.0; 0.5; 0.9; 0.99; 1.0 ] in
      let mn = List.fold_left min infinity xs
      and mx = List.fold_left max neg_infinity xs in
      List.for_all (fun q -> q >= mn -. 1e-9 && q <= mx +. 1e-9) qs
      && List.sort compare qs = qs)

let prop_log_hist_merge_is_union =
  QCheck2.Test.make ~name:"log_hist merge == observing the union" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) pos_float_gen)
        (list_size (int_range 0 40) pos_float_gen))
    (fun (xs, ys) ->
      let mk () = Stats.log_hist_create ~per_decade:16 ~lo:10.0 ~decades:9 () in
      let a = mk () and b = mk () and u = mk () in
      List.iter (Stats.log_hist_observe a) xs;
      List.iter (Stats.log_hist_observe b) ys;
      List.iter (Stats.log_hist_observe u) (xs @ ys);
      Stats.log_hist_merge_into ~dst:a ~src:b;
      a.Stats.lh_counts = u.Stats.lh_counts
      && a.Stats.lh_count = u.Stats.lh_count
      && a.Stats.lh_underflow = u.Stats.lh_underflow
      && a.Stats.lh_overflow = u.Stats.lh_overflow
      && (xs @ ys = []
         || Stats.log_hist_quantile a 0.5 = Stats.log_hist_quantile u 0.5))

(* ---------------- Mix ---------------- *)

let test_mix_tables () =
  Alcotest.(check int) "class count" 5 Load.Mix.class_count;
  Array.iter
    (fun cls ->
      Alcotest.(check bool) "code roundtrip" true
        (Load.Mix.of_code (Load.Mix.code cls) = cls))
    Load.Mix.all;
  Array.iter
    (fun p ->
      Alcotest.(check int) "weights sum to 100" 100
        (Array.fold_left ( + ) 0 (Load.Mix.weights p)))
    Load.Mix.profiles;
  (* CPI model at 8 MHz: alu 25 cycles x 16 insns x 125 ns. *)
  Alcotest.(check int) "alu service" 50_000 (Load.Mix.service_ns Load.Mix.Alu);
  Alcotest.(check int) "objops service" 240_000
    (Load.Mix.service_ns Load.Mix.Object_ops)

let test_mix_service_charges_budget () =
  let m = K.Machine.create () in
  let scratch = ref None in
  ignore
    (K.Machine.spawn m ~name:"svc" (fun () ->
         let s = K.Machine.allocate_generic m ~data_length:256 ~access_length:0 () in
         let t0 = K.Machine.now m in
         Array.iter (fun cls -> Load.Mix.service m ~scratch:s cls) Load.Mix.all;
         scratch := Some (K.Machine.now m - t0)));
  ignore (K.Machine.run m);
  let expected =
    Array.fold_left (fun acc c -> acc + Load.Mix.service_ns c) 0 Load.Mix.all
  in
  match !scratch with
  | Some elapsed ->
    (* Each recipe's wrappers plus remainder must land exactly on the CPI
       budget (single processor: no bus contention adjustment). *)
    Alcotest.(check int) "service time = CPI budget" expected elapsed
  | None -> Alcotest.fail "service process did not run"

(* ---------------- Arrival streams ---------------- *)

let spec ?(seed = 7) ?(users = 6) ?(sessions = 2) ?(requests = 2)
    ?(rate = 9_000.0) ?(pattern = Load.Arrival.Poisson)
    ?(profile = Load.Mix.Typical) () =
  {
    Load.Arrival.seed;
    users;
    sessions;
    requests_per_session = requests;
    rate_rps = rate;
    pattern;
    profile;
  }

let test_arrival_shape () =
  let s = spec () in
  let reqs = Load.Arrival.generate s in
  Alcotest.(check int) "total" (Load.Arrival.total s) (Array.length reqs);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) "dense ids" i r.Load.Arrival.r_id;
      if i > 0 then
        Alcotest.(check bool) "sorted by arrival" true
          (reqs.(i - 1).Load.Arrival.r_at_ns <= r.Load.Arrival.r_at_ns))
    reqs

let prop_arrival_same_seed_identical =
  QCheck2.Test.make ~name:"same seed => byte-identical arrival stream"
    ~count:60
    QCheck2.Gen.(
      quad (int_range 1 1000) (int_range 1 8) (int_range 1 4) bool)
    (fun (seed, users, sessions, bursty) ->
      let pattern =
        if bursty then Load.Arrival.Bursty else Load.Arrival.Poisson
      in
      let s = spec ~seed ~users ~sessions ~pattern () in
      Load.Arrival.render (Load.Arrival.generate s)
      = Load.Arrival.render (Load.Arrival.generate s))

(* The aggregate rate splits evenly across users, so the per-user stream
   is a function of (seed, user, rate/users): doubling users AND rate
   keeps every existing user's schedule bit-identical (the x2 rate scale
   is exact in binary floating point). *)
let prop_arrival_user_streams_stable =
  QCheck2.Test.make ~name:"doubling users at fixed per-user rate is stable"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 6))
    (fun (seed, users) ->
      let small = Load.Arrival.generate (spec ~seed ~users ~rate:9_000.0 ()) in
      let big =
        Load.Arrival.generate
          (spec ~seed ~users:(2 * users) ~rate:18_000.0 ())
      in
      let key (r : Load.Arrival.request) =
        (r.Load.Arrival.r_user, r.Load.Arrival.r_session, r.Load.Arrival.r_at_ns, r.Load.Arrival.r_cls)
      in
      let keep arr =
        Array.to_list arr
        |> List.filter_map (fun r ->
               if r.Load.Arrival.r_user < users then Some (key r) else None)
      in
      keep small = keep big)

(* The schedule [generate] must produce, built the slow way: draw every
   user's whole stream, concatenate them in user order and stable-sort by
   (instant, user, session), so equal keys keep their draw order. *)
let reference_schedule (s : Load.Arrival.spec) =
  let mean_ns = 1e9 *. float_of_int s.users /. s.rate_rps in
  let draws = ref [] in
  for user = 0 to s.users - 1 do
    let prng = I432_util.Prng.create ~seed:(s.seed + ((user + 1) * 1_000_003)) in
    let clock = ref 0.0 in
    for session = 0 to s.sessions - 1 do
      if s.pattern = Load.Arrival.Bursty && session > 0 then
        clock :=
          !clock
          +. I432_util.Prng.exponential prng
               ~mean:(0.75 *. mean_ns *. float_of_int s.requests_per_session);
      for _ = 1 to s.requests_per_session do
        let gap =
          if s.pattern = Load.Arrival.Bursty then 0.25 *. mean_ns else mean_ns
        in
        clock := !clock +. I432_util.Prng.exponential prng ~mean:gap;
        let cls = Load.Mix.code (Load.Mix.pick prng s.profile) in
        draws := (int_of_float !clock, user, session, cls) :: !draws
      done
    done
  done;
  let all = Array.of_list (List.rev !draws) in
  Array.stable_sort
    (fun (a, u, s, _) (b, v, t, _) -> compare (a, u, s) (b, v, t))
    all;
  Array.mapi
    (fun i (at, user, session, cls) ->
      {
        Load.Arrival.r_id = i;
        r_user = user;
        r_session = session;
        r_cls = cls;
        r_at_ns = at;
      })
    all

(* Rates up to 1e13 req/s make gaps sub-nanosecond, so many requests share
   an instant — within one user as well as across users. *)
let prop_arrival_matches_reference =
  QCheck2.Test.make ~name:"arrival merge == stable sort of all draws"
    ~count:200
    QCheck2.Gen.(
      pair
        (quad (int_range 1 1000) (int_range 1 12) (int_range 1 4)
           (int_range 1 6))
        (triple
           (oneofl [ 50.0; 9_000.0; 1e6; 1e9; 1e12; 1e13 ])
           bool
           (oneofa Load.Mix.profiles)))
    (fun ((seed, users, sessions, requests), (rate, bursty, profile)) ->
      let pattern =
        if bursty then Load.Arrival.Bursty else Load.Arrival.Poisson
      in
      let s = spec ~seed ~users ~sessions ~requests ~rate ~pattern ~profile () in
      Load.Arrival.render (Load.Arrival.generate s)
      = Load.Arrival.render (reference_schedule s))

let test_arrival_invalid () =
  Alcotest.check_raises "zero users" (Invalid_argument "Arrival.generate: users")
    (fun () -> ignore (Load.Arrival.generate (spec ~users:0 ())))

(* ---------------- Harness: single machine ---------------- *)

let run_machine ?(trace = Obs.Tracer.Events) s =
  Load.Loadgen.run_machine ~processors:2 ~trace_level:trace ~spec:s ()

let test_machine_completes_all () =
  let s = spec () in
  let o = run_machine s in
  let total = Load.Arrival.total s in
  Alcotest.(check int) "issued" total o.Load.Loadgen.o_issued;
  Alcotest.(check int) "completed" total o.Load.Loadgen.o_completed;
  Alcotest.(check int) "no blocked processes" 0 o.Load.Loadgen.o_deadlocked;
  Alcotest.(check bool) "achieved > 0" true (Load.Loadgen.achieved_rps o > 0.0);
  (* Latency can never be below the cheapest service recipe. *)
  Alcotest.(check bool) "p50 >= min service" true
    (Load.Loadgen.quantile o 0.5
    >= float_of_int (Load.Mix.service_ns Load.Mix.Alu));
  Alcotest.(check bool) "p99 >= p50" true
    (Load.Loadgen.quantile o 0.99 >= Load.Loadgen.quantile o 0.5)

let test_machine_span_stream_deterministic () =
  let s = spec ~seed:13 () in
  let machine =
    Scenario.make ~name:"machine" ~streams:Load.Loadgen.streams (fun () ->
        run_machine s)
  in
  let a = Scenario.play machine in
  Testkit.ok "same seed" (Scenario.same_seed ~first:a machine);
  (* One span pair per request: issue and done both present. *)
  let contains line needle =
    let nl = String.length needle and ll = String.length line in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  let count needle s =
    String.split_on_char '\n' s
    |> List.filter (fun l -> contains l needle)
    |> List.length
  in
  let total = Load.Arrival.total s in
  let stream = Load.Loadgen.span_stream a in
  Alcotest.(check int) "req-issue spans" total (count "req-issue" stream);
  Alcotest.(check int) "req-done spans" total (count "req-done" stream)

let test_machine_spans_off_when_untraced () =
  let o = run_machine ~trace:Obs.Tracer.Off (spec ()) in
  Alcotest.(check string) "no span events without tracing" ""
    (Load.Loadgen.span_stream o);
  (* Metrics still measure: spans are counters/histograms, not events. *)
  Alcotest.(check int) "metrics unaffected" (Load.Arrival.total (spec ()))
    o.Load.Loadgen.o_completed

(* ---------------- Harness: cluster, Seq vs Par ---------------- *)

let run_cluster ~engine s =
  Load.Loadgen.run_cluster ~nodes:3 ~processors:2 ~engine
    ~trace_level:Obs.Tracer.Events ~spec:s ()

let test_cluster_completes_all () =
  let s = spec ~seed:21 () in
  let o = run_cluster ~engine:Net.Cluster.Seq s in
  Alcotest.(check int) "completed" (Load.Arrival.total s)
    o.Load.Loadgen.o_completed;
  Alcotest.(check int) "three machines" 3
    (List.length o.Load.Loadgen.o_machines)

let prop_cluster_par_equals_seq =
  QCheck2.Test.make ~name:"cluster loadgen: Par 2 == Seq byte-identical"
    ~count:6
    QCheck2.Gen.(pair (int_range 1 500) (int_range 2 5))
    (fun (seed, users) ->
      let s = spec ~seed ~users ~sessions:1 () in
      let cluster engine =
        Scenario.make ~name:"cluster" ~streams:Load.Loadgen.streams (fun () ->
            run_cluster ~engine s)
      in
      (* Equal metrics carry equal completion counts to the Seq run. *)
      let b = Scenario.play (cluster (Net.Cluster.Par 2)) in
      b.Load.Loadgen.o_completed = Load.Arrival.total s
      && Testkit.holds
           (Scenario.equal_engines ~first:b cluster (Net.Cluster.Par 2)))

(* Overload: offered far above capacity must still complete every request
   (open-loop backpressure, the premature-quiescence regression guard for
   the cluster round loop). *)
let test_cluster_overload_drains () =
  let s = spec ~seed:5 ~users:8 ~sessions:2 ~requests:4 ~rate:60_000.0 () in
  let o = run_cluster ~engine:Net.Cluster.Seq s in
  Alcotest.(check int) "all requests served under overload"
    (Load.Arrival.total s) o.Load.Loadgen.o_completed

(* ---------------- Harness: chaos rejoin ---------------- *)

(* The server is checkpointed into the caller's store, killed, and its
   verified replay spliced back in: every request still completes. *)
let test_chaos_rejoin_completes () =
  let s = spec ~seed:3 ~users:4 ~sessions:1 ~requests:6 () in
  Testkit.with_store (fun _path store ->
      let rejoin =
        {
          Ckpt.store;
          ckpt_ns = 500_000;
          kill_ns = 500_000;
          restart_ns = Some 1_500_000;
        }
      in
      let o =
        Load.Loadgen.run_cluster ~nodes:3 ~processors:2 ~engine:Net.Cluster.Seq
          ~trace_level:Obs.Tracer.Events ~rejoin ~spec:s ()
      in
      Alcotest.(check int) "completed" (Load.Arrival.total s)
        o.Load.Loadgen.o_completed;
      Alcotest.(check int) "one restart" 1
        (Obs.Metrics.count o.Load.Loadgen.o_metrics "node.restarts");
      Alcotest.(check bool) "checkpoint filed" true
        (Option.is_some (Ckpt.load store ~key:"loadgen")))

(* A boot closure that builds something else on its second call (the
   replay) must not be spliced in: the rejoin raises Restore_mismatch
   naming the node and its first divergent image line. *)
let test_chaos_divergent_replay () =
  let boots = ref 0 in
  let boot () =
    incr boots;
    let cl = Net.Cluster.create () in
    let server, m = Net.Cluster.boot_node cl ~name:"server" () in
    let client, _ = Net.Cluster.boot_node cl ~name:"client" () in
    ignore (Net.Cluster.connect cl server client);
    if !boots > 1 then
      ignore (K.Machine.allocate_generic m ~data_length:8 ~access_length:0 ());
    ignore
      (K.Machine.spawn m ~name:"ticker" (fun () ->
           for _ = 1 to 20 do
             K.Machine.delay m ~ns:100_000
           done));
    cl
  in
  Testkit.with_store (fun _path store ->
      let cl = boot () in
      let quantum_ns = 100_000 in
      match
        ignore
          (Ckpt.stage_rejoin
             {
               Ckpt.store;
               ckpt_ns = 300_000;
               kill_ns = 300_000;
               restart_ns = Some 600_000;
             }
             ~key:"loadgen" ~node:0 ~seed:1 ~engine:Net.Cluster.Seq
             ~quantum_ns ~boot cl);
        Net.Cluster.run cl ~quantum_ns ()
      with
      | _ -> Alcotest.fail "a divergent replay was spliced in"
      | exception Ckpt.Restore_mismatch { divergence = Some d; _ } ->
        Alcotest.(check string) "names the node"
          "checkpoint \"loadgen\" node \"server\" image" d.Ckpt.stream;
        Alcotest.(check bool) "names a line" true (d.Ckpt.index >= 1))

(* An unbounded cluster run that runs out of rounds fails by name instead
   of returning a truncated schedule: arrivals this sparse outlast the
   default 100k rounds of 100 us. *)
let test_cluster_round_limit_raises () =
  let s = spec ~seed:1 ~users:1 ~sessions:1 ~requests:3 ~rate:0.1 () in
  Alcotest.(check bool) "schedule outlasts the round bound" true
    (Load.Arrival.horizon_ns (Load.Arrival.generate s) > 10_000_000_000);
  match run_cluster ~engine:Net.Cluster.Seq s with
  | _ -> Alcotest.fail "a truncated run returned an outcome"
  | exception Load.Loadgen.Round_limit { rounds; horizon_ns } ->
    Alcotest.(check int) "rounds" 100_000 rounds;
    Alcotest.(check bool) "horizon past 10 virtual s" true
      (horizon_ns >= 10_000_000_000)

(* A machine whose ring holds four events and saw six Req_done: the
   reader refuses it by name instead of returning the last four. *)
let test_req_done_refuses_dropped () =
  let traced capacity =
    K.Machine.create
      ~config:
        {
          K.Machine.default_config with
          K.Machine.trace_level = Obs.Tracer.Events;
          trace_capacity = capacity;
        }
      ()
  in
  let emit_done m n =
    for i = 1 to n do
      K.Machine.emit m Obs.Event.Req_done ~name_id:0 ~detail_id:0 ~a:i ~b:0
    done
  in
  let whole = traced 8 and small = traced 4 in
  emit_done whole 6;
  emit_done small 6;
  Alcotest.(check (list int)) "a whole ring reads back" [ 1; 2; 3; 4; 5; 6 ]
    (List.map
       (fun (e : Obs.Event.t) -> e.Obs.Event.a)
       (Load.Loadgen.req_done [ ("whole", whole) ]));
  Alcotest.check_raises "a dropping ring raises"
    (Failure
       "Loadgen.req_done: small dropped 2 trace events; its Req_done events \
        are incomplete")
    (fun () ->
      ignore (Load.Loadgen.req_done [ ("whole", whole); ("small", small) ]))

(* ---------------- Streaming trace readers ---------------- *)

(* The list-based readers [span_stream] and [req_done] replaced, kept as
   the oracle: each builds every retained event of every machine and
   filters the list. *)
let list_span_stream o =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (e : Obs.Event.t) ->
          if Obs.Event.category e.Obs.Event.kind = "load" then
            Printf.bprintf buf "%s %s\n" name (Obs.Event.to_string e))
        (K.Machine.events m))
    o.Load.Loadgen.o_machines;
  Buffer.contents buf

let list_req_done machines =
  List.concat_map
    (fun (name, m) ->
      let dropped = Obs.Tracer.dropped (K.Machine.tracer m) in
      if dropped > 0 then
        failwith
          (Printf.sprintf
             "Loadgen.req_done: %s dropped %d trace events; its Req_done \
              events are incomplete"
             name dropped);
      List.filter
        (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Req_done)
        (K.Machine.events m))
    machines

let outcome_or_failure f = match f () with x -> Ok x | exception Failure m -> Error m

(* The streaming readers against the list ones on one outcome.  On a
   ring that wrapped, [req_done] must refuse exactly as the list reader
   does, and the Req_done events the rings still hold must match a
   filter of the retained list. *)
let check_readers ~wrapped o =
  let machines = o.Load.Loadgen.o_machines in
  let dropped =
    List.exists
      (fun (_, m) -> Obs.Tracer.dropped (K.Machine.tracer m) > 0)
      machines
  in
  Alcotest.(check bool) "ring wrapped" wrapped dropped;
  Alcotest.(check string) "span_stream" (list_span_stream o)
    (Load.Loadgen.span_stream o);
  let strings = Result.map (List.map Obs.Event.to_string) in
  Alcotest.(check (result (list string) string)) "req_done"
    (strings (outcome_or_failure (fun () -> list_req_done machines)))
    (strings (outcome_or_failure (fun () -> Load.Loadgen.req_done machines)));
  List.iter
    (fun (_, m) ->
      let tr = K.Machine.tracer m in
      Alcotest.(check (list string)) "retained Req_done"
        (List.filter_map
           (fun (e : Obs.Event.t) ->
             if e.Obs.Event.kind = Obs.Event.Req_done then
               Some (Obs.Event.to_string e)
             else None)
           (K.Machine.events m))
        (Obs.Tracer.to_list
           ~kinds:(Obs.Tracer.kinds (fun k -> k = Obs.Event.Req_done))
           tr
           (fun seq -> Obs.Event.to_string (Obs.Tracer.event tr seq))))
    machines

(* Small runs fit the default 32,768-slot ring; the large ones overflow
   it on at least one machine. *)
let small_spec = spec ~seed:5 ()
let large_spec = spec ~seed:5 ~users:20 ~sessions:10 ~requests:24 ()

let test_streaming_readers_machine () =
  check_readers ~wrapped:false (run_machine small_spec);
  check_readers ~wrapped:true (run_machine large_spec)

let test_streaming_readers_cluster () =
  check_readers ~wrapped:false (run_cluster ~engine:Net.Cluster.Seq small_spec);
  check_readers ~wrapped:true (run_cluster ~engine:Net.Cluster.Seq large_spec)

let suite =
  [
    ("log_hist basic", `Quick, test_log_hist_basic);
    ("log_hist under/overflow", `Quick, test_log_hist_under_overflow);
    ("log_hist invalid args", `Quick, test_log_hist_invalid);
    ("log_hist merge shape", `Quick, test_log_hist_merge_shape);
    QCheck_alcotest.to_alcotest prop_log_hist_quantile_bounds;
    QCheck_alcotest.to_alcotest prop_log_hist_merge_is_union;
    ("mix tables", `Quick, test_mix_tables);
    ("mix service charges budget", `Quick, test_mix_service_charges_budget);
    ("arrival shape", `Quick, test_arrival_shape);
    QCheck_alcotest.to_alcotest prop_arrival_same_seed_identical;
    QCheck_alcotest.to_alcotest prop_arrival_user_streams_stable;
    ("arrival invalid", `Quick, test_arrival_invalid);
    ("machine completes all", `Quick, test_machine_completes_all);
    ("machine span stream deterministic", `Quick, test_machine_span_stream_deterministic);
    ("machine spans off when untraced", `Quick, test_machine_spans_off_when_untraced);
    ("cluster completes all", `Quick, test_cluster_completes_all);
    QCheck_alcotest.to_alcotest prop_cluster_par_equals_seq;
    ("cluster overload drains", `Quick, test_cluster_overload_drains);
    ("chaos rejoin completes", `Quick, test_chaos_rejoin_completes);
    ("chaos divergent replay raises Restore_mismatch", `Quick,
      test_chaos_divergent_replay);
    (* Kept last so the earlier cases keep their positions in the suite. *)
    QCheck_alcotest.to_alcotest prop_arrival_matches_reference;
    ("cluster round limit raises Round_limit", `Quick,
      test_cluster_round_limit_raises);
    ("req_done refuses a ring that dropped", `Quick,
      test_req_done_refuses_dropped);
    ("streaming readers = list readers, machine", `Quick,
      test_streaming_readers_machine);
    ("streaming readers = list readers, 3-node cluster", `Quick,
      test_streaming_readers_cluster);
  ]
