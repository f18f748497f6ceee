(* The simulator's benchmark runner (see README.md).

   One workload per process:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]

   runs an untimed warm-up segment twice (the same-seed gate), then a
   fixed number of timed segments, prints a human report, a "#detail"
   line with every metric, and, last, one JSON line with the metrics
   BENCHMARK.json names for that trace mode.  It exits 1 when a
   correctness gate fails.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                  [--repeat N] [--smoke]

   re-executes itself once per workload (and repeat), one process at a
   time, and summarises; with --repeat it prints each metric's median
   and quartiles and flags spreads wider than the metric's bound.
   --smoke runs tiny sizes in both trace modes and checks the output
   against BENCHMARK.json. *)

module W = Workloads
module Obs = I432_obs
module Net = I432_net
module Stats = I432_util.Stats

(* Set while the program initialises: the reference point for setup_s. *)
let t_start = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)
(* ------------------------------------------------------------------ *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the "exclusive" method), so repeat reports match external checks. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let m = Array.length a in
  if m = 0 then (nan, nan, nan)
  else if m = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let pos = float_of_int (i * (m + 1)) /. 4.0 in
      let j = max 1 (min (m - 1) (int_of_float pos)) in
      let frac = pos -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let div a b = if b = 0.0 then 0.0 else a /. b

(* Quantile of a fixed-width kernel histogram, linear inside the bucket. *)
let hist_quantile (h : Stats.hist) q =
  let buckets = Array.length h.Stats.h_counts in
  let width = (h.Stats.h_hi -. h.Stats.h_lo) /. float_of_int buckets in
  let target = q *. float_of_int h.Stats.h_count in
  let rec walk b cum =
    if b >= buckets then h.Stats.h_max (* in the overflow bucket *)
    else
      let n = float_of_int h.Stats.h_counts.(b) in
      if n > 0.0 && cum +. n >= target then
        h.Stats.h_lo +. (width *. (float_of_int b +. ((target -. cum) /. n)))
      else walk (b + 1) (cum +. n)
  in
  if h.Stats.h_count = 0 then 0.0
  else if float_of_int h.Stats.h_underflow >= target then h.Stats.h_min
  else walk 0 (float_of_int h.Stats.h_underflow)

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared host speeds up and slows down by tens of percent for minutes
   at a time.  A fixed workload that uses no library code is timed about
   once a second through the timed phase, and every host time is divided
   by how much slower than [reference_calibration_s] it ran, so host
   numbers read in reference-host seconds.  The workload (an in-place
   sort and scattered table updates) allocates two arrays and nothing
   else, so the simulator's heap and GC settings do not change its
   time. *)
let reference_calibration_s = 0.062

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let rng = Random.State.make [| 7 |] in
  let a = Array.init 200_000 (fun _ -> Random.State.int rng 1_000_000) in
  Array.sort compare a;
  let table = Array.make 65_536 0 in
  for i = 0 to 2_000_000 do
    let k = (i * 40_503) land 65_535 in
    table.(k) <- table.(k) + a.(i mod 200_000)
  done;
  ignore (Sys.opaque_identity table);
  Unix.gettimeofday () -. t0

(* ------------------------------------------------------------------ *)
(* What one process measured                                           *)
(* ------------------------------------------------------------------ *)

(* Host times and rates here are already in reference-host seconds. *)
type ctx = {
  pool : Obs.Metrics.t;  (* virtual results and probes of the pooled segments *)
  segments : int;
  ops : int;
  failed : int;
  host_s : float;  (* untraced timed host seconds, summed *)
  untraced_rates : float list;  (* ops per host second, one per segment *)
  traced_rates : float list;
  minor_words : float;  (* untraced, summed *)
  major_words : float;
  setup_s : float;
  slowdown : float;  (* calibration time over the reference host's *)
  peak_heap_mb : float;
  knee : float option;
  ablations : (string * float) list;
}

let c ctx name = float_of_int (W.counter ctx.pool name)

(* A host time summed in a probe counter, in reference-host ns. *)
let host_ns ctx name = c ctx name /. ctx.slowdown
let per_op ctx name = div (c ctx name) (float_of_int ctx.ops)
let per_segment ctx name = div (c ctx name) (float_of_int ctx.segments)

let log_q ctx name q =
  match Obs.Metrics.find_log_histogram ctx.pool name with
  | Some h -> Obs.Metrics.log_quantile h q
  | None -> 0.0

let log_count ctx name =
  match Obs.Metrics.find_log_histogram ctx.pool name with
  | Some h -> h.Obs.Metrics.l_hist.Stats.lh_count
  | None -> 0

let hist ctx name f =
  match Obs.Metrics.find_histogram ctx.pool name with
  | Some h -> f h.Obs.Metrics.m_hist
  | None -> 0.0

let ablation ctx name = Option.value ~default:0.0 (List.assoc_opt name ctx.ablations)

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

(* [Host_e2e] metrics are the ones BENCHMARK.json gates (end_to_end,
   with their bound); [Virtual_e2e] ones are deterministic per seed and
   must repeat exactly; [Layer] metrics are BENCHMARK.json's per_layer
   list, emitted by the traced run, 0 where the workload does not
   exercise the layer. *)
type kind = Host_e2e of float | Virtual_e2e | Layer
type clock = Host | Virtual | Count

type metric = {
  name : string;
  unit_ : string;
  kind : kind;
  clock : clock;
  higher_better : bool;
  value : ctx -> float;
  samples : ctx -> int;
}

let e2e name unit_ kind clock ~higher_better ~samples value =
  { name; unit_; kind; clock; higher_better; value; samples }

let layer name unit_ clock ?(higher_better = false) value =
  {
    name;
    unit_;
    kind = Layer;
    clock;
    higher_better;
    value;
    samples = (fun ctx -> ctx.segments);
  }

let us ns = ns /. 1e3
let latency_samples ctx = log_count ctx "load.latency_ns"
let host_ns_per ctx name = div (ctx.host_s *. 1e9) (c ctx name)

let catalogue =
  [
    e2e "ops_per_s" "ops/s" (Host_e2e 0.15) Host ~higher_better:true
      ~samples:(fun ctx -> List.length ctx.untraced_rates)
      (fun ctx -> median ctx.untraced_rates);
    e2e "setup_s" "s" (Host_e2e 0.25) Host ~higher_better:false
      ~samples:(fun _ -> 1)
      (fun ctx -> ctx.setup_s);
    e2e "peak_heap_mb" "MB" (Host_e2e 0.20) Host ~higher_better:false
      ~samples:(fun _ -> 1)
      (fun ctx -> ctx.peak_heap_mb);
    e2e "p50_us" "virtual_us" Virtual_e2e Virtual ~higher_better:false
      ~samples:latency_samples
      (fun ctx -> us (log_q ctx "load.latency_ns" 0.5));
    e2e "p999_us" "virtual_us" Virtual_e2e Virtual ~higher_better:false
      ~samples:latency_samples
      (fun ctx -> us (log_q ctx "load.latency_ns" 0.999));
    e2e "knee_rps" "virtual_req/s" Virtual_e2e Virtual ~higher_better:true
      ~samples:(fun _ -> 1)
      (fun ctx -> Option.value ~default:nan ctx.knee);
    e2e "err_frac" "ratio" Virtual_e2e Count ~higher_better:false
      ~samples:(fun ctx -> ctx.ops)
      (fun ctx -> div (float_of_int ctx.failed) (float_of_int ctx.ops));
    (* load *)
    layer "load.generate_s" "s" Host (fun ctx ->
        div (host_ns ctx "bench.generate_ns") (float_of_int ctx.segments) /. 1e9);
    layer "load.offered_ratio" "ratio" Count ~higher_better:true (fun ctx ->
        per_segment ctx "bench.offered_ppm" /. 1e6);
    layer "load.issue_late_p99_us" "virtual_us" Virtual (fun ctx ->
        us (log_q ctx "bench.issue_late_ns" 0.99));
    (* kernel *)
    layer "kernel.dispatches_per_op" "count/op" Count (fun ctx ->
        per_op ctx "dispatch.dispatches");
    layer "kernel.host_ns_per_dispatch" "ns" Host (fun ctx ->
        host_ns_per ctx "dispatch.dispatches");
    layer "kernel.preemptions_per_op" "count/op" Count (fun ctx ->
        per_op ctx "dispatch.preemptions");
    layer "kernel.ready_wait_p99_us" "virtual_us" Virtual (fun ctx ->
        us (hist ctx "dispatch.latency_ns" (fun h -> hist_quantile h 0.99)));
    layer "kernel.busy_frac" "ratio" Virtual (fun ctx ->
        div (c ctx "bench.busy_ns") (c ctx "bench.capacity_ns"));
    layer "kernel.port_wait_mean_us" "virtual_us" Virtual (fun ctx ->
        us (hist ctx "port.wait_ns" Stats.hist_mean));
    layer "kernel.port_send_blocks_per_op" "count/op" Count (fun ctx ->
        per_op ctx "port.send_blocks");
    (* net *)
    layer "net.frames_per_op" "count/op" Count (fun ctx ->
        per_op ctx "net.frames_tx");
    layer "net.host_ns_per_frame" "ns" Host (fun ctx ->
        host_ns_per ctx "net.frames_tx");
    layer "net.retransmits_per_frame" "ratio" Count (fun ctx ->
        div (c ctx "net.retransmits") (c ctx "net.frames_tx"));
    layer "net.par2_speedup" "x" Host ~higher_better:true (fun ctx ->
        ablation ctx "net.par2_speedup");
    (* vm *)
    layer "vm.faults_per_touch" "ratio" Count (fun ctx ->
        div (c ctx "swap.faults") (c ctx "bench.touches"));
    layer "vm.touch_host_us" "us" Host (fun ctx ->
        us (host_ns_per ctx "bench.touches"));
    layer "vm.touch_stall_p99_us" "virtual_us" Virtual (fun ctx ->
        us (log_q ctx "bench.touch_stall_ns" 0.99));
    layer "vm.clean_eviction_frac" "ratio" Count ~higher_better:true (fun ctx ->
        div (c ctx "swap.clean_evictions") (c ctx "bench.swap_outs"));
    (* store *)
    layer "store.read_host_us" "us" Host (fun ctx ->
        us (div (host_ns ctx "bench.dev_read_ns") (c ctx "bench.dev_reads")));
    layer "store.write_host_us" "us" Host (fun ctx ->
        us (div (host_ns ctx "bench.dev_write_ns") (c ctx "bench.dev_writes")));
    layer "store.read_bytes_per_read" "B" Host (fun ctx ->
        div (c ctx "bench.rchar") (c ctx "bench.dev_reads"));
    layer "store.appends_per_op" "count/op" Count (fun ctx ->
        per_op ctx "bench.store_appends");
    layer "store.syncs_per_op" "count/op" Count (fun ctx ->
        per_op ctx "bench.store_syncs");
    layer "store.compactions" "count/segment" Count (fun ctx ->
        per_segment ctx "bench.store_compactions");
    (* txn *)
    layer "txn.retries_per_commit" "ratio" Count (fun ctx ->
        div (c ctx "txn.retries") (c ctx "txn.commits"));
    layer "txn.conflicts_per_commit" "ratio" Count (fun ctx ->
        div (c ctx "txn.conflicts") (c ctx "txn.commits"));
    layer "txn.abort_frac" "ratio" Count (fun ctx -> per_op ctx "bench.aborted");
    layer "txn.history_share" "ratio" Host (fun ctx ->
        ablation ctx "txn.history_share");
    (* obs *)
    layer "obs.trace_overhead_pct" "%" Host (fun ctx ->
        (div (median ctx.untraced_rates) (median ctx.traced_rates) -. 1.0)
        *. 100.0);
    layer "obs.events_per_op" "count/op" Count (fun ctx ->
        per_op ctx "bench.events");
    (* host: the OCaml runtime *)
    layer "host.major_words_per_op" "words/op" Host (fun ctx ->
        div ctx.major_words (float_of_int ctx.ops));
    layer "host.minor_words_per_op" "words/op" Host (fun ctx ->
        div ctx.minor_words (float_of_int ctx.ops));
    layer "host.slowdown" "x" Host (fun ctx -> ctx.slowdown);
  ]

let clock_name = function Host -> "host" | Virtual -> "virtual" | Count -> "count"

(* The metrics the last JSON line carries for a trace mode. *)
let driver_metrics ~traced =
  List.filter
    (fun (m : metric) ->
      match m.kind with
      | Host_e2e _ -> not traced
      | Layer -> traced
      | Virtual_e2e -> false)
    catalogue

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type size = Full | Warmup | Smoke

type workload = {
  name : string;
  segment_s : float;
      (* host seconds of one Full segment on the reference host (2-core
         x86-64, OCaml 5.1): sets how many segments fill --seconds *)
  run : traced:bool -> seed:int -> size -> W.seg;
  knee : (seed:int -> smoke:bool -> float * string list) option;
  ablate :
    (seed:int -> size -> untraced:W.seg -> traced:W.seg ->
     (string * float) list * string list)
    option;
}

let serve_knee ~cluster ~grid ~smoke_grid ~smoke_arrival_s ~seed ~smoke =
  if smoke then
    W.knee ~cluster ~seed ~users:1 ~arrival_s:smoke_arrival_s smoke_grid
  else W.knee ~cluster ~seed ~users:2 ~arrival_s:4.0 grid

let grid lo hi step =
  List.init (((hi - lo) / step) + 1) (fun i -> float_of_int (lo + (i * step)))

(* Kernel dispatcher and ports under open-loop load on one machine; it
   bypasses net, vm, store and txn, so a kernel gain shows here alone.
   Few users with long streams keep the realised offered load within 1%
   of nominal, well clear of the 0.95 gate. *)
let serve_machine =
  {
    name = "serve-machine";
    segment_s = 1.2;
    run =
      (fun ~traced ~seed size ->
        W.run_serve ~cluster:false ~traced ~seed
          (match size with
          | Full -> { W.users = 4; per_user = 62_500; rate_rps = 20_000.0 }
          | Warmup -> { W.users = 4; per_user = 15_000; rate_rps = 20_000.0 }
          | Smoke -> { W.users = 1; per_user = 2_000; rate_rps = 20_000.0 }));
    knee =
      Some
        (serve_knee ~cluster:false ~grid:(grid 16_000 34_000 2_000)
           ~smoke_grid:[ 16_000.0; 18_000.0 ] ~smoke_arrival_s:0.25);
    ablate = None;
  }

let cluster_size = function
  | Full -> { W.users = 4; per_user = 15_000; rate_rps = 10_000.0 }
  | Warmup -> { W.users = 2; per_user = 7_500; rate_rps = 10_000.0 }
  | Smoke -> { W.users = 1; per_user = 2_000; rate_rps = 10_000.0 }

(* Host time of one segment on the sequential engine over the same
   segment on two domains; the two event streams must be identical. *)
let par2_ablation ~seed size ~untraced:_ ~(traced : W.seg) =
  if Domain.recommended_domain_count () < 2 then ([], [])
  else
    let par =
      W.run_serve ~cluster:true ~engine:(Net.Cluster.Par 2) ~traced:true ~seed
        (cluster_size size)
    in
    ( [ ("net.par2_speedup", traced.W.host_s /. par.W.host_s) ],
      if par.W.stream = traced.W.stream && par.W.digest = traced.W.digest then []
      else [ "Par 2 stream differs from Seq" ] )

(* The serve-machine traffic across 3 nodes: every request crosses the
   wire codec, NIC pump, ARQ and link, isolating the net layer. *)
let serve_cluster =
  {
    name = "serve-cluster";
    segment_s = 0.53;
    run =
      (fun ~traced ~seed size ->
        W.run_serve ~cluster:true ~traced ~seed (cluster_size size));
    knee =
      Some
        (serve_knee ~cluster:true ~grid:(grid 6_000 16_000 1_000)
           ~smoke_grid:[ 6_000.0; 8_000.0 ] ~smoke_arrival_s:0.5);
    ablate = Some par2_ablation;
  }

(* Random fault-ins beside evictions in vm and store, with RAM at a
   quarter of the working set: store reads dominate the host cost. *)
let swap_quarter =
  {
    name = "swap-quarter";
    segment_s = 1.5;
    run =
      (fun ~traced ~seed size ->
        W.run_swap ~traced ~seed
          (match size with
          | Full -> { W.objects = 50_000; swap_users = 32; requests = 4; touches = 32 }
          | Warmup -> { W.objects = 50_000; swap_users = 32; requests = 1; touches = 32 }
          | Smoke -> { W.objects = 2_000; swap_users = 4; requests = 2; touches = 8 }));
    knee = None;
    ablate = None;
  }

let bank_transfers = function Full -> 15_840 | Warmup -> 3_960 | Smoke -> 200

(* Share of one segment's host time that history tracking costs. *)
let history_ablation ~seed size ~(untraced : W.seg) ~traced:_ =
  let plain =
    W.run_bank ~history:false ~traced:false ~seed (bank_transfers size)
  in
  ( [ ("txn.history_share", 1.0 -. (plain.W.host_s /. untraced.W.host_s)) ],
    List.map (( ^ ) "history off: ") plain.W.problems )

(* Transaction commits plus append-only history writes: txn, and the
   store used the opposite way from swap-quarter (appends, not reads).
   A segment is capped by the done port's 16,384-message capacity. *)
let bank_history =
  {
    name = "bank-history";
    segment_s = 0.22;
    run =
      (fun ~traced ~seed size ->
        W.run_bank ~verify:(size <> Full) ~traced ~seed (bank_transfers size));
    knee = None;
    ablate = Some history_ablation;
  }

let workloads = [ serve_machine; serve_cluster; swap_quarter; bank_history ]

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)
(* ------------------------------------------------------------------ *)

(* Segment 0 is the warm-up; timed segments count from 1. *)
let seg_seed ~seed i = (seed * 1000) + i

let segment_count w ~seconds ~smoke =
  if smoke then 2 else max 1 (Float.to_int (Float.round (seconds /. w.segment_s)))

let pool_of segs =
  let pool = Obs.Metrics.create () in
  List.iter
    (fun (s : W.seg) ->
      Obs.Metrics.merge_into ~dst:pool ~src:s.W.metrics;
      Obs.Metrics.merge_into ~dst:pool ~src:s.W.probes)
    segs;
  pool

let rate (s : W.seg) = float_of_int s.W.ops /. s.W.host_s
let sum f segs = List.fold_left (fun acc s -> acc +. f s) 0.0 segs

let measure w ~seed ~seconds ~traced ~smoke =
  let problems = ref [] in
  let fail p = problems := p :: !problems in
  let gate label (s : W.seg) = List.iter (fun p -> fail (label ^ ": " ^ p)) s.W.problems in
  (* The untimed warm-up fills the OCaml heap; running it twice, traced,
     proves the same seed replays the same event stream. *)
  let warm = if smoke then Smoke else Warmup in
  let a = w.run ~traced:true ~seed:(seg_seed ~seed 0) warm in
  let b = w.run ~traced:true ~seed:(seg_seed ~seed 0) warm in
  gate "warm-up" a;
  if a.W.stream <> b.W.stream || a.W.digest <> b.W.digest then
    fail "warm-up: same-seed runs differ";
  let full = if smoke then Smoke else Full in
  let n = segment_count w ~seconds ~smoke in
  let t_first = Unix.gettimeofday () in
  let calibrations = ref [] and last_calibration = ref neg_infinity in
  let segment ~traced i =
    if Unix.gettimeofday () -. !last_calibration >= 1.0 then begin
      calibrations := calibrate () :: !calibrations;
      last_calibration := Unix.gettimeofday ()
    end;
    (* Collect earlier garbage outside the timed call, so no segment pays
       for another's. *)
    Gc.full_major ();
    let s = w.run ~traced ~seed:(seg_seed ~seed i) full in
    gate (Printf.sprintf "segment %d%s" i (if traced then " traced" else "")) s;
    s
  in
  let untraced, traced_segs, ablations =
    if not traced then (List.init n (fun i -> segment ~traced:false (i + 1)), [], [])
    else begin
      (* Each segment runs untraced then traced, so both see the same host
         conditions; tracing must not move a single virtual result. *)
      let pairs =
        List.init
          (max 1 ((n + 1) / 2))
          (fun i ->
            let u = segment ~traced:false (i + 1) in
            let t = segment ~traced:true (i + 1) in
            if u.W.digest <> t.W.digest then
              fail (Printf.sprintf "segment %d: tracing changed virtual results" (i + 1));
            (u, t))
      in
      let ablations =
        match (w.ablate, pairs) with
        | Some f, (u, t) :: _ ->
          let values, ps = f ~seed:(seg_seed ~seed 1) full ~untraced:u ~traced:t in
          List.iter fail ps;
          values
        | _ -> []
      in
      (List.map fst pairs, List.map snd pairs, ablations)
    end
  in
  let pooled = if traced then traced_segs else untraced in
  let slowdown = median !calibrations /. reference_calibration_s in
  let setup_s =
    t_first -. t_start +. sum (fun (s : W.seg) -> s.W.prep_s) (untraced @ traced_segs)
  in
  (* Before the knee sweep, which is not part of the measured work. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let knee =
    match w.knee with
    | Some k when not traced ->
      let v, ps = k ~seed ~smoke in
      List.iter fail ps;
      Some v
    | _ -> None
  in
  W.remove_scratch ();
  let ctx =
    {
      pool = pool_of pooled;
      segments = List.length pooled;
      ops = List.fold_left (fun acc (s : W.seg) -> acc + s.W.ops) 0 pooled;
      failed = List.fold_left (fun acc (s : W.seg) -> acc + s.W.failed) 0 pooled;
      host_s = sum (fun (s : W.seg) -> s.W.host_s) untraced /. slowdown;
      untraced_rates = List.map (fun s -> rate s *. slowdown) untraced;
      traced_rates = List.map (fun s -> rate s *. slowdown) traced_segs;
      minor_words = sum (fun (s : W.seg) -> s.W.minor_words) untraced;
      major_words = sum (fun (s : W.seg) -> s.W.major_words) untraced;
      setup_s = setup_s /. slowdown;
      slowdown;
      peak_heap_mb;
      knee;
      ablations;
    }
  in
  (ctx, List.rev !problems)

let better (m : metric) = if m.higher_better then "higher" else "lower"

let report (w : workload) ~seed ~traced (ctx : ctx) problems =
  let shown =
    List.filter
      (fun (m : metric) ->
        match m.kind with
        | Layer -> traced
        | Host_e2e _ | Virtual_e2e -> m.name <> "knee_rps" || ctx.knee <> None)
      catalogue
  in
  Printf.printf "== %s  seed %d  trace %d  segments %d ==\n" w.name seed
    (if traced then 1 else 0)
    ctx.segments;
  List.iter
    (fun (m : metric) ->
      Printf.printf "  %-30s %16.6g %-14s %-8s n=%d\n" m.name (m.value ctx) m.unit_
        (clock_name m.clock) (m.samples ctx))
    shown;
  (match problems with
  | [] -> print_endline "  gates: ok"
  | ps -> List.iter (Printf.printf "  GATE FAILED: %s\n") ps);
  let correct = problems = [] in
  let entry (m : metric) extra =
    (m.name, Json.Obj (("value", Json.Float (m.value ctx)) :: ("unit", Json.Str m.unit_) :: extra))
  in
  print_endline
    ("#detail "
    ^ Json.to_line
        (Json.Obj
           [
             ("workload", Json.Str w.name);
             ("seed", Json.Int seed);
             ("trace", Json.Int (if traced then 1 else 0));
             ("correct", Json.Bool correct);
             ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems));
             ( "metrics",
               Json.Obj
                 (List.map
                    (fun (m : metric) ->
                      entry m
                        [
                          ("clock", Json.Str (clock_name m.clock));
                          ("samples", Json.Int (m.samples ctx));
                        ])
                    shown) );
           ]));
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int ctx.ops);
            ("failed", Json.Int ctx.failed);
            ("metrics", Json.Obj (List.map (fun (m : metric) -> entry m []) (driver_metrics ~traced)));
          ]));
  correct

(* ------------------------------------------------------------------ *)
(* run: every workload, one child process each                         *)
(* ------------------------------------------------------------------ *)

type child = {
  cw : workload;
  ctraced : bool;
  detail : Json.t option;
  final : Json.t option;
  ok : bool;
}

let parse_opt s = try Some (Json.parse s) with Json.Error _ -> None

(* Re-execute this program on one workload; echo its report as it comes
   (at smoke sizes, only its failures). *)
let spawn w ~seed ~seconds ~traced ~smoke =
  let args =
    [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let detail = ref None and last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"#detail " line then
         detail := parse_opt (String.sub line 8 (String.length line - 8))
       else if String.starts_with ~prefix:"{" line then last := line
       else if (not smoke) || String.starts_with ~prefix:"  GATE FAILED" line then
         print_endline line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  { cw = w; ctraced = traced; detail = !detail; final = parse_opt !last;
    ok = status = Unix.WEXITED 0 }

let metric_values children name =
  List.filter_map
    (fun ch ->
      Option.bind ch.detail (fun d ->
          Option.bind (Json.member "metrics" d) (fun ms ->
              Option.bind (Json.member name ms) (fun v ->
                  Option.bind (Json.member "value" v) Json.to_float))))
    children

(* Median and quartiles of each metric across repeats.  A host e2e
   metric whose quartile spread exceeds its bound is flagged; every
   virtual or count metric must read the same in every repeat. *)
let summarise children =
  let flags = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let runs = List.filter (fun ch -> ch.cw == w && ch.ctraced = traced) children in
          if runs <> [] then begin
            Printf.printf "\n== %s  trace %d  %d runs: median [q1 q3] ==\n" w.name
              (if traced then 1 else 0)
              (List.length runs);
            List.iter
              (fun (m : metric) ->
                match metric_values runs m.name with
                | [] -> ()
                | vs ->
                  let q1, med, q3 = quartiles vs in
                  let spread = div (q3 -. q1) (Float.abs med) in
                  let flag =
                    match (m.kind, m.clock) with
                    | Host_e2e bound, _ when spread > bound ->
                      Printf.sprintf "  SPREAD %.1f%% > %.0f%%" (100.0 *. spread)
                        (100.0 *. bound)
                    | _, (Virtual | Count) when List.exists (fun v -> v <> List.hd vs) vs ->
                      "  NOT EXACT"
                    | _ -> ""
                  in
                  if flag <> "" then incr flags;
                  Printf.printf "  %-30s %14.6g [%.6g %.6g] %-14s spread %5.2f%%%s\n"
                    m.name med q1 q3 m.unit_ (100.0 *. spread) flag)
              catalogue
          end)
        [ false; true ])
    workloads;
  !flags

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* BENCHMARK.json must name exactly the runner's workloads and metrics,
   and every child's last line must carry exactly those metrics. *)
let check_spec children =
  let spec = Json.parse (read_file "BENCHMARK.json") in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let entries key =
    match Json.member key spec with Some (Json.Arr xs) -> xs | _ -> []
  in
  let str k e = match Json.member k e with Some (Json.Str s) -> s | _ -> "" in
  let spec_workloads = List.map (str "name") (entries "workloads") in
  if spec_workloads <> List.map (fun w -> w.name) workloads then
    fail "workloads differ: %s" (String.concat "," spec_workloads);
  let expect key ~traced =
    let mine = driver_metrics ~traced in
    let theirs = entries key in
    if List.length theirs <> List.length mine then fail "%s: %d metrics, runner has %d" key (List.length theirs) (List.length mine);
    List.iter
      (fun e ->
        match List.find_opt (fun (m : metric) -> m.name = str "name" e) mine with
        | None -> fail "%s: %s unknown to the runner" key (str "name" e)
        | Some m ->
          if str "unit" e <> m.unit_ || str "better" e <> better m then
            fail "%s: %s unit/better differ" key m.name;
          (match (m.kind, Option.bind (Json.member "bound" e) Json.to_float) with
          | Host_e2e b, Some b' when b = b' -> ()
          | Layer, None -> ()
          | _ -> fail "%s: %s bound differs" key m.name))
      theirs;
    List.iter
      (fun ch ->
        if ch.ctraced = traced then begin
          let got =
            match Option.bind ch.final (Json.member "metrics") with
            | Some (Json.Obj fs) -> fs
            | _ -> []
          in
          if
            List.map (fun (name, v) -> (name, str "unit" v)) got
            <> List.map (fun e -> (str "name" e, str "unit" e)) theirs
          then fail "%s trace %b: metrics or units differ from %s" ch.cw.name traced key;
          List.iter
            (fun (name, v) ->
              match Option.bind (Json.member "value" v) Json.to_float with
              | Some x when Float.is_finite x -> ()
              | _ -> fail "%s: %s has no finite value" ch.cw.name name)
            got
        end)
      children
  in
  expect "end_to_end" ~traced:false;
  expect "per_layer" ~traced:true;
  List.rev !problems

let run_all ~only ~seed ~seconds ~modes ~repeat ~smoke =
  let chosen = List.filter (fun w -> only = [] || List.mem w.name only) workloads in
  let children =
    List.concat
      (List.init repeat (fun _ ->
           List.concat_map
             (fun w -> List.map (fun traced -> spawn w ~seed ~seconds ~traced ~smoke) modes)
             chosen))
  in
  let flags = if repeat > 1 then summarise children else 0 in
  let failed = List.filter (fun ch -> not ch.ok || ch.final = None) children in
  List.iter
    (fun ch -> Printf.printf "FAILED: %s trace %b\n" ch.cw.name ch.ctraced)
    failed;
  let spec_problems = if smoke then check_spec children else [] in
  List.iter (Printf.printf "BENCHMARK.json: %s\n") spec_problems;
  let ok = failed = [] && spec_problems = [] && flags = 0 in
  Printf.printf "\n%s: %d runs, %d failed, %d flagged%s\n"
    (if ok then "PASS" else "FAIL")
    (List.length children) (List.length failed) flags
    (if smoke then Printf.sprintf ", %d spec problems" (List.length spec_problems) else "");
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]\n\
    \       main.exe run [--workload W]... [--seed N] [--seconds S] \
     [--trace [0|1]] [--repeat N] [--smoke]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let run, args =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: rest -> (true, rest)
    | rest -> (false, rest)
  in
  let only = ref [] and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and repeat = ref 1 and smoke = ref false in
  let int_arg s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> only := !only @ [ w ]; parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0.0 -> seconds := x
      | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--repeat" :: n :: rest -> repeat := max 1 (int_arg n); parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | _ -> usage ()
  in
  parse args;
  List.iter
    (fun n -> if not (List.exists (fun w -> w.name = n) workloads) then usage ())
    !only;
  if run then
    run_all ~only:!only ~seed:!seed ~seconds:!seconds
      ~modes:(if !smoke then [ false; true ] else [ !trace ])
      ~repeat:!repeat ~smoke:!smoke
  else
    match !only with
    | [ name ] ->
      let w = List.find (fun w -> w.name = name) workloads in
      let ctx, problems =
        measure w ~seed:!seed ~seconds:!seconds ~traced:!trace ~smoke:!smoke
      in
      exit (if report w ~seed:!seed ~traced:!trace ctx problems then 0 else 1)
    | _ -> usage ()
