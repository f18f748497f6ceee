(* Macro bench: offered-load sweep through the open-loop traffic harness.

   Each point replays a seeded arrival schedule (same seed, same users,
   same mix — only the offered rate changes) through the typed-port
   request path and reads the request-span histograms back out: p50/p99/
   p999 end-to-end latency, achieved throughput, and the saturation knee
   — the highest offered load the engine still absorbs at >= 95%
   delivery.  The sweep runs on three engines: one 4-processor machine,
   a 3-node cluster on the sequential engine, and the same cluster on
   the 2-domain parallel engine (whose event streams must be
   byte-identical to sequential — the cross-engine gate rides inside the
   bench).

   Latency here is *virtual-time* latency: scheduled arrival to service
   completion, deterministic per seed.  Host wall-clock never enters the
   numbers, so BENCH_macro.json is reproducible bit-for-bit on any
   machine.  `--assert-sane` gates schema-level invariants (everything
   completed, p99 >= p50, determinism held) for CI. *)

module K = I432_kernel
module Obs = I432_obs
module Net = I432_net
module Load = I432_load
module U = I432_util
module St = I432_store.Store
module Scenario = I432_store.Scenario
module Ckpt = I432_store.Checkpoint

(* A verifier's outcome, kept whole so a failure prints its first
   divergent line; the JSON records only whether it held. *)
type verdict = (unit, Scenario.divergence) result

let holds (v : verdict) = Result.is_ok v

let verdict ?(ok = "identical") (v : verdict) =
  match v with Ok () -> ok | Error d -> "DIVERGED: " ^ Scenario.to_string d

(* ------------------------------------------------------------------ *)
(* Sweep shape                                                         *)
(* ------------------------------------------------------------------ *)

let seed = 42
let profile = Load.Mix.Typical
let pattern = Load.Arrival.Poisson

(* Per-point request volume: enough for stable tail quantiles in full
   mode, enough for a real queue to form in smoke mode. *)
let spec_for ~smoke ~rate_rps =
  if smoke then
    {
      Load.Arrival.seed;
      users = 20;
      sessions = 1;
      requests_per_session = 3;
      rate_rps;
      pattern;
      profile;
    }
  else
    {
      Load.Arrival.seed;
      users = 100;
      sessions = 2;
      requests_per_session = 5;
      rate_rps;
      pattern;
      profile;
    }

(* Offered-load points, requests per virtual second.  The typical mix
   costs ~95 us of pure service per request; a 4-processor machine
   saturates in the low tens of thousands rps, so the grid brackets the
   knee from well under to well over. *)
let rates ~smoke =
  if smoke then [ 2_000.0; 8_000.0; 30_000.0 ]
  else [ 2_000.0; 5_000.0; 10_000.0; 20_000.0; 40_000.0 ]

type point = {
  pt_rate_rps : float;  (* nominal offered load *)
  pt_offered_rps : float;  (* realized by the drawn schedule *)
  pt_achieved_rps : float;
  pt_requests : int;
  pt_completed : int;
  pt_p50_us : float;
  pt_p99_us : float;
  pt_p999_us : float;
  pt_last_done_ms : float;
  pt_classes : (string * int * float * float) list;
      (* name, count, p50 us, p99 us *)
}

type engine_sweep = {
  es_engine : string;  (* "machine" | "cluster-seq" | "cluster-par2" *)
  es_nodes : int;  (* 1 for the single machine *)
  es_processors : int;
  es_workers : int;
  es_points : point list;
  es_knee_rps : float;  (* highest offered load absorbed at >= 95% *)
}

let us ns = ns /. 1e3

let point_of_outcome ~rate_rps (o : Load.Loadgen.outcome) =
  let classes =
    Array.to_list
      (Array.map
         (fun cls ->
           let count =
             match
               Obs.Metrics.find_log_histogram o.Load.Loadgen.o_metrics
                 (Obs.Span.latency_name cls)
             with
             | Some lh -> lh.Obs.Metrics.l_hist.I432_util.Stats.lh_count
             | None -> 0
           in
           ( cls,
             count,
             us (Load.Loadgen.class_quantile o ~cls 0.5),
             us (Load.Loadgen.class_quantile o ~cls 0.99) ))
         Load.Mix.names)
  in
  {
    pt_rate_rps = rate_rps;
    pt_offered_rps = Load.Arrival.offered_rps o.Load.Loadgen.o_requests;
    pt_achieved_rps = Load.Loadgen.achieved_rps o;
    pt_requests = Array.length o.Load.Loadgen.o_requests;
    pt_completed = o.Load.Loadgen.o_completed;
    pt_p50_us = us (Load.Loadgen.quantile o 0.5);
    pt_p99_us = us (Load.Loadgen.quantile o 0.99);
    pt_p999_us = us (Load.Loadgen.quantile o 0.999);
    pt_last_done_ms = float_of_int o.Load.Loadgen.o_last_done_ns /. 1e6;
    pt_classes = classes;
  }

(* The saturation knee: the highest offered point the engine still
   delivered at >= 95% of the realized offered rate.  Above the knee the
   open-loop backlog grows without bound and achieved throughput pins at
   the engine's capacity. *)
let knee_of points =
  List.fold_left
    (fun acc p ->
      if p.pt_achieved_rps >= 0.95 *. p.pt_offered_rps then
        max acc p.pt_offered_rps
      else acc)
    0.0 points

(* ------------------------------------------------------------------ *)
(* Engines                                                             *)
(* ------------------------------------------------------------------ *)

let machine_processors = 4
let cluster_nodes = 3
let cluster_processors = 2

(* One engine's sweep: the same seeded schedule at every offered rate. *)
let sweep ~smoke ~label ~nodes ~processors run =
  let points =
    List.map
      (fun rate_rps ->
        point_of_outcome ~rate_rps (run (spec_for ~smoke ~rate_rps)))
      (rates ~smoke)
  in
  {
    es_engine = label;
    es_nodes = nodes;
    es_processors = processors;
    es_workers = 2 * processors;
    es_points = points;
    es_knee_rps = knee_of points;
  }

let sweep_machine ~smoke =
  sweep ~smoke ~label:"machine" ~nodes:1 ~processors:machine_processors
    (fun spec ->
      Load.Loadgen.run_machine ~processors:machine_processors ~spec ())

let sweep_cluster ~smoke ~engine ~label =
  sweep ~smoke ~label ~nodes:cluster_nodes ~processors:cluster_processors
    (fun spec ->
      Load.Loadgen.run_cluster ~nodes:cluster_nodes
        ~processors:cluster_processors ~engine ~spec ())

(* ------------------------------------------------------------------ *)
(* Determinism gates                                                   *)
(* ------------------------------------------------------------------ *)

type determinism = {
  det_same_seed : verdict;  (* two fresh machine runs, identical streams *)
  det_par_equals_seq : verdict;  (* cluster Par 2 == cluster Seq streams *)
}

let measure_determinism ~smoke =
  let rate_rps = List.nth (rates ~smoke) 1 in
  let spec = spec_for ~smoke ~rate_rps in
  let machine =
    Scenario.make ~name:"machine" ~streams:Load.Loadgen.streams (fun () ->
        Load.Loadgen.run_machine ~processors:machine_processors
          ~trace_level:Obs.Tracer.Events ~spec ())
  in
  let cluster engine =
    Scenario.make ~name:"cluster" ~streams:Load.Loadgen.streams (fun () ->
        Load.Loadgen.run_cluster ~nodes:cluster_nodes
          ~processors:cluster_processors ~engine ~trace_level:Obs.Tracer.Events
          ~spec ())
  in
  {
    det_same_seed = Scenario.same_seed machine;
    det_par_equals_seq = Scenario.equal_engines cluster (Net.Cluster.Par 2);
  }

(* ------------------------------------------------------------------ *)
(* Chaos at the knee                                                   *)
(* ------------------------------------------------------------------ *)

(* Scratch journals live in the shared scratch directory under _build; a
   fresh path per boot keeps replayed Journal_append offsets identical to
   the original's.  Each section deletes its journals when it finishes:
   a full run would otherwise leave hundreds of MB behind. *)
let scratch_journals = ref []

let fresh_scratch_journal () =
  let p =
    St.scratch_path
      (Printf.sprintf "macro_%d.journal" (List.length !scratch_journals + 1))
  in
  St.fresh_path p;
  scratch_journals := p :: !scratch_journals;
  p

let remove_scratch_journals () =
  List.iter St.remove_files !scratch_journals;
  scratch_journals := []

(* Whole-node failure under serving load: drive the cluster at its
   saturation knee, kill the serving node mid-schedule, splice its
   checkpoint replay back in after the outage, and read completion and
   latency per phase (before the kill / during the outage / after the
   rejoin) off the request events.  The phase of a request is where its
   *scheduled arrival* falls, so "during" is exactly the traffic that had
   to ride the ARQ across the dead server. *)

type chaos_phase = {
  cp_phase : string;  (* "before" | "during" | "after" *)
  cp_requests : int;
  cp_completed : int;
  cp_p50_us : float;
  cp_p99_us : float;
  cp_p999_us : float;
}

type chaos_run = {
  cr_rate_rps : float;  (* nominal offered load (the knee point) *)
  cr_kill_at_ms : float;
  cr_restart_at_ms : float;
  cr_requests : int;
  cr_completed : int;
  cr_dead_letters : int;
  cr_restarts : int;
  cr_phases : chaos_phase list;
  cr_deterministic : verdict;  (* two staged runs, identical streams *)
}

(* Nearest-rank quantile over the exact (sorted) latency list; phase
   populations are small enough that a histogram would only blur them. *)
let exact_quantile = U.Stats.nearest_rank ~empty:0.0

(* Kill at ~40% of the schedule horizon, restart an eighth of the horizon
   later: the outage sits squarely inside the arrival stream and stays
   far below the ARQ give-up time, so nothing dead-letters — every
   in-flight request is retransmitted into the rejoined server. *)
let measure_chaos ~smoke ~rate_rps =
  let spec = spec_for ~smoke ~rate_rps in
  let reqs = Load.Arrival.generate spec in
  let horizon = Load.Arrival.horizon_ns reqs in
  let quantum = 100_000 in
  let staged =
    Scenario.make ~name:"chaos-at-knee" ~streams:Load.Loadgen.streams
      (fun () ->
        let store = St.open_ (fresh_scratch_journal ()) in
        let kill_ns = max 1 (horizon * 2 / 5 / quantum) * quantum in
        let restart_ns = Some (kill_ns + max (10 * quantum) (horizon / 8)) in
        let rejoin = { Ckpt.store; ckpt_ns = kill_ns; kill_ns; restart_ns } in
        Fun.protect
          ~finally:(fun () -> St.close store)
          (fun () ->
            Load.Loadgen.run_cluster ~nodes:cluster_nodes
              ~processors:cluster_processors ~engine:Net.Cluster.Seq
              ~trace_level:Obs.Tracer.Events ~rejoin ~spec ()))
  in
  let o = Scenario.play staged in
  let kill_at, restart_at =
    match o.Load.Loadgen.o_chaos with
    | Some (kill, Some restart) -> (kill, restart)
    | Some (_, None) | None -> (0, 0)
  in
  let done_ns = Hashtbl.create 512 in
  List.iter
    (fun (e : Obs.Event.t) ->
      Hashtbl.replace done_ns e.Obs.Event.a e.Obs.Event.b)
    (Load.Loadgen.req_done o.Load.Loadgen.o_machines);
  let phase_of at =
    if at < kill_at then "before"
    else if at < restart_at then "during"
    else "after"
  in
  let phase name =
    let mine =
      List.filter
        (fun (r : Load.Arrival.request) ->
          String.equal (phase_of r.Load.Arrival.r_at_ns) name)
        (Array.to_list reqs)
    in
    let lats =
      List.filter_map
        (fun (r : Load.Arrival.request) ->
          Option.map float_of_int
            (Hashtbl.find_opt done_ns r.Load.Arrival.r_id))
        mine
    in
    let sorted = Array.of_list (List.sort compare lats) in
    {
      cp_phase = name;
      cp_requests = List.length mine;
      cp_completed = Array.length sorted;
      cp_p50_us = us (exact_quantile sorted 0.5);
      cp_p99_us = us (exact_quantile sorted 0.99);
      cp_p999_us = us (exact_quantile sorted 0.999);
    }
  in
  let deterministic = Scenario.same_seed ~first:o staged in
  remove_scratch_journals ();
  {
    cr_rate_rps = rate_rps;
    cr_kill_at_ms = float_of_int kill_at /. 1e6;
    cr_restart_at_ms = float_of_int restart_at /. 1e6;
    cr_requests = Array.length reqs;
    cr_completed = o.Load.Loadgen.o_completed;
    cr_dead_letters = Obs.Metrics.count o.Load.Loadgen.o_metrics "node.dead_letters";
    cr_restarts = Obs.Metrics.count o.Load.Loadgen.o_metrics "node.restarts";
    cr_phases = [ phase "before"; phase "during"; phase "after" ];
    cr_deterministic = deterministic;
  }

(* ------------------------------------------------------------------ *)
(* Multiuser swap sweep                                                *)
(* ------------------------------------------------------------------ *)

(* The virtual-memory tier at scale: a memory-bound arrival schedule
   (--mix memory shape) drives random touches against a live object
   population far larger than the resident-set RAM envelope, with every
   evicted segment image on a store-backed swap device.  The sweep holds
   the population fixed — a million 32-byte objects in full mode — and
   shrinks the envelope (1/2, 1/4, 1/8 of the working set), reading the
   fault rate per touch (swap_fault) and the device throughput in
   virtual time (swap_tp) at each point.  Every read verifies the
   payload written at allocation, so a corrupt image fails the bench,
   and the determinism gates re-run a reduced population — including a
   kill mid-swap, checkpoint, restore-by-replay pass that must resume
   bit-identically. *)

module System = Imax.System

let swap_object_bytes = 32
let swap_objects ~smoke = if smoke then 20_000 else 1_000_000
let swap_touches ~smoke = if smoke then 8 else 32  (* per request *)
let swap_fractions = [ 2; 4; 8 ]  (* envelope = working set / fraction *)
let swap_seed = 1009

let swap_spec ~smoke =
  if smoke then
    {
      Load.Arrival.seed = swap_seed;
      users = 8;
      sessions = 1;
      requests_per_session = 4;
      rate_rps = 4_000.0;
      pattern;
      profile = Load.Mix.Memory_bound;
    }
  else
    {
      Load.Arrival.seed = swap_seed;
      users = 32;
      sessions = 2;
      requests_per_session = 8;
      rate_rps = 8_000.0;
      pattern;
      profile = Load.Mix.Memory_bound;
    }

type swap_point = {
  sp_fraction : int;
  sp_ram_bytes : int;
  sp_requests : int;
  sp_tally : Load.Working_set.tally;
  sp_fault_rate : float;  (* faults per touch: the swap_fault key *)
  sp_tp_mb_s : float;  (* device MB moved per virtual second: swap_tp *)
  sp_resident_bytes : int;  (* at halt; must sit inside the envelope *)
  sp_elapsed_ms : float;
}

type swap_sweep = {
  ss_objects : int;
  ss_object_bytes : int;
  ss_policy : string;
  ss_points : swap_point list;
  ss_deterministic : verdict;  (* same-seed streams identical *)
  ss_restore_identical : verdict;  (* kill-mid-swap restore == straight run *)
}

(* One swap run's boot (reused by checkpoint restore): each scheduled
   user touches [touches] objects per request at its arrival instants,
   then computes the request's CPI-mix cycles.  The caller closes the
   booted store. *)
let boot_swap ~objects ~ram_bytes ~touches ~spec =
  let by_user = Array.make spec.Load.Arrival.users [] in
  Array.fold_right
    (fun (r : Load.Arrival.request) () ->
      let cycles = Load.Mix.cycles (Load.Mix.of_code r.r_cls) in
      by_user.(r.r_user) <- (r.r_at_ns, touches, cycles) :: by_user.(r.r_user))
    (Load.Arrival.generate spec) ();
  let users = List.mapi (fun u rs -> (u, rs)) (Array.to_list by_user) in
  fun () ->
    Load.Working_set.boot
      ~config:
        {
          System.default_config with
          System.processors = machine_processors;
          memory_manager = System.Swapping_lru;
          trace_level = Obs.Tracer.Events;
        }
      ~journal:(fresh_scratch_journal ()) ~sync_every:1024 ~ram_bytes ~objects
      ~object_bytes:swap_object_bytes ~seed:swap_seed ~users

let measure_swap_point ~smoke ~fraction =
  let objects = swap_objects ~smoke in
  let ws = objects * swap_object_bytes in
  let ram_bytes = max swap_object_bytes (ws / fraction) in
  let spec = swap_spec ~smoke in
  let w =
    boot_swap ~objects ~ram_bytes ~touches:(swap_touches ~smoke) ~spec ()
  in
  let report = K.Machine.run (Load.Working_set.machine w) in
  let t = Load.Working_set.tally w in
  St.close (Load.Working_set.store w);
  remove_scratch_journals ();
  let dev_bytes =
    match t.Load.Working_set.device with
    | Some (_, ds) ->
      ds.I432_vm.Swap_device.bytes_written + ds.I432_vm.Swap_device.bytes_read
    | None -> 0
  in
  let elapsed_s = float_of_int report.K.Machine.elapsed_ns /. 1e9 in
  {
    sp_fraction = fraction;
    sp_ram_bytes = ram_bytes;
    sp_requests = Load.Arrival.total spec;
    sp_tally = t;
    sp_fault_rate =
      (if t.touches = 0 then 0.0
       else float_of_int t.faults /. float_of_int t.touches);
    sp_tp_mb_s =
      (if elapsed_s <= 0.0 then 0.0
       else float_of_int dev_bytes /. 1e6 /. elapsed_s);
    sp_resident_bytes =
      (match t.resident with Some (_, b) -> b | None -> 0);
    sp_elapsed_ms = float_of_int report.K.Machine.elapsed_ns /. 1e6;
  }

(* The determinism gates always run the reduced population: same-seed
   stream equality, then kill mid-swap / checkpoint / restore-by-replay
   with the resumed stream compared against the straight run's. *)
let measure_swap_determinism () =
  let objects = 20_000 in
  let ws = objects * swap_object_bytes in
  let ram_bytes = ws / 4 in
  let spec = swap_spec ~smoke:true in
  let boot_ws =
    boot_swap ~objects ~ram_bytes ~touches:(swap_touches ~smoke:true) ~spec
  in
  let boots = ref [] in
  let boot () =
    let w = boot_ws () in
    boots := w :: !boots;
    Load.Working_set.machine w
  in
  let swap = Scenario.machine ~name:"swap" boot in
  let m1 = boot () in
  ignore (K.Machine.run m1);
  let expected = swap.Scenario.streams (Scenario.Machine m1) in
  let same_seed = Scenario.same_seed ~first:(Scenario.Machine m1) swap in
  let ckpt_store = St.open_ (fresh_scratch_journal ()) in
  let restored =
    Scenario.kill_restore ~expected swap ~store:ckpt_store ~key:"swap"
      ~bound:(Ckpt.Virtual_ns (max 1 (K.Machine.now m1 / 2)))
  in
  St.close ckpt_store;
  List.iter (fun w -> St.close (Load.Working_set.store w)) !boots;
  remove_scratch_journals ();
  (same_seed, Result.map ignore restored)

let measure_swap ~smoke =
  let points =
    List.map (fun fraction -> measure_swap_point ~smoke ~fraction)
      swap_fractions
  in
  let same_seed, restore_identical = measure_swap_determinism () in
  {
    ss_objects = swap_objects ~smoke;
    ss_object_bytes = swap_object_bytes;
    ss_policy = System.memory_choice_to_string System.Swapping_lru;
    ss_points = points;
    ss_deterministic = same_seed;
    ss_restore_identical = restore_identical;
  }

(* ------------------------------------------------------------------ *)
(* Transactional banking                                               *)
(* ------------------------------------------------------------------ *)

(* The lib/txn macro scenario: token-guarded accounts driven by a seeded
   transfer mix where every transfer is an atomic two-token acquire
   followed by a keyed commit.  The bench reads commit-latency quantiles
   and the abort rate off the straight run, then re-proves the three
   invariants the subsystem sells — conservation under a random §8 fault
   plan, exactly-once delivery across a kill/rejoin whose rollback
   window forces the audit NIC to dedup re-sent completions, and
   event-sourced history replaying every account to its live balance. *)

module Fi = I432_fi.Fi
module Banking = I432_txn.Banking
module History = I432_txn.History

type banking_run = {
  bk_accounts : int;
  bk_transfers : int;
  bk_workers : int;
  bk_committed : int;
  bk_aborted : int;
  bk_completions : int;
  bk_dup_completions : int;
  bk_conserved : bool;
  bk_sound : bool;  (* Banking.violations: the settled-run verdict *)
  bk_abort_rate : float;
  bk_p50_us : float;  (* request-to-completion, virtual time *)
  bk_p99_us : float;
  bk_p999_us : float;
  bk_history_ok : bool;  (* every account replays to its live balance *)
  bk_deterministic : verdict;  (* same-seed event streams identical *)
  bk_chaos_sound : bool;  (* random fault plan: conserved + exactly-once *)
  bk_kill_sound : bool;  (* cluster kill/rejoin: conserved + exactly-once *)
  bk_dup_drops : int;  (* duplicate frames the audit NIC dropped *)
}

let banking_seed = 23
let banking_workers = 4
let banking_accounts ~smoke = if smoke then 4 else 8
let banking_transfers ~smoke = if smoke then 48 else 240

let measure_banking ~smoke =
  let accounts = banking_accounts ~smoke in
  let transfers = banking_transfers ~smoke in
  let straight () =
    (* Scratch journals share the swap sweep's directory. *)
    let store = St.open_ (fresh_scratch_journal ()) in
    let m, history, r =
      Banking.run ~workers:banking_workers ~history_store:store ~accounts
        ~transfers ~seed:banking_seed ()
    in
    let ok = History.diverged (Option.get history) = [] in
    St.close store;
    (m, r, ok)
  in
  let banking =
    Scenario.make ~name:"banking"
      ~streams:(fun (m, _, _) -> [ ("events", Scenario.event_lines m) ])
      straight
  in
  let ((_, r, history_ok) as first) = Scenario.play banking in
  let deterministic = Scenario.same_seed ~first banking in
  let lats =
    Array.of_list
      (List.sort compare (List.map float_of_int r.Banking.latencies))
  in
  let chaos_sound =
    let plan =
      Fi.random ~seed:banking_seed ~horizon_ns:3_000_000 ~processors:2
        ~count:4 ~cpu_faults:0
    in
    let _, _, rc =
      Banking.run ~processors:2 ~workers:banking_workers ~accounts ~transfers
        ~seed:banking_seed ~plan ()
    in
    (* A transient can kill a teller outright, losing its remaining
       transfers — so unlike the fault-free legs the chaos gate asks
       only for atomicity: conservation and exactly-once completion of
       whatever did commit. *)
    Banking.atomic rc
  in
  let kill_sound, dup_drops =
    let store = St.open_ (fresh_scratch_journal ()) in
    let cr =
      Banking.run_cluster ~workers:banking_workers
        ~rejoin:(Banking.rollback_window store) ~accounts ~transfers
        ~seed:banking_seed ()
    in
    St.close store;
    remove_scratch_journals ();
    ( Banking.violations cr.Banking.res = [],
      Net.Cluster.txn_dup_drops cr.Banking.cluster )
  in
  {
    bk_accounts = accounts;
    bk_transfers = transfers;
    bk_workers = banking_workers;
    bk_committed = r.Banking.committed;
    bk_aborted = r.Banking.aborted;
    bk_completions = r.Banking.completions;
    bk_dup_completions = r.Banking.dup_completions;
    bk_conserved = Banking.conserved r;
    bk_sound = Banking.violations r = [];
    bk_abort_rate =
      (if transfers = 0 then 0.0
       else float_of_int r.Banking.aborted /. float_of_int transfers);
    bk_p50_us = us (exact_quantile lats 0.5);
    bk_p99_us = us (exact_quantile lats 0.99);
    bk_p999_us = us (exact_quantile lats 0.999);
    bk_history_ok = history_ok;
    bk_deterministic = deterministic;
    bk_chaos_sound = chaos_sound;
    bk_kill_sound = kill_sound;
    bk_dup_drops = dup_drops;
  }

(* ------------------------------------------------------------------ *)
(* Run + report                                                        *)
(* ------------------------------------------------------------------ *)

type result = {
  r_mode : string;
  r_sweeps : engine_sweep list;
  r_determinism : determinism;
  r_chaos : chaos_run;
  r_swap : swap_sweep;
  r_banking : banking_run;
}

let measure ~smoke () =
  let sweeps =
    [
      sweep_machine ~smoke;
      sweep_cluster ~smoke ~engine:Net.Cluster.Seq ~label:"cluster-seq";
      sweep_cluster ~smoke ~engine:(Net.Cluster.Par 2) ~label:"cluster-par2";
    ]
  in
  (* The chaos scenario runs at the cluster's serving knee: the highest
     nominal rate the sequential cluster still absorbed at >= 95%. *)
  let knee_rate =
    let es =
      List.find (fun es -> String.equal es.es_engine "cluster-seq") sweeps
    in
    List.fold_left
      (fun acc p ->
        if p.pt_achieved_rps >= 0.95 *. p.pt_offered_rps then
          max acc p.pt_rate_rps
        else acc)
      (List.hd (rates ~smoke))
      es.es_points
  in
  {
    r_mode = (if smoke then "smoke" else "full");
    r_sweeps = sweeps;
    r_determinism = measure_determinism ~smoke;
    r_chaos = measure_chaos ~smoke ~rate_rps:knee_rate;
    r_swap = measure_swap ~smoke;
    r_banking = measure_banking ~smoke;
  }

let print_summary r =
  List.iter
    (fun es ->
      Printf.printf "-- %s (%d node%s x %dp, %d workers) --\n" es.es_engine
        es.es_nodes
        (if es.es_nodes = 1 then "" else "s")
        es.es_processors es.es_workers;
      Printf.printf "  %10s %10s %10s %9s %9s %9s\n" "offered" "realized"
        "achieved" "p50us" "p99us" "p999us";
      List.iter
        (fun p ->
          Printf.printf "  %10.0f %10.0f %10.0f %9.1f %9.1f %9.1f\n"
            p.pt_rate_rps p.pt_offered_rps p.pt_achieved_rps p.pt_p50_us
            p.pt_p99_us p.pt_p999_us)
        es.es_points;
      Printf.printf "  saturation knee ~%.0f rps\n" es.es_knee_rps)
    r.r_sweeps;
  Printf.printf
    "determinism: same-seed %s, par2-vs-seq streams %s\n"
    (verdict r.r_determinism.det_same_seed)
    (verdict r.r_determinism.det_par_equals_seq);
  let c = r.r_chaos in
  Printf.printf
    "-- chaos at the knee (cluster-seq, %.0f rps) --\n\
    \  server killed at %.2f ms, rejoined at %.2f ms; %d/%d completed, %d \
     dead-letter(s), %d restart(s)\n"
    c.cr_rate_rps c.cr_kill_at_ms c.cr_restart_at_ms c.cr_completed
    c.cr_requests c.cr_dead_letters c.cr_restarts;
  Printf.printf "  %8s %9s %9s %9s %9s %9s\n" "phase" "requests" "done"
    "p50us" "p99us" "p999us";
  List.iter
    (fun p ->
      Printf.printf "  %8s %9d %9d %9.1f %9.1f %9.1f\n" p.cp_phase
        p.cp_requests p.cp_completed p.cp_p50_us p.cp_p99_us p.cp_p999_us)
    c.cr_phases;
  Printf.printf "  chaos determinism: %s\n"
    (verdict ~ok:"identical across staged re-runs" c.cr_deterministic);
  let s = r.r_swap in
  Printf.printf
    "-- multiuser swap (%s, %d objects x %d B = %d KB working set) --\n"
    s.ss_policy s.ss_objects s.ss_object_bytes
    (s.ss_objects * s.ss_object_bytes / 1024);
  Printf.printf "  %9s %9s %9s %10s %10s %11s %9s\n" "envelope" "touches"
    "faults" "swap_fault" "ins/outs" "swap_tp" "elapsed";
  List.iter
    (fun p ->
      Printf.printf "  %7dKB %9d %9d %10.3f %4d/%-6d %9.2fMB/s %7.1fms\n"
        (p.sp_ram_bytes / 1024) p.sp_tally.touches p.sp_tally.faults
        p.sp_fault_rate p.sp_tally.swap_ins p.sp_tally.swap_outs p.sp_tp_mb_s
        p.sp_elapsed_ms)
    s.ss_points;
  Printf.printf "  swap determinism: same-seed %s, kill-mid-swap restore %s\n"
    (verdict s.ss_deterministic)
    (verdict s.ss_restore_identical);
  let b = r.r_banking in
  Printf.printf
    "-- transactional banking (%d accounts, %d transfers, %d tellers) --\n\
    \  committed=%d aborted=%d completions=%d dups=%d abort_rate=%.3f %s\n\
    \  completion latency: p50 %.1f us, p99 %.1f us, p999 %.1f us\n\
    \  history replay %s, same-seed streams %s\n\
    \  chaos run %s; kill/rejoin %s with %d duplicate frame(s) dropped\n"
    b.bk_accounts b.bk_transfers b.bk_workers b.bk_committed b.bk_aborted
    b.bk_completions b.bk_dup_completions b.bk_abort_rate
    (if b.bk_conserved then "conserved" else "NOT CONSERVED")
    b.bk_p50_us b.bk_p99_us b.bk_p999_us
    (if b.bk_history_ok then "ok" else "FAILED")
    (verdict b.bk_deterministic)
    (if b.bk_chaos_sound then "sound" else "UNSOUND")
    (if b.bk_kill_sound then "exactly-once" else "UNSOUND")
    b.bk_dup_drops

(* Every point completed everything, quantiles are ordered, every knee
   found at least one absorbed point, determinism held — and the chaos
   run completed every request across the kill/rejoin with its streams
   identical on re-run. *)
let check r =
  holds r.r_determinism.det_same_seed
  && holds r.r_determinism.det_par_equals_seq
  && List.for_all
       (fun es ->
         es.es_knee_rps > 0.0
         && List.for_all
              (fun p ->
                p.pt_completed = p.pt_requests
                && p.pt_p50_us > 0.0
                && p.pt_p99_us >= p.pt_p50_us
                && p.pt_p999_us >= p.pt_p99_us)
              es.es_points)
       r.r_sweeps
  && (let c = r.r_chaos in
      holds c.cr_deterministic
      && c.cr_completed = c.cr_requests
      && c.cr_restarts >= 1
      && List.for_all
           (fun p ->
             p.cp_completed = p.cp_requests
             && (p.cp_completed = 0
                 || (p.cp_p99_us >= p.cp_p50_us && p.cp_p999_us >= p.cp_p99_us)))
           c.cr_phases)
  &&
  (* The swap sweep: everything completed, no corrupt reads, the
     resident set held inside every envelope, the fault rate grows (or
     holds) as the envelope shrinks, both swap keys are live, and the
     determinism gates — including kill-mid-swap restore — held. *)
  let s = r.r_swap in
  holds s.ss_deterministic && holds s.ss_restore_identical
  && List.for_all
       (fun p ->
         p.sp_tally.completed = p.sp_requests
         && p.sp_tally.corrupt = 0
         && p.sp_tally.touches > 0
         && p.sp_tally.faults > 0
         && p.sp_fault_rate > 0.0
         && p.sp_fault_rate <= 1.0
         && p.sp_tp_mb_s > 0.0
         && p.sp_resident_bytes <= p.sp_ram_bytes)
       s.ss_points
  && (let rec nondecreasing = function
        | a :: (b : swap_point) :: rest ->
          a.sp_fault_rate <= b.sp_fault_rate +. 1e-9
          && nondecreasing (b :: rest)
        | _ -> true
      in
      nondecreasing s.ss_points)
  &&
  (* Banking: the straight run sound with ordered quantiles, history
     replay and same-seed determinism held, the chaos run sound, and
     the kill/rejoin exactly-once with the NIC provably deduping. *)
  let b = r.r_banking in
  b.bk_sound
  && b.bk_committed > 0
  && b.bk_p50_us > 0.0
  && b.bk_p99_us >= b.bk_p50_us
  && b.bk_p999_us >= b.bk_p99_us
  && b.bk_history_ok && holds b.bk_deterministic && b.bk_chaos_sound
  && b.bk_kill_sound && b.bk_dup_drops > 0

let to_json r =
  let open Json_out in
  let sp = spec_for ~smoke:(r.r_mode = "smoke") ~rate_rps:0.0 in
  Obj
    [
      ("schema", Str "imax432-bench-macro/1");
      ("mode", Str r.r_mode);
      ( "spec",
        Obj
          [
            ("seed", Int sp.Load.Arrival.seed);
            ("users", Int sp.Load.Arrival.users);
            ("sessions", Int sp.Load.Arrival.sessions);
            ("requests_per_session", Int sp.Load.Arrival.requests_per_session);
            ("pattern", Str (Load.Arrival.pattern_name sp.Load.Arrival.pattern));
            ("profile", Str (Load.Mix.profile_name sp.Load.Arrival.profile));
          ] );
      ( "service_ns",
        Obj
          (Array.to_list
             (Array.map
                (fun cls ->
                  (Load.Mix.name cls, Int (Load.Mix.service_ns cls)))
                Load.Mix.all)) );
      ("mean_service_ns", Int (Load.Mix.mean_service_ns profile));
      ( "units",
        Obj
          [
            ("rps", Str "requests per virtual second");
            ( "latency_us",
              Str "virtual-time scheduled-arrival to completion, microseconds"
            );
          ] );
      ( "determinism",
        Obj
          [
            ("same_seed_identical", Bool (holds r.r_determinism.det_same_seed));
            ( "par2_equals_seq",
              Bool (holds r.r_determinism.det_par_equals_seq) );
          ] );
      ( "chaos_at_knee",
        Obj
          [
            ("engine", Str "cluster-seq");
            ("rate_rps", Float r.r_chaos.cr_rate_rps);
            ("kill_at_ms", Float r.r_chaos.cr_kill_at_ms);
            ("restart_at_ms", Float r.r_chaos.cr_restart_at_ms);
            ("requests", Int r.r_chaos.cr_requests);
            ("completed", Int r.r_chaos.cr_completed);
            ("dead_letters", Int r.r_chaos.cr_dead_letters);
            ("restarts", Int r.r_chaos.cr_restarts);
            ("deterministic", Bool (holds r.r_chaos.cr_deterministic));
            ( "phases",
              Arr
                (List.map
                   (fun p ->
                     Obj
                       [
                         ("phase", Str p.cp_phase);
                         ("requests", Int p.cp_requests);
                         ("completed", Int p.cp_completed);
                         ("p50_us", Float p.cp_p50_us);
                         ("p99_us", Float p.cp_p99_us);
                         ("p999_us", Float p.cp_p999_us);
                       ])
                   r.r_chaos.cr_phases) );
          ] );
      ( "swap",
        Obj
          [
            ("policy", Str r.r_swap.ss_policy);
            ("objects", Int r.r_swap.ss_objects);
            ("object_bytes", Int r.r_swap.ss_object_bytes);
            ( "working_set_bytes",
              Int (r.r_swap.ss_objects * r.r_swap.ss_object_bytes) );
            ("same_seed_identical", Bool (holds r.r_swap.ss_deterministic));
            ( "kill_mid_swap_restore_identical",
              Bool (holds r.r_swap.ss_restore_identical) );
            ( "points",
              Arr
                (List.map
                   (fun p ->
                     Obj
                       [
                         ("envelope_fraction", Int p.sp_fraction);
                         ("ram_bytes", Int p.sp_ram_bytes);
                         ("requests", Int p.sp_requests);
                         ("completed", Int p.sp_tally.completed);
                         ("touches", Int p.sp_tally.touches);
                         ("faults", Int p.sp_tally.faults);
                         ("swap_ins", Int p.sp_tally.swap_ins);
                         ("swap_outs", Int p.sp_tally.swap_outs);
                         ("corrupt_reads", Int p.sp_tally.corrupt);
                         ("swap_fault", Float p.sp_fault_rate);
                         ("swap_tp", Float p.sp_tp_mb_s);
                         ("resident_bytes", Int p.sp_resident_bytes);
                         ("elapsed_ms", Float p.sp_elapsed_ms);
                       ])
                   r.r_swap.ss_points) );
          ] );
      ( "banking",
        Obj
          [
            ("accounts", Int r.r_banking.bk_accounts);
            ("transfers", Int r.r_banking.bk_transfers);
            ("workers", Int r.r_banking.bk_workers);
            ("committed", Int r.r_banking.bk_committed);
            ("aborted", Int r.r_banking.bk_aborted);
            ("completions", Int r.r_banking.bk_completions);
            ("dup_completions", Int r.r_banking.bk_dup_completions);
            ("conserved", Bool r.r_banking.bk_conserved);
            ("abort_rate", Float r.r_banking.bk_abort_rate);
            ("p50_us", Float r.r_banking.bk_p50_us);
            ("p99_us", Float r.r_banking.bk_p99_us);
            ("p999_us", Float r.r_banking.bk_p999_us);
            ("history_replay_ok", Bool r.r_banking.bk_history_ok);
            ("same_seed_identical", Bool (holds r.r_banking.bk_deterministic));
            ("chaos_sound", Bool r.r_banking.bk_chaos_sound);
            ("kill_rejoin_exactly_once", Bool r.r_banking.bk_kill_sound);
            ("nic_dup_drops", Int r.r_banking.bk_dup_drops);
          ] );
      ( "engines",
        Arr
          (List.map
             (fun es ->
               Obj
                 [
                   ("engine", Str es.es_engine);
                   ("nodes", Int es.es_nodes);
                   ("processors", Int es.es_processors);
                   ("workers", Int es.es_workers);
                   ("knee_rps", Float es.es_knee_rps);
                   ( "points",
                     Arr
                       (List.map
                          (fun p ->
                            Obj
                              [
                                ("rate_rps", Float p.pt_rate_rps);
                                ("offered_rps", Float p.pt_offered_rps);
                                ("achieved_rps", Float p.pt_achieved_rps);
                                ("requests", Int p.pt_requests);
                                ("completed", Int p.pt_completed);
                                ("p50_us", Float p.pt_p50_us);
                                ("p99_us", Float p.pt_p99_us);
                                ("p999_us", Float p.pt_p999_us);
                                ("last_done_ms", Float p.pt_last_done_ms);
                                ( "classes",
                                  Arr
                                    (List.map
                                       (fun (name, count, p50, p99) ->
                                         Obj
                                           [
                                             ("class", Str name);
                                             ("requests", Int count);
                                             ("p50_us", Float p50);
                                             ("p99_us", Float p99);
                                           ])
                                       p.pt_classes) );
                              ])
                          es.es_points) );
                 ])
             r.r_sweeps) );
    ]
