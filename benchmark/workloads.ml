(* The four workloads, each cut into fixed-size segments.

   A segment is one complete, independently seeded run of a scenario
   through the library's public entry points.  Only the call that runs
   the scenario is host-timed; what the benchmark does around it
   (preparing inputs, checking outputs) is accounted separately.  Every
   segment returns its virtual-time results in a metrics registry, so
   segments pool by [Obs.Metrics.merge_into], and a rendering of those
   results ([digest]) that must not depend on whether tracing was on. *)

module K = I432_kernel
module Obs = I432_obs
module Net = I432_net
module Load = I432_load
module Prng = I432_util.Prng
module System = Imax.System
module St = I432_store.Store
module Vm = I432_vm
module Banking = I432_txn.Banking
module History = I432_txn.History

let now_s = Unix.gettimeofday

type seg = {
  ops : int;  (* operations attempted *)
  failed : int;  (* attempted minus succeeded *)
  host_s : float;  (* host seconds inside the timed call *)
  prep_s : float;  (* host seconds preparing the segment before that call *)
  minor_words : float;  (* OCaml allocation inside the timed call *)
  major_words : float;
  metrics : Obs.Metrics.t;  (* virtual results, incl. load.latency_ns *)
  probes : Obs.Metrics.t;  (* bench-side layer probes (traced runs only) *)
  digest : string;  (* every virtual result, rendered *)
  stream : string;  (* event stream; "" untraced *)
  problems : string list;  (* failed correctness gates *)
}

let counter reg name =
  match Obs.Metrics.find_counter reg name with
  | Some c -> Obs.Metrics.counter_value c
  | None -> 0

let add reg name v = Obs.Metrics.incr ~by:v (Obs.Metrics.counter reg name)
let add_s reg name s = add reg name (int_of_float (s *. 1e9))
let observe reg name v = Obs.Metrics.observe_log (Obs.Metrics.log_histogram reg name) v

let trace_level traced = if traced then Obs.Tracer.Events else Obs.Tracer.Off

let check cond msg problems = if cond then problems else msg :: problems

(* Host seconds and OCaml allocation of [f ()]. *)
let timed f =
  let s0 = Gc.quick_stat () in
  let t0 = now_s () in
  let r = f () in
  let t1 = now_s () in
  let s1 = Gc.quick_stat () in
  ( r,
    t1 -. t0,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.major_words -. s0.Gc.major_words )

let event_stream machines =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun e -> Printf.bprintf buf "%s %s\n" name (Obs.Event.to_string e))
        (K.Machine.events m))
    machines;
  Buffer.contents buf

(* Kernel-wide virtual tallies every workload reports: busy time against
   processor capacity, and (traced) how many events the tracer took. *)
let machine_tallies ~metrics ~probes ~traced machines =
  List.iter
    (fun (_, m) ->
      add metrics "bench.busy_ns" (K.Machine.total_busy_ns m);
      add metrics "bench.capacity_ns"
        (K.Machine.processor_count m * K.Machine.now m);
      if traced then
        add probes "bench.events" (Obs.Tracer.emitted (K.Machine.tracer m)))
    machines

(* ------------------------------------------------------------------ *)
(* Scratch journals                                                    *)
(* ------------------------------------------------------------------ *)

(* Under the build directory of the checkout the benchmark runs in; every
   journal is deleted as soon as its segment is checked. *)
let scratch_dir = Filename.concat "_build" "benchmark-scratch"
let journal_seq = ref 0

let fresh_journal () =
  if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  incr journal_seq;
  Filename.concat scratch_dir
    (Printf.sprintf "%d-%d.journal" (Unix.getpid ()) !journal_seq)

let remove_journal path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".tmp" ]

let remove_scratch () =
  try Sys.rmdir scratch_dir with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* serve-machine / serve-cluster                                       *)
(* ------------------------------------------------------------------ *)

type serve = { users : int; per_user : int; rate_rps : float }

let serve_spec ~seed s =
  {
    Load.Arrival.seed;
    users = s.users;
    sessions = 1;
    requests_per_session = s.per_user;
    rate_rps = s.rate_rps;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Typical;
  }

(* Cluster.run stops at 100k rounds of 100 us (10 virtual s) without an
   error; a schedule this long could end truncated rather than late. *)
let cluster_horizon_cap_ns = 8_000_000_000
let min_offered_ratio = 0.95

let serve_outcome ~cluster ~engine ~traced ~seed size =
  let spec = serve_spec ~seed size in
  let trace_level = trace_level traced in
  timed (fun () ->
      if cluster then
        Load.Loadgen.run_cluster ~nodes:3 ~processors:2 ~engine ~trace_level
          ~spec ()
      else
        Load.Loadgen.run_machine ~processors:4 ~workers:8 ~pumps:4 ~trace_level
          ~spec ())

(* Gates on the schedule itself: a schedule that under-offers its nominal
   rate, or (cluster) could be truncated, measures the wrong thing. *)
let schedule_problems ~cluster size reqs =
  let ratio = Load.Arrival.offered_rps reqs /. size.rate_rps in
  let horizon = Load.Arrival.horizon_ns reqs in
  []
  |> check (ratio >= min_offered_ratio)
       (Printf.sprintf "offered ratio %.3f < %.2f" ratio min_offered_ratio)
  |> check
       ((not cluster) || horizon < cluster_horizon_cap_ns)
       (Printf.sprintf "arrival horizon %d ns reaches the cluster cap" horizon)

(* Gates on the outcome: every scheduled request issued and completed,
   nothing stranded, dead-lettered or lost on the wire. *)
let completion_problems (o : Load.Loadgen.outcome) =
  let total = Array.length o.Load.Loadgen.o_requests in
  let m = o.Load.Loadgen.o_metrics in
  []
  |> check (o.Load.Loadgen.o_issued = total)
       (Printf.sprintf "issued %d of %d" o.Load.Loadgen.o_issued total)
  |> check
       (o.Load.Loadgen.o_completed = total)
       (Printf.sprintf "completed %d of %d" o.Load.Loadgen.o_completed total)
  |> check (o.Load.Loadgen.o_deadlocked = 0) "processes deadlocked"
  |> check
       (counter m "node.dead_letters" = 0 && counter m "net.frames_lost" = 0)
       "dead letters or lost frames"

let run_serve ~cluster ?(engine = Net.Cluster.Seq) ~traced ~seed size =
  let o, host_s, minor_words, major_words =
    serve_outcome ~cluster ~engine ~traced ~seed size
  in
  let reqs = o.Load.Loadgen.o_requests in
  let total = Array.length reqs in
  let metrics = o.Load.Loadgen.o_metrics in
  let probes = Obs.Metrics.create () in
  let machines = o.Load.Loadgen.o_machines in
  machine_tallies ~metrics ~probes ~traced machines;
  let digest =
    Printf.sprintf "%slast_done=%d\n"
      (Obs.Metrics.render metrics)
      o.Load.Loadgen.o_last_done_ns
  in
  add probes "bench.offered_ppm"
    (int_of_float (Load.Arrival.offered_rps reqs /. size.rate_rps *. 1e6));
  if traced then begin
    (* Generator lateness: how far behind its schedule a pump issued. *)
    List.iter
      (fun (_, m) ->
        List.iter
          (fun (e : Obs.Event.t) ->
            if e.Obs.Event.kind = Obs.Event.Req_issue then
              observe probes "bench.issue_late_ns"
                (float_of_int
                   (e.Obs.Event.ts_ns - reqs.(e.Obs.Event.a).Load.Arrival.r_at_ns)))
          (K.Machine.events m))
      machines;
    let t0 = now_s () in
    ignore (Load.Arrival.generate (serve_spec ~seed size));
    add_s probes "bench.generate_ns" (now_s () -. t0)
  end;
  {
    ops = total;
    failed = total - min o.Load.Loadgen.o_completed total;
    host_s;
    prep_s = 0.0;
    minor_words;
    major_words;
    metrics;
    probes;
    digest;
    stream = (if traced then Load.Loadgen.span_stream o else "");
    problems = schedule_problems ~cluster size reqs @ completion_problems o;
  }

(* The saturation knee: walk the rate grid upward and keep the last rate
   whose point delivered every request, at >= 95% of the offered rate,
   with p999 within the limit.  Points are not host-timed.  The walk
   stops at the first failing point: past the knee the backlog only
   grows.  A point whose schedule fails its own gates is a gate failure,
   not a miss. *)
let knee_p999_limit_ns = 2_000_000.0

let knee ~cluster ~seed ~users ~arrival_s grid =
  let rec walk best = function
    | [] -> (best, [])
    | rate_rps :: rest ->
      let per_user =
        max 1 (int_of_float (rate_rps *. arrival_s /. float_of_int users))
      in
      let size = { users; per_user; rate_rps } in
      let o, _, _, _ =
        serve_outcome ~cluster ~engine:Net.Cluster.Seq ~traced:false ~seed size
      in
      let reqs = o.Load.Loadgen.o_requests in
      match schedule_problems ~cluster size reqs with
      | _ :: _ as ps ->
        (best, List.map (Printf.sprintf "knee point %.0f rps: %s" rate_rps) ps)
      | [] ->
        if
          completion_problems o = []
          && Load.Loadgen.quantile o 0.999 <= knee_p999_limit_ns
          && Load.Loadgen.achieved_rps o
             >= min_offered_ratio *. Load.Arrival.offered_rps reqs
        then walk rate_rps rest
        else (best, [])
  in
  walk 0.0 grid

(* ------------------------------------------------------------------ *)
(* swap-quarter                                                        *)
(* ------------------------------------------------------------------ *)

type swap = { objects : int; swap_users : int; requests : int; touches : int }

let swap_object_bytes = 32
let swap_rate_rps = 8_000.0

(* Host time of each device transfer while [live], taken inside a
   [Swap_device.make] wrapper so the store device itself is untouched. *)
let timed_device probes ~live raw =
  let time name f =
    if not !live then f ()
    else begin
      let t0 = now_s () in
      let r = f () in
      add_s probes name (now_s () -. t0);
      r
    end
  in
  Vm.Swap_device.make ~name:(Vm.Swap_device.name raw)
    ~mem:(Vm.Swap_device.mem raw)
    ~write:(fun ~index ~now_ns image ->
      time "bench.dev_write_ns" (fun () ->
          Vm.Swap_device.write raw ~index ~now_ns image))
    ~read:(fun ~index ->
      time "bench.dev_read_ns" (fun () -> Vm.Swap_device.read raw ~index))
    ~drop:(Vm.Swap_device.drop raw) ()

(* Bytes the process has read through syscalls so far; 0 where the
   kernel does not expose it. *)
let rchar () =
  try
    let ic = open_in "/proc/self/io" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | line when String.length line > 7 && String.sub line 0 7 = "rchar: "
            ->
            int_of_string (String.sub line 7 (String.length line - 7))
          | _ -> find ()
          | exception End_of_file -> 0
        in
        find ())
  with Sys_error _ | Failure _ -> 0

let run_swap ~traced ~seed size =
  let t0 = now_s () in
  let metrics = Obs.Metrics.create () in
  let probes = Obs.Metrics.create () in
  let ram_bytes = size.objects * swap_object_bytes / 4 in
  let journal = fresh_journal () in
  let store =
    St.open_ ~sync_every:1024 ~compact_interval_ns:1_000_000
      ~min_garbage_bytes:(max 4096 (ram_bytes / 2))
      journal
  in
  let raw = I432_store.Swap_store.device store in
  let live = ref false in
  let device = if traced then timed_device probes ~live raw else raw in
  let heap_bytes = ram_bytes + max ram_bytes (1 lsl 16) in
  let sys =
    System.boot
      ~config:
        {
          System.default_config with
          System.processors = 4;
          memory_manager = System.Swapping_lru;
          heap_bytes;
          memory_bytes = max (1 lsl 22) ((2 * heap_bytes) + (1 lsl 20));
          swap_ram_bytes = Some ram_bytes;
          swap_device = Some device;
          trace_level = trace_level traced;
        }
      ()
  in
  let m = System.machine sys in
  St.attach store m;
  let objs =
    Array.init size.objects (fun i ->
        let o =
          System.mm_allocate sys ~data_length:swap_object_bytes
            ~access_length:0 ~otype:I432.Obj_type.Generic
        in
        K.Machine.write_word m o ~offset:0 (i + 1);
        o)
  in
  let spec =
    {
      Load.Arrival.seed;
      users = size.swap_users;
      sessions = 1;
      requests_per_session = size.requests;
      rate_rps = swap_rate_rps;
      pattern = Load.Arrival.Poisson;
      profile = Load.Mix.Memory_bound;
    }
  in
  let g0 = now_s () in
  let reqs = Load.Arrival.generate spec in
  if traced then add_s probes "bench.generate_ns" (now_s () -. g0);
  let by_user = Array.make size.swap_users [] in
  Array.iter
    (fun (r : Load.Arrival.request) ->
      by_user.(r.Load.Arrival.r_user) <- r :: by_user.(r.Load.Arrival.r_user))
    reqs;
  let completed = ref 0 and corrupt = ref 0 in
  (* Each request reads back [touches] random objects: a swapped-out one
     faults in (a device read) and evicts LRU victims (device writes for
     dirty ones).  A preemption between the touch and the read can let
     another user's fault evict the object again, hence the retry.  The
     touch's charge can preempt its process, so the stall it causes is
     read off the virtual clock; a host timer around it would also time
     whoever ran meanwhile. *)
  let touch o =
    if traced then begin
      let v0 = K.Machine.now m in
      System.mm_touch sys o;
      observe probes "bench.touch_stall_ns" (float_of_int (K.Machine.now m - v0))
    end
    else System.mm_touch sys o
  in
  Array.iteri
    (fun u rs ->
      let prng = Prng.create ~seed:(seed + (u * 7919)) in
      ignore
        (K.Machine.spawn m
           ~name:(Printf.sprintf "user%d" u)
           (fun () ->
             List.iter
               (fun (r : Load.Arrival.request) ->
                 let lag = r.Load.Arrival.r_at_ns - K.Machine.now m in
                 if lag > 0 then K.Machine.delay m ~ns:lag
                 else observe metrics "bench.issue_late_ns" (float_of_int (-lag));
                 let bad = ref false in
                 for _ = 1 to size.touches do
                   let i = Prng.int prng size.objects in
                   let rec read_back () =
                     touch objs.(i);
                     match K.Machine.read_word m objs.(i) ~offset:0 with
                     | v -> v
                     | exception
                         I432.Fault.Fault (I432.Fault.Segment_swapped_out _) ->
                       read_back ()
                   in
                   if read_back () <> i + 1 then bad := true
                 done;
                 K.Machine.compute m
                   (Load.Mix.cycles (Load.Mix.of_code r.Load.Arrival.r_cls));
                 observe metrics "load.latency_ns"
                   (float_of_int (K.Machine.now m - r.Load.Arrival.r_at_ns));
                 if !bad then incr corrupt;
                 incr completed)
               (List.rev rs))))
    by_user;
  (* Device, store and eviction tallies of the run alone: populating
     the working set already evicted three quarters of it. *)
  let tallies () =
    let d = Vm.Swap_device.stats device in
    let appends, syncs, compactions, _, _ = St.stats store in
    [
      ("bench.dev_reads", d.Vm.Swap_device.reads);
      ("bench.dev_writes", d.Vm.Swap_device.writes);
      ("bench.store_appends", appends);
      ("bench.store_syncs", syncs);
      ("bench.store_compactions", compactions);
      ("bench.swap_outs", counter (K.Machine.metrics m) "swap.outs");
    ]
  in
  let before = tallies () in
  let prep_s = now_s () -. t0 in
  let rchar0 = if traced then rchar () else 0 in
  live := true;
  let report, host_s, minor_words, major_words =
    timed (fun () -> System.run sys)
  in
  live := false;
  if traced then add probes "bench.rchar" (rchar () - rchar0);
  List.iter2 (fun (name, b) (_, a) -> add metrics name (a - b)) before (tallies ());
  let total = Array.length reqs in
  let resident = Option.value ~default:0 (System.mm_resident_bytes sys) in
  St.close store;
  remove_journal journal;
  Obs.Metrics.merge_into ~dst:metrics ~src:(K.Machine.metrics m);
  add metrics "bench.touches" (total * size.touches);
  machine_tallies ~metrics ~probes ~traced [ ("swap", m) ];
  add probes "bench.offered_ppm"
    (int_of_float (Load.Arrival.offered_rps reqs /. swap_rate_rps *. 1e6));
  let problems =
    []
    |> check (!completed = total)
         (Printf.sprintf "completed %d of %d requests" !completed total)
    |> check (!corrupt = 0)
         (Printf.sprintf "%d requests read a corrupt object" !corrupt)
    |> check (resident <= ram_bytes)
         (Printf.sprintf "resident %d B above the %d B envelope" resident
            ram_bytes)
    |> check (report.K.Machine.deadlocked = []) "processes deadlocked"
  in
  {
    ops = total;
    failed = total - !completed + !corrupt;
    host_s;
    prep_s;
    minor_words;
    major_words;
    metrics;
    probes;
    digest =
      Printf.sprintf "%sresident=%d elapsed=%d\n"
        (Obs.Metrics.render metrics)
        resident report.K.Machine.elapsed_ns;
    stream = (if traced then event_stream [ ("swap", m) ] else "");
    problems;
  }

(* ------------------------------------------------------------------ *)
(* bank-history                                                        *)
(* ------------------------------------------------------------------ *)

let bank_accounts = 8

(* [verify] replays every account's history out of the store.  A replay
   reads each record back, and a store read currently costs time
   proportional to the journal behind the record, so replay grows with
   the square of the history: the runner verifies the short warm-up
   segment only. *)
let run_bank ?(history = true) ?(verify = false) ~traced ~seed transfers =
  let t0 = now_s () in
  let journal = fresh_journal () in
  (* No periodic fsync: at the store's default cadence (every 8 appends)
     fsync latency was ~90% of a segment's host time and swung segment
     times by +-30% on a shared host, so the workload would measure the
     disk, not the simulator.  Appends still go through the journal. *)
  let store = St.open_ ~sync_every:max_int journal in
  let prep_s = now_s () -. t0 in
  let (m, hist, r), host_s, minor_words, major_words =
    timed (fun () ->
        Banking.run ~processors:2 ~workers:4 ~trace:traced
          ?history_store:(if history then Some store else None)
          ~accounts:bank_accounts ~transfers ~seed ())
  in
  let verified =
    match hist with
    | Some h when verify ->
      List.for_all (fun (name, _) -> History.verify h ~name) (History.tracked h)
    | _ -> true
  in
  let appends, syncs, compactions, _, _ = St.stats store in
  St.close store;
  remove_journal journal;
  let metrics = Obs.Metrics.create () in
  let probes = Obs.Metrics.create () in
  Obs.Metrics.merge_into ~dst:metrics ~src:(K.Machine.metrics m);
  List.iter
    (fun ns -> observe metrics "load.latency_ns" (float_of_int ns))
    r.Banking.latencies;
  add metrics "bench.store_appends" appends;
  add metrics "bench.store_syncs" syncs;
  add metrics "bench.store_compactions" compactions;
  add metrics "bench.aborted" r.Banking.aborted;
  machine_tallies ~metrics ~probes ~traced [ ("bank", m) ];
  let problems =
    []
    |> check (Banking.conserved r) "balances not conserved"
    |> check
         (r.Banking.completions = r.Banking.committed)
         (Printf.sprintf "%d completions for %d commits" r.Banking.completions
            r.Banking.committed)
    |> check (r.Banking.dup_completions = 0) "duplicate completions"
    |> check
         (r.Banking.committed + r.Banking.aborted = transfers)
         "transfers neither committed nor aborted"
    |> check verified "an account's history does not replay to its balance"
  in
  {
    ops = transfers;
    failed = transfers - min r.Banking.completions transfers;
    host_s;
    prep_s;
    minor_words;
    major_words;
    metrics;
    probes;
    digest =
      Printf.sprintf "%s%s\n" (Obs.Metrics.render metrics)
        (Banking.result_to_string r);
    stream = (if traced then event_stream [ ("bank", m) ] else "");
    problems;
  }

