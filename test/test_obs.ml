(* Tests for the observability layer: the tracer ring (overflow, drop
   accounting), the legacy trace lines rendered from the ring (byte
   identity with the seed's formats), cross-run determinism of events and
   metrics, the Chrome trace exporter, the metrics registry, and the
   snapshot extensions. *)

module K = I432_kernel
module Obs = I432_obs

let mk ?(processors = 1) ~level () =
  K.Machine.create
    ~config:
      {
        K.Machine.default_config with
        K.Machine.processors;
        trace_level = level;
      }
    ()

let run m = K.Machine.run ~max_ns:2_000_000_000 ~max_steps:2_000_000 m

(* One tracer event with no strings and a zero [b]. *)
let emit t ~ts_ns ~cpu ?(name_id = 0) ?(a = 0) kind =
  Obs.Tracer.emit t kind ~cpu ~ts_ns ~name_id ~detail_id:0 ~a ~b:0

(* The seed's legacy transcript, rendered from the retained events. *)
let legacy_lines events = List.filter_map Obs.Event.legacy_line events

(* A small deterministic two-processor workload touching every traced
   subsystem: ports (send/receive/block), allocation, yields. *)
let workload ?(processors = 2) ~level () =
  let m = mk ~processors ~level () in
  let port =
    K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo ()
  in
  ignore
    (K.Machine.spawn m ~name:"producer" (fun () ->
         for i = 1 to 8 do
           let msg = K.Machine.allocate_generic m ~data_length:16 () in
           K.Machine.write_word m msg ~offset:0 i;
           K.Machine.send m ~port ~msg
         done));
  ignore
    (K.Machine.spawn m ~name:"consumer" (fun () ->
         for _ = 1 to 8 do
           let msg = K.Machine.receive m ~port in
           ignore (K.Machine.read_word m msg ~offset:0);
           K.Machine.yield m
         done));
  let _ = run m in
  m

(* ---------------- Tracer ring ---------------- *)

let test_ring_overflow () =
  (* Capacity 4, 7 events: the ring keeps the newest 4 and counts the 3 it
     recycled. *)
  let t = Obs.Tracer.create ~capacity:4 ~level:Obs.Tracer.Events () in
  for i = 1 to 7 do
    emit t ~ts_ns:(i * 10) ~cpu:0 ~a:i Obs.Event.Yield
  done;
  Alcotest.(check int) "emitted" 7 (Obs.Tracer.emitted t);
  Alcotest.(check int) "retained" 4 (Obs.Tracer.retained t);
  Alcotest.(check int) "dropped" 3 (Obs.Tracer.dropped t);
  let events = Obs.Tracer.events t in
  Alcotest.(check (list int)) "oldest three recycled" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Obs.Event.seq) events);
  Alcotest.(check (list int)) "payloads survive" [ 4; 5; 6; 7 ]
    (List.map (fun e -> e.Obs.Event.a) events);
  (* A seq names a retained event only: not a recycled one, nor one not
     yet emitted. *)
  List.iter
    (fun seq ->
      Alcotest.check_raises "not retained"
        (Invalid_argument (Printf.sprintf "Tracer: seq %d is not retained" seq))
        (fun () -> ignore (Obs.Tracer.event t seq)))
    [ 2; 7 ]

let test_one_ring_per_machine () =
  (* Events from cpu 0, cpu 1 and outside the run loop (-1) share one
     window: the newest three survive whichever cpu emitted them, and the
     counts are the machine's. *)
  let t = Obs.Tracer.create ~capacity:3 ~level:Obs.Tracer.Events () in
  for i = 1 to 3 do
    emit t ~ts_ns:i ~cpu:0 ~a:i Obs.Event.Yield
  done;
  emit t ~ts_ns:4 ~cpu:1 ~a:4 Obs.Event.Yield;
  emit t ~ts_ns:5 ~cpu:(-1) ~a:5 Obs.Event.Spawn;
  Alcotest.(check int) "dropped" 2 (Obs.Tracer.dropped t);
  Alcotest.(check int) "retained" 3 (Obs.Tracer.retained t);
  let events = Obs.Tracer.events t in
  Alcotest.(check (list (pair int int))) "one window, in emission order"
    [ (2, 0); (3, 1); (4, -1) ]
    (List.map (fun e -> (e.Obs.Event.seq, e.Obs.Event.cpu)) events);
  Alcotest.(check (list int)) "payloads" [ 3; 4; 5 ]
    (List.map (fun e -> e.Obs.Event.a) events)

let test_off_level_is_inert () =
  let t = Obs.Tracer.create ~level:Obs.Tracer.Off () in
  Alcotest.(check bool) "not enabled" false (Obs.Tracer.enabled t);
  let name_id = Obs.Tracer.string_id t "ghost" in
  Alcotest.(check int) "no interning" 0 name_id;
  emit t ~ts_ns:1 ~cpu:0 ~name_id Obs.Event.Spawn;
  Alcotest.(check int) "nothing emitted" 0 (Obs.Tracer.emitted t);
  Alcotest.(check int) "nothing retained" 0 (Obs.Tracer.retained t);
  Alcotest.(check (list string)) "no legacy lines" []
    (legacy_lines (Obs.Tracer.events t))

let test_kind_codes_roundtrip () =
  (* The ring stores kinds as dense ints; the mapping must be a
     bijection over the full range. *)
  for i = 0 to Obs.Event.kind_count - 1 do
    Alcotest.(check int) "roundtrip"
      i
      (Obs.Event.kind_to_int (Obs.Event.kind_of_int i))
  done;
  Alcotest.check_raises "out of range"
    (Invalid_argument
       (Printf.sprintf "Event.kind_of_int: %d" Obs.Event.kind_count))
    (fun () -> ignore (Obs.Event.kind_of_int Obs.Event.kind_count))

(* Every kind's dense code, name and category, pinned: the tracer's ring
   and the exporters read these, so a reordered or renamed kind must show
   up here. *)
let kind_table =
  [
    (0, "spawn", "proc");
    (1, "exit", "proc");
    (2, "finish", "proc");
    (3, "fault", "proc");
    (4, "ready", "dispatch");
    (5, "dispatch", "dispatch");
    (6, "preempt", "dispatch");
    (7, "yield", "dispatch");
    (8, "block-send", "port");
    (9, "block-receive", "port");
    (10, "sleep", "dispatch");
    (11, "wake", "dispatch");
    (12, "send", "port");
    (13, "receive", "port");
    (14, "allocate", "sro");
    (15, "release", "sro");
    (16, "sro-create", "sro");
    (17, "sro-destroy", "sro");
    (18, "domain-call", "domain");
    (19, "domain-return", "domain");
    (20, "stop", "proc");
    (21, "start", "proc");
    (22, "gc-mark-begin", "gc");
    (23, "gc-mark-end", "gc");
    (24, "gc-sweep-begin", "gc");
    (25, "gc-sweep-end", "gc");
    (26, "fi-inject", "fi");
    (27, "cpu-offline", "dispatch");
    (28, "proc-requeued", "dispatch");
    (29, "alloc-retry", "sro");
    (30, "timeout-fired", "port");
    (31, "proc-restarted", "proc");
    (32, "remote-send", "net");
    (33, "remote-deliver", "net");
    (34, "frame-tx", "net");
    (35, "frame-rx", "net");
    (36, "journal-append", "store");
    (37, "journal-sync", "store");
    (38, "store-compact", "store");
    (39, "ckpt-save", "store");
    (40, "ckpt-restore", "store");
    (41, "req-issue", "load");
    (42, "req-done", "load");
    (43, "node-kill", "net");
    (44, "node-restart", "net");
    (45, "frame-dead", "net");
    (46, "dead-letter", "net");
    (47, "swap-out", "vm");
    (48, "swap-in", "vm");
    (49, "swap-fault", "vm");
    (50, "txn-commit", "txn");
    (51, "txn-abort", "txn");
    (52, "txn-dup-drop", "txn");
    (53, "hist-append", "txn");
  ]

let test_kind_table_pinned () =
  Alcotest.(check int) "kind count" (List.length kind_table)
    Obs.Event.kind_count;
  List.iter
    (fun (code, name, category) ->
      let k = Obs.Event.kind_of_int code in
      Alcotest.(check int) name code (Obs.Event.kind_to_int k);
      Alcotest.(check string) "name" name (Obs.Event.kind_to_string k);
      Alcotest.(check string) (name ^ " category") category
        (Obs.Event.category k))
    kind_table

(* [Tracer.events] against a list model: random emissions on random cpus
   (outside the run loop and each processor) into a ring small enough to
   overflow.  Of [n] events emitted the tracer keeps the last [min n cap],
   in emission order, the [i]th with seq [n - len + i], and counts the
   other [n - len] as dropped. *)
let prop_events_match_list_model =
  QCheck2.Test.make ~name:"tracer: events = last cap emitted" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 16)
        (list_size (int_range 0 120) (pair (int_range (-1) 3) small_nat)))
    (fun (capacity, script) ->
      let t = Obs.Tracer.create ~capacity ~level:Obs.Tracer.Events () in
      let emitted =
        List.mapi
          (fun i (cpu, a) ->
            let kind =
              if a mod 2 = 0 then Obs.Event.Yield else Obs.Event.Wake
            in
            Obs.Tracer.emit t kind ~cpu ~ts_ns:(10 * a) ~name_id:0
              ~detail_id:0 ~a ~b:i;
            (cpu, kind, a, i))
          script
      in
      let n = List.length emitted in
      let len = Int.min n capacity in
      let model =
        List.filteri (fun i _ -> i >= n - len) emitted
        |> List.mapi (fun i (cpu, kind, a, b) ->
               { Obs.Event.seq = n - len + i; ts_ns = 10 * a; cpu; kind;
                 name = ""; detail = ""; a; b })
      in
      List.map Obs.Event.to_string (Obs.Tracer.events t)
      = List.map Obs.Event.to_string model
      && Obs.Tracer.dropped t = n - len
      && Obs.Tracer.retained t = len)

(* The packed ring against a list model, at every field's extremes: any
   kind, cpu from -1 to the last traceable processor, name and detail ids
   up to their field limit, and ts, a and b anywhere in the int range.
   After each emission, before and after the ring wraps, every retained
   slot must read back exactly as emitted, and a filtered fold must visit
   exactly the retained seqs whose kind it admits, in order.  Fields are
   read raw ([Tracer.slot]): ids this large name no interned string. *)
let prop_packed_ring_matches_model =
  let open QCheck2.Gen in
  let edge lo hi = oneof [ return lo; return hi; int_range lo hi ] in
  let word = oneof [ return max_int; return min_int; return (-1); return 0; int ] in
  let event =
    map
      (fun (((code, cpu), (name_id, detail_id)), (ts_ns, a, b)) ->
        { Obs.Tracer.ts_ns; cpu; code; name_id; detail_id; a; b })
      (pair
         (pair
            (pair (edge 0 (Obs.Event.kind_count - 1))
               (edge (-1) (Obs.Tracer.max_cpus - 1)))
            (pair (edge 0 (Obs.Tracer.max_ids - 1))
               (edge 0 (Obs.Tracer.max_ids - 1))))
         (triple word word word))
  in
  QCheck2.Test.make ~name:"tracer: packed slots = list model" ~count:300
    (triple (int_range 1 12)
       (list_size (int_range 0 40) event)
       (array_size (return Obs.Event.kind_count) bool))
    (fun (capacity, script, keep) ->
      let t = Obs.Tracer.create ~capacity ~level:Obs.Tracer.Events () in
      let emit (e : Obs.Tracer.slot) =
        Obs.Tracer.emit t (Obs.Event.kind_of_int e.Obs.Tracer.code)
          ~cpu:e.Obs.Tracer.cpu ~ts_ns:e.Obs.Tracer.ts_ns
          ~name_id:e.Obs.Tracer.name_id ~detail_id:e.Obs.Tracer.detail_id
          ~a:e.Obs.Tracer.a ~b:e.Obs.Tracer.b
      in
      let rec check n model = function
        | [] -> true
        | e :: rest ->
          emit e;
          let n = n + 1 and model = e :: model in
          (* The newest [min n capacity], oldest first, with their seqs. *)
          let len = Int.min n capacity in
          let retained =
            List.rev (List.filteri (fun i _ -> i < len) model)
            |> List.mapi (fun i e -> (n - len + i, e))
          in
          let read =
            Obs.Tracer.fold t ~init:[] (fun acc seq ->
                (seq, Obs.Tracer.slot t seq) :: acc)
            |> List.rev
          in
          let kept =
            Obs.Tracer.to_list ~kinds:keep t (fun seq -> seq)
          in
          read = retained
          && kept
             = List.filter_map
                 (fun (seq, e) -> if keep.(e.Obs.Tracer.code) then Some seq else None)
                 retained
          && Obs.Tracer.retained t = len
          && Obs.Tracer.dropped t = n - len
          && check n model rest
      in
      check 0 [] script)

(* Each field's range is checked once, where its value is made; a value
   past its field raises instead of spilling into a neighbour. *)
let test_field_limits_raise () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  (* Both 24-bit fields take interned ids, which pass one check: 0 to
     [max_ids - 1]. *)
  Alcotest.(check int) "last id" (Obs.Tracer.max_ids - 1)
    (Obs.Tracer.fits_id (Obs.Tracer.max_ids - 1));
  raises "an id past the field" (fun () ->
      Obs.Tracer.fits_id Obs.Tracer.max_ids);
  raises "a negative id" (fun () -> Obs.Tracer.fits_id (-1));
  (* The cpu field: a traced machine holds at most [max_cpus]
     processors; an untraced one is not limited by it. *)
  let config processors trace_level =
    { K.Machine.default_config with K.Machine.processors; trace_level }
  in
  raises "too many processors to trace" (fun () ->
      K.Machine.create
        ~config:(config (Obs.Tracer.max_cpus + 1) Obs.Tracer.Events)
        ());
  let wide =
    K.Machine.create ~config:(config Obs.Tracer.max_cpus Obs.Tracer.Events) ()
  in
  Alcotest.(check int) "the most processors traced" Obs.Tracer.max_cpus
    (K.Machine.processor_count wide);
  Alcotest.(check int) "untraced, past the field" (Obs.Tracer.max_cpus + 1)
    (K.Machine.processor_count
       (K.Machine.create
          ~config:(config (Obs.Tracer.max_cpus + 1) Obs.Tracer.Off)
          ()))

(* ---------------- Legacy lines, rendered from the ring ---------------- *)

let test_legacy_lines_byte_identical () =
  (* The renderer must produce the seed's exact strings from structured
     events, in event order. *)
  let m = mk ~level:Obs.Tracer.Events () in
  let p =
    K.Machine.spawn m ~name:"traced" (fun () -> K.Machine.yield m)
  in
  let _ = run m in
  let index = (K.Machine.process_state m p).K.Process.index in
  Alcotest.(check (list string)) "seed spawn, deschedule, finish formats"
    [ Printf.sprintf "spawn traced as process %d" index;
      "process traced descheduled on yield";
      "process traced finished" ]
    (legacy_lines (K.Machine.events m))

let test_events_level_has_no_legacy_lines () =
  (* The tracer keeps no text: at Events a trace is its ring, and the
     rendered transcript has one line per retained event of the legacy
     kinds — nothing else. *)
  let m = workload ~level:Obs.Tracer.Events () in
  let events = K.Machine.events m in
  let legacy_kind (e : Obs.Event.t) =
    match e.Obs.Event.kind with
    | Obs.Event.Spawn | Stop | Start | Finish | Block_send | Block_receive
    | Sleep | Yield | Preempt | Exit ->
      true
    | _ -> false
  in
  Alcotest.(check bool) "events recorded" true (events <> []);
  Alcotest.(check int) "one line per legacy-kind event"
    (List.length (List.filter legacy_kind events))
    (List.length (legacy_lines events))

let test_legacy_lines_survive_ring_overflow () =
  (* The ring is the only copy of a trace: after an overflow the
     renderer sees the retained window only, so a reader that needs the
     full transcript must check [dropped] (as [imax_ctl trace --legacy]
     does) instead of trusting the lines. *)
  let t =
    Obs.Tracer.create ~capacity:2 ~level:Obs.Tracer.Events ()
  in
  let name_id = Obs.Tracer.string_id t "p" in
  for i = 1 to 6 do
    emit t ~ts_ns:i ~cpu:0 ~name_id ~a:i Obs.Event.Spawn
  done;
  Alcotest.(check int) "ring overflowed" 4 (Obs.Tracer.dropped t);
  Alcotest.(check (list string)) "the retained window renders"
    [ "spawn p as process 5"; "spawn p as process 6" ]
    (legacy_lines (Obs.Tracer.events t))

(* ---------------- Determinism ---------------- *)

let test_event_stream_determinism () =
  let traced =
    I432_store.Scenario.make ~name:"traced"
      ~streams:(fun m ->
        [
          ("events", I432_store.Scenario.event_lines m);
          ("metrics", [ Obs.Jout.to_string (Obs.Metrics.to_json (K.Machine.metrics m)) ]);
        ])
      (workload ~level:Obs.Tracer.Events)
  in
  let m = I432_store.Scenario.play traced in
  Alcotest.(check bool) "stream is non-trivial" true
    (List.length (K.Machine.events m) > 20);
  Testkit.ok "same seed" (I432_store.Scenario.same_seed ~first:m traced)

(* ---------------- Chrome trace export ---------------- *)

let test_chrome_export_structure () =
  let m = workload ~level:Obs.Tracer.Events () in
  let events = K.Machine.events m in
  let kinds =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Event.kind) events)
  in
  Alcotest.(check bool) "at least 5 event kinds observed" true
    (List.length kinds >= 5);
  let json = Obs.Export.chrome_trace ~processors:2 (K.Machine.tracer m) in
  let s = Obs.Jout.to_string json in
  let contains sub =
    let n = String.length s and m' = String.length sub in
    let rec go i = i + m' <= n && (String.sub s i m' = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "top-level traceEvents array" true
    (contains "\"traceEvents\"");
  Alcotest.(check bool) "microsecond unit" true
    (contains "\"displayTimeUnit\"");
  Alcotest.(check bool) "per-processor track names" true
    (contains "\"cpu0\"" && contains "\"cpu1\"" && contains "\"boot\"");
  Alcotest.(check bool) "port flow arrows bind send to receive" true
    (contains "\"ph\": \"s\"" && contains "\"ph\": \"f\"");
  (* Identical runs must export identical files. *)
  let m2 = workload ~level:Obs.Tracer.Events () in
  let s2 =
    Obs.Jout.to_string
      (Obs.Export.chrome_trace ~processors:2 (K.Machine.tracer m2))
  in
  Alcotest.(check string) "export is deterministic" s s2

(* ---------------- Metrics registry ---------------- *)

let test_metrics_registry () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "kernel.dispatches" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "find-or-create is stable" true
    (Obs.Metrics.counter r "kernel.dispatches" == c);
  let g = Obs.Metrics.gauge r "gc.phase" in
  Obs.Metrics.set g 2;
  Alcotest.(check int) "gauge" 2 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram r ~buckets:4 ~lo:0.0 ~hi:8.0 "port.wait" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 3.0; 9.0; -1.0 ];
  Alcotest.(check int) "histogram overflow bucket" 1
    h.Obs.Metrics.m_hist.I432_util.Stats.h_overflow;
  Alcotest.(check int) "histogram underflow bucket" 1
    h.Obs.Metrics.m_hist.I432_util.Stats.h_underflow;
  Alcotest.(check bool) "lookup misses are None" true
    (Obs.Metrics.find_counter r "no.such" = None);
  (* Dumps are sorted by name, so JSON is deterministic. *)
  let names = List.map Obs.Metrics.counter_name (Obs.Metrics.counters r) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_machine_metrics_populated () =
  let m = workload ~level:Obs.Tracer.Events () in
  let r = K.Machine.metrics m in
  let counter name =
    match Obs.Metrics.find_counter r name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check bool) "dispatches counted" true
    (counter "dispatch.dispatches" > 0);
  Alcotest.(check int) "sends counted" 8 (counter "port.sends");
  Alcotest.(check int) "receives counted" 8 (counter "port.receives")

(* ---------------- Snapshot extensions ---------------- *)

let test_snapshot_observability_fields () =
  let m = workload ~level:Obs.Tracer.Events () in
  let snap = K.Snapshot.capture m in
  Alcotest.(check string) "gc idle outside collections" "idle"
    snap.K.Snapshot.gc_phase;
  Alcotest.(check int) "emitted matches tracer"
    (Obs.Tracer.emitted (K.Machine.tracer m))
    snap.K.Snapshot.events_emitted;
  Alcotest.(check bool) "events retained" true
    (snap.K.Snapshot.events_retained > 0);
  (match snap.K.Snapshot.sros with
  | [] -> Alcotest.fail "expected at least the global SRO"
  | sro :: _ ->
    Alcotest.(check bool) "free-store stats present" true
      (sro.K.Snapshot.s_free_bytes > 0 && sro.K.Snapshot.s_region_count > 0));
  let rendered = K.Snapshot.render snap in
  Alcotest.(check bool) "render mentions events" true
    (String.length rendered > 0)

(* The int entry point renders byte-identically to the float one: every
   field a fixed-width histogram dumps — bucket counts, sum, min, max,
   underflow and overflow. *)
let test_metrics_observe_int () =
  let values =
    [ 0; 1; 7; 99_999; 100_000; 3_199_999; 3_200_000; 3_200_001; 41_234_567;
      -1; -250_000; 1 lsl 40 ]
  in
  let feed observe =
    let r = Obs.Metrics.create () in
    let h = Obs.Metrics.histogram r ~buckets:32 ~lo:0.0 ~hi:3.2e6 "dispatch" in
    List.iter (observe h) values;
    r
  in
  let by_float = feed (fun h n -> Obs.Metrics.observe h (float_of_int n)) in
  let by_int = feed Obs.Metrics.observe_int in
  let json r = Obs.Jout.to_string (Obs.Metrics.to_json r) in
  Alcotest.(check string) "json" (json by_float) (json by_int);
  Alcotest.(check string) "render" (Obs.Metrics.render by_float)
    (Obs.Metrics.render by_int);
  let h = Option.get (Obs.Metrics.find_histogram by_int "dispatch") in
  let st = h.Obs.Metrics.m_hist in
  Alcotest.(check int) "underflow" 2 st.I432_util.Stats.h_underflow;
  Alcotest.(check int) "overflow" 4 st.I432_util.Stats.h_overflow;
  Alcotest.(check (float 0.0)) "min" (-250_000.0) st.I432_util.Stats.h_min;
  Alcotest.(check (float 0.0)) "max" (float_of_int (1 lsl 40))
    st.I432_util.Stats.h_max;
  Alcotest.(check (float 0.0)) "sum"
    (float_of_int (List.fold_left ( + ) 0 values))
    (I432_util.Stats.hist_sum st)

(* A log histogram's JSON and text dumps, before and after a merge, pinned
   to the bytes the record-field layout (sum, min and max as mutable float
   fields) printed for the same script: NaN ignored, two underflows, two
   overflows, an empty histogram's null min and max.  The JSON is pinned
   by its MD5; the int entry point must print the same bytes as the float
   one. *)
let test_log_hist_output_pinned () =
  let values =
    [ 250.0; 1.0; Float.nan; 25.0; 2_500.0; 1e9; 0.5; 100.0; 10.0; 9_999.0;
      10_000.0 ]
  in
  let feed observe =
    let r = Obs.Metrics.create () in
    let h = Obs.Metrics.log_histogram r ~per_decade:4 ~lo:10.0 ~decades:3 "lat" in
    List.iter (observe h) values;
    ignore (Obs.Metrics.log_histogram r ~per_decade:1 ~lo:1.0 ~decades:2 "empty");
    r
  in
  let r = feed Obs.Metrics.observe_log in
  let other = Obs.Metrics.create () in
  Obs.Metrics.observe_log
    (Obs.Metrics.log_histogram other ~per_decade:4 ~lo:10.0 ~decades:3 "lat")
    0.25;
  let merged = Obs.Metrics.create () in
  Obs.Metrics.merge_into ~dst:merged ~src:r;
  Obs.Metrics.merge_into ~dst:merged ~src:other;
  let json r = Obs.Jout.to_string (Obs.Metrics.to_json r) in
  let check what r ~md5 ~render =
    Alcotest.(check string) (what ^ " json md5") md5
      (Digest.to_hex (Digest.string (json r)));
    Alcotest.(check string) (what ^ " render") render (Obs.Metrics.render r)
  in
  let empty_line =
    "loghist empty                        count 0 mean 0.0 p50 0.0 p99 0.0 \
     p999 0.0\n"
  in
  check "fed" r ~md5:"ebb8621ca4c283b3279829a103262b40"
    ~render:
      (empty_line
     ^ "loghist lat                          count 10 mean 100002288.5 p50 \
        177.8 p99 1000000000.0 p999 1000000000.0\n");
  check "merged" merged ~md5:"114f8f8efc5ceff2c7eacf589607954f"
    ~render:
      (empty_line
     ^ "loghist lat                          count 11 mean 90911171.4 p50 \
        133.4 p99 1000000000.0 p999 1000000000.0\n");
  let ints = List.filter_map (fun v -> if Float.is_integer v then Some (int_of_float v) else None) values in
  let by_float = Obs.Metrics.create () and by_int = Obs.Metrics.create () in
  let lat r = Obs.Metrics.log_histogram r ~per_decade:4 ~lo:10.0 ~decades:3 "lat" in
  List.iter (fun n -> Obs.Metrics.observe_log (lat by_float) (float_of_int n)) ints;
  List.iter (Obs.Metrics.observe_log_int (lat by_int)) ints;
  Alcotest.(check string) "int json" (json by_float) (json by_int);
  Alcotest.(check string) "int render" (Obs.Metrics.render by_float)
    (Obs.Metrics.render by_int)

(* ---------------- One count per fact ---------------- *)

(* A spooler under chaos: four producers on a short time slice (so they
   are preempted), one GDP hard-faulted mid-run, and transient faults
   that kill the processes they land on.  Every kernel counter the
   registry keeps must equal its owner's own count. *)
let chaos_spooler ?(trace_level = Obs.Tracer.Off) ?(injections = []) () =
  let m =
    K.Machine.create
      ~config:
        {
          K.Machine.default_config with
          K.Machine.processors = 4;
          timings = { I432.Timings.default with I432.Timings.time_slice_ns = 40_000 };
          trace_level;
        }
      ()
  in
  let spool = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  for c = 1 to 4 do
    ignore
      (K.Machine.spawn m
         ~name:(Printf.sprintf "prod%d" c)
         (fun () ->
           for j = 1 to 6 do
             let job = K.Machine.allocate_generic m ~data_length:16 () in
             K.Machine.write_word m job ~offset:0 ((c * 100) + j);
             K.Machine.compute m 300;
             ignore (K.Machine.send_timeout m ~port:spool ~msg:job ~timeout_ns:300_000)
           done))
  done;
  ignore
    (K.Machine.spawn m ~name:"printer" (fun () ->
         let quiet = ref 0 in
         while !quiet < 3 do
           match K.Machine.receive_timeout m ~port:spool ~timeout_ns:200_000 with
           | Some job ->
             quiet := 0;
             K.Machine.compute m 10;
             ignore (K.Machine.read_word m job ~offset:0)
           | None -> incr quiet
         done));
  K.Machine.schedule_injection m ~at_ns:60_000 (K.Machine.Inj_transient 0);
  K.Machine.schedule_injection m ~at_ns:90_000 (K.Machine.Inj_transient 1);
  K.Machine.schedule_injection m ~at_ns:120_000 (K.Machine.Inj_cpu_fault 2);
  List.iter (fun (at_ns, i) -> K.Machine.schedule_injection m ~at_ns i) injections;
  let report = run m in
  (m, report)

let test_kernel_counts_agree () =
  let m, report = chaos_spooler () in
  let count = Obs.Metrics.count (K.Machine.metrics m) in
  Alcotest.(check bool) "preempted" true (report.K.Machine.preemptions > 0);
  Alcotest.(check bool) "processes faulted" true (K.Machine.faults m <> []);
  Alcotest.(check int) "one GDP offline" 3 (K.Machine.online_processors m);
  Alcotest.(check int) "machine.charged_ns" (K.Machine.total_busy_ns m)
    (count "machine.charged_ns");
  Alcotest.(check int) "dispatch.dispatches" report.K.Machine.dispatches
    (count "dispatch.dispatches");
  Alcotest.(check int) "dispatch.preemptions" report.K.Machine.preemptions
    (count "dispatch.preemptions");
  Alcotest.(check int) "machine.faults"
    (List.length (K.Machine.faults m))
    (count "machine.faults")

(* ---------------- One leave per residency ---------------- *)

(* A process leaves its processor only at an instruction that traces its
   own event, or when it finishes, faults or loses its processor: so
   between a process's dispatch and the next dispatch on that processor
   there is exactly one of these.  It is why the trace needs no separate
   deschedule event; a new way off a processor that emits none fails
   here. *)
let leave_kind (k : Obs.Event.kind) =
  match k with
  | Obs.Event.Block_send | Block_receive | Sleep | Yield | Preempt | Exit
  | Finish | Fault | Proc_requeued ->
    true
  | _ -> false

(* Checks [m]'s whole trace and returns the kinds of leave it saw. *)
let check_one_leave_per_residency world m =
  let tracer = K.Machine.tracer m in
  let seen = ref [] in
  Alcotest.(check int) (world ^ ": whole run retained") 0
    (Obs.Tracer.dropped tracer);
  let on_cpu = Array.make (K.Machine.processor_count m) None in
  let residencies = ref 0 in
  Obs.Tracer.iter tracer (fun seq ->
      let e = Obs.Tracer.event tracer seq in
      let name = e.Obs.Event.name in
      match e.Obs.Event.kind with
      | Obs.Event.Dispatch -> (
        match on_cpu.(e.Obs.Event.cpu) with
        | Some resident ->
          Alcotest.failf "%s: #%d dispatches %s on cpu%d before %s left it"
            world seq name e.Obs.Event.cpu resident
        | None ->
          on_cpu.(e.Obs.Event.cpu) <- Some name;
          incr residencies)
      | k when leave_kind k ->
        (* Every leave, a fault too, is traced on the processor its
           process is resident on. *)
        let c = e.Obs.Event.cpu in
        if c >= 0 && on_cpu.(c) = Some name then begin
          on_cpu.(c) <- None;
          if not (List.mem k !seen) then seen := k :: !seen
        end
        else
          Alcotest.failf "%s: #%d %s of %s on cpu%d, where it is not resident"
            world seq (Obs.Event.kind_to_string k) name c
      | _ -> ());
  Alcotest.(check bool) (world ^ ": residencies traced") true
    (!residencies > 0);
  !seen

(* The print spooler of [imax_ctl trace]: clients that send and sleep, a
   spooler and a printer behind a shallow port, and a batch job whose
   bursts outrun the time slice.  Here the printer is slower and its port
   holds one job, so the spooler blocks sending to it, and the batch job
   also yields between its bursts and exits. *)
let spooler_world () =
  let module Sys = Imax.System in
  let module Pm = Imax.Process_manager in
  let module Up = Imax.Untyped_ports in
  let sys =
    Sys.boot
      ~config:{ Sys.default_config with Sys.trace_level = Obs.Tracer.Events }
      ()
  in
  let m = Sys.machine sys and pm = Sys.process_manager sys in
  let spool = Up.create_port m ~message_count:8 () in
  let printer = Up.create_port m ~message_count:1 () in
  let clients = 3 and jobs = 5 in
  let forward ~from ~ns ~dst =
    for _ = 1 to clients * jobs do
      let job = Up.receive m ~prt:from in
      K.Machine.compute m ns;
      Option.iter (fun prt -> Up.send m ~prt ~msg:job) dst
    done
  in
  ignore
    (Pm.create_process pm ~name:"spooler" (fun () ->
         forward ~from:spool ~ns:2 ~dst:(Some printer)));
  ignore
    (Pm.create_process pm ~name:"printer" (fun () ->
         forward ~from:printer ~ns:2_000 ~dst:None));
  for c = 1 to clients do
    ignore
      (Pm.create_process pm ~name:(Printf.sprintf "client%d" c) (fun () ->
           for _ = 1 to jobs do
             let job = K.Machine.allocate_generic m ~data_length:16 () in
             Up.send m ~prt:spool ~msg:job;
             K.Machine.delay m ~ns:50_000
           done))
  done;
  ignore
    (Pm.create_process pm ~name:"batch" ~priority:4 (fun () ->
         K.Machine.compute m 12_000;
         K.Machine.yield m;
         K.Machine.compute m 12_000;
         K.Machine.exit_process m));
  ignore (Sys.run sys);
  m

(* Random fault-ins beside evictions, with RAM a quarter of the working
   set. *)
let swap_world () =
  let journal = "leave_per_residency_swap.journal" in
  let users = List.init 3 (fun u -> (u + 1, List.init 40 (fun _ -> (0, 1, 4)))) in
  let w =
    I432_load.Working_set.boot
      ~config:
        {
          Imax.System.default_config with
          Imax.System.processors = 2;
          memory_manager = Imax.System.Swapping_lru;
          trace_level = Obs.Tracer.Events;
        }
      ~journal ~sync_every:4 ~ram_bytes:(128 * 64 / 4) ~objects:128
      ~object_bytes:64 ~seed:5 ~users
  in
  let m = I432_load.Working_set.machine w in
  ignore (K.Machine.run m);
  I432_store.Store.close (I432_load.Working_set.store w);
  I432_store.Store.remove_files journal;
  m

let test_one_leave_per_residency () =
  let spooler = check_one_leave_per_residency "spooler" (spooler_world ()) in
  (* A second GDP fails while it runs a process. *)
  let chaos, _ =
    chaos_spooler ~trace_level:Obs.Tracer.Events
      ~injections:[ (500_000, K.Machine.Inj_cpu_fault 3) ]
      ()
  in
  let chaos = check_one_leave_per_residency "chaos" chaos in
  let swap = check_one_leave_per_residency "swap" (swap_world ()) in
  (* Between them the worlds take every way off a processor. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (Obs.Event.kind_to_string k ^ " seen") true
        (List.mem k (spooler @ chaos @ swap)))
    Obs.Event.
      [ Block_send; Block_receive; Sleep; Yield; Preempt; Exit; Finish;
        Fault; Proc_requeued ]

(* A pulled counter is read live by every reader and folds into a plain
   counter when merged; registering its name again, or asking [counter]
   for it, raises. *)
let test_metrics_pull () =
  let r = Obs.Metrics.create () in
  let owner = ref 3 in
  Obs.Metrics.pull r "owner.count" (fun () -> !owner);
  Obs.Metrics.incr ~by:2 (Obs.Metrics.counter r "plain.count");
  owner := 7;
  let value name =
    Option.map Obs.Metrics.counter_value (Obs.Metrics.find_counter r name)
  in
  Alcotest.(check (option int)) "find_counter" (Some 7) (value "owner.count");
  Alcotest.(check int) "count" 7 (Obs.Metrics.count r "owner.count");
  let listed () =
    List.map
      (fun c -> (Obs.Metrics.counter_name c, Obs.Metrics.counter_value c))
      (Obs.Metrics.counters r)
  in
  Alcotest.(check (list (pair string int))) "counters"
    [ ("owner.count", 7); ("plain.count", 2) ]
    (listed ());
  (* The same values held in plain counters dump the same bytes. *)
  let plain = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:7 (Obs.Metrics.counter plain "owner.count");
  Obs.Metrics.incr ~by:2 (Obs.Metrics.counter plain "plain.count");
  let json r = Obs.Jout.to_string (Obs.Metrics.to_json r) in
  Alcotest.(check string) "render" (Obs.Metrics.render plain)
    (Obs.Metrics.render r);
  Alcotest.(check string) "to_json" (json plain) (json r);
  owner := 9;
  Alcotest.(check int) "read live" 9 (Obs.Metrics.count r "owner.count");
  Alcotest.(check (list (pair string int))) "counters read live"
    [ ("owner.count", 9); ("plain.count", 2) ]
    (listed ());
  let dst = Obs.Metrics.create () in
  Obs.Metrics.merge_into ~dst ~src:r;
  owner := 100;
  let merged = Obs.Metrics.counter dst "owner.count" in
  Alcotest.(check int) "merged as its value then" 9
    (Obs.Metrics.counter_value merged);
  Obs.Metrics.incr merged;
  Alcotest.(check int) "merged counter is plain" 10
    (Obs.Metrics.counter_value merged);
  (* A pulled counter's record is a reading: writing it changes nothing. *)
  Obs.Metrics.incr (Option.get (Obs.Metrics.find_counter r "owner.count"));
  Alcotest.(check int) "still read live" 100 (Obs.Metrics.count r "owner.count");
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  raises "pull twice" (fun () -> Obs.Metrics.pull r "owner.count" (fun () -> 0));
  raises "pull a plain name" (fun () ->
      Obs.Metrics.pull r "plain.count" (fun () -> 0));
  raises "counter on a pulled name" (fun () ->
      Obs.Metrics.incr (Obs.Metrics.counter r "owner.count"))

let suite =
  [
    ("tracer: ring overflow", `Quick, test_ring_overflow);
    ("tracer: one ring per machine", `Quick, test_one_ring_per_machine);
    ("tracer: off level inert", `Quick, test_off_level_is_inert);
    ("tracer: kind codes roundtrip", `Quick, test_kind_codes_roundtrip);
    ("event: kind table pinned", `Quick, test_kind_table_pinned);
    ("shim: byte-identical lines", `Quick, test_legacy_lines_byte_identical);
    ("shim: silent at Events", `Quick, test_events_level_has_no_legacy_lines);
    ("shim: one leave per residency", `Quick, test_one_leave_per_residency);
    ( "shim: survives ring overflow",
      `Quick,
      test_legacy_lines_survive_ring_overflow );
    ("determinism: events and metrics", `Quick, test_event_stream_determinism);
    ("export: chrome trace", `Quick, test_chrome_export_structure);
    ("metrics: registry", `Quick, test_metrics_registry);
    ("metrics: machine instruments", `Quick, test_machine_metrics_populated);
    ("snapshot: observability fields", `Quick, test_snapshot_observability_fields);
    QCheck_alcotest.to_alcotest prop_events_match_list_model;
    ("metrics: int observe = float observe", `Quick, test_metrics_observe_int);
    ("metrics: log histogram output pinned", `Quick, test_log_hist_output_pinned);
    ("metrics: kernel counts agree with owners", `Quick, test_kernel_counts_agree);
    ("metrics: pulled counters", `Quick, test_metrics_pull);
    QCheck_alcotest.to_alcotest prop_packed_ring_matches_model;
    ("tracer: field limits raise", `Quick, test_field_limits_raise);
  ]
