(* Tests for the observability layer: tracer rings (overflow, drop
   accounting), the legacy trace lines rendered from the rings (byte
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

(* ---------------- Tracer rings ---------------- *)

let test_ring_overflow () =
  (* Capacity 4, 7 events: the ring keeps the newest 4 and counts the 3 it
     recycled. *)
  let t = Obs.Tracer.create ~capacity:4 ~level:Obs.Tracer.Events ~processors:1 () in
  for i = 1 to 7 do
    emit t ~ts_ns:(i * 10) ~cpu:0 ~a:i Obs.Event.Yield
  done;
  Alcotest.(check int) "emitted" 7 (Obs.Tracer.emitted t);
  Alcotest.(check int) "retained" 4 (Obs.Tracer.retained t);
  Alcotest.(check int) "dropped" 3 (Obs.Tracer.dropped t);
  Alcotest.(check int) "dropped on cpu 0" 3 (Obs.Tracer.dropped_on t ~cpu:0);
  let events = Obs.Tracer.events t in
  Alcotest.(check (list int)) "oldest three recycled" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Obs.Event.seq) events);
  Alcotest.(check (list int)) "payloads survive" [ 4; 5; 6; 7 ]
    (List.map (fun e -> e.Obs.Event.a) events)

let test_rings_are_per_processor () =
  let t = Obs.Tracer.create ~capacity:2 ~level:Obs.Tracer.Events ~processors:2 () in
  (* Overflow cpu 0 only; cpu 1 and the boot ring (-1) are untouched. *)
  for i = 1 to 5 do
    emit t ~ts_ns:i ~cpu:0 Obs.Event.Yield
  done;
  emit t ~ts_ns:6 ~cpu:1 Obs.Event.Yield;
  emit t ~ts_ns:7 ~cpu:(-1) Obs.Event.Spawn;
  Alcotest.(check int) "cpu 0 dropped" 3 (Obs.Tracer.dropped_on t ~cpu:0);
  Alcotest.(check int) "cpu 1 kept all" 0 (Obs.Tracer.dropped_on t ~cpu:1);
  Alcotest.(check int) "boot ring kept all" 0 (Obs.Tracer.dropped_on t ~cpu:(-1));
  Alcotest.(check int) "retained across rings" 4 (Obs.Tracer.retained t)

let test_off_level_is_inert () =
  let t = Obs.Tracer.create ~level:Obs.Tracer.Off ~processors:1 () in
  let name_id = Obs.Tracer.string_id t "ghost" in
  Alcotest.(check int) "no interning" 0 name_id;
  emit t ~ts_ns:1 ~cpu:0 ~name_id Obs.Event.Spawn;
  Alcotest.(check int) "nothing emitted" 0 (Obs.Tracer.emitted t);
  Alcotest.(check int) "nothing retained" 0 (Obs.Tracer.retained t);
  Alcotest.(check (list string)) "no legacy lines" []
    (legacy_lines (Obs.Tracer.events t))

let test_kind_codes_roundtrip () =
  (* The packed rings store kinds as dense ints; the mapping must be a
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

(* Every kind's dense code, name and category, pinned: the tracer's rings,
   the exporters and the subsystem filter all read these, so a reordered
   or renamed kind must show up here. *)
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
    (8, "deschedule", "dispatch");
    (9, "block-send", "port");
    (10, "block-receive", "port");
    (11, "sleep", "dispatch");
    (12, "wake", "dispatch");
    (13, "send", "port");
    (14, "receive", "port");
    (15, "allocate", "sro");
    (16, "release", "sro");
    (17, "sro-create", "sro");
    (18, "sro-destroy", "sro");
    (19, "domain-call", "domain");
    (20, "domain-return", "domain");
    (21, "stop", "proc");
    (22, "start", "proc");
    (23, "gc-mark-begin", "gc");
    (24, "gc-mark-end", "gc");
    (25, "gc-sweep-begin", "gc");
    (26, "gc-sweep-end", "gc");
    (27, "fi-inject", "fi");
    (28, "cpu-offline", "dispatch");
    (29, "proc-requeued", "dispatch");
    (30, "alloc-retry", "sro");
    (31, "timeout-fired", "port");
    (32, "proc-restarted", "proc");
    (33, "remote-send", "net");
    (34, "remote-deliver", "net");
    (35, "frame-tx", "net");
    (36, "frame-rx", "net");
    (37, "journal-append", "store");
    (38, "journal-sync", "store");
    (39, "store-compact", "store");
    (40, "ckpt-save", "store");
    (41, "ckpt-restore", "store");
    (42, "req-issue", "load");
    (43, "req-done", "load");
    (44, "node-kill", "net");
    (45, "node-restart", "net");
    (46, "frame-dead", "net");
    (47, "dead-letter", "net");
    (48, "swap-out", "vm");
    (49, "swap-in", "vm");
    (50, "swap-fault", "vm");
    (51, "txn-commit", "txn");
    (52, "txn-abort", "txn");
    (53, "txn-dup-drop", "txn");
    (54, "hist-append", "txn");
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

let test_subsystem_filter () =
  let t = Obs.Tracer.create ~level:Obs.Tracer.Events ~processors:1 () in
  (* Keep only the port subsystem: process events are skipped before any
     ring store, and [wants] reports the mask so emitters can skip
     timestamp computation and string formatting too. *)
  Obs.Tracer.set_filter t ~keep:(Some [ "port" ]);
  Alcotest.(check bool) "wants port" true (Obs.Tracer.wants t Obs.Event.Send);
  Alcotest.(check bool) "rejects proc" false
    (Obs.Tracer.wants t Obs.Event.Spawn);
  emit t ~ts_ns:1 ~cpu:0 ~name_id:(Obs.Tracer.string_id t "p") Obs.Event.Spawn;
  emit t ~ts_ns:2 ~cpu:0 ~name_id:(Obs.Tracer.string_id t "q") Obs.Event.Send;
  Alcotest.(check int) "only port event stored" 1 (Obs.Tracer.emitted t);
  (match Obs.Tracer.events t with
  | [ e ] -> Alcotest.(check string) "kept the send" "send"
      (Obs.Event.kind_to_string e.Obs.Event.kind)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* None restores the all-pass mask. *)
  Obs.Tracer.set_filter t ~keep:None;
  emit t ~ts_ns:3 ~cpu:0 ~name_id:(Obs.Tracer.string_id t "r") Obs.Event.Spawn;
  Alcotest.(check int) "unfiltered again" 2 (Obs.Tracer.emitted t);
  (* Unknown subsystem names are refused. *)
  Alcotest.check_raises "bad subsystem"
    (Invalid_argument "Tracer.set_filter: subsystem \"nope\"") (fun () ->
      Obs.Tracer.set_filter t ~keep:(Some [ "nope" ]));
  (* Off level wins over any mask. *)
  let off = Obs.Tracer.create ~level:Obs.Tracer.Off ~processors:1 () in
  Alcotest.(check bool) "off never wants" false
    (Obs.Tracer.wants off Obs.Event.Send)

(* [Tracer.events] merges the rings; the model is the concat-then-sort it
   replaced.  Random emissions on random cpus (the boot ring, each
   processor, and out-of-range cpus, which share the boot ring) into rings
   small enough to overflow: the model keeps each ring's newest
   [capacity] events, concatenates the rings and sorts by seq, and the
   merge must return exactly that list. *)
let prop_events_merge_matches_sort =
  QCheck2.Test.make ~name:"tracer: events = rings concatenated and sorted"
    ~count:200
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 1 6)
        (list_size (int_range 0 120) (pair (int_range (-2) 5) small_nat)))
    (fun (processors, capacity, script) ->
      let t =
        Obs.Tracer.create ~capacity ~level:Obs.Tracer.Events ~processors ()
      in
      let rings = Array.make (processors + 1) [] in
      List.iteri
        (fun seq (cpu, a) ->
          let kind = if a mod 2 = 0 then Obs.Event.Yield else Obs.Event.Wake in
          Obs.Tracer.emit t kind ~cpu ~ts_ns:(10 * a) ~name_id:0 ~detail_id:0
            ~a ~b:seq;
          let ring =
            if cpu + 1 >= 0 && cpu + 1 <= processors then cpu + 1 else 0
          in
          let e =
            { Obs.Event.seq; ts_ns = 10 * a; cpu; kind; name = ""; detail = "";
              a; b = seq }
          in
          rings.(ring) <-
            List.filteri (fun i _ -> i < capacity) (e :: rings.(ring)))
        script;
      let model =
        List.sort
          (fun (x : Obs.Event.t) y -> compare x.Obs.Event.seq y.Obs.Event.seq)
          (List.concat_map List.rev (Array.to_list rings))
      in
      List.map Obs.Event.to_string (Obs.Tracer.events t)
      = List.map Obs.Event.to_string model)

(* ---------------- Legacy lines, rendered from the rings ---------------- *)

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
  (* The tracer keeps no text: at Events a trace is its rings, and the
     rendered transcript has one line per retained event of the five
     legacy kinds — nothing else. *)
  let m = workload ~level:Obs.Tracer.Events () in
  let events = K.Machine.events m in
  let legacy_kind (e : Obs.Event.t) =
    match e.Obs.Event.kind with
    | Obs.Event.Spawn | Stop | Start | Finish | Deschedule -> true
    | _ -> false
  in
  Alcotest.(check bool) "events recorded" true (events <> []);
  Alcotest.(check int) "one line per legacy-kind event"
    (List.length (List.filter legacy_kind events))
    (List.length (legacy_lines events))

let test_legacy_lines_survive_ring_overflow () =
  (* The rings are the only copy of a trace: after an overflow the
     renderer sees the retained window only, so a reader that needs the
     full transcript must check [dropped] (as [imax_ctl trace --legacy]
     does) instead of trusting the lines. *)
  let t =
    Obs.Tracer.create ~capacity:2 ~level:Obs.Tracer.Events ~processors:1 ()
  in
  let name_id = Obs.Tracer.string_id t "p" in
  for i = 1 to 6 do
    emit t ~ts_ns:i ~cpu:0 ~name_id ~a:i Obs.Event.Spawn
  done;
  Alcotest.(check int) "rings overflowed" 4 (Obs.Tracer.dropped t);
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
  let json = Obs.Export.chrome_trace ~processors:2 events in
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
      (Obs.Export.chrome_trace ~processors:2 (K.Machine.events m2))
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

let suite =
  [
    ("tracer: ring overflow", `Quick, test_ring_overflow);
    ("tracer: per-processor rings", `Quick, test_rings_are_per_processor);
    ("tracer: off level inert", `Quick, test_off_level_is_inert);
    ("tracer: kind codes roundtrip", `Quick, test_kind_codes_roundtrip);
    ("event: kind table pinned", `Quick, test_kind_table_pinned);
    ("tracer: subsystem filter", `Quick, test_subsystem_filter);
    ("shim: byte-identical lines", `Quick, test_legacy_lines_byte_identical);
    ("shim: silent at Events", `Quick, test_events_level_has_no_legacy_lines);
    ( "shim: survives ring overflow",
      `Quick,
      test_legacy_lines_survive_ring_overflow );
    ("determinism: events and metrics", `Quick, test_event_stream_determinism);
    ("export: chrome trace", `Quick, test_chrome_export_structure);
    ("metrics: registry", `Quick, test_metrics_registry);
    ("metrics: machine instruments", `Quick, test_machine_metrics_populated);
    ("snapshot: observability fields", `Quick, test_snapshot_observability_fields);
    QCheck_alcotest.to_alcotest prop_events_merge_matches_sort;
    ("metrics: int observe = float observe", `Quick, test_metrics_observe_int);
    ("metrics: log histogram output pinned", `Quick, test_log_hist_output_pinned);
  ]
