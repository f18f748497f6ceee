(* Named metrics registry: counters, gauges, and Stats-backed histograms.

   Instrumentation sites resolve their instrument once (at machine boot)
   and then update a bare mutable field on the hot path — no hashing, no
   allocation.  The registry exists for the cold paths: enumeration,
   snapshotting, and the JSON dump.

   Dumps are sorted by name, so two identical runs produce byte-identical
   metrics JSON — the same determinism contract as the event tracer. *)

open I432_util

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }
type histogram = { m_name : string; m_hist : Stats.hist }
type log_histogram = { l_name : string; l_hist : Stats.log_hist }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  log_histograms : (string, log_histogram) Hashtbl.t;
  (* Domain id of the current writer, -1 if unclaimed.  Registries are not
     thread-safe: exactly one domain may update instruments at a time.
     The parallel cluster engine claims each node's registry for the
     duration of a round slice; a second claim from a different domain is
     a bug in the engine's partitioning, not a race to tolerate. *)
  mutable writer : int;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    log_histograms = Hashtbl.create 16;
    writer = -1;
  }

let claim t =
  let self = (Stdlib.Domain.self () :> int) in
  if t.writer >= 0 && t.writer <> self then
    failwith
      (Printf.sprintf
         "Metrics.claim: registry already claimed by domain %d (self %d)"
         t.writer self);
  t.writer <- self

let release t = t.writer <- -1

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

(* [by] has no default: a default splits a function into a wrapper and
   a body, and the body is not inlined into callers. *)
let incr ?by c =
  c.c_value <- (c.c_value + match by with None -> 1 | Some n -> n)
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let counter_name c = c.c_name

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0 } in
    Hashtbl.replace t.gauges name g;
    g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram t ?(buckets = 32) ?(lo = 0.0) ?(hi = 1.0e6) name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = { m_name = name; m_hist = Stats.hist_create ~buckets ~lo ~hi () } in
    Hashtbl.replace t.histograms name h;
    h

let observe h x = Stats.hist_observe h.m_hist x
let observe_int h n = Stats.hist_observe_int h.m_hist n

(* Log-bucketed histograms: quantile-capable over multi-decade ranges
   (request latencies).  Defaults cover 10 ns .. 10 s of virtual time at
   ~15% relative bucket width. *)
let log_histogram t ?(per_decade = 16) ?(lo = 10.0) ?(decades = 9) name =
  match Hashtbl.find_opt t.log_histograms name with
  | Some h -> h
  | None ->
    let h =
      { l_name = name; l_hist = Stats.log_hist_create ~per_decade ~lo ~decades () }
    in
    Hashtbl.replace t.log_histograms name h;
    h

let observe_log h x = Stats.log_hist_observe h.l_hist x
let observe_log_int h n = Stats.log_hist_observe_int h.l_hist n
let log_quantile h q = Stats.log_hist_quantile h.l_hist q

let find_counter t name = Hashtbl.find_opt t.counters name
let find_gauge t name = Hashtbl.find_opt t.gauges name
let find_histogram t name = Hashtbl.find_opt t.histograms name

let count t name =
  match find_counter t name with Some c -> c.c_value | None -> 0
let find_log_histogram t name = Hashtbl.find_opt t.log_histograms name

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t = List.map snd (sorted_bindings t.counters)

let hist_json (h : Stats.hist) =
  let open Jout in
  Obj
    [
      ("lo", Float h.Stats.h_lo);
      ("hi", Float h.Stats.h_hi);
      ("count", Int h.Stats.h_count);
      ("sum", Float (Stats.hist_sum h));
      ("mean", Float (Stats.hist_mean h));
      ( "min",
        if h.Stats.h_count = 0 then Null else Float h.Stats.h_min );
      ( "max",
        if h.Stats.h_count = 0 then Null else Float h.Stats.h_max );
      ("underflow", Int h.Stats.h_underflow);
      ("overflow", Int h.Stats.h_overflow);
      ( "buckets",
        Arr (Array.to_list (Array.map (fun c -> Int c) h.Stats.h_counts)) );
    ]

let log_hist_json (h : Stats.log_hist) =
  let open Jout in
  Obj
    [
      ("lo", Float h.Stats.lh_lo);
      ("per_decade", Int h.Stats.lh_per_decade);
      ("count", Int h.Stats.lh_count);
      ("sum", Float (Stats.log_hist_sum h));
      ("mean", Float (Stats.log_hist_mean h));
      ("min", if h.Stats.lh_count = 0 then Null else Float (Stats.log_hist_min h));
      ("max", if h.Stats.lh_count = 0 then Null else Float (Stats.log_hist_max h));
      ("p50", Float (Stats.log_hist_quantile h 0.50));
      ("p99", Float (Stats.log_hist_quantile h 0.99));
      ("p999", Float (Stats.log_hist_quantile h 0.999));
      ("underflow", Int h.Stats.lh_underflow);
      ("overflow", Int h.Stats.lh_overflow);
      ( "buckets",
        Arr (Array.to_list (Array.map (fun c -> Int c) h.Stats.lh_counts)) );
    ]

let to_json t =
  let open Jout in
  Obj
    ([
       ("schema", Str "imax432-metrics/1");
       ( "counters",
         Obj (List.map (fun (k, c) -> (k, Int c.c_value)) (sorted_bindings t.counters)) );
       ( "gauges",
         Obj (List.map (fun (k, g) -> (k, Int g.g_value)) (sorted_bindings t.gauges)) );
       ( "histograms",
         Obj
           (List.map
              (fun (k, h) -> (k, hist_json h.m_hist))
              (sorted_bindings t.histograms)) );
     ]
    (* Only present when some site registered one: dumps from runs without
       a load generator stay byte-identical to pre-log-histogram runs. *)
    @
    if Hashtbl.length t.log_histograms = 0 then []
    else
      [
        ( "log_histograms",
          Obj
            (List.map
               (fun (k, h) -> (k, log_hist_json h.l_hist))
               (sorted_bindings t.log_histograms)) );
      ])

(* Fold [src] into [dst]: counters and gauges add; histograms of the same
   name must share a shape and their buckets add.  Merging the per-node
   registries of a cluster in node order yields the same bytes from
   [to_json]/[render] regardless of which domain stepped which node,
   because dumps are name-sorted and the fold order is fixed by the
   caller. *)
let merge_into ~dst ~src =
  List.iter
    (fun (k, (c : counter)) ->
      let d = counter dst k in
      d.c_value <- d.c_value + c.c_value)
    (sorted_bindings src.counters);
  List.iter
    (fun (k, (g : gauge)) ->
      let d = gauge dst k in
      d.g_value <- d.g_value + g.g_value)
    (sorted_bindings src.gauges);
  List.iter
    (fun (k, (h : histogram)) ->
      let d =
        histogram dst
          ~buckets:(Array.length h.m_hist.Stats.h_counts)
          ~lo:h.m_hist.Stats.h_lo ~hi:h.m_hist.Stats.h_hi k
      in
      Stats.hist_merge_into ~dst:d.m_hist ~src:h.m_hist)
    (sorted_bindings src.histograms);
  List.iter
    (fun (k, (h : log_histogram)) ->
      let per_decade = h.l_hist.Stats.lh_per_decade in
      let d =
        log_histogram dst ~per_decade ~lo:h.l_hist.Stats.lh_lo
          ~decades:(Array.length h.l_hist.Stats.lh_counts / per_decade)
          k
      in
      Stats.log_hist_merge_into ~dst:d.l_hist ~src:h.l_hist)
    (sorted_bindings src.log_histograms)

(* Human-readable rendering for operator tooling. *)
let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (k, c) -> Printf.bprintf buf "counter %-28s %d\n" k c.c_value)
    (sorted_bindings t.counters);
  List.iter
    (fun (k, g) -> Printf.bprintf buf "gauge   %-28s %d\n" k g.g_value)
    (sorted_bindings t.gauges);
  List.iter
    (fun (k, h) ->
      let s = h.m_hist in
      Printf.bprintf buf
        "hist    %-28s count %d mean %.1f under %d over %d\n" k
        s.Stats.h_count (Stats.hist_mean s) s.Stats.h_underflow
        s.Stats.h_overflow)
    (sorted_bindings t.histograms);
  List.iter
    (fun (k, h) ->
      let s = h.l_hist in
      Printf.bprintf buf
        "loghist %-28s count %d mean %.1f p50 %.1f p99 %.1f p999 %.1f\n" k
        s.Stats.lh_count (Stats.log_hist_mean s)
        (Stats.log_hist_quantile s 0.50)
        (Stats.log_hist_quantile s 0.99)
        (Stats.log_hist_quantile s 0.999))
    (sorted_bindings t.log_histograms);
  Buffer.contents buf
