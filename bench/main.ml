(* Benchmark entry point.

     dune exec bench/main.exe                     # every experiment + ablations
     dune exec bench/main.exe e3                  # one experiment
     dune exec bench/main.exe ablations           # ablations only
     dune exec bench/main.exe micro               # bechamel wall-clock micro-benches
     dune exec bench/main.exe micro -- --json     # + depth sweep, writes BENCH_micro.json
     dune exec bench/main.exe micro -- --json --smoke   # short CI run (skips bechamel)
     dune exec bench/main.exe macro -- --json     # offered-load sweep, writes BENCH_macro.json
     dune exec bench/main.exe macro -- --json --smoke --assert-sane   # CI macro gate
     ... --out PATH                               # JSON destination (default BENCH_{micro,macro}.json)

   Experiment ids and their paper sources are listed in DESIGN.md §4 and
   EXPERIMENTS.md; the JSON schema is documented in EXPERIMENTS.md. *)

let run_named name =
  match List.assoc_opt name (List.map (fun (n, _, f) -> (n, f)) Experiments.all) with
  | Some f ->
    f ();
    print_newline ();
    true
  | None -> false

let run_all_experiments () =
  List.iter
    (fun (id, description, f) ->
      Printf.printf "== %s: %s ==\n" id description;
      f ();
      print_newline ())
    Experiments.all

let run_ablations () =
  List.iter
    (fun (id, description, f) ->
      Printf.printf "== ablation %s: %s ==\n" id description;
      f ();
      print_newline ())
    Ablations.all

(* What [micro --json] measures and a gate can assert on. *)
type micro = {
  trace : Trace_overhead.result;
  par : Par_speedup.result;
  swap : Swap_overhead.result;
  store : Store_tp.result;
  loop : Run_loop.result;
}

(* The [micro] gates: each flag, its check, and the line printed when the
   check fails.  Requested gates run in this order; the first failure
   exits 1. *)
let micro_gates =
  [
    ( "--assert-trace-overhead", (fun r -> Trace_overhead.check r.trace),
      fun r ->
        Printf.sprintf "FAIL: trace overhead %.2f%% >= %.1f%% budget"
          r.trace.overhead_pct Trace_overhead.limit_pct );
    ( "--assert-par-speedup", (fun r -> Par_speedup.check r.par),
      fun r ->
        if not r.par.streams_equal then
          "FAIL: parallel engine streams diverged from sequential"
        else
          Printf.sprintf "FAIL: par speedup x%.2f < x%.1f at 4 domains"
            r.par.speedup4 Par_speedup.limit );
    ( "--assert-swap-overhead", (fun r -> Swap_overhead.check r.swap),
      fun r ->
        Printf.sprintf "FAIL: swap-path overhead %.2f%% >= %.1f%% budget"
          r.swap.overhead_pct Swap_overhead.limit_pct );
    ( "--assert-store-read", (fun r -> Store_tp.check r.store),
      fun r ->
        Printf.sprintf "FAIL: store first-key read x%.2f > x%.1f on a %dx journal"
          r.store.read.ratio Store_tp.read_limit
          (Store_tp.read_large_records / Store_tp.read_small_records) );
    ( "--assert-store-append", (fun r -> Store_tp.check_append r.store),
      fun r ->
        Printf.sprintf
          "FAIL: %d store appends cost %s write syscalls (limit %d); %d \
           put+get pairs cost %s (limit %d)"
          Store_tp.append_records
          (Store_tp.writes_text r.store.append_writes)
          (Store_tp.append_limit r.store) Store_tp.append_records
          (Store_tp.writes_text r.store.swap_writes)
          (Store_tp.swap_limit r.store) );
    ( "--assert-run-loop", (fun r -> Run_loop.check r.loop),
      fun r ->
        if r.loop.minor_words_per_request > Run_loop.words_limit then
          Printf.sprintf
            "FAIL: run loop allocates %.1f minor words per request > %.0f at \
             %d workers"
            r.loop.minor_words_per_request Run_loop.words_limit
            Run_loop.base_workers
        else if
          r.loop.traced_words_per_request > Run_loop.traced_words_limit r.loop
        then
          Printf.sprintf
            "FAIL: traced run allocates %.1f minor words per request > %.1f \
             (untraced + %.0f)"
            r.loop.traced_words_per_request
            (Run_loop.traced_words_limit r.loop)
            Run_loop.traced_words_slack
        else if
          r.loop.cluster_words_per_request > Run_loop.cluster_words_limit
        then
          Printf.sprintf
            "FAIL: cluster run allocates %.1f minor words per request > %.0f"
            r.loop.cluster_words_per_request Run_loop.cluster_words_limit
        else if r.loop.bank_words_per_transfer > Run_loop.bank_words_limit then
          Printf.sprintf
            "FAIL: banking run allocates %.1f minor words per transfer > %.0f"
            r.loop.bank_words_per_transfer Run_loop.bank_words_limit
        else if
          r.loop.bank_history_words_per_transfer
          > Run_loop.bank_history_words_limit
        then
          Printf.sprintf
            "FAIL: banking run filing history allocates %.1f minor words per \
             transfer > %.0f"
            r.loop.bank_history_words_per_transfer
            Run_loop.bank_history_words_limit
        else
          match
            List.find_opt
              (fun ((p : Run_loop.probe), words) -> words > p.bound)
              r.loop.probe_words
          with
          | Some (p, words) ->
            Printf.sprintf "FAIL: %s allocates %.1f minor words > %.0f"
              p.key words p.bound
          | None ->
            Printf.sprintf
              "FAIL: run loop host time per request x%.2f > x%.1f at %d vs %d \
               workers"
              r.loop.paired.ratio Run_loop.limit Run_loop.test_workers
              Run_loop.base_workers );
  ]

(* The [--out PATH] among a subcommand's arguments (the first one wins;
   [default] without one).  Any argument that is neither that nor one of
   [known] is rejected before anything is measured: a mistyped gate flag
   must fail, not silently switch its gate off. *)
let rec out_path ~cmd ~known ~default = function
  | [] -> default
  | "--out" :: path :: rest ->
    ignore (out_path ~cmd ~known ~default rest);
    path
  | flag :: rest when List.mem flag known -> out_path ~cmd ~known ~default rest
  | arg :: _ ->
    Printf.eprintf "main.exe %s: unknown argument %s\n" cmd arg;
    exit 2

let run_micro args =
  let out =
    out_path ~cmd:"micro" ~default:"BENCH_micro.json" args
      ~known:("--json" :: "--smoke" :: List.map (fun (f, _, _) -> f) micro_gates)
  in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  if not json then Micro.run ()
  else begin
    (* Smoke mode keeps the sweep (it is the asymptotic evidence) but
       skips the slower bechamel estimates. *)
    let estimates = if smoke then [] else Micro.collect () in
    if estimates <> [] then Micro.print_estimates estimates;
    let rows = Depth_sweep.run ~smoke in
    Depth_sweep.print_summary rows;
    Option.iter
      (fun (r : Depth_sweep.row) ->
        Printf.printf "FAIL: depth sweep %s %s at d=%d reads %.1f ns per op\n"
          r.structure r.impl r.depth r.ns_per_op;
        exit 1)
      (Depth_sweep.empty_cell rows);
    let trace =
      Paired.best_epoch
        ~measure:(Trace_overhead.measure ~smoke)
        ~print:Trace_overhead.print_summary
        ~pct:(fun r -> r.Trace_overhead.overhead_pct)
        ~check:Trace_overhead.check
    in
    let fi_overhead = Fi_overhead.measure ~smoke () in
    Fi_overhead.print_summary fi_overhead;
    let swap =
      Paired.best_epoch
        ~measure:(Swap_overhead.measure ~smoke)
        ~print:Swap_overhead.print_summary
        ~pct:(fun r -> r.Swap_overhead.overhead_pct)
        ~check:Swap_overhead.check
    in
    let net_rtt = Net_rtt.measure ~smoke () in
    Net_rtt.print_summary net_rtt;
    let store = Store_tp.measure ~smoke () in
    Store_tp.print_summary store;
    let par = Par_speedup.measure ~smoke () in
    Par_speedup.print_summary par;
    let loop = Run_loop.measure ~smoke () in
    Run_loop.print_summary loop;
    let mode = if smoke then "smoke" else "full" in
    Json_out.write_file ~path:out
      (Depth_sweep.to_json ~bechamel:estimates ~trace_overhead:trace
         ~fi_overhead ~net_rtt ~store_tp:store ~par_speedup:par
         ~swap_overhead:swap ~run_loop:loop ~mode rows);
    Printf.printf "wrote %s\n" out;
    let r = { trace; par; swap; store; loop } in
    List.iter
      (fun (flag, check, failure) ->
        if List.mem flag args && not (check r) then begin
          print_endline (failure r);
          exit 1
        end)
      micro_gates
  end

let run_macro args =
  let out =
    out_path ~cmd:"macro" ~default:"BENCH_macro.json" args
      ~known:[ "--json"; "--smoke"; "--assert-sane" ]
  in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let sane_gate = List.mem "--assert-sane" args in
  let r = Macro.measure ~smoke () in
  Macro.print_summary r;
  if json then begin
    Json_out.write_file ~path:out (Macro.to_json r);
    Printf.printf "wrote %s\n" out
  end;
  if sane_gate && not (Macro.check r) then begin
    print_endline
      "FAIL: macro sweep sanity (completion, quantile order, knee, \
       determinism)";
    exit 1
  end

let usage () =
  print_endline
    "usage: main.exe [all|micro [--json] [--smoke] [--out PATH]|macro [--json] \
     [--smoke] [--assert-sane] [--out PATH]|ablations|<experiment-id>]";
  print_endline "experiments:";
  List.iter
    (fun (id, description, _) -> Printf.printf "  %-6s %s\n" id description)
    Experiments.all;
  List.iter
    (fun (id, description, _) -> Printf.printf "  %-14s %s\n" id description)
    Ablations.all

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] ->
    print_endline "iMAX-432 reproduction benchmarks (virtual time at 8 MHz)";
    print_newline ();
    run_all_experiments ();
    run_ablations ();
    Micro.run ()
  | _ :: "micro" :: rest -> run_micro rest
  | _ :: "macro" :: rest -> run_macro rest
  | [ _; "ablations" ] -> run_ablations ()
  | [ _; name ] -> if not (run_named name) then usage ()
  | _ -> usage ()
