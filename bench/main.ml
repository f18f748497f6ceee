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

let run_micro args =
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let gate = List.mem "--assert-trace-overhead" args in
  let par_gate = List.mem "--assert-par-speedup" args in
  let swap_gate = List.mem "--assert-swap-overhead" args in
  let read_gate = List.mem "--assert-store-read" args in
  let append_gate = List.mem "--assert-store-append" args in
  let run_loop_gate = List.mem "--assert-run-loop" args in
  let out =
    let rec go = function
      | "--out" :: path :: _ -> path
      | _ :: rest -> go rest
      | [] -> "BENCH_micro.json"
    in
    go args
  in
  if not json then Micro.run ()
  else begin
    (* Smoke mode keeps the sweep (it is the asymptotic evidence) but
       skips the slower bechamel estimates. *)
    let estimates = if smoke then [] else Micro.collect () in
    if estimates <> [] then Micro.print_estimates estimates;
    let rows = Depth_sweep.run ~smoke in
    Depth_sweep.print_summary rows;
    let overhead =
      Paired.best_epoch
        ~measure:(Trace_overhead.measure ~smoke)
        ~print:Trace_overhead.print_summary
        ~pct:(fun r -> r.Trace_overhead.overhead_pct)
        ~check:Trace_overhead.check
    in
    let fi_overhead = Fi_overhead.measure ~smoke () in
    Fi_overhead.print_summary fi_overhead;
    let swap_overhead =
      Paired.best_epoch
        ~measure:(Swap_overhead.measure ~smoke)
        ~print:Swap_overhead.print_summary
        ~pct:(fun r -> r.Swap_overhead.overhead_pct)
        ~check:Swap_overhead.check
    in
    let net_rtt = Net_rtt.measure ~smoke () in
    Net_rtt.print_summary net_rtt;
    let store_tp = Store_tp.measure ~smoke () in
    Store_tp.print_summary store_tp;
    let par_speedup = Par_speedup.measure ~smoke () in
    Par_speedup.print_summary par_speedup;
    let run_loop = Run_loop.measure ~smoke () in
    Run_loop.print_summary run_loop;
    let mode = if smoke then "smoke" else "full" in
    Json_out.write_file ~path:out
      (Depth_sweep.to_json ~bechamel:estimates ~trace_overhead:overhead
         ~fi_overhead ~net_rtt ~store_tp ~par_speedup ~swap_overhead ~run_loop
         ~mode rows);
    Printf.printf "wrote %s\n" out;
    if gate && not (Trace_overhead.check overhead) then begin
      Printf.printf "FAIL: trace overhead %.2f%% >= %.1f%% budget\n"
        overhead.Trace_overhead.overhead_pct Trace_overhead.limit_pct;
      exit 1
    end;
    if par_gate && not (Par_speedup.check par_speedup) then begin
      if not par_speedup.Par_speedup.streams_equal then
        print_endline "FAIL: parallel engine streams diverged from sequential"
      else
        Printf.printf "FAIL: par speedup x%.2f < x%.1f at 4 domains\n"
          par_speedup.Par_speedup.speedup4 Par_speedup.limit;
      exit 1
    end;
    if swap_gate && not (Swap_overhead.check swap_overhead) then begin
      Printf.printf "FAIL: swap-path overhead %.2f%% >= %.1f%% budget\n"
        swap_overhead.Swap_overhead.overhead_pct Swap_overhead.limit_pct;
      exit 1
    end;
    if read_gate && not (Store_tp.check store_tp) then begin
      Printf.printf
        "FAIL: store first-key read x%.2f > x%.1f on a %dx journal\n"
        store_tp.Store_tp.read.Paired.ratio Store_tp.read_limit
        (Store_tp.read_large_records / Store_tp.read_small_records);
      exit 1
    end;
    if append_gate && not (Store_tp.check_append store_tp) then begin
      Printf.printf
        "FAIL: %d store appends cost %s write syscalls (limit %d); %d \
         put+get pairs cost %s (limit %d)\n"
        Store_tp.append_records
        (Store_tp.writes_text store_tp.Store_tp.append_writes)
        (Store_tp.append_limit store_tp)
        Store_tp.append_records
        (Store_tp.writes_text store_tp.Store_tp.swap_writes)
        (Store_tp.swap_limit store_tp);
      exit 1
    end;
    if run_loop_gate && not (Run_loop.check run_loop) then begin
      if not (Run_loop.check_words run_loop) then
        Printf.printf
          "FAIL: run loop allocates %.1f minor words per request > %.0f at \
           %d workers\n"
          run_loop.Run_loop.minor_words_per_request Run_loop.words_limit
          Run_loop.base_workers
      else
        Printf.printf
          "FAIL: run loop host time per request x%.2f > x%.1f at %d vs %d \
           workers\n"
          run_loop.Run_loop.paired.Paired.ratio Run_loop.limit
          Run_loop.test_workers Run_loop.base_workers;
      exit 1
    end
  end

let run_macro args =
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let sane_gate = List.mem "--assert-sane" args in
  let out =
    let rec go = function
      | "--out" :: path :: _ -> path
      | _ :: rest -> go rest
      | [] -> "BENCH_macro.json"
    in
    go args
  in
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
