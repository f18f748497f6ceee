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

(* The [micro] sections, in the order they are measured: each one's JSON
   name and what measures its readings.  The two overhead gates that host
   noise can push over their bounds re-measure ([Paired.best_epoch]). *)
let micro_sections =
  [
    ("trace_overhead", Paired.best_epoch Trace_overhead.measure);
    ("fi_overhead", Fi_overhead.measure);
    ("swap_overhead", Paired.best_epoch Swap_overhead.measure);
    ("net_rtt", Net_rtt.measure);
    ("store_tp", Store_tp.measure);
    ("store_append", Store_tp.measure_appends);
    ("ckpt_rt", Store_tp.measure_ckpt);
    ("par_speedup", Par_speedup.measure);
    ("run_loop", Run_loop.measure);
  ]

(* Each gate flag and the section whose bounds it asserts.  Requested
   gates run in this order; the first section with a reading past its
   bound prints a line per such reading and exits 1. *)
let micro_gates =
  [
    ("--assert-trace-overhead", "trace_overhead");
    ("--assert-par-speedup", "par_speedup");
    ("--assert-swap-overhead", "swap_overhead");
    ("--assert-store-read", "store_tp");
    ("--assert-store-append", "store_append");
    ("--assert-run-loop", "run_loop");
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
      ~known:("--json" :: "--smoke" :: List.map fst micro_gates)
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
    let sections =
      List.map
        (fun (name, measure) ->
          let readings = measure ~smoke in
          Reading.print name readings;
          (name, readings))
        (("scaling_10k_over_10", fun ~smoke:_ -> Depth_sweep.scaling rows)
        :: micro_sections)
    in
    let open Json_out in
    write_file ~path:out
      (Obj
         ([
            ("schema", Str "imax432-bench-micro/2");
            ("mode", Str (if smoke then "smoke" else "full"));
            ( "bechamel_ns_per_run",
              if estimates = [] then Null
              else Obj (List.map (fun (name, ns) -> (name, Float ns)) estimates)
            );
          ]
         @ Depth_sweep.to_json rows
         @ List.map (fun (name, rs) -> (name, Reading.to_json rs)) sections));
    Printf.printf "wrote %s\n" out;
    List.iter
      (fun (flag, section) ->
        let failures =
          List.filter
            (fun r -> not (Reading.holds r))
            (List.assoc section sections)
        in
        if List.mem flag args && failures <> [] then begin
          List.iter
            (fun r -> print_endline (Reading.failure section r))
            failures;
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
