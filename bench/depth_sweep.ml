(* Depth-sweep micro-bench: host cost of one steady-state hot-path
   operation at queue/backlog/fragmentation depths 10, 100, 1k, 10k, for
   the live O(log n) structures and the frozen seed O(n) baselines
   (Baselines).  The per-depth ns/op numbers, before/after deltas, and the
   10k/10 scaling ratios feed BENCH_micro.json so perf claims land with
   machine-readable evidence.

   Virtual time is untouched by everything here: these are wall-clock
   costs of *simulating* the structures, the axis the ROADMAP's scale
   sweeps are limited by. *)

open I432
open I432_util
module K = I432_kernel

let depths = [ 10; 100; 1_000; 10_000 ]
let priority_levels = 16

(* Wall-clock ns per op: best of [trials] batches, after a warm-up and a
   full major collection.  The minimum rejects GC pauses and scheduler
   interference; the collection isolates each measurement from heap
   state left behind by earlier scenarios (or by the bechamel pass, which
   precedes the sweep in full mode).

   A batch is [reps / trials] ops, doubled until one batch spans
   [min_batch_s]: the clock steps by 1 us, so ten 70 ns ops timed alone
   read 0 or 100 ns. *)
let trials = 5
let min_batch_s = 1e-3

let time_batch f n =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  Unix.gettimeofday () -. t0

let time_ns ~reps f =
  for _ = 1 to min reps 100 do
    f ()
  done;
  let per = ref (max 1 (reps / trials)) in
  while time_batch f !per < min_batch_s do
    per := 2 * !per
  done;
  Gc.full_major ();
  let best = ref infinity in
  for _ = 1 to trials do
    best := Float.min !best (time_batch f !per)
  done;
  !best *. 1e9 /. float_of_int !per

(* Reps scale down with depth so the O(n) baselines finish in bounded
   time; each (structure, depth) pair uses the same count for both
   implementations. *)
let reps_for ~smoke depth =
  if smoke then max 50 (20_000 / depth) else max 400 (2_000_000 / depth)

(* ---- dispatcher ready queue: steady-state pop + re-enqueue ---- *)

let dispatch_levels ~depth ~reps =
  let d = K.Dispatch.create () in
  let prng = Prng.create ~seed:1 in
  for i = 0 to depth - 1 do
    let process =
      K.Process.create ~index:i ~ordinal:i ~name:"p" ~daemon:false ~priority:0
        ~system_level:4 ignore
    in
    K.Dispatch.enqueue d ~process ~priority:(Prng.int prng priority_levels)
  done;
  let all = fun _ -> true in
  time_ns ~reps (fun () ->
      match K.Dispatch.pop d ~eligible:all with
      | p when p == K.Process.none -> assert false
      | process ->
        K.Dispatch.enqueue d ~process ~priority:(Prng.int prng priority_levels))

let dispatch_list ~depth ~reps =
  let d = Baselines.List_dispatch.create () in
  let prng = Prng.create ~seed:1 in
  for i = 0 to depth - 1 do
    Baselines.List_dispatch.enqueue d ~process:i
      ~priority:(Prng.int prng priority_levels)
  done;
  let all = fun _ -> true in
  time_ns ~reps (fun () ->
      match Baselines.List_dispatch.pop d ~eligible:all with
      | Some p ->
        Baselines.List_dispatch.enqueue d ~process:p
          ~priority:(Prng.int prng priority_levels)
      | None -> assert false)

(* ---- priority-port backlog: steady-state dequeue + enqueue ---- *)

let port_pqueue ~depth ~reps =
  let p = K.Port.make ~self:0 ~capacity:(depth + 1) ~discipline:K.Port.Priority in
  let prng = Prng.create ~seed:2 in
  let msg = Access.make ~index:0 ~rights:Rights.full in
  for _ = 1 to depth do
    K.Port.enqueue p ~msg ~priority:(Prng.int prng priority_levels) ~now:0
  done;
  time_ns ~reps (fun () ->
      ignore (K.Port.dequeue p ~now:0);
      K.Port.enqueue p ~msg ~priority:(Prng.int prng priority_levels) ~now:0)

let port_list ~depth ~reps =
  let p = Baselines.List_port.create () in
  let prng = Prng.create ~seed:2 in
  for _ = 1 to depth do
    Baselines.List_port.enqueue p ~priority:(Prng.int prng priority_levels)
  done;
  time_ns ~reps (fun () ->
      ignore (Baselines.List_port.dequeue p);
      Baselines.List_port.enqueue p ~priority:(Prng.int prng priority_levels))

(* ---- SRO free store under fragmentation: first-fit carve + free ----

   [depth] small regions (length 64 at stride 128, so they never coalesce)
   model a fragmented heap; a 256-byte island sits past them.  The op
   allocates 200 bytes — which first-fit can only satisfy at the island,
   forcing the seed list to scan every small region — then frees it. *)

let frag_layout depth =
  let small = List.init depth (fun i -> (i * 128, 64)) in
  small @ [ (depth * 128, 256) ]

let sro_tree ~depth ~reps =
  let fs = Free_store.create () in
  List.iter (fun (base, length) -> Free_store.insert fs ~base ~length)
    (frag_layout depth);
  time_ns ~reps (fun () ->
      match Free_store.take_first_fit fs ~size:200 with
      | -1 -> assert false
      | base -> Free_store.insert fs ~base ~length:200)

let sro_list ~depth ~reps =
  let fs = Baselines.List_free_store.create () in
  List.iter
    (fun (base, length) -> Baselines.List_free_store.give fs ~base ~length)
    (frag_layout depth);
  time_ns ~reps (fun () ->
      match Baselines.List_free_store.take fs 200 with
      | Some base -> Baselines.List_free_store.give fs ~base ~length:200
      | None -> assert false)

(* ---- sweep driver ---- *)

type row = {
  structure : string;
  impl : string;
  depth : int;
  ns_per_op : float;
}

let structures =
  [
    ("dispatch-ready-queue", "intrusive-levels", dispatch_levels);
    ("dispatch-ready-queue", "seed-list", dispatch_list);
    ("port-priority-backlog", "pairing-heap", port_pqueue);
    ("port-priority-backlog", "seed-list", port_list);
    ("sro-free-store", "fit-tree", sro_tree);
    ("sro-free-store", "seed-list", sro_list);
  ]

let run ~smoke =
  List.concat_map
    (fun (structure, impl, f) ->
      List.map
        (fun depth ->
          let ns = f ~depth ~reps:(reps_for ~smoke depth) in
          { structure; impl; depth; ns_per_op = ns })
        depths)
    structures

(* A cell that read 0 ns (or NaN) was timed below the clock's step. *)
let empty_cell rows = List.find_opt (fun r -> not (r.ns_per_op > 0.0)) rows

let find rows ~structure ~impl ~depth =
  List.find
    (fun r -> r.structure = structure && r.impl = impl && r.depth = depth)
    rows

(* 10k-entry cost as a multiple of the 10-entry cost, one unbounded
   reading per (structure, impl): the live structures read up to ~5x on a
   2-vCPU host, the seed lists >100x. *)
let scaling rows =
  List.map
    (fun (structure, impl, _) ->
      let at depth = (find rows ~structure ~impl ~depth).ns_per_op in
      Reading.v (structure ^ "/" ^ impl) "x" (at 10_000 /. at 10))
    structures

(* The sweep's JSON fields: its cells, and before/after at each depth,
   where seed-list is "before" and the live impl is "after". *)
let to_json rows =
  let open Json_out in
  let cell r =
    Obj
      [
        ("structure", Str r.structure);
        ("impl", Str r.impl);
        ("depth", Int r.depth);
        ("ns_per_op", Float r.ns_per_op);
      ]
  in
  let delta (structure, live) depth =
    let before = (find rows ~structure ~impl:"seed-list" ~depth).ns_per_op in
    let after = (find rows ~structure ~impl:live ~depth).ns_per_op in
    Obj
      [
        ("structure", Str structure);
        ("depth", Int depth);
        ("before_ns", Float before);
        ("after_ns", Float after);
        ("speedup", Float (before /. after));
      ]
  in
  [
    ("depth_sweep", Arr (List.map cell rows));
    ( "deltas",
      Arr
        (List.concat_map
           (fun pair -> List.map (delta pair) depths)
           [
             ("dispatch-ready-queue", "intrusive-levels");
             ("port-priority-backlog", "pairing-heap");
             ("sro-free-store", "fit-tree");
           ]) );
  ]

let print_summary rows =
  print_endline "Depth sweep (host ns per steady-state op):";
  Printf.printf "  %-24s %-14s %10s %10s %10s %10s\n" "structure" "impl" "d=10"
    "d=100" "d=1k" "d=10k";
  List.iter
    (fun (structure, impl, _) ->
      let cell depth =
        match find rows ~structure ~impl ~depth with
        | r -> Printf.sprintf "%10.0f" r.ns_per_op
        | exception Not_found -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "  %-24s %-14s %s %s %s %s\n" structure impl (cell 10)
        (cell 100) (cell 1_000) (cell 10_000))
    structures
