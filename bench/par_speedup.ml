(* Parallel cluster engine speedup: the same spoke-cluster workload run
   sequentially and on 2 and 4 OCaml domains.

   The workload puts real host CPU on every node, not just virtual time:
   each of the 8 client nodes grinds a local ping-pong pair for [spins]
   kernel steps per job before spooling the job to the hub, so a round
   slice costs each node thousands of dispatcher/port operations that the
   parallel engine can overlap.  The hub only drains the spool.

   Discipline: a traced equality pass first proves the engines produce
   byte-identical per-node event streams on this exact scenario (a
   speedup number for a run that diverged would be meaningless), then
   untraced timing passes take the best of [trials] wall-clock runs per
   engine — min, not mean, because host noise only ever slows a run.

   The speedup bound (x1.3 at 4 domains) only binds on hosts with at
   least 4 cores: [Stdlib.Domain.recommended_domain_count] is recorded in
   the JSON so a single-core container's 1.0x reads as "unmeasurable
   here", not as a regression.  CI runners have 4 vCPUs and enforce the
   real bar. *)

module K = I432_kernel
module Obs = I432_obs
module Net = I432_net
module Odomain = Stdlib.Domain

let client_nodes = 8

let config trace =
  {
    K.Machine.default_config with
    K.Machine.processors = 1;
    trace_level = (if trace then Obs.Tracer.Events else Obs.Tracer.Off);
  }

let build ~trace ~jobs ~spins () =
  let cluster = Net.Cluster.create () in
  let config = config trace in
  let hub, mhub = Net.Cluster.boot_node cluster ~name:"hub" ~config () in
  let clients =
    Array.init client_nodes (fun i ->
        Net.Cluster.boot_node cluster ~name:(Printf.sprintf "c%d" i) ~config ())
  in
  Array.iter
    (fun (id, _) -> ignore (Net.Cluster.connect cluster id hub))
    clients;
  let spool =
    K.Machine.create_port mhub ~capacity:16 ~discipline:K.Port.Fifo ()
  in
  Net.Cluster.export cluster ~node:hub ~name:"spool" spool;
  ignore
    (K.Machine.spawn mhub ~name:"printshop" (fun () ->
         for _ = 1 to client_nodes * jobs do
           ignore (K.Machine.receive mhub ~port:spool)
         done));
  Array.iteri
    (fun i (id, mi) ->
      let surrogate = Net.Cluster.import cluster ~node:id ~name:"spool" in
      let work = K.Machine.create_port mi ~capacity:4 ~discipline:K.Port.Fifo () in
      let back = K.Machine.create_port mi ~capacity:4 ~discipline:K.Port.Fifo () in
      ignore
        (K.Machine.spawn mi ~name:"grinder" (fun () ->
             for _ = 1 to jobs * spins do
               let msg = K.Machine.receive mi ~port:work in
               K.Machine.send mi ~port:back ~msg
             done));
      ignore
        (K.Machine.spawn mi
           ~name:(Printf.sprintf "client%d" i)
           (fun () ->
             let token = K.Machine.allocate_generic mi ~data_length:16 () in
             for j = 1 to jobs do
               for _ = 1 to spins do
                 K.Machine.send mi ~port:work ~msg:token;
                 ignore (K.Machine.receive mi ~port:back)
               done;
               let job = K.Machine.allocate_generic mi ~data_length:32 () in
               K.Machine.write_word mi job ~offset:0 ((i * 1000) + j);
               K.Machine.send mi ~port:surrogate ~msg:job
             done)))
    clients;
  cluster

let traced engine =
  I432_store.Scenario.cluster ~name:"par-speedup" ~engine
    (build ~trace:true ~jobs:1 ~spins:20)

let time_once ~engine ~jobs ~spins =
  let cluster = build ~trace:false ~jobs ~spins () in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Net.Cluster.run cluster ~engine ());
  (Unix.gettimeofday () -. t0) *. 1e9

let best ~trials ~engine ~jobs ~spins =
  let b = ref infinity in
  for _ = 1 to trials do
    let ns = time_once ~engine ~jobs ~spins in
    if ns < !b then b := ns
  done;
  !b

(* Correctness must hold everywhere: no engine's traced streams may
   diverge from the sequential engine's. *)
let measure ~smoke =
  let jobs = if smoke then 2 else 6 in
  let spins = if smoke then 150 else 400 in
  let trials = if smoke then 3 else 5 in
  let host_cores = Odomain.recommended_domain_count () in
  let diverged =
    List.length
      (List.filter
         (fun d ->
           Result.is_error
             (I432_store.Scenario.equal_engines traced (Net.Cluster.Par d)))
         [ 2; 4 ])
  in
  ignore (time_once ~engine:Net.Cluster.Seq ~jobs ~spins);
  let seq = best ~trials ~engine:Net.Cluster.Seq ~jobs ~spins in
  let par2 = best ~trials ~engine:(Net.Cluster.Par 2) ~jobs ~spins in
  let par4 = best ~trials ~engine:(Net.Cluster.Par 4) ~jobs ~spins in
  Reading.
    [
      int "nodes" "nodes" (client_nodes + 1);
      int "jobs_per_node" "jobs" jobs;
      int "spins_per_job" "round trips" spins;
      int "host_cores" "cores" host_cores;
      int "diverged_engines" "engines" diverged ~bound:(At_most 0.0);
      v "seq_host_ns" "ns" seq;
      v "par2_host_ns" "ns" par2;
      v "par4_host_ns" "ns" par4;
      v "speedup_2_domains" "x" (seq /. par2);
      v "speedup_4_domains" "x" (seq /. par4)
        ~bound:(if host_cores >= 4 then At_least 1.3 else Unbounded);
    ]
