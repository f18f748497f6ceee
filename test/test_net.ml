(* The virtual interconnect: wire codec, kernel hooks, cluster delivery,
   link faults, and determinism. *)

open I432
open Testkit
module K = I432_kernel
module Obs = I432_obs
module Fi = I432_fi.Fi
module Net = I432_net
module Filing = Imax.Object_filing
module Ckpt = I432_store.Checkpoint
module Scenario = I432_store.Scenario
module Load = I432_load

(* ---------------- Wire codec ---------------- *)

(* A shared, cyclic graph survives capture/reconstruct across machines:
   root -> a, root -> b, a -> shared, b -> shared, shared -> root. *)
let test_wire_cycle_and_sharing () =
  let src = mk () and dst = mk () in
  let root = alloc src ~access_length:2 () in
  let a = alloc src ~access_length:1 () in
  let b = alloc src ~access_length:1 () in
  let shared = alloc src ~access_length:1 () in
  K.Machine.write_word src root ~offset:0 1;
  K.Machine.write_word src a ~offset:0 2;
  K.Machine.write_word src b ~offset:0 3;
  K.Machine.write_word src shared ~offset:0 4;
  K.Machine.store_access src root ~slot:0 (Some a);
  K.Machine.store_access src root ~slot:1 (Some b);
  K.Machine.store_access src a ~slot:0 (Some shared);
  K.Machine.store_access src b ~slot:0 (Some shared);
  K.Machine.store_access src shared ~slot:0 (Some root);
  let wire = Filing.capture src root in
  Alcotest.(check int) "four nodes" 4 (Filing.wire_nodes wire);
  let root' = Filing.reconstruct dst wire in
  let word o = K.Machine.read_word dst o ~offset:0 in
  Alcotest.(check int) "root data" 1 (word root');
  let a' = Option.get (K.Machine.load_access dst root' ~slot:0) in
  let b' = Option.get (K.Machine.load_access dst root' ~slot:1) in
  Alcotest.(check int) "a data" 2 (word a');
  Alcotest.(check int) "b data" 3 (word b');
  let sa = Option.get (K.Machine.load_access dst a' ~slot:0) in
  let sb = Option.get (K.Machine.load_access dst b' ~slot:0) in
  Alcotest.(check int) "sharing preserved" (Access.index sa) (Access.index sb);
  Alcotest.(check int) "shared data" 4 (word sa);
  let back = Option.get (K.Machine.load_access dst sa ~slot:0) in
  Alcotest.(check int) "cycle closes at root" (Access.index root')
    (Access.index back);
  (* It's a copy: fresh indices on the destination's table. *)
  Alcotest.(check bool) "fresh identity" false
    (Access.index root = Access.index root'
    && K.Machine.table src == K.Machine.table dst)

let test_wire_rights_mask () =
  let src = mk () and dst = mk () in
  let root = alloc src ~access_length:1 () in
  let child = alloc src () in
  K.Machine.write_word src child ~offset:0 77;
  K.Machine.store_access src root ~slot:0 (Some child);
  let wire = Filing.capture src ~mask:Rights.read_only root in
  let root' = Filing.reconstruct dst wire in
  Alcotest.(check bool) "root write stripped" false
    (Rights.has_write (Access.rights root'));
  Alcotest.(check bool) "root read kept" true
    (Rights.has_read (Access.rights root'));
  let child' = Option.get (K.Machine.load_access dst root' ~slot:0) in
  Alcotest.(check bool) "edge write stripped" false
    (Rights.has_write (Access.rights child'));
  Alcotest.(check bool) "edge never amplifies" true
    (Rights.subset ~of_:(Access.rights child) (Access.rights child'));
  Alcotest.(check int) "data still crossed" 77
    (K.Machine.read_word dst child' ~offset:0);
  (* A leaf — its slots all empty — is captured without the graph walk
     and must cross the same way: one node, masked root, slots kept. *)
  let leaf = alloc src ~access_length:3 () in
  K.Machine.write_word src leaf ~offset:0 55;
  let wire = Filing.capture src ~mask:Rights.read_only leaf in
  Alcotest.(check int) "leaf is one node" 1 (Filing.wire_nodes wire);
  let leaf' = Filing.reconstruct dst wire in
  Alcotest.(check bool) "leaf write stripped" false
    (Rights.has_write (Access.rights leaf'));
  Alcotest.(check int) "leaf slots kept" 3
    (Segment.access_length (K.Machine.table dst) leaf');
  Alcotest.(check int) "leaf data crossed" 55
    (K.Machine.read_word dst leaf' ~offset:0)

let test_wire_sealed_instance () =
  let src = mk () and dst = mk () in
  let table = K.Machine.table src in
  let sro = K.Machine.global_sro src in
  let td = Type_def.create table sro ~name:"mailbox" in
  let inst =
    Type_def.create_instance table td sro ~data_length:8 ~access_length:0
  in
  let root = alloc src ~access_length:1 () in
  K.Machine.store_access src root ~slot:0 (Some inst);
  let wire = Filing.capture src root in
  let root' = Filing.reconstruct dst wire in
  let inst' = Option.get (K.Machine.load_access dst root' ~slot:0) in
  let otype' = Segment.otype (K.Machine.table dst) inst' in
  Alcotest.(check bool) "seal crossed intact" true
    (Segment.otype table inst = otype');
  Alcotest.(check bool) "still a sealed custom type" true
    (match otype' with Obj_type.Custom _ -> true | _ -> false)

(* qcheck: random DAG-with-back-edges graphs reconstruct isomorphic — same
   canonical (discovery-order) walk on both machines. *)
let prop_wire_isomorphic =
  QCheck2.Test.make ~name:"wire codec reconstructs isomorphic graphs"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 1000000))
    (fun (n, salt) ->
      let src = mk () and dst = mk () in
      let objs =
        Array.init n (fun i ->
            let o = alloc src ~data_length:8 ~access_length:3 () in
            K.Machine.write_word src o ~offset:0 ((salt * 31) + i);
            o)
      in
      (* Deterministic pseudo-random edges from the salt, including back
         edges (cycles) and sharing. *)
      let state = ref (salt + (n * 7919) + 1) in
      let next bound =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      Array.iteri
        (fun i o ->
          for slot = 0 to 2 do
            if next 3 > 0 then
              K.Machine.store_access src o ~slot (Some objs.(next n))
            else ignore i
          done)
        objs;
      let wire = Filing.capture src objs.(0) in
      let root' = Filing.reconstruct dst wire in
      canonical_walk src objs.(0) = canonical_walk dst root')

(* ---------------- Kernel interconnect hooks ---------------- *)

let test_deliver_external_wakes_receiver () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let got = ref (-1) in
  ignore
    (K.Machine.spawn m ~name:"rx" (fun () ->
         let msg = K.Machine.receive m ~port in
         got := K.Machine.read_word m msg ~offset:0));
  (* Park the receiver first. *)
  ignore (K.Machine.run m);
  Alcotest.(check int) "still blocked" (-1) !got;
  let msg = alloc m () in
  K.Machine.write_word m msg ~offset:0 42;
  Alcotest.(check bool) "accepted" true
    (K.Machine.deliver_external m ~port ~msg ~priority:0 ());
  ignore (K.Machine.run m);
  Alcotest.(check int) "woken with the message" 42 !got

let test_deliver_external_full_port () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  Alcotest.(check bool) "first fits" true
    (K.Machine.deliver_external m ~port ~msg:(alloc m ()) ~priority:0 ());
  Alcotest.(check bool) "second refused" false
    (K.Machine.deliver_external m ~port ~msg:(alloc m ()) ~priority:0 ())

let test_drain_port_admits_blocked_senders () =
  let m = mk () in
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  for i = 1 to 3 do
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "tx%d" i) (fun () ->
           let msg = alloc m () in
           K.Machine.write_word m msg ~offset:0 i;
           K.Machine.send m ~port ~msg))
  done;
  (* One message queued, two senders blocked. *)
  ignore (K.Machine.run m);
  let drained = K.Machine.drain_port m ~max:2 ~port () in
  Alcotest.(check int) "bounded drain" 2 (List.length drained);
  (* The drain admitted a blocked sender into the freed slots; draining
     again (after letting it run) yields the rest in order. *)
  ignore (K.Machine.run m);
  let rest = K.Machine.drain_port m ~port () in
  let payloads =
    List.map (fun (msg, _, _, _) -> K.Machine.read_word m msg ~offset:0)
      (drained @ rest)
  in
  Alcotest.(check (list int)) "service order survives" [ 1; 2; 3 ] payloads

(* ---------------- Cluster delivery ---------------- *)

let two_nodes ?(trace = false) ?window ?max_retries () =
  let cluster = Net.Cluster.create ?window ?max_retries () in
  let config =
    {
      K.Machine.default_config with
      processors = 1;
      trace_level = (if trace then Obs.Tracer.Events else Obs.Tracer.Off);
    }
  in
  let a, ma = Net.Cluster.boot_node cluster ~name:"a" ~config () in
  let b, mb = Net.Cluster.boot_node cluster ~name:"b" ~config () in
  let link = Net.Cluster.connect cluster a b in
  (cluster, (a, ma), (b, mb), link)

(* Wire a [count]-message producer on node a and a consumer on node b
   through an exported port named "chan"; returns the consumer's payload
   list (in delivery order) after the cluster runs. *)
let ping_scenario ?(count = 5) ?(capacity = 4) (cluster, (a, ma), (b, mb), _link)
    =
  let home = K.Machine.create_port mb ~capacity ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"chan" home;
  let got = ref [] in
  ignore
    (K.Machine.spawn mb ~name:"consumer" (fun () ->
         for _ = 1 to count do
           let msg = K.Machine.receive mb ~port:home in
           got := K.Machine.read_word mb msg ~offset:0 :: !got
         done));
  let surrogate = Net.Cluster.import cluster ~node:a ~name:"chan" in
  ignore
    (K.Machine.spawn ma ~name:"producer" (fun () ->
         for i = 1 to count do
           let msg = alloc ma () in
           K.Machine.write_word ma msg ~offset:0 (i * 10);
           K.Machine.send ma ~port:surrogate ~msg
         done));
  let report = Net.Cluster.run cluster () in
  (report, List.rev !got)

let test_two_node_delivery () =
  let report, got = ping_scenario (two_nodes ()) in
  Alcotest.(check (list int)) "payloads in order" [ 10; 20; 30; 40; 50 ] got;
  Alcotest.(check int) "all delivered" 5 report.Net.Cluster.frames_delivered;
  Alcotest.(check int) "nothing lost" 0 report.Net.Cluster.frames_lost;
  Alcotest.(check int) "acks flowed back" 5 report.Net.Cluster.acks

let test_remote_latency_observable () =
  (* The consumer cannot see a message before frame latency has elapsed:
     the destination's clock at halt covers at least one one-way trip. *)
  let ((_, (_, _), (_, mb), link) as nodes) = two_nodes () in
  let _report, got = ping_scenario ~count:1 nodes in
  Alcotest.(check (list int)) "delivered" [ 10 ] got;
  Alcotest.(check bool) "consumer saw the link latency" true
    (K.Machine.now mb >= link.Net.Link.latency_ns)

let test_drop_retransmit () =
  let ((cluster, _, _, _) as nodes) = two_nodes () in
  let plan =
    {
      Fi.l_seed = 0;
      l_events = [ { Fi.l_at_ns = 0; l_link = 0; l_act = Fi.L_drop 2 } ];
    }
  in
  Net.Cluster.arm_links cluster plan;
  let report, got = ping_scenario nodes in
  Alcotest.(check int) "every message still arrives" 5 (List.length got);
  Alcotest.(check int) "delivered exactly once each" 5
    report.Net.Cluster.frames_delivered;
  Alcotest.(check bool) "recovery retransmitted" true
    (report.Net.Cluster.retransmits >= 2);
  Alcotest.(check int) "nothing permanently lost" 0
    report.Net.Cluster.frames_lost

let test_dup_detection () =
  let ((cluster, _, _, _) as nodes) = two_nodes () in
  let plan =
    {
      Fi.l_seed = 0;
      l_events = [ { Fi.l_at_ns = 0; l_link = 0; l_act = Fi.L_dup 3 } ];
    }
  in
  Net.Cluster.arm_links cluster plan;
  let report, got = ping_scenario nodes in
  Alcotest.(check (list int)) "no double delivery" [ 10; 20; 30; 40; 50 ] got;
  Alcotest.(check bool) "duplicates were filtered" true
    (report.Net.Cluster.dup_drops >= 1)

let test_partition_heal () =
  let ((cluster, _, _, link) as nodes) = two_nodes () in
  (* Sever the link for 2 ms starting immediately; traffic starts inside
     the window and must all get through after the heal. *)
  let plan =
    {
      Fi.l_seed = 0;
      l_events = [ { Fi.l_at_ns = 0; l_link = 0; l_act = Fi.L_partition 2_000_000 } ];
    }
  in
  Net.Cluster.arm_links cluster plan;
  let report, got = ping_scenario nodes in
  Alcotest.(check int) "all messages after heal" 5 (List.length got);
  Alcotest.(check int) "exactly once" 5 report.Net.Cluster.frames_delivered;
  Alcotest.(check bool) "partition dropped frames" true (link.Net.Link.dropped > 0);
  Alcotest.(check int) "none abandoned" 0 report.Net.Cluster.frames_lost

let test_partition_forever_counts_lost () =
  let ((cluster, _, _, _) as nodes) = two_nodes ~max_retries:2 () in
  let plan =
    {
      Fi.l_seed = 0;
      l_events =
        [ { Fi.l_at_ns = 0; l_link = 0; l_act = Fi.L_partition max_int } ];
    }
  in
  Net.Cluster.arm_links cluster plan;
  let report, got = ping_scenario ~count:2 nodes in
  Alcotest.(check (list int)) "nothing delivered" [] got;
  Alcotest.(check int) "both given up on" 2 report.Net.Cluster.frames_lost

let test_window_backpressure () =
  (* Window 2, surrogate capacity 2, 12 messages: senders must block and
     be re-admitted repeatedly; everything still arrives in order. *)
  let report, got =
    ping_scenario ~count:12 ~capacity:2 (two_nodes ~window:2 ())
  in
  Alcotest.(check int) "all delivered" 12 (List.length got);
  Alcotest.(check (list int)) "in order"
    (List.init 12 (fun i -> (i + 1) * 10))
    got;
  Alcotest.(check int) "frames match" 12 report.Net.Cluster.frames_delivered

(* Every observable the determinism contract covers, as named streams:
   the report, each node's event stream and state image, and the
   deterministically merged metrics dump. *)
let observables cluster report =
  let machines =
    List.init (Net.Cluster.node_count cluster) (fun i ->
        (Net.Cluster.node_name cluster i, Net.Cluster.machine cluster i))
  in
  let merged = Obs.Metrics.create () in
  List.iter
    (fun (_, m) ->
      Obs.Metrics.merge_into ~dst:merged ~src:(K.Machine.metrics m))
    machines;
  (("report", [ Net.Cluster.report_to_string report ])
  :: List.concat_map
       (fun (name, m) ->
         [
           (name, Scenario.event_lines m);
           ( name ^ " image",
             String.split_on_char '\n' (K.Snapshot.state_image m) );
         ])
       machines)
  @ [ ("metrics", [ Obs.Jout.to_string (Obs.Metrics.to_json merged) ]) ]

let payloads got = ("payloads", List.map string_of_int got)

let test_determinism_under_faults () =
  let faulty =
    Scenario.make ~name:"faulty-link"
      ~streams:(fun (cluster, (report, got)) ->
        payloads got :: observables cluster report)
      (fun () ->
        let ((cluster, _, _, _) as nodes) = two_nodes ~trace:true () in
        Net.Cluster.arm_links cluster
          (Fi.random_links ~seed:11 ~horizon_ns:5_000_000 ~links:1 ~count:6
             ~partitions:1);
        (cluster, ping_scenario ~count:8 nodes))
  in
  ok "same seed" (Scenario.same_seed faulty)

(* ---------------- Names, rights, routing ---------------- *)

let test_name_service_errors () =
  let cluster, (a, _ma), (b, mb), _ = two_nodes () in
  let home = K.Machine.create_port mb ~capacity:2 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"svc" home;
  Alcotest.check_raises "duplicate export"
    (Net.Name_service.Already_exported "svc") (fun () ->
      Net.Cluster.export cluster ~node:b ~name:"svc" home);
  Alcotest.check_raises "unknown import" (Net.Cluster.Not_exported "nope")
    (fun () -> ignore (Net.Cluster.import cluster ~node:a ~name:"nope"));
  let c, _mc = Net.Cluster.boot_node cluster ~name:"c" () in
  (* c has no link to b. *)
  (try
     ignore (Net.Cluster.import cluster ~node:c ~name:"svc");
     Alcotest.fail "expected No_route"
   with Net.Cluster.No_route _ -> ());
  let ns = Net.Cluster.name_service cluster in
  Alcotest.(check (list string)) "names sorted" [ "svc" ]
    (Net.Name_service.names ns);
  Alcotest.(check (option (pair int int))) "resolve" (Some (b, 2))
    (Option.map
       (fun e -> (e.Net.Name_service.e_node, e.Net.Name_service.e_capacity))
       (Net.Name_service.lookup ns "svc"));
  ignore a

let test_surrogate_is_send_only () =
  let cluster, (a, ma), (b, mb), _ = two_nodes () in
  let home = K.Machine.create_port mb ~capacity:2 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"svc" home;
  let surrogate = Net.Cluster.import cluster ~node:a ~name:"svc" in
  Alcotest.(check bool) "send right kept" true
    (Rights.has_type_right (Access.rights surrogate) Rights.t1);
  Alcotest.(check bool) "receive right withheld" false
    (Rights.has_type_right (Access.rights surrogate) Rights.t2);
  (* A local process trying to receive from the surrogate faults: the
     kernel routes the rights violation to the process's fault state. *)
  let thief =
    K.Machine.spawn ma ~name:"thief" (fun () ->
        ignore (K.Machine.receive ma ~port:surrogate))
  in
  ignore (Net.Cluster.run cluster ());
  let faulted =
    match (K.Machine.process_state ma thief).K.Process.status with
    | K.Process.Faulted (Fault.Rights_violation _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "receive denied" true faulted;
  ignore b

let test_import_on_home_node () =
  let cluster, (_a, _ma), (b, mb), _ = two_nodes () in
  let home = K.Machine.create_port mb ~capacity:4 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"svc" home;
  let local = Net.Cluster.import cluster ~node:b ~name:"svc" in
  let got = ref 0 in
  ignore
    (K.Machine.spawn mb ~name:"rx" (fun () ->
         got := K.Machine.read_word mb (K.Machine.receive mb ~port:home) ~offset:0));
  ignore
    (K.Machine.spawn mb ~name:"tx" (fun () ->
         let msg = alloc mb () in
         K.Machine.write_word mb msg ~offset:0 9;
         K.Machine.send mb ~port:local ~msg));
  let report = Net.Cluster.run cluster () in
  Alcotest.(check int) "local resolution short-circuits" 9 !got;
  Alcotest.(check int) "no frames crossed" 0 report.Net.Cluster.frames_sent

let test_link_plan_deterministic () =
  let p1 = Fi.random_links ~seed:5 ~horizon_ns:1_000_000 ~links:3 ~count:8 ~partitions:2 in
  let p2 = Fi.random_links ~seed:5 ~horizon_ns:1_000_000 ~links:3 ~count:8 ~partitions:2 in
  Alcotest.(check string) "same seed, same plan" (Fi.link_plan_to_string p1)
    (Fi.link_plan_to_string p2);
  let sorted = List.for_all2
      (fun (a : Fi.link_event) b -> a.Fi.l_at_ns <= b.Fi.l_at_ns)
      (List.filteri (fun i _ -> i < List.length p1.Fi.l_events - 1) p1.Fi.l_events)
      (List.tl p1.Fi.l_events)
  in
  Alcotest.(check bool) "sorted by instant" true sorted;
  let p3 = Fi.random_links ~seed:6 ~horizon_ns:1_000_000 ~links:3 ~count:8 ~partitions:2 in
  Alcotest.(check bool) "different seed, different plan" true
    (Fi.link_plan_to_string p1 <> Fi.link_plan_to_string p3)

(* ---------------- Parallel engine: seq == par, byte for byte -------- *)

(* A traced star cluster: node 0 is the hub exporting a [capacity]-deep
   port named [port], nodes 1..n-1 each link to it.  [each_client f] runs
   [f i machine surrogate] for every client node. *)
let star ~prefix ~nodes:n ~port ~capacity =
  let cluster = Net.Cluster.create () in
  let config =
    {
      K.Machine.default_config with
      processors = 1;
      trace_level = Obs.Tracer.Events;
    }
  in
  let ids =
    Array.init n (fun i ->
        Net.Cluster.boot_node cluster
          ~name:(Printf.sprintf "%s%d" prefix i)
          ~config ())
  in
  let hub, mhub = ids.(0) in
  for i = 1 to n - 1 do
    ignore (Net.Cluster.connect cluster (fst ids.(i)) hub)
  done;
  let home = K.Machine.create_port mhub ~capacity ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:hub ~name:port home;
  let each_client f =
    for i = 1 to n - 1 do
      let id, mi = ids.(i) in
      f i mi (Net.Cluster.import cluster ~node:id ~name:port)
    done
  in
  (cluster, mhub, home, each_client)

(* Every client streams [count] messages to the hub while a seeded
   link-fault plan shakes the wires. *)
let star_scenario ~nodes:n ~seed ~count engine =
  Scenario.make ~name:"star"
    ~streams:(fun (cluster, report, got) ->
      payloads got :: observables cluster report)
  @@ fun () ->
  let cluster, mhub, home, each_client =
    star ~prefix:"n" ~nodes:n ~port:"hub" ~capacity:4
  in
  let got = ref [] in
  ignore
    (K.Machine.spawn mhub ~name:"consumer" (fun () ->
         for _ = 1 to (n - 1) * count do
           let msg = K.Machine.receive mhub ~port:home in
           got := K.Machine.read_word mhub msg ~offset:0 :: !got
         done));
  each_client (fun i mi surrogate ->
      ignore
        (K.Machine.spawn mi ~name:(Printf.sprintf "producer%d" i) (fun () ->
             for j = 1 to count do
               let msg = alloc mi () in
               K.Machine.write_word mi msg ~offset:0 ((i * 1000) + j);
               K.Machine.send mi ~port:surrogate ~msg
             done)));
  let plan =
    Fi.random_links ~seed ~horizon_ns:5_000_000 ~links:(n - 1) ~count:5
      ~partitions:1
  in
  Net.Cluster.arm_links cluster plan;
  let report = Net.Cluster.run cluster ~engine () in
  (cluster, report, List.rev !got)

let prop_par_engine_identical =
  QCheck2.Test.make
    ~name:"par engine: 2- and 4-domain runs byte-identical to sequential"
    ~count:8
    QCheck2.Gen.(triple (int_range 2 5) (int_range 0 10_000) (int_range 1 6))
    (fun (n, seed, count) ->
      List.for_all
        (fun d ->
          holds
            (Scenario.equal_engines
               (star_scenario ~nodes:n ~seed ~count)
               (Net.Cluster.Par d)))
        [ 2; 4 ])

(* The bench scenario (bench/par_speedup.ml): a fault-free spoke cluster
   where each client spools compute-heavy jobs to the hub.  The speedup
   number is only meaningful if both engines produce the same run, so the
   parity is pinned here as a unit test too. *)
let spool_scenario ~clients ~jobs engine =
  Scenario.make ~name:"spool"
    ~streams:(fun (cluster, report) -> observables cluster report)
  @@ fun () ->
  let cluster, mhub, home, each_client =
    star ~prefix:"s" ~nodes:(clients + 1) ~port:"spool" ~capacity:8
  in
  ignore
    (K.Machine.spawn mhub ~name:"printshop" (fun () ->
         for _ = 1 to clients * jobs do
           ignore (K.Machine.receive mhub ~port:home)
         done));
  each_client (fun i mi surrogate ->
      ignore
        (K.Machine.spawn mi ~name:(Printf.sprintf "client%d" i) (fun () ->
             for j = 1 to jobs do
               let msg = alloc mi ~data_length:64 () in
               K.Machine.write_word mi msg ~offset:0 ((i * 100) + j);
               K.Machine.send mi ~port:surrogate ~msg
             done)));
  (cluster, Net.Cluster.run cluster ~engine ())

let test_par_bench_scenario_parity () =
  let spool = spool_scenario ~clients:3 ~jobs:4 in
  ok "2 domains match sequential"
    (Scenario.equal_engines spool (Net.Cluster.Par 2));
  ok "4 domains match sequential"
    (Scenario.equal_engines spool (Net.Cluster.Par 4));
  let _, report = Scenario.play (spool Net.Cluster.Seq) in
  Alcotest.(check int) "all jobs crossed the wire" 12
    report.Net.Cluster.frames_delivered

(* ---------------- Whole-node failure and rejoin ---------------- *)

let test_name_service_epochs () =
  let cluster, _, (b, mb), _ = two_nodes () in
  let ns = Net.Cluster.name_service cluster in
  Alcotest.(check int) "fresh service at epoch 0" 0 (Net.Name_service.epoch ns);
  let p1 = K.Machine.create_port mb ~capacity:2 ~discipline:K.Port.Fifo () in
  let p2 = K.Machine.create_port mb ~capacity:2 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"one" p1;
  Net.Cluster.export cluster ~node:b ~name:"two" p2;
  Alcotest.(check int) "each publish bumps" 2 (Net.Name_service.epoch ns);
  let e1 = Option.get (Net.Name_service.lookup ns "one") in
  let e2 = Option.get (Net.Name_service.lookup ns "two") in
  Alcotest.(check int) "entry stamped with its epoch" 1
    e1.Net.Name_service.e_epoch;
  Alcotest.(check int) "later entry, later stamp" 2
    e2.Net.Name_service.e_epoch;
  Net.Name_service.unpublish ns "one";
  Alcotest.(check int) "unpublish bumps too" 3 (Net.Name_service.epoch ns);
  Alcotest.(check bool) "withdrawn name gone" true
    (Net.Name_service.lookup ns "one" = None);
  Alcotest.(check (list string)) "survivor listed" [ "two" ]
    (Net.Name_service.names ns);
  (match Net.Name_service.unpublish ns "one" with
  | () -> Alcotest.fail "expected Not_published"
  | exception Net.Name_service.Not_published n ->
    Alcotest.(check string) "exception names the name" "one" n);
  Net.Cluster.export cluster ~node:b ~name:"one" p1;
  let e1' = Option.get (Net.Name_service.lookup ns "one") in
  Alcotest.(check int) "republished entry carries the new epoch" 4
    e1'.Net.Name_service.e_epoch

(* A send to a node that died and never comes back must terminate with a
   typed, counted failure — never hang the sender.  Jobs spaced so some
   frames can only arrive after the kill: those retry with the doubling
   backoff, exhaust [max_retries], and surface as Frame_dead + Dead_letter
   events with matching channel counters. *)
let test_dead_node_sends_dead_letter_loudly () =
  let cluster, (a, ma), (b, mb), _ = two_nodes ~trace:true ~max_retries:2 () in
  let home = K.Machine.create_port mb ~capacity:4 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"sink" home;
  ignore
    (K.Machine.spawn mb ~name:"consumer" (fun () ->
         for _ = 1 to 4 do
           ignore (K.Machine.receive mb ~port:home)
         done));
  let surrogate = Net.Cluster.import cluster ~node:a ~name:"sink" in
  ignore
    (K.Machine.spawn ma ~name:"producer" (fun () ->
         for i = 1 to 4 do
           let msg = alloc ma () in
           K.Machine.write_word ma msg ~offset:0 i;
           K.Machine.send ma ~port:surrogate ~msg;
           K.Machine.delay ma ~ns:200_000
         done));
  Net.Cluster.arm_nodes cluster
    ~restore:(fun ~node:_ ~at_ns:_ -> Alcotest.fail "no restart in this plan")
    {
      Fi.n_seed = 0;
      n_events = [ { Fi.n_at_ns = 300_000; n_node = b; n_act = Fi.N_kill } ];
    };
  (* The run returning at all is the headline: bounded retry, no hang. *)
  let report = Net.Cluster.run cluster () in
  Alcotest.(check bool) "victim stayed down" false
    (Net.Cluster.node_alive cluster b);
  Alcotest.(check bool) "some frames gave up" true
    (report.Net.Cluster.frames_lost >= 2);
  Alcotest.(check int) "every loss was a dead letter"
    report.Net.Cluster.frames_lost report.Net.Cluster.dead_letters;
  Alcotest.(check int) "cluster counter agrees"
    report.Net.Cluster.dead_letters
    (Net.Cluster.dead_letters cluster);
  let count kind =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) -> e.Obs.Event.kind = kind)
         (K.Machine.events ma))
  in
  Alcotest.(check int) "one Frame_dead event per lost frame"
    report.Net.Cluster.frames_lost
    (count Obs.Event.Frame_dead);
  Alcotest.(check int) "one Dead_letter event per dead letter"
    report.Net.Cluster.dead_letters
    (count Obs.Event.Dead_letter);
  let dead, letters =
    List.fold_left
      (fun (d, l) (ch : Net.Cluster.channel) ->
        (d + ch.Net.Cluster.ch_frames_dead, l + ch.Net.Cluster.ch_dead_letters))
      (0, 0) (Net.Cluster.channels cluster)
  in
  Alcotest.(check int) "per-channel dead counters sum to the report"
    report.Net.Cluster.frames_lost dead;
  Alcotest.(check int) "per-channel dead-letter counters sum to the report"
    report.Net.Cluster.dead_letters letters;
  Alcotest.(check int) "nothing left pending" 0
    (Net.Cluster.frames_in_flight cluster
    + Net.Cluster.total_unacked cluster
    + Net.Cluster.total_backlog cluster)

let pending cluster =
  Net.Cluster.frames_in_flight cluster
  + Net.Cluster.total_unacked cluster
  + Net.Cluster.total_backlog cluster

let invariants cluster =
  List.concat_map Fi.check_invariants
    (List.init (Net.Cluster.node_count cluster) (Net.Cluster.machine cluster))

(* The kill-restart-rejoin scenario: a producer on node 0 streams jobs to
   a consumer on node 1 across the wire, spaced so traffic straddles any
   kill instant. *)
let rejoin_boot () =
  let cluster = Net.Cluster.create () in
  let config =
    {
      K.Machine.default_config with
      processors = 1;
      trace_level = Obs.Tracer.Events;
    }
  in
  let a, ma = Net.Cluster.boot_node cluster ~name:"prod" ~config () in
  let b, mb = Net.Cluster.boot_node cluster ~name:"cons" ~config () in
  ignore (Net.Cluster.connect cluster a b);
  let home = K.Machine.create_port mb ~capacity:4 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"sink" home;
  ignore
    (K.Machine.spawn mb ~name:"consumer" (fun () ->
         for _ = 1 to 6 do
           ignore (K.Machine.receive mb ~port:home)
         done));
  let surrogate = Net.Cluster.import cluster ~node:a ~name:"sink" in
  ignore
    (K.Machine.spawn ma ~name:"producer" (fun () ->
         for i = 1 to 6 do
           let msg = alloc ma () in
           K.Machine.write_word ma msg ~offset:0 i;
           K.Machine.send ma ~port:surrogate ~msg;
           K.Machine.delay ma ~ns:150_000
         done));
  cluster

(* Checkpoint at round boundary [k], kill the consumer exactly there,
   splice a verified checkpoint replay back in 300 us later, run to
   completion.  The streams are every observable the rejoin contract
   covers. *)
let rejoin_staged ~quantum_ns k =
  Scenario.make
    ~name:(Printf.sprintf "rejoin@%d" k)
    ~streams:(fun (cluster, report) ->
      observables cluster report
      @ [
          ("alive", [ string_of_bool (Net.Cluster.node_alive cluster 1) ]);
          ("pending", [ string_of_int (pending cluster) ]);
          ("invariants", invariants cluster);
          ( "epoch",
            [
              string_of_int
                (Net.Name_service.epoch (Net.Cluster.name_service cluster));
            ] );
        ])
  @@ fun () ->
  with_store (fun _path store ->
      let cluster = rejoin_boot () in
      let kill_ns = k * quantum_ns in
      let restart_ns = Some (kill_ns + 300_000) in
      let rejoin = { Ckpt.store; ckpt_ns = kill_ns; kill_ns; restart_ns } in
      ignore
        (Ckpt.stage_rejoin rejoin ~key:"rejoin" ~node:1 ~seed:k
           ~engine:Net.Cluster.Seq ~quantum_ns ~boot:rejoin_boot cluster);
      (cluster, Net.Cluster.run cluster ~quantum_ns ()))

(* Sweep the kill instant across every round boundary of the run: at each
   one the rejoin must complete the full workload with nothing lost, the
   victim back up under a bumped name-service epoch, and a second
   identically staged run byte-identical — the kill lands on the
   checkpoint horizon, so the rollback window is empty by construction. *)
let test_kill_restart_every_boundary () =
  let quantum_ns = 100_000 in
  let probe = Net.Cluster.run (rejoin_boot ()) ~quantum_ns () in
  let total_rounds = probe.Net.Cluster.rounds in
  Alcotest.(check bool) "scenario spans several rounds" true (total_rounds >= 5);
  for k = 1 to total_rounds - 1 do
    let staged = rejoin_staged ~quantum_ns k in
    let ((cluster, report) as once) = Scenario.play staged in
    let ctx fmt = Printf.sprintf (fmt ^^ " (kill at round %d)") k in
    ok
      (ctx "staged rerun byte-identical")
      (Scenario.same_seed ~first:once staged);
    Alcotest.(check int) (ctx "all jobs delivered") 6
      report.Net.Cluster.frames_delivered;
    Alcotest.(check int) (ctx "nothing lost") 0 report.Net.Cluster.frames_lost;
    Alcotest.(check int) (ctx "no dead letters") 0
      report.Net.Cluster.dead_letters;
    Alcotest.(check bool) (ctx "victim rejoined") true
      (Net.Cluster.node_alive cluster 1);
    Alcotest.(check int) (ctx "nothing pending") 0 (pending cluster);
    Alcotest.(check (list string)) (ctx "invariants hold") []
      (invariants cluster);
    (* Export at epoch 1; the kill withdraws (2) and the restart
       republishes (3). *)
    Alcotest.(check int) (ctx "name republished under bumped epoch") 3
      (Net.Name_service.epoch (Net.Cluster.name_service cluster))
  done

(* Random star topology under a seeded random node-fault plan: kills and
   restarts at arbitrary instants, with a replay-equivalent restore hook
   (rebuild the scenario, replay whole rounds below the kill, then the
   partial slice — exactly the state the dead incarnation had).  The
   parallel engine must reproduce the sequential run byte for byte:
   report, delivery order, event streams, state images, merged metrics. *)
let node_chaos_scenario ~nodes:n ~seed ~count ~kills engine =
  Scenario.make ~name:"node-chaos"
    ~streams:(fun (cluster, report) -> observables cluster report)
  @@ fun () ->
  let quantum_ns = 100_000 in
  let build () =
    let cluster, mhub, home, each_client =
      star ~prefix:"c" ~nodes:n ~port:"hub" ~capacity:4
    in
    ignore
      (K.Machine.spawn mhub ~name:"consumer" (fun () ->
           for _ = 1 to (n - 1) * count do
             ignore (K.Machine.receive mhub ~port:home)
           done));
    each_client (fun i mi surrogate ->
        ignore
          (K.Machine.spawn mi ~name:(Printf.sprintf "producer%d" i) (fun () ->
               for j = 1 to count do
                 let msg = alloc mi () in
                 K.Machine.write_word mi msg ~offset:0 ((i * 1000) + j);
                 K.Machine.send mi ~port:surrogate ~msg;
                 K.Machine.delay mi ~ns:200_000
               done)));
    cluster
  in
  let cluster = build () in
  let plan = Fi.random_nodes ~seed ~horizon_ns:4_000_000 ~nodes:n ~kills in
  let restore ~node ~at_ns:_ =
    let kill_at =
      List.fold_left
        (fun acc (e : Fi.node_event) ->
          if e.Fi.n_node = node && e.Fi.n_act = Fi.N_kill then
            max acc e.Fi.n_at_ns
          else acc)
        0 plan.Fi.n_events
    in
    let shadow = build () in
    let full = ((kill_at + quantum_ns - 1) / quantum_ns) - 1 in
    if full > 0 then
      ignore (Net.Cluster.run shadow ~quantum_ns ~max_rounds:full ());
    let m = Net.Cluster.machine shadow node in
    ignore (K.Machine.run ~max_ns:kill_at m);
    m
  in
  Net.Cluster.arm_nodes cluster ~restore plan;
  (cluster, Net.Cluster.run cluster ~engine ~quantum_ns ())

let prop_node_chaos_par_identical =
  QCheck2.Test.make
    ~name:"chaos: node kill/rejoin plans byte-identical under Par 2" ~count:6
    QCheck2.Gen.(
      quad (int_range 2 4) (int_range 0 10_000) (int_range 1 4) (int_range 1 2))
    (fun (n, seed, count, kills) ->
      holds
        (Scenario.equal_engines
           (node_chaos_scenario ~nodes:n ~seed ~count ~kills)
           (Net.Cluster.Par 2)))

(* ---------------- Par_exec pool ---------------- *)

exception Boom of int

let test_par_exec_runs_every_task () =
  let pool = Net.Par_exec.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Net.Par_exec.shutdown pool)
    (fun () ->
      let hits = Array.make 64 0 in
      Net.Par_exec.run pool ~tasks:64 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (list int))
        "each task exactly once"
        (List.init 64 (fun _ -> 1))
        (Array.to_list hits);
      (* The pool is reusable across batches, including empty ones. *)
      Net.Par_exec.run pool ~tasks:0 (fun _ -> assert false);
      Net.Par_exec.run pool ~tasks:64 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (list int))
        "second batch too"
        (List.init 64 (fun _ -> 2))
        (Array.to_list hits))

let test_par_exec_lowest_failure_wins () =
  let pool = Net.Par_exec.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Net.Par_exec.shutdown pool)
    (fun () ->
      (try
         Net.Par_exec.run pool ~tasks:10 (fun i ->
             if i mod 3 = 1 then raise (Boom i));
         Alcotest.fail "expected Boom"
       with Boom i -> Alcotest.(check int) "lowest failing index" 1 i);
      (* A failed batch leaves the pool healthy. *)
      let ok = ref 0 in
      Net.Par_exec.run pool ~tasks:5 (fun _ -> incr ok);
      Alcotest.(check bool) "pool survives a failure" true (!ok >= 1))

(* A machine has one stepper: a body that, mid-run, has a second domain
   step its own machine gets [Failure] there, and the run goes on. *)
let test_machine_single_stepper () =
  let m = K.Machine.create () in
  let refused = ref false in
  ignore
    (K.Machine.spawn m ~name:"intruder" (fun () ->
         refused :=
           Stdlib.Domain.join
             (Stdlib.Domain.spawn (fun () ->
                  match K.Machine.advance m ~max_ns:max_int with
                  | () -> false
                  | exception Failure _ -> true))));
  let report = K.Machine.run m in
  Alcotest.(check bool) "second domain refused mid-run" true !refused;
  Alcotest.(check int) "the run completed" 1 report.K.Machine.completed;
  (* Released after the run: another domain may step it now. *)
  Alcotest.(check bool) "steppable from a second domain after" true
    (Stdlib.Domain.join
       (Stdlib.Domain.spawn (fun () ->
            match K.Machine.advance m ~max_ns:max_int with
            | () -> true
            | exception Failure _ -> false)))

let test_metrics_merge_deterministic () =
  let mk_reg salt =
    let r = Obs.Metrics.create () in
    Obs.Metrics.incr ~by:(10 + salt) (Obs.Metrics.counter r "net.frames_tx");
    Obs.Metrics.set (Obs.Metrics.gauge r "ready.len") salt;
    let h = Obs.Metrics.histogram r ~buckets:4 ~lo:0.0 ~hi:100.0 "lat" in
    Obs.Metrics.observe h (float_of_int (salt * 30));
    r
  in
  let merge regs =
    let dst = Obs.Metrics.create () in
    List.iter (fun src -> Obs.Metrics.merge_into ~dst ~src) regs;
    Obs.Jout.to_string (Obs.Metrics.to_json dst)
  in
  let a () = mk_reg 1 and b () = mk_reg 2 in
  Alcotest.(check string) "same node order, same bytes"
    (merge [ a (); b () ])
    (merge [ a (); b () ]);
  let merged = merge [ a (); b () ] in
  Alcotest.(check bool) "counters summed" true
    (let dst = Obs.Metrics.create () in
     List.iter (fun src -> Obs.Metrics.merge_into ~dst ~src) [ a (); b () ];
     Obs.Metrics.counter_value (Obs.Metrics.counter dst "net.frames_tx") = 23);
  Alcotest.(check bool) "dump is non-empty json" true
    (String.length merged > 2)

(* ---------------- Old-Seq == new-Seq oracle ---------------- *)

(* Seq == Par cannot see a change that moves both engines at once, so
   these runs are pinned to digests taken before the pump was last
   rewritten: every node's event stream plus the report, per run. *)
let render_machines machines tail =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      Buffer.add_string b ("== " ^ name ^ "\n");
      List.iter
        (fun l ->
          Buffer.add_string b l;
          Buffer.add_char b '\n')
        (Scenario.event_lines m))
    machines;
  Buffer.add_string b tail;
  Digest.to_hex (Digest.string (Buffer.contents b))

let render_cluster cluster report =
  render_machines
    (List.init (Net.Cluster.node_count cluster) (fun i ->
         (Net.Cluster.node_name cluster i, Net.Cluster.machine cluster i)))
    (Net.Cluster.report_to_string report)

let oracle_faulted_link () =
  let ((cluster, _, _, _) as nodes) = two_nodes ~trace:true () in
  let at l_at_ns l_act = { Fi.l_at_ns; l_link = 0; l_act } in
  Net.Cluster.arm_links cluster
    {
      Fi.l_seed = 0;
      l_events =
        [
          at 0 (Fi.L_drop 3);
          at 300_000 (Fi.L_dup 2);
          at 600_000 (Fi.L_reorder 3);
          at 1_000_000 (Fi.L_partition 1_500_000);
          at 4_000_000 (Fi.L_reorder 2);
          at 4_000_000 (Fi.L_drop 2);
        ];
    };
  Net.Cluster.arm_links cluster
    (Fi.random_links ~seed:11 ~horizon_ns:5_000_000 ~links:1 ~count:6
       ~partitions:1);
  let report, _ = ping_scenario ~count:24 nodes in
  render_cluster cluster report

let oracle_given_up () =
  let ((cluster, _, _, _) as nodes) =
    two_nodes ~trace:true ~max_retries:3 ()
  in
  Net.Cluster.arm_links cluster
    {
      Fi.l_seed = 0;
      l_events =
        [ { Fi.l_at_ns = 0; l_link = 0; l_act = Fi.L_partition max_int } ];
    };
  let report, _ = ping_scenario ~count:4 nodes in
  render_cluster cluster report

let oracle_kill_restart () =
  let cluster, report = Scenario.play (rejoin_staged ~quantum_ns:100_000 4) in
  render_cluster cluster report

let oracle_loadgen () =
  let o =
    Load.Loadgen.run_cluster ~nodes:3 ~processors:2 ~engine:Net.Cluster.Seq
      ~trace_level:Obs.Tracer.Events
      ~spec:
        {
          Load.Arrival.seed = 5;
          users = 4;
          sessions = 1;
          requests_per_session = 500;
          rate_rps = 9_000.0;
          pattern = Load.Arrival.Poisson;
          profile = Load.Mix.Typical;
        }
      ()
  in
  render_machines o.Load.Loadgen.o_machines
    (Obs.Metrics.render o.Load.Loadgen.o_metrics)

let test_seq_oracle () =
  List.iter
    (fun (what, expected, run) ->
      Alcotest.(check string) what expected (run ()))
    [
      ("faulted link", "112f3980c54677e0580bb69815820e83", oracle_faulted_link);
      ("retries exhausted", "a275fca093ea1f4ffd4b07d3f618669a", oracle_given_up);
      ("kill and restart", "e9beb25c240cd1d7d9118b6fc556f723", oracle_kill_restart);
      ("traced loadgen", "c3b3531867b3914f2c602b71e9af8615", oracle_loadgen);
    ]

(* ---------------- Round limit ---------------- *)

(* A run cut short by [max_rounds] says so; the resumed run that drains
   the same traffic says it went quiescent.  The printed report is the
   same either way. *)
let test_round_limit_outcome () =
  let cluster = rejoin_boot () in
  let cut = Net.Cluster.run cluster ~max_rounds:1 () in
  Alcotest.(check int) "one round" 1 cut.Net.Cluster.rounds;
  Alcotest.(check bool) "round limit reported" true
    (cut.Net.Cluster.stop = Net.Cluster.Round_limit);
  let rest = Net.Cluster.run cluster () in
  Alcotest.(check bool) "quiescent reported" true
    (rest.Net.Cluster.stop = Net.Cluster.Quiescent);
  Alcotest.(check int) "all jobs delivered" 6 rest.Net.Cluster.frames_delivered;
  Alcotest.(check string) "report text has no stop field"
    (Net.Cluster.report_to_string { rest with Net.Cluster.stop = Round_limit })
    (Net.Cluster.report_to_string rest)

(* ---------------- ARQ window and dup filter vs models ---------------- *)

(* A script step.  Sends number frames in order; acks, arrivals and
   duplicates name a sequence number relative to the models' state. *)
type arq_op =
  | Send of int  (* RTO of the new frame *)
  | Ack of int  (* this many below the next sequence number *)
  | Tick of int  (* advance the horizon, retransmit what is due *)
  | Kill  (* the sender dies: every unacked frame is dropped *)
  | Arrive_next  (* the lowest number not yet seen *)
  | Arrive_ahead of int  (* reordered: that many past it *)
  | Arrive_dup of int  (* a number already seen (picked by index) *)

let arq_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun d -> Send d) (int_range 1 40));
        (3, map (fun k -> Ack k) (int_range 0 6));
        (3, map (fun h -> Tick h) (int_range 0 30));
        (1, pure Kill);
        (4, pure Arrive_next);
        (2, map (fun k -> Arrive_ahead k) (int_range 1 5));
        (2, map (fun k -> Arrive_dup k) (int_range 0 50));
      ])

let arq_max_retries = 2

(* The retransmit policy both sides apply to a due frame: give up after
   [arq_max_retries], else back off by a seq-dependent amount. *)
let arq_next_deadline ~horizon seq tries = horizon + (((seq mod 7) + 1) lsl tries)

(* Runs [ops] against {!Net.Arq} and against the structures it replaced:
   a hash table of every seen number, and a hash table of unacked frames
   scanned with fold-and-sort.  [None] when they agree throughout. *)
let arq_divergence ops =
  let module U = Net.Arq.Unacked in
  let window : unit U.t = U.create () in
  let model : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let seen = Net.Arq.Seen.create () in
  let seen_model : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let next_seq = ref 0 and horizon = ref 0 in
  let lowest_unseen () =
    let s = ref 0 in
    while Hashtbl.mem seen_model !s do incr s done;
    !s
  in
  let arrive seq =
    let expect = not (Hashtbl.mem seen_model seq) in
    Hashtbl.replace seen_model seq ();
    let got = Net.Arq.Seen.first_receipt seen seq in
    if got = expect then None
    else Some (Printf.sprintf "first_receipt %d: %b, model %b" seq got expect)
  in
  let step op =
    match op with
    | Send rto ->
      let seq = !next_seq in
      incr next_seq;
      U.add window ~seq () ~deadline:(!horizon + rto);
      Hashtbl.replace model seq (!horizon + rto, 0);
      None
    | Ack k ->
      let seq = !next_seq - 1 - k in
      let expect = Hashtbl.mem model seq in
      Hashtbl.remove model seq;
      let got = U.ack window seq in
      if got = expect then None
      else Some (Printf.sprintf "ack %d: %b, model %b" seq got expect)
    | Tick h ->
      horizon := !horizon + h;
      let horizon = !horizon in
      let expect =
        Hashtbl.fold
          (fun seq (deadline, _) acc ->
            if deadline <= horizon then seq :: acc else acc)
          model []
        |> List.sort compare
      in
      List.iter
        (fun seq ->
          let _, tries = Hashtbl.find model seq in
          if tries >= arq_max_retries then Hashtbl.remove model seq
          else
            Hashtbl.replace model seq
              (arq_next_deadline ~horizon seq (tries + 1), tries + 1))
        expect;
      let got = ref [] in
      U.retransmit_due window ~horizon (fun seq (p : unit U.pending) ->
          got := seq :: !got;
          p.U.tries < arq_max_retries
          && begin
               p.U.tries <- p.U.tries + 1;
               p.U.deadline <- arq_next_deadline ~horizon seq p.U.tries;
               true
             end);
      let got = List.rev !got in
      if got = expect then None
      else
        Some
          (Printf.sprintf "due at %d: [%s], model [%s]" horizon
             (String.concat ";" (List.map string_of_int got))
             (String.concat ";" (List.map string_of_int expect)))
    | Kill ->
      Hashtbl.reset model;
      U.clear window;
      if U.next_due window = max_int then None
      else Some "kill left a deadline bound"
    | Arrive_next -> arrive (lowest_unseen ())
    | Arrive_ahead k -> arrive (lowest_unseen () + k)
    | Arrive_dup k ->
      let all = Hashtbl.fold (fun s () acc -> s :: acc) seen_model [] in
      if all = [] then None
      else arrive (List.nth (List.sort compare all) (k mod List.length all))
  in
  let invariant () =
    let earliest =
      Hashtbl.fold (fun _ (d, _) acc -> min acc d) model max_int
    in
    if U.length window <> Hashtbl.length model then
      Some
        (Printf.sprintf "length %d, model %d" (U.length window)
           (Hashtbl.length model))
    else if U.next_due window > earliest then
      Some
        (Printf.sprintf "bound %d above earliest deadline %d"
           (U.next_due window) earliest)
    else None
  in
  let rec go i = function
    | [] -> None
    | op :: rest -> (
      match step op with
      | Some e -> Some (i, e)
      | None -> (
        match invariant () with Some e -> Some (i, e) | None -> go (i + 1) rest))
  in
  go 0 ops

let prop_arq_matches_models =
  QCheck2.Test.make ~name:"arq: window and dup filter match their models"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 200) arq_op_gen)
    (fun ops ->
      match arq_divergence ops with
      | None -> true
      | Some (i, e) -> QCheck2.Test.fail_reportf "step %d: %s" i e)

let suite =
  [
    Alcotest.test_case "wire: cycle and sharing cross nodes" `Quick
      test_wire_cycle_and_sharing;
    Alcotest.test_case "wire: export mask caps rights" `Quick
      test_wire_rights_mask;
    Alcotest.test_case "wire: sealed instance keeps its type" `Quick
      test_wire_sealed_instance;
    QCheck_alcotest.to_alcotest prop_wire_isomorphic;
    Alcotest.test_case "hook: deliver_external wakes receiver" `Quick
      test_deliver_external_wakes_receiver;
    Alcotest.test_case "hook: deliver_external refuses when full" `Quick
      test_deliver_external_full_port;
    Alcotest.test_case "hook: drain_port admits blocked senders" `Quick
      test_drain_port_admits_blocked_senders;
    Alcotest.test_case "cluster: two-node delivery in order" `Quick
      test_two_node_delivery;
    Alcotest.test_case "cluster: latency is observable" `Quick
      test_remote_latency_observable;
    Alcotest.test_case "cluster: drops recovered by retransmit" `Quick
      test_drop_retransmit;
    Alcotest.test_case "cluster: duplicates filtered" `Quick test_dup_detection;
    Alcotest.test_case "cluster: partition heals" `Quick test_partition_heal;
    Alcotest.test_case "cluster: permanent partition counts lost" `Quick
      test_partition_forever_counts_lost;
    Alcotest.test_case "cluster: window backpressure" `Quick
      test_window_backpressure;
    Alcotest.test_case "cluster: same seed, same streams" `Quick
      test_determinism_under_faults;
    Alcotest.test_case "names: errors and resolution" `Quick
      test_name_service_errors;
    Alcotest.test_case "rights: surrogate is send-only" `Quick
      test_surrogate_is_send_only;
    Alcotest.test_case "names: import on home node" `Quick
      test_import_on_home_node;
    Alcotest.test_case "fi: link plans are deterministic" `Quick
      test_link_plan_deterministic;
    Alcotest.test_case "chaos: name service epochs and unpublish" `Quick
      test_name_service_epochs;
    Alcotest.test_case "chaos: sends to a dead node dead-letter loudly" `Quick
      test_dead_node_sends_dead_letter_loudly;
    Alcotest.test_case "chaos: kill/restart at every round boundary" `Quick
      test_kill_restart_every_boundary;
    QCheck_alcotest.to_alcotest prop_node_chaos_par_identical;
    QCheck_alcotest.to_alcotest prop_par_engine_identical;
    Alcotest.test_case "par: bench scenario identical on both engines" `Quick
      test_par_bench_scenario_parity;
    Alcotest.test_case "par: pool runs every task once" `Quick
      test_par_exec_runs_every_task;
    Alcotest.test_case "par: lowest-index failure re-raised" `Quick
      test_par_exec_lowest_failure_wins;
    Alcotest.test_case "par: machine single stepper" `Quick
      test_machine_single_stepper;
    Alcotest.test_case "par: metrics merge is deterministic" `Quick
      test_metrics_merge_deterministic;
    Alcotest.test_case "oracle: Seq runs match pinned digests" `Quick
      test_seq_oracle;
    Alcotest.test_case "cluster: round limit is a typed outcome" `Quick
      test_round_limit_outcome;
    QCheck_alcotest.to_alcotest prop_arq_matches_models;
  ]
