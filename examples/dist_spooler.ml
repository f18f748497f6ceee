(* The print spooler, split across a two-node cluster.

   Node "clients" runs the user sessions; node "printshop" owns the print
   queue and the printer task.  The queue port is exported cluster-wide as
   "printer"; clients import it and send jobs through the resulting local
   surrogate with the ordinary send syscall — blocking and backpressure
   included — while the virtual interconnect marshals each job (a small
   composite: header object plus a payload object hanging off an access
   slot) to the printshop's heap.

   The export mask strips the write right, so the printshop can read jobs
   but never scribble on them — and because marshalling rebuilds the graph
   on the far heap, the client's originals are untouchable from there
   anyway.

   Determinism gate (like E1-E11): the whole scenario runs twice and must
   produce identical printed output and byte-identical event streams on
   both nodes. *)

open I432
module K = I432_kernel
module Obs = I432_obs

let clients = 3
let jobs_per_client = 4
let total = clients * jobs_per_client

let run_once () =
  let cluster = I432_net.Cluster.create () in
  let config =
    {
      K.Machine.default_config with
      processors = 2;
      trace_level = Obs.Tracer.Events;
    }
  in
  let node_a, ma = I432_net.Cluster.boot_node cluster ~name:"clients" ~config () in
  let node_b, mb =
    I432_net.Cluster.boot_node cluster ~name:"printshop" ~config ()
  in
  ignore (I432_net.Cluster.connect cluster node_a node_b);

  (* Printshop side: the real queue, exported read-only. *)
  let queue = K.Machine.create_port mb ~capacity:8 ~discipline:K.Port.Fifo () in
  I432_net.Cluster.export cluster ~node:node_b ~name:"printer"
    ~mask:Rights.read_only queue;
  let printed = ref [] in
  ignore
    (K.Machine.spawn mb ~name:"printer" (fun () ->
         for _ = 1 to total do
           let job = K.Machine.receive mb ~port:queue in
           (* The mask stripped the write right on the way over. *)
           assert (not (Rights.has_write (Access.rights job)));
           let owner = K.Machine.read_word mb job ~offset:0 in
           let seq = K.Machine.read_word mb job ~offset:4 in
           let body =
             match K.Machine.load_access mb job ~slot:0 with
             | Some b -> b
             | None -> assert false
           in
           let words = K.Machine.read_word mb body ~offset:0 in
           K.Machine.compute mb 25;  (* print time *)
           printed := (owner, seq, words) :: !printed
         done));

  (* Client side: the imported surrogate behaves like any local port. *)
  let surrogate = I432_net.Cluster.import cluster ~node:node_a ~name:"printer" in
  for u = 1 to clients do
    ignore
      (K.Machine.spawn ma ~name:(Printf.sprintf "user%d" u) (fun () ->
           for j = 1 to jobs_per_client do
             let body = K.Machine.allocate_generic ma ~data_length:8 () in
             K.Machine.write_word ma body ~offset:0 ((100 * u) + j);
             let job =
               K.Machine.allocate_generic ma ~data_length:16 ~access_length:1 ()
             in
             K.Machine.write_word ma job ~offset:0 u;
             K.Machine.write_word ma job ~offset:4 j;
             K.Machine.store_access ma job ~slot:0 (Some body);
             K.Machine.compute ma 10;  (* composing the job *)
             K.Machine.send ma ~port:surrogate ~msg:job
           done))
  done;

  let report = I432_net.Cluster.run cluster ~quantum_ns:200_000 () in
  ( report,
    List.rev !printed,
    List.map Obs.Event.to_string (K.Machine.events ma),
    List.map Obs.Event.to_string (K.Machine.events mb) )

let () =
  let r1, printed1, ea1, eb1 = run_once () in
  let r2, printed2, ea2, eb2 = run_once () in
  List.iter
    (fun (owner, seq, words) ->
      Printf.printf "printed user%d job%d (payload %d)\n" owner seq words)
    printed1;
  Printf.printf "frames: sent=%d delivered=%d lost=%d retx=%d acks=%d\n"
    r1.I432_net.Cluster.frames_sent r1.I432_net.Cluster.frames_delivered
    r1.I432_net.Cluster.frames_lost r1.I432_net.Cluster.retransmits
    r1.I432_net.Cluster.acks;
  (* Every job arrived, exactly once, payload intact. *)
  assert (List.length printed1 = total);
  assert (r1.I432_net.Cluster.frames_delivered = total);
  assert (r1.I432_net.Cluster.frames_lost = 0);
  List.iter
    (fun (owner, seq, words) -> assert (words = (100 * owner) + seq))
    printed1;
  (* Each client's jobs print in submission order (clean link: channel
     delivery follows send order). *)
  for u = 1 to clients do
    let seqs = List.filter_map
        (fun (owner, seq, _) -> if owner = u then Some seq else None)
        printed1
    in
    assert (seqs = List.init jobs_per_client (fun j -> j + 1))
  done;
  (* The determinism gate: identical output and event streams, both nodes. *)
  assert (printed1 = printed2);
  assert (r1 = r2);
  assert (ea1 = ea2);
  assert (eb1 = eb2);
  print_endline "dist_spooler OK"
