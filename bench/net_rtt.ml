(* Round-trip cost of the virtual interconnect: the same ping-pong
   workload built once on local ports (one machine) and once across a
   two-node cluster (surrogate ports, wire marshalling, the NIC pump, and
   link latency in between).  The host-time ratio is the per-round-trip
   price of network transparency; the virtual-time figures show the
   modelled latency is actually observable (a remote round trip costs two
   one-way link traversals of virtual time, a local one costs none).

   Same paired-ratio discipline as Trace_overhead / Fi_overhead: ABBA
   alternation, a major collection before every sample, median of the
   per-pair ratios. *)

module K = I432_kernel
module Obs = I432_obs
module Net = I432_net

let trials = 11
let batch = 3

let config =
  {
    K.Machine.default_config with
    K.Machine.processors = 1;
    trace_level = Obs.Tracer.Off;
  }

(* One machine, two ports, [n] sequential round trips.  Returns virtual
   elapsed ns. *)
let local_workload ~n () =
  let m = K.Machine.create ~config () in
  let echo = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let reply = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"server" (fun () ->
         for _ = 1 to n do
           let ping = K.Machine.receive m ~port:echo in
           let pong = K.Machine.allocate_generic m ~data_length:8 () in
           K.Machine.write_word m pong ~offset:0
             (K.Machine.read_word m ping ~offset:0);
           K.Machine.send m ~port:reply ~msg:pong
         done));
  ignore
    (K.Machine.spawn m ~name:"client" (fun () ->
         let sum = ref 0 in
         for i = 1 to n do
           let ping = K.Machine.allocate_generic m ~data_length:8 () in
           K.Machine.write_word m ping ~offset:0 i;
           K.Machine.send m ~port:echo ~msg:ping;
           let pong = K.Machine.receive m ~port:reply in
           sum := !sum + K.Machine.read_word m pong ~offset:0
         done;
         Sys.opaque_identity !sum |> ignore));
  ignore (K.Machine.run m);
  K.Machine.now m

(* The same shape split across two nodes: the echo port lives on the
   server node, the reply port on the client node; each side talks to the
   other through an imported surrogate. *)
let remote_workload ~n () =
  let cluster = Net.Cluster.create () in
  let a, ma = Net.Cluster.boot_node cluster ~name:"client" ~config () in
  let b, mb = Net.Cluster.boot_node cluster ~name:"server" ~config () in
  ignore (Net.Cluster.connect cluster a b);
  let echo = K.Machine.create_port mb ~capacity:4 ~discipline:K.Port.Fifo () in
  let reply = K.Machine.create_port ma ~capacity:4 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"echo" echo;
  Net.Cluster.export cluster ~node:a ~name:"reply" reply;
  let to_echo = Net.Cluster.import cluster ~node:a ~name:"echo" in
  let to_reply = Net.Cluster.import cluster ~node:b ~name:"reply" in
  ignore
    (K.Machine.spawn mb ~name:"server" (fun () ->
         for _ = 1 to n do
           let ping = K.Machine.receive mb ~port:echo in
           let pong = K.Machine.allocate_generic mb ~data_length:8 () in
           K.Machine.write_word mb pong ~offset:0
             (K.Machine.read_word mb ping ~offset:0);
           K.Machine.send mb ~port:to_reply ~msg:pong
         done));
  ignore
    (K.Machine.spawn ma ~name:"client" (fun () ->
         let sum = ref 0 in
         for i = 1 to n do
           let ping = K.Machine.allocate_generic ma ~data_length:8 () in
           K.Machine.write_word ma ping ~offset:0 i;
           K.Machine.send ma ~port:to_echo ~msg:ping;
           let pong = K.Machine.receive ma ~port:reply in
           sum := !sum + K.Machine.read_word ma pong ~offset:0
         done;
         Sys.opaque_identity !sum |> ignore));
  ignore (Net.Cluster.run cluster ());
  K.Machine.now ma

let measure ~smoke =
  let n = if smoke then 100 else 400 in
  let virt_local = ref 0 in
  let virt_remote = ref 0 in
  let p =
    Paired.measure ~trials ~batch
      ~base:(fun () -> virt_local := local_workload ~n ())
      ~test:(fun () -> virt_remote := remote_workload ~n ())
  in
  let per_rtt virt = float_of_int virt /. float_of_int n in
  Reading.
    [
      int "roundtrips" "round trips" n;
      v "local_host_ns" "ns" p.Paired.base_ns;
      v "remote_host_ns" "ns" p.Paired.test_ns;
      v "host_ratio" "x" p.Paired.ratio;
      v "local_rtt_virtual_ns" "virtual ns" (per_rtt !virt_local);
      v "remote_rtt_virtual_ns" "virtual ns" (per_rtt !virt_remote);
    ]
