(* Host cost of the run loop as processes are added, and the minor-heap
   words the kernel's hot paths allocate.  Each reading's bound is
   written beside it in [measure]; the readings quoted here are what
   each count read before, on the way to its bound.

   [ratio]: a paired ratio of the host time per request of one loadgen
   run at 512 workers over the same schedule at 8.  The extra workers
   only ever wait on the request port, so a run-loop step that costs
   O(1) in the processes keeps the ratio near 1 (x1.1 on a 2-vCPU x86-64
   host); a step that walks every process reads about x4 there.  One
   machine, 4 processors, 4 pumps, 4 users at 15k req/s aggregate,
   20,000 requests per user (2,500 in smoke mode): the scaling run of
   ROADMAP.md.

   The word counts are the same on every host for a given binary, so
   they catch an allocation creeping back where a timing ratio could
   not:
   - [minor_words_per_request], one untraced run at 8 workers, schedule
     and boot included: 40.6 (40.1 in full mode) with descriptors as
     int columns and an access descriptor one immediate word; a
     descriptor record per object and a boxed descriptor per message
     read 60.6, with timers on their processes, unboxed port queues,
     in-place carving and allocation-free draws, observes and header
     reads, built without -opaque (62.6 with it); the intrusive ready
     queue over the pairing-heap timers read 149.7, the hashed ready
     queue with a handler closure per syscall 368.6.
   - [traced_minor_words_per_request], the same run at trace level
     [Events]: a traced event is four stores into a preallocated ring,
     so tracing adds only the boot-time interning of names.  A
     deschedule event that formatted its op's text per event read 46.9
     words per request more than its untraced twin; the leave events
     now carry that op in their ints, and no deschedule is emitted.
   - [cluster_minor_words_per_request], one untraced 3-node x 2-GDP
     cluster run (4 users at 10k req/s aggregate, 500 requests each, in
     both modes): every request crosses the wire codec, the NIC pump and
     the ARQ.  218.1; 254.9 with descriptor records and boxed access
     descriptors (259.1 built with -opaque); the hashed ready queue read
     604.6, the pairing-heap timers 378.5.
   - [bank_minor_words_per_transfer], one untraced banking run (2 GDPs,
     4 tellers, 8 accounts, 4,000 transfers, seed 1), two group commits
     per transfer: 374.1; 391.8 with descriptor records and boxed
     access descriptors (405.9 built with -opaque); a [Map] functor
     applied per [Txn_try] read 1,293.6, the one-tally validation 723.5
     over the hashed ready queue and 538.1 over the pairing-heap timers,
     counting commits by sorting every key 447.6.
   - [bank_history_words_per_transfer], the same run filing every
     commit's record into a store on a scratch journal: 380.6, the key
     string of each of the two records a transfer files and nothing
     else; 398.3 with descriptor records and boxed access descriptors
     (412.3 built with -opaque).  A record through a polymorphic
     [Hashtbl] directory, a [Buffer]-built key and text, a closure per
     encode and boxed CRC arguments read 573.4.

   Beside the words, the physical memory each run's machines wrote, in
   host bytes (materialized 4 KiB pages; memory is a page table whose
   untouched pages share one zero page), each bounded at its reading:
   - a fresh 16 MB machine: 0;
   - [machine_resident_bytes], the untraced 8-worker run: 40 pages in
     smoke mode and 314 in full mode, because a loadgen machine
     allocates every request's message at boot;
   - one reading per node of the cluster run: 9 pages on the server and
     4 on each client.
   Before the page table each of these machines held its whole 16 MB,
   zero-filled at creation.

   [descriptor_words]: the host words the 8-worker run's object table
   reaches, over its live descriptors (10,027 in smoke mode, 80,027 in
   full), bounded at its reading: 4.30 in smoke mode and 3.20 in full.
   A descriptor is a row of int and pointer columns, allocated a chunk
   of 1,024 slots at a time; a plain object in a global heap, as every
   request message is, writes only three of them (meta, extent, SRO),
   and the four sparse columns' chunks stay one shared vacant chunk
   until a non-vacant value is written.  The rest is the kernel state
   of the system objects.  Seven written columns read 7.68 and 7.15,
   one record per descriptor in an array doubled to grow 17.15 and
   16.70.

   [trace_slot_words]: the host words a traced machine's trace ring
   takes per retained event, bounded at its reading of 4.0 — ts, a, b
   and one meta word packing kind, cpu, name id and detail id.  It is
   the difference between the tracers of two traced machines whose rings
   hold twice and once the default 32,768 slots, over 32,768, so the
   intern pool and the tracer's own fields cancel.  Seven-int slots read
   7.0.

   Under all of these, the syscall probes price the kernel seam itself:
   the words one [yield], one [delay] and one send/receive round trip
   (two sends, two receives between two processes), one queued message
   (a send to a port with room, then a receive of it), one timed
   receive that times out, one send that parks at a full port until a
   receiver frees its slot, and one timed send that times out at a full
   port allocate on a bare machine of 1 and of 2 GDPs.
   Each is the difference between a run of 20,000 iterations and one of
   10,000, over 10,000, so boot and teardown cancel and the reading is
   exact, and each is bounded at its reading:
   - a yield: the effect and its continuation, nothing else (the hashed
     ready queue and a handler closure per syscall read 49);
   - a delay: the effect with its [Delay] op (98 and 100 with the hashed
     ready queue, 25 and 27 over the pairing-heap timers, whose entry
     took 16 and each idle processor's look at the heap 2 more);
   - a round trip: 20 words for four effects and 14 for the four op
     records (174, then 52, when a delivered message came back as
     [R_msg_option (Some msg)] and a parked receiver took a queue cell
     and a fresh [Blocked_receive] status);
   - a queued message: two effects and the [Send] and [Receive] op
     records, nothing for the queue slot or the result;
   - a receive timeout: the effect, its [Receive] op and [Timeout] wait,
     and the deadline's [Some] in [Process.timeout_at];
   - a parked send: its effect and [Send] op, with the receiver's delay
     and receive (36 when a parked sender took a record and a queue
     cell);
   - a send timeout: as a receive timeout, with a [Send] op (37 when a
     parked sender took a record and a queue cell and its timeout
     rebuilt the port's sender queue). *)

module K = I432_kernel
module Load = I432_load
module Banking = I432_txn.Banking
module St = I432_store.Store
module Memory = I432.Memory

let base_workers = 8
let test_workers = 512
let bank_transfers = 4_000

let probe_iterations = 10_000

let yields m n =
  ignore
    (K.Machine.spawn m ~name:"yielder" (fun () ->
         for _ = 1 to n do
           K.Machine.yield m
         done))

let delays m n =
  ignore
    (K.Machine.spawn m ~name:"sleeper" (fun () ->
         for _ = 1 to n do
           K.Machine.delay m ~ns:1_000
         done))

let round_trips m n =
  let port () = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let there = port () and back = port () in
  let msg = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"ping" (fun () ->
         for _ = 1 to n do
           K.Machine.send m ~port:there ~msg;
           ignore (K.Machine.receive m ~port:back)
         done));
  ignore
    (K.Machine.spawn m ~name:"pong" (fun () ->
         for _ = 1 to n do
           K.Machine.send m ~port:back ~msg:(K.Machine.receive m ~port:there)
         done))

(* One process sends to a port with room for two and takes the message
   back itself: the message waits in the queue between the two. *)
let queued_messages m n =
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let msg = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"queuer" (fun () ->
         for _ = 1 to n do
           K.Machine.send m ~port ~msg;
           ignore (K.Machine.receive m ~port)
         done))

(* A timed receive on a port nobody sends to: every one times out. *)
let receive_timeouts m n =
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"waiter" (fun () ->
         for _ = 1 to n do
           ignore (K.Machine.receive_timeout m ~port ~timeout_ns:1_000)
         done))

(* A port of one slot, filled before the loop: each send finds it full
   and parks until the receiver, after its delay, frees the slot. *)
let send_blocks m n =
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let msg = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         K.Machine.send m ~port ~msg;
         for _ = 1 to n do
           K.Machine.send m ~port ~msg
         done));
  ignore
    (K.Machine.spawn m ~name:"receiver" (fun () ->
         for _ = 1 to n + 1 do
           K.Machine.delay m ~ns:1_000_000;
           ignore (K.Machine.receive m ~port)
         done))

(* A timed send to a port of one slot that stays full: every one times
   out. *)
let send_timeouts m n =
  let port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let msg = K.Machine.allocate_generic m () in
  ignore
    (K.Machine.spawn m ~name:"sender" (fun () ->
         K.Machine.send m ~port ~msg;
         for _ = 1 to n do
           ignore (K.Machine.send_timeout m ~port ~msg ~timeout_ns:1_000)
         done))

(* Each probe's reading key, its machine's GDPs, the bodies of [n]
   iterations, and its bound in words per iteration. *)
let probes =
  List.concat_map
    (fun (what, bodies, bound) ->
      List.map
        (fun gdps ->
          (Printf.sprintf "%s_words_%dgdp" what gdps, gdps, bodies, bound))
        [ 1; 2 ])
    [
      ("yield", yields, 5.0);
      ("delay", delays, 7.0);
      ("round_trip", round_trips, 34.0);
      ("queued", queued_messages, 17.0);
      ("timeout", receive_timeouts, 12.0);
      ("send_block", send_blocks, 26.0);
      ("send_timeout", send_timeouts, 15.0);
    ]

let spec ~smoke =
  {
    Load.Arrival.seed = 1;
    users = 4;
    sessions = 1;
    requests_per_session = (if smoke then 2_500 else 20_000);
    rate_rps = 15_000.0;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Typical;
  }

let cluster_spec =
  {
    Load.Arrival.seed = 1;
    users = 4;
    sessions = 1;
    requests_per_session = 500;
    rate_rps = 10_000.0;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Typical;
  }

(* The minor-heap words [f] allocates, and its result. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  let x = f () in
  (Gc.minor_words () -. before, x)

let probe_reading (key, gdps, bodies, bound) =
  let run n =
    fst @@ minor_words_of (fun () ->
        let m =
          K.Machine.create
            ~config:{ K.Machine.default_config with processors = gdps }
            ()
        in
        bodies m n;
        let report = K.Machine.run m in
        if report.K.Machine.completed <> List.length (K.Machine.all_processes m)
        then failwith ("run_loop: " ^ key ^ " probe did not complete"))
  in
  let n = probe_iterations in
  Reading.v key "words" ((run (2 * n) -. run n) /. float_of_int n)
    ~bound:(Reading.At_most bound)

(* Host bytes of the physical memory a machine has written: the pages
   it materialized, a function of the schedule like the word counts. *)
let resident_bytes m = Memory.resident_bytes (K.Machine.memory m)

(* Host words of a machine's object table, everything it reaches
   included (the kernel state of its system objects too), per live
   descriptor. *)
let descriptor_words m =
  let table = K.Machine.table m in
  float_of_int (Obj.reachable_words (Obj.repr table))
  /. float_of_int (I432.Object_table.count_valid table)

(* Host words per trace slot: see the header. *)
let trace_slot_words () =
  let tracer_words trace_capacity =
    let m =
      K.Machine.create
        ~config:
          {
            K.Machine.default_config with
            trace_level = I432_obs.Tracer.Events;
            trace_capacity;
          }
        ()
    in
    Obj.reachable_words (Obj.repr (K.Machine.tracer m))
  in
  let c = I432_obs.Tracer.default_capacity in
  float_of_int (tracer_words (2 * c) - tracer_words c) /. float_of_int c

let measure ~smoke =
  let spec = spec ~smoke in
  let run ?trace_level workers () =
    let o =
      Load.Loadgen.run_machine ?trace_level ~processors:4 ~pumps:4 ~workers
        ~spec ()
    in
    if o.Load.Loadgen.o_completed <> Load.Arrival.total spec then
      failwith "run_loop: loadgen run did not complete every request";
    o
  in
  let requests = Load.Arrival.total spec in
  let words_per_request ?trace_level () =
    let words, o = minor_words_of (run ?trace_level base_workers) in
    (words /. float_of_int requests, o)
  in
  let minor_words_per_request, machine_run = words_per_request () in
  let machine =
    match machine_run.Load.Loadgen.o_machines with
    | [ (_, m) ] -> m
    | _ -> failwith "run_loop: a machine run has one machine"
  in
  let machine_resident_bytes = resident_bytes machine in
  let descriptor_words = descriptor_words machine in
  let traced_words_per_request, _ =
    words_per_request ~trace_level:I432_obs.Tracer.Events ()
  in
  (* A machine of the run's 16 MB that has run nothing holds no page. *)
  let fresh_resident_bytes =
    resident_bytes
      (K.Machine.create
         ~config:
           {
             K.Machine.default_config with
             memory_bytes = 1 lsl 24;
             global_heap_bytes = (1 lsl 24) - 4096;
           }
         ())
  in
  let cluster_requests = Load.Arrival.total cluster_spec in
  let cluster_words_per_request, cluster_run =
    let words, o =
      minor_words_of
        (Load.Loadgen.run_cluster ~nodes:3 ~processors:2 ~spec:cluster_spec)
    in
    if o.Load.Loadgen.o_completed <> cluster_requests then
      failwith "run_loop: cluster run did not complete every request";
    (words /. float_of_int cluster_requests, o)
  in
  let bank_words ?history_store () =
    let words, (_, _, r) =
      minor_words_of
        (Banking.run ~processors:2 ~workers:4 ~trace:false ?history_store
           ~accounts:8 ~transfers:bank_transfers ~seed:1)
    in
    List.iter (fun v -> failwith ("run_loop: banking run: " ^ v))
      (Banking.violations r);
    words /. float_of_int bank_transfers
  in
  let bank_words_per_transfer = bank_words () in
  (* No periodic fsync, as in the benchmark's bank-history workload: the
     count does not depend on it, and 1,000 fsyncs would only add time. *)
  let bank_history_words_per_transfer =
    let path = St.scratch_path "run_loop_history.journal" in
    St.fresh_path path;
    let store = St.open_ ~sync_every:max_int path in
    Fun.protect
      ~finally:(fun () ->
        St.close store;
        St.remove_files path)
      (fun () -> bank_words ~history_store:store ())
  in
  let probe_words = List.map probe_reading probes in
  let paired =
    Paired.measure
      ~trials:(if smoke then 5 else 9)
      ~batch:1
      ~base:(fun () -> ignore (run base_workers ()))
      ~test:(fun () -> ignore (run test_workers ()))
  in
  let per_request ns = ns /. float_of_int requests in
  Reading.
    [
      int "requests" "requests" requests;
      int "base_workers" "workers" base_workers;
      int "test_workers" "workers" test_workers;
      v "base_ns_per_request" "ns" (per_request paired.Paired.base_ns);
      v "test_ns_per_request" "ns" (per_request paired.Paired.test_ns);
      v "ratio" "x" paired.Paired.ratio ~bound:(At_most 2.0);
      v "minor_words_per_request" "words" minor_words_per_request
        ~bound:(At_most 41.0);
      v "traced_minor_words_per_request" "words" traced_words_per_request
        ~bound:(At_most (minor_words_per_request +. 1.0));
      int "cluster_requests" "requests" cluster_requests;
      v "cluster_minor_words_per_request" "words" cluster_words_per_request
        ~bound:(At_most 219.0);
      int "bank_transfers" "transfers" bank_transfers;
      v "bank_minor_words_per_transfer" "words" bank_words_per_transfer
        ~bound:(At_most 375.0);
      v "bank_history_words_per_transfer" "words"
        bank_history_words_per_transfer ~bound:(At_most 381.0);
      int "fresh_machine_resident_bytes" "B" fresh_resident_bytes
        ~bound:(At_most 0.0);
      int "machine_resident_bytes" "B" machine_resident_bytes
        ~bound:(At_most (if smoke then 163_840.0 else 1_286_144.0));
      v "descriptor_words" "words" descriptor_words
        ~bound:(At_most (if smoke then 4.31 else 3.2));
      v "trace_slot_words" "words" (trace_slot_words ()) ~bound:(At_most 4.0);
    ]
  @ List.map2
      (fun (node, m) bound ->
        Reading.int
          (Printf.sprintf "cluster_%s_resident_bytes" node)
          "B" (resident_bytes m) ~bound:(Reading.At_most bound))
      cluster_run.Load.Loadgen.o_machines
      [ 36_864.0; 16_384.0; 16_384.0 ]
  @ probe_words
