(* Host cost of the persistent filing store: the ns per store+retrieve
   round trip of a small composite graph (encode, CRC, journal append,
   directory update, decode, reconstruct), the journal's write bandwidth
   during that run, and the round-trip price of a checkpoint — save
   (image + fsync) and restore (re-boot, replay to the bound, verify the
   image byte-for-byte).

   Same best-of-batches discipline as the other overhead benches: a major
   collection before every sample, minimum across trials (host noise only
   ever inflates a reading).

   Last, the read-cost guard: a paired ratio of [get_blob] on the first
   key of a 64k-record journal over the same read on a 64-record one.  A
   read costs O(its record), so the ratio sits near 1; a read that
   touched the rest of the journal would put it near the size ratio. *)

module K = I432_kernel
module Obs = I432_obs
module St = I432_store.Store
module Ckpt = I432_store.Checkpoint

let config =
  {
    K.Machine.default_config with
    K.Machine.processors = 1;
    trace_level = Obs.Tracer.Off;
  }

(* Scratch journal under _build so bench runs never litter the tree. *)
let journal_path = St.scratch_path "bench_store.journal"
let cleanup () = St.fresh_path journal_path

(* A root with a chain of children and one shared leaf: 8 objects, the
   shape every graph-filing test round-trips. *)
let build_graph m =
  let table = K.Machine.table m in
  let shared = K.Machine.allocate_generic m ~data_length:8 () in
  let root = K.Machine.allocate_generic m ~data_length:16 ~access_length:2 () in
  let rec chain parent depth =
    if depth > 0 then begin
      let child =
        K.Machine.allocate_generic m ~data_length:16 ~access_length:2 ()
      in
      I432.Segment.store_access table parent ~slot:0 (Some child);
      I432.Segment.store_access table parent ~slot:1 (Some shared);
      chain child (depth - 1)
    end
  in
  chain root 5;
  root

type result = {
  pairs : int;  (* store+retrieve round trips measured *)
  store_ns_per_op : float;  (* host ns per round trip *)
  journal_mb_per_s : float;  (* journal write bandwidth over the run *)
  ckpt_trips : int;
  ckpt_save_ns : float;  (* host ns per save (image + fsync) *)
  ckpt_restore_ns : float;  (* host ns per restore (re-boot + replay) *)
  read : Paired.t;  (* first-key get_blob: large journal over small *)
}

let read_small_records = 64
let read_large_records = 65_536
let read_limit = 3.0

let measure_store ~pairs =
  cleanup ();
  let store = St.open_ ~sync_every:64 journal_path in
  let t0 = Unix.gettimeofday () in
  let fresh_machine () =
    let m = K.Machine.create ~config () in
    (m, build_graph m)
  in
  let mach = ref (fresh_machine ()) in
  for i = 0 to pairs - 1 do
    (* A fresh heap every 64 trips keeps the object table from filling
       with reconstructed graphs without charging a boot per trip. *)
    if i mod 64 = 0 then mach := fresh_machine ();
    let m, root = !mach in
    let key = Printf.sprintf "k%02d" (i mod 32) in
    ignore (St.store_graph store m ~key root);
    ignore (St.retrieve_graph store m ~key ())
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let _, _, _, bytes_written, _ = St.stats store in
  St.close store;
  cleanup ();
  ( elapsed *. 1e9 /. float_of_int pairs,
    float_of_int bytes_written /. elapsed /. 1e6 )

let measure_ckpt ~trips =
  cleanup ();
  let store = St.open_ journal_path in
  let boot () =
    let m = K.Machine.create ~config () in
    let port = K.Machine.create_port m ~capacity:8 ~discipline:K.Port.Fifo () in
    ignore
      (K.Machine.spawn m ~name:"sink" (fun () ->
           for _ = 1 to 16 do
             ignore (K.Machine.receive m ~port)
           done));
    ignore
      (K.Machine.spawn m ~name:"src" (fun () ->
           for i = 1 to 16 do
             let msg = K.Machine.allocate_generic m ~data_length:8 () in
             K.Machine.write_word m msg ~offset:0 i;
             K.Machine.send m ~port ~msg;
             K.Machine.delay m ~ns:10_000
           done));
    m
  in
  let kill_ns = 80_000 in
  let victim = boot () in
  ignore (K.Machine.run ~max_ns:kill_ns victim);
  let save_ns = ref infinity in
  let restore_ns = ref infinity in
  for _ = 1 to trips do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore
      (Ckpt.save store ~key:"bench" ~bound:(Ckpt.Virtual_ns kill_ns) victim);
    let t1 = Unix.gettimeofday () in
    ignore (Ckpt.restore store ~key:"bench" ~boot);
    let t2 = Unix.gettimeofday () in
    let s = (t1 -. t0) *. 1e9 and r = (t2 -. t1) *. 1e9 in
    if s < !save_ns then save_ns := s;
    if r < !restore_ns then restore_ns := r
  done;
  St.close store;
  cleanup ();
  (!save_ns, !restore_ns)

let measure_read () =
  let open_filled name records =
    let path = St.scratch_path name in
    St.fresh_path path;
    let store = St.open_ ~sync_every:max_int path in
    let payload = Bytes.make 8 'x' in
    for i = 0 to records - 1 do
      St.put_blob store ~key:(Printf.sprintf "k%06d" i) payload
    done;
    (path, store)
  in
  let small_path, small =
    open_filled "bench_read_small.journal" read_small_records
  in
  let large_path, large =
    open_filled "bench_read_large.journal" read_large_records
  in
  let read store () = ignore (St.get_blob store ~key:"k000000") in
  let r =
    Paired.measure ~trials:9 ~batch:1000 ~base:(read small) ~test:(read large)
  in
  St.close small;
  St.close large;
  St.remove_files small_path;
  St.remove_files large_path;
  r

let check r = r.read.Paired.ratio <= read_limit

let measure ~smoke () =
  let pairs = if smoke then 256 else 2048 in
  let trips = if smoke then 5 else 20 in
  let store_ns, mb_s = measure_store ~pairs in
  let save_ns, restore_ns = measure_ckpt ~trips in
  let read = measure_read () in
  {
    pairs;
    store_ns_per_op = store_ns;
    journal_mb_per_s = mb_s;
    ckpt_trips = trips;
    ckpt_save_ns = save_ns;
    ckpt_restore_ns = restore_ns;
    read;
  }

let print_summary r =
  Printf.printf
    "Store throughput (%d store+retrieve pairs): %.0f ns/op, %.2f MB/s \
     journal writes\n"
    r.pairs r.store_ns_per_op r.journal_mb_per_s;
  Printf.printf
    "Store first-key read: %.0f ns at %d records, %.0f ns at %d records, \
     median ratio x%.2f (limit x%.1f)\n"
    r.read.Paired.base_ns read_small_records r.read.Paired.test_ns
    read_large_records r.read.Paired.ratio read_limit;
  Printf.printf
    "Checkpoint round trip (%d trips): save %.0f ns, restore %.0f ns \
     (re-boot + replay + verify)\n"
    r.ckpt_trips r.ckpt_save_ns r.ckpt_restore_ns

let to_json_tp r =
  let open Json_out in
  Obj
    [
      ("pairs", Int r.pairs);
      ("ns_per_op", Float r.store_ns_per_op);
      ("journal_mb_per_s", Float r.journal_mb_per_s);
      ( "first_key_read",
        Obj
          [
            ("small_records", Int read_small_records);
            ("large_records", Int read_large_records);
            ("small_ns", Float r.read.Paired.base_ns);
            ("large_ns", Float r.read.Paired.test_ns);
            ("ratio", Float r.read.Paired.ratio);
            ("limit", Float read_limit);
          ] );
    ]

let to_json_ckpt r =
  let open Json_out in
  Obj
    [
      ("trips", Int r.ckpt_trips);
      ("save_ns", Float r.ckpt_save_ns);
      ("restore_ns", Float r.ckpt_restore_ns);
    ]
