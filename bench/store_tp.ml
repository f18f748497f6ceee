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
   touched the rest of the journal would put it near the size ratio.

   And the append-cost guard: 10,000 history-shaped records (40-byte
   payloads, no periodic fsync) and the write syscalls they cost, read
   from /proc/self/io.  The journal writes its frames behind, one
   [write] per 64 KiB, so the count is at most ceil(bytes / 64 KiB) + 1
   (the last partial buffer); a [write] per append would read 10,000.
   Beside it, the same bound over a swap-shaped interleave: 10,000 x (a
   blob under a new key, then a read of a key already on disk), as a
   swap-out then a fault-in.  Only a read of a buffered frame writes the
   buffer out, so the interleave also costs one [write] per 64 KiB; a
   read that flushed would read 10,000.  Counts, not times: host noise
   cannot move them.

   Three sections: [store_tp] (throughput and the read ratio),
   [store_append] (the two syscall counts) and [ckpt_rt]. *)

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

let read_small_records = 64
let read_large_records = 65_536
let append_records = 10_000
let append_payload_bytes = 40
let append_buffer_bytes = 65_536 (* the journal's write-behind buffer *)
let swap_image_bytes = 32
let swap_on_disk = 1024 (* keys written and synced before the interleave *)

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

(* The [ckpt_rt] section. *)
let measure_ckpt ~smoke =
  let trips = if smoke then 5 else 20 in
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
  Reading.
    [
      int "trips" "trips" trips;
      v "save_ns" "ns" !save_ns;
      v "restore_ns" "ns" !restore_ns;
    ]

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

(* This process's write-family syscalls so far ([syscw] in
   /proc/self/io); [None] where the file is unreadable. *)
let write_syscalls () =
  match In_channel.with_open_text "/proc/self/io" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "syscw"; n ] -> int_of_string_opt (String.trim n)
        | _ -> None)
      (String.split_on_char '\n' text)

(* Write syscalls of [f store] on a fresh no-fsync journal, and the
   journal bytes it appended.  Keys are built before the first reading,
   and nothing between the two readings prints, so every write counted is
   the journal's. *)
let count_writes name ~prepare f =
  let path = St.scratch_path name in
  St.fresh_path path;
  let store = St.open_ ~sync_every:max_int path in
  prepare store;
  let _, _, _, bytes0, _ = St.stats store in
  let before = write_syscalls () in
  f store;
  St.sync store;
  let after = write_syscalls () in
  let _, _, _, bytes, _ = St.stats store in
  St.close store;
  St.remove_files path;
  let writes =
    match (before, after) with
    | Some b, Some a -> Some (a - b)
    | _ -> None
  in
  (bytes - bytes0, writes)

let count_append_writes () =
  let payload = Bytes.make append_payload_bytes 'x' in
  let keys =
    Array.init append_records (fun i ->
        Printf.sprintf "hist/acct%d/%d" (i mod 8) ((i / 8) + 1))
  in
  count_writes "bench_append.journal" ~prepare:ignore (fun store ->
      Array.iter (fun key -> St.put_blob store ~key payload) keys)

(* The reads' keys were synced before the first reading, so every read
   is of a frame on disk while the interleave's own frames are buffered. *)
let count_swap_writes () =
  let image = Bytes.make swap_image_bytes 's' in
  let old_keys = Array.init swap_on_disk (Printf.sprintf "swap/old%06d") in
  let new_keys = Array.init append_records (Printf.sprintf "swap/new%06d") in
  count_writes "bench_swap.journal"
    ~prepare:(fun store ->
      Array.iter (fun key -> St.put_blob store ~key image) old_keys;
      St.sync store)
    (fun store ->
      Array.iteri
        (fun i key ->
          St.put_blob store ~key image;
          ignore (St.get_blob store ~key:old_keys.(i mod swap_on_disk)))
        new_keys)

(* The write syscalls appending [bytes] may cost: ceil(bytes / 64 KiB)
   + 1. *)
let syscalls_reading key (bytes, writes) =
  let buffers = (bytes + append_buffer_bytes - 1) / append_buffer_bytes in
  Reading.make key "syscalls" (Option.map float_of_int writes)
    ~bound:(Reading.At_most (float_of_int (buffers + 1)))

(* The [store_tp] section. *)
let measure ~smoke =
  let pairs = if smoke then 256 else 2048 in
  let store_ns, mb_s = measure_store ~pairs in
  let read = measure_read () in
  Reading.
    [
      int "pairs" "pairs" pairs;
      v "ns_per_op" "ns" store_ns;
      v "journal_mb_per_s" "MB/s" mb_s;
      int "first_key_read_small_records" "records" read_small_records;
      int "first_key_read_large_records" "records" read_large_records;
      v "first_key_read_small_ns" "ns" read.Paired.base_ns;
      v "first_key_read_large_ns" "ns" read.Paired.test_ns;
      v "first_key_read_ratio" "x" read.Paired.ratio ~bound:(At_most 3.0);
    ]

(* The [store_append] section. *)
let measure_appends ~smoke:_ =
  let append = count_append_writes () and swap = count_swap_writes () in
  Reading.
    [
      int "append_records" "records" append_records;
      int "append_payload_bytes" "bytes" append_payload_bytes;
      int "append_bytes" "bytes" (fst append);
      syscalls_reading "append_write_syscalls" append;
      int "swap_pairs" "pairs" append_records;
      int "swap_image_bytes" "bytes" swap_image_bytes;
      int "swap_bytes" "bytes" (fst swap);
      syscalls_reading "swap_write_syscalls" swap;
    ]
