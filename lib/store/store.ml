(* Log-structured filing store: journal + in-memory directory +
   virtual-time compaction.  See the .mli for the contract. *)

module K = I432_kernel
module Obs = I432_obs
module Filing = Imax.Object_filing

(* Journal record kinds. *)
let kind_graph = 1
let kind_delete = 2
let kind_blob = 3

let kind_name = function
  | 1 -> "graph"
  | 2 -> "delete"
  | 3 -> "blob"
  | n -> string_of_int n

(* The directory: key -> (offset, kind, size), one flat open-addressing
   table with linear probing.  [slots] holds three ints per slot — the
   key's hash (-1 when the slot is empty), the record's offset, and its
   framed size times 256 plus its kind — and [names] the key strings, so
   a key costs no heap block beyond its own string.  A probe compares
   stored hashes before it touches a key, and nothing hashes or compares
   polymorphically.  A removal shifts the rest of its probe run back, so
   there are no tombstones; the table doubles at three quarters full.
   Its order is never observed: [keys] sorts. *)
module Dir = struct
  external get64u : string -> int -> int64 = "%caml_string_get64u"

  type t = {
    mutable slots : int array;
    mutable names : string array;
    mutable mask : int;  (* capacity - 1; the capacity is a power of 2 *)
    mutable count : int;
  }

  let stride = 3
  let empty = -1
  let create_slots capacity = Array.make (capacity * stride) empty

  let create () =
    let capacity = 64 in
    {
      slots = create_slots capacity;
      names = Array.make capacity "";
      mask = capacity - 1;
      count = 0;
    }

  (* Eight bytes at a time, then a byte at a time, then a final mix, so
     keys that differ only in their last digit land far apart.  The
     result is non-negative (never [empty]). *)
  let hash key =
    let n = String.length key in
    let h = ref n and i = ref 0 in
    while !i + 8 <= n do
      let w = Int64.to_int (get64u key !i) in
      h := (!h lxor w) * 0x100000001b3;
      h := !h lxor (!h lsr 29);
      i := !i + 8
    done;
    while !i < n do
      h := (!h lxor Char.code (String.unsafe_get key !i)) * 0x100000001b3;
      incr i
    done;
    let h = !h lxor (!h lsr 32) in
    let h = h * 0x3f51afd7ed558ccd in
    (h lxor (h lsr 29)) land max_int

  (* The slot holding [key] (hashing to [h]), or [-1 - s] where [s] is
     the empty slot that ends its probe run. *)
  let rec probe d h key s =
    let sh = Array.unsafe_get d.slots (s * stride) in
    if sh = empty then -1 - s
    else if sh = h && String.equal (Array.unsafe_get d.names s) key then s
    else probe d h key ((s + 1) land d.mask)

  let find d h key = probe d h key (h land d.mask)
  let offset d s = d.slots.((s * stride) + 1)
  let kind d s = d.slots.((s * stride) + 2) land 0xff
  let size d s = d.slots.((s * stride) + 2) lsr 8

  (* [kind] is a journal record kind, 0..255. *)
  let set d s ~off ~kind ~size =
    let i = s * stride in
    d.slots.(i + 1) <- off;
    d.slots.(i + 2) <- (size lsl 8) lor kind

  let iter d f =
    for s = 0 to d.mask do
      if d.slots.(s * stride) <> empty then f d.names.(s) s
    done

  let grow d =
    let slots = d.slots and names = d.names in
    let capacity = 2 * (d.mask + 1) in
    d.slots <- create_slots capacity;
    d.names <- Array.make capacity "";
    d.mask <- capacity - 1;
    Array.iteri
      (fun s key ->
        let h = slots.(s * stride) in
        if h <> empty then begin
          let s' = -1 - find d h key in
          Array.blit slots (s * stride) d.slots (s' * stride) stride;
          d.names.(s') <- key
        end)
      names

  (* Insert into the empty slot [s] that [find] reported. *)
  let add d s h key ~off ~kind ~size =
    d.slots.(s * stride) <- h;
    d.names.(s) <- key;
    set d s ~off ~kind ~size;
    d.count <- d.count + 1;
    if 4 * d.count > 3 * (d.mask + 1) then grow d

  (* Walk the probe run after [hole]: an entry whose home slot does not
     lie cyclically in (hole, s] moves back into the hole, which moves to
     where the entry was.  Returns the last hole. *)
  let rec shift d hole s =
    let s = (s + 1) land d.mask in
    let h = d.slots.(s * stride) in
    if h = empty then hole
    else if (s - (h land d.mask)) land d.mask >= (s - hole) land d.mask
    then begin
      Array.blit d.slots (s * stride) d.slots (hole * stride) stride;
      d.names.(hole) <- d.names.(s);
      shift d s s
    end
    else shift d hole s

  let remove d s =
    let hole = shift d s s in
    d.slots.(hole * stride) <- empty;
    d.names.(hole) <- "";
    d.count <- d.count - 1
end

type mon = {
  mon_machine : K.Machine.t;
  mon_appends : Obs.Metrics.counter;
  mon_syncs : Obs.Metrics.counter;
  mon_compactions : Obs.Metrics.counter;
  mon_bytes : Obs.Metrics.counter;
}

type t = {
  mutable journal : Journal.t;
  mutable dir : Dir.t;
  sync_every : int;
  compact_interval_ns : int;
  min_garbage_bytes : int;
  mutable garbage : int;  (* reclaimable bytes in the journal *)
  mutable next_compact_ns : int;  (* virtual instant of the next check *)
  mutable mon : mon option;
  (* lifetime statistics (survive compaction) *)
  mutable st_appends : int;
  mutable st_syncs : int;
  mutable st_compactions : int;
  mutable st_bytes_written : int;
  mutable st_bytes_reclaimed : int;
}

let path t = Journal.path t.journal
let garbage_bytes t = t.garbage
let count t = t.dir.Dir.count
let mem t ~key = Dir.find t.dir (Dir.hash key) key >= 0

let keys t =
  let acc = ref [] in
  Dir.iter t.dir (fun key _ -> acc := key :: !acc);
  List.sort String.compare !acc

let stats t =
  ( t.st_appends,
    t.st_syncs,
    t.st_compactions,
    t.st_bytes_written,
    t.st_bytes_reclaimed )

let attached_machine t =
  match t.mon with None -> None | Some m -> Some m.mon_machine

(* Apply one record to the directory, hashing [key] once; returns the
   bytes it makes garbage.  A tombstone is garbage too, once applied. *)
let apply dir ~kind ~key ~off ~size =
  let h = Dir.hash key in
  let s = Dir.find dir h key in
  if kind = kind_delete then
    if s >= 0 then begin
      let old_size = Dir.size dir s in
      Dir.remove dir s;
      old_size + size
    end
    else size
  else if s >= 0 then begin
    let old_size = Dir.size dir s in
    Dir.set dir s ~off ~kind ~size;
    old_size
  end
  else begin
    Dir.add dir (-1 - s) h key ~off ~kind ~size;
    0
  end

(* Replay the committed records into a directory, accumulating the bytes
   made garbage by supersedes and deletes. *)
let build_dir records dir =
  List.fold_left
    (fun garbage (r : Journal.record) ->
      let size =
        Journal.framed_size ~key:r.Journal.r_key ~payload:r.Journal.r_payload
      in
      garbage
      + apply dir ~kind:r.Journal.r_kind ~key:r.Journal.r_key
          ~off:r.Journal.r_offset ~size)
    0 records

let open_ ?(sync_every = 8) ?(compact_interval_ns = 10_000_000)
    ?(min_garbage_bytes = 4096) path =
  if sync_every < 1 then invalid_arg "Store.open_: sync_every";
  if compact_interval_ns < 1 then invalid_arg "Store.open_: compact_interval_ns";
  let journal, records = Journal.open_ path in
  let dir = Dir.create () in
  let garbage = build_dir records dir in
  {
    journal;
    dir;
    sync_every;
    compact_interval_ns;
    min_garbage_bytes;
    garbage;
    next_compact_ns = compact_interval_ns;
    mon = None;
    st_appends = 0;
    st_syncs = 0;
    st_compactions = 0;
    st_bytes_written = 0;
    st_bytes_reclaimed = 0;
  }

let attach t machine =
  let metrics = K.Machine.metrics machine in
  t.mon <-
    Some
      {
        mon_machine = machine;
        mon_appends = Obs.Metrics.counter metrics "store.journal_appends";
        mon_syncs = Obs.Metrics.counter metrics "store.journal_syncs";
        mon_compactions = Obs.Metrics.counter metrics "store.compactions";
        mon_bytes = Obs.Metrics.counter metrics "store.bytes_written";
      }

let sync t =
  let pending = Journal.unsynced t.journal in
  if pending > 0 then begin
    Journal.sync t.journal;
    t.st_syncs <- t.st_syncs + 1;
    match t.mon with
    | Some m ->
      Obs.Metrics.incr m.mon_syncs;
      K.Machine.emit m.mon_machine Obs.Event.Journal_sync ~name_id:0
        ~detail_id:0 ~a:pending ~b:(Journal.size t.journal)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

let compact t =
  let old_size = Journal.size t.journal in
  let tmp = path t ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let fresh, _ = Journal.open_ tmp in
  (* Rewrite live records in key order: compaction output is a pure
     function of the directory, so two stores with the same contents
     compact to identical files.  One record in memory at a time. *)
  let live = keys t in
  List.iter
    (fun key ->
      let s = Dir.find t.dir (Dir.hash key) key in
      let r = Journal.read_at t.journal (Dir.offset t.dir s) in
      ignore
        (Journal.append fresh ~kind:(Dir.kind t.dir s) ~key
           ~payload:r.Journal.r_payload))
    live;
  Journal.sync fresh;
  Journal.close fresh;
  Journal.close t.journal;
  Sys.rename tmp (path t);
  let journal, records = Journal.open_ (path t) in
  t.journal <- journal;
  t.dir <- Dir.create ();
  t.garbage <- build_dir records t.dir;
  let reclaimed = old_size - Journal.size t.journal in
  t.st_compactions <- t.st_compactions + 1;
  t.st_bytes_reclaimed <- t.st_bytes_reclaimed + reclaimed;
  (match t.mon with
  | Some m ->
    Obs.Metrics.incr m.mon_compactions;
    K.Machine.emit m.mon_machine Obs.Event.Store_compact ~name_id:0
      ~detail_id:0 ~a:(List.length live) ~b:reclaimed
  | None -> ());
  reclaimed

(* Compaction clock: at most one compaction per virtual-time interval,
   and only when enough garbage has accumulated to pay for the rewrite. *)
let advance_clock t now_ns =
  if now_ns >= t.next_compact_ns then begin
    t.next_compact_ns <-
      ((now_ns / t.compact_interval_ns) + 1) * t.compact_interval_ns;
    if t.garbage >= t.min_garbage_bytes then ignore (compact t)
  end

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

let append t ~kind ~key payload ~len =
  let off = Journal.append_sub t.journal ~kind ~key payload ~len in
  let size = Journal.size t.journal - off in
  t.garbage <- t.garbage + apply t.dir ~kind ~key ~off ~size;
  t.st_appends <- t.st_appends + 1;
  t.st_bytes_written <- t.st_bytes_written + size;
  (match t.mon with
  | Some m ->
    Obs.Metrics.incr m.mon_appends;
    Obs.Metrics.add m.mon_bytes size;
    let mm = m.mon_machine in
    K.Machine.emit mm Obs.Event.Journal_append
      ~name_id:(K.Machine.string_id mm key)
      ~detail_id:(K.Machine.string_id mm (kind_name kind)) ~a:off ~b:size
  | None -> ());
  if Journal.unsynced t.journal >= t.sync_every then sync t

let store_graph t machine ~key ?mask root =
  let wire =
    match mask with
    | Some mask -> Filing.capture machine ~mask root
    | None -> Filing.capture machine root
  in
  let payload = Filing.encode_wire wire in
  append t ~kind:kind_graph ~key payload ~len:(Bytes.length payload);
  advance_clock t (K.Machine.now machine);
  Filing.wire_nodes wire

let find_kind t ~key kind =
  let s = Dir.find t.dir (Dir.hash key) key in
  if s >= 0 && Dir.kind t.dir s = kind then
    Some (Journal.read_at t.journal (Dir.offset t.dir s)).Journal.r_payload
  else None

let get_wire t ~key =
  match find_kind t ~key kind_graph with
  | Some payload -> Some (Filing.decode_wire payload)
  | None -> None

let retrieve_graph t machine ?sro ~key () =
  match get_wire t ~key with
  | Some wire -> Filing.reconstruct machine ?sro wire
  | None -> raise (Filing.Not_filed key)

let delete t ~key =
  if mem t ~key then append t ~kind:kind_delete ~key Bytes.empty ~len:0

let put_blob t ?now_ns ~key payload =
  append t ~kind:kind_blob ~key payload ~len:(Bytes.length payload);
  match now_ns with Some now -> advance_clock t now | None -> ()

let put_blob_sub t ~now_ns ~key b ~len =
  append t ~kind:kind_blob ~key b ~len;
  advance_clock t now_ns

let get_blob t ~key = find_kind t ~key kind_blob

let close t =
  sync t;
  Journal.close t.journal

let scratch_path name =
  Filename.concat (Filename.concat "_build" "imax-scratch") name

let rec mkdir_p dir =
  if not (dir = "" || dir = "." || dir = "/" || Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let remove_files path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".tmp" ]

let fresh_path path =
  mkdir_p (Filename.dirname path);
  remove_files path
