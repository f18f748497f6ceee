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

type dir_entry = {
  mutable d_offset : int;
  mutable d_kind : int;
  mutable d_size : int;
}

type mon = {
  mon_machine : K.Machine.t;
  mon_appends : Obs.Metrics.counter;
  mon_syncs : Obs.Metrics.counter;
  mon_compactions : Obs.Metrics.counter;
  mon_bytes : Obs.Metrics.counter;
}

type t = {
  mutable journal : Journal.t;
  dir : (string, dir_entry) Hashtbl.t;
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
let count t = Hashtbl.length t.dir
let mem t ~key = Hashtbl.mem t.dir key

let keys t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.dir [])

let stats t =
  ( t.st_appends,
    t.st_syncs,
    t.st_compactions,
    t.st_bytes_written,
    t.st_bytes_reclaimed )

let attached_machine t =
  match t.mon with None -> None | Some m -> Some m.mon_machine

(* Apply one record to the directory, hashing [key] once for a
   supersede; returns the bytes it makes garbage.  A tombstone is garbage
   too, once applied. *)
let apply dir ~kind ~key ~off ~size =
  match Hashtbl.find_opt dir key with
  | Some e when kind = kind_delete ->
    Hashtbl.remove dir key;
    e.d_size + size
  | None when kind = kind_delete -> size
  | Some e ->
    let old_size = e.d_size in
    e.d_offset <- off;
    e.d_kind <- kind;
    e.d_size <- size;
    old_size
  | None ->
    Hashtbl.add dir key { d_offset = off; d_kind = kind; d_size = size };
    0

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
  let dir = Hashtbl.create 64 in
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
      let e = Hashtbl.find t.dir key in
      let r = Journal.read_at t.journal e.d_offset in
      ignore
        (Journal.append fresh ~kind:e.d_kind ~key
           ~payload:r.Journal.r_payload))
    live;
  Journal.sync fresh;
  Journal.close fresh;
  Journal.close t.journal;
  Sys.rename tmp (path t);
  let journal, records = Journal.open_ (path t) in
  t.journal <- journal;
  Hashtbl.reset t.dir;
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

let append t ~kind ~key ~payload =
  let size = Journal.framed_size ~key ~payload in
  let off = Journal.append t.journal ~kind ~key ~payload in
  t.garbage <- t.garbage + apply t.dir ~kind ~key ~off ~size;
  t.st_appends <- t.st_appends + 1;
  t.st_bytes_written <- t.st_bytes_written + size;
  (match t.mon with
  | Some m ->
    Obs.Metrics.incr m.mon_appends;
    Obs.Metrics.incr ~by:size m.mon_bytes;
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
  append t ~kind:kind_graph ~key ~payload:(Filing.encode_wire wire);
  advance_clock t (K.Machine.now machine);
  Filing.wire_nodes wire

let find_kind t ~key kind =
  match Hashtbl.find_opt t.dir key with
  | Some e when e.d_kind = kind ->
    Some (Journal.read_at t.journal e.d_offset).Journal.r_payload
  | Some _ | None -> None

let get_wire t ~key =
  match find_kind t ~key kind_graph with
  | Some payload -> Some (Filing.decode_wire payload)
  | None -> None

let retrieve_graph t machine ?sro ~key () =
  match get_wire t ~key with
  | Some wire -> Filing.reconstruct machine ?sro wire
  | None -> raise (Filing.Not_filed key)

let delete t ~key =
  if Hashtbl.mem t.dir key then
    append t ~kind:kind_delete ~key ~payload:Bytes.empty

let put_blob t ?now_ns ~key payload =
  append t ~kind:kind_blob ~key ~payload;
  match now_ns with Some now -> advance_clock t now | None -> ()

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
