(* Event-sourced per-object history (DESIGN.md §15.3).

   Opt-in: an object only gains a history once [track] is called on it, so
   runs that never create a tracker are byte-identical to the pre-history
   kernel.  Tracking files the object's current data image as a base blob
   (hist/<name>/base) and every subsequent committed transactional write
   appends a numbered record blob (hist/<name>/<seq>) carrying the commit's
   virtual timestamp, its idempotency key, and the (offset, word) pairs it
   applied to that object.

   The store is used write-only: records are appended at commit time and
   never read back by the live run, so a checkpoint replay that re-commits
   the same groups re-puts byte-identical blobs under the same keys — the
   journal converges instead of corrupting.  Audit and replay read the
   blobs back offline ([replay] and [records] take just a store). *)

open I432
module K = I432_kernel
module Obs = I432_obs
module St = I432_store

type tracked = {
  h_name : string;
  h_name_id : int;  (* the tracer's id for [h_name] *)
  h_obj : Access.t;
  h_index : int;  (* [Access.index h_obj] *)
  h_len : int;  (* data bytes captured in the base image *)
  h_prefix : string;  (* "hist/<name>/" *)
  mutable h_seq : int;  (* last record appended (0 = base only) *)
  mutable h_next_key : string;  (* key of record [h_seq + 1] *)
  mutable h_stamp : int;  (* last [observe] that filed a record for it *)
}

type t = {
  store : St.Store.t;
  machine : K.Machine.t;
  by_index : (int, tracked) Hashtbl.t;
  mutable names : tracked list;  (* reverse tracking order *)
  mutable stamp : int;  (* [observe] calls so far *)
  buf : Buffer.t;
      (* scratch for keys and records; one per tracker, never shared, so
         cluster nodes stepping on separate domains cannot interleave *)
}

(* Append [n] in decimal, as [%d] prints it, without allocating.  The
   digits come off the non-positive side so [min_int] needs no case. *)
let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  digits (if n > 0 then -n else n)

let prefix name = "hist/" ^ name ^ "/"
let base_key name = prefix name ^ "base"

let rec_key b prefix seq =
  Buffer.clear b;
  Buffer.add_string b prefix;
  add_int b seq;
  Buffer.contents b

let create store machine =
  {
    store;
    machine;
    by_index = Hashtbl.create 16;
    names = [];
    stamp = 0;
    buf = Buffer.create 256;
  }

let track t ~name obj =
  let index = Access.index obj in
  if Hashtbl.mem t.by_index index then
    invalid_arg
      ("History.track: object " ^ string_of_int index ^ " already tracked");
  let e = Object_table.entry_of_access (K.Machine.table t.machine) obj in
  let len = e.Object_table.data_length in
  let base = K.Machine.read_bytes t.machine obj ~offset:0 ~len in
  St.Store.put_blob t.store ~now_ns:(K.Machine.now t.machine)
    ~key:(base_key name) base;
  let h_prefix = prefix name in
  let tr =
    {
      h_name = name;
      h_name_id = K.Machine.string_id t.machine name;
      h_obj = obj;
      h_index = index;
      h_len = len;
      h_prefix;
      h_seq = 0;
      h_next_key = rec_key t.buf h_prefix 1;
      h_stamp = 0;
    }
  in
  Hashtbl.replace t.by_index index tr;
  t.names <- tr :: t.names

let tracked t = List.rev_map (fun tr -> (tr.h_name, tr.h_obj)) t.names

(* One record blob per (commit, tracked object): a text line
   "<commit_ns> <key> <off>:<word>,<off>:<word>,..." — auditable with any
   pager and trivially parseable.  The pairs are [tr]'s writes in staging
   order (later writes win on replay, matching the kernel's apply
   order). *)
let encode t tr ~commit_ns ~key writes =
  let b = t.buf in
  Buffer.clear b;
  add_int b commit_ns;
  Buffer.add_char b ' ';
  add_int b key;
  Buffer.add_char b ' ';
  let first = ref true in
  List.iter
    (fun (obj, off, word) ->
      if Access.index obj = tr.h_index then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        add_int b off;
        Buffer.add_char b ':';
        add_int b word
      end)
    writes;
  Buffer.to_bytes b

(* Every malformed blob fails the same way, naming its key: a wrong field
   count, a pair without its ':', a non-numeric field, or no pairs at
   all (a record is only filed for an object the commit wrote). *)
let decode ~key b =
  let malformed () = failwith ("History: malformed record " ^ key) in
  let int s = match int_of_string_opt s with Some v -> v | None -> malformed () in
  let pair p =
    match String.split_on_char ':' p with
    | [ off; w ] -> (int off, int w)
    | _ -> malformed ()
  in
  match String.split_on_char ' ' (Bytes.to_string b) with
  | [ ns; k; ws ] when ws <> "" ->
    (int ns, int k, List.map pair (String.split_on_char ',' ws))
  | _ -> malformed ()

let append t tr ~commit_ns ~key writes =
  let record = encode t tr ~commit_ns ~key writes in
  tr.h_seq <- tr.h_seq + 1;
  St.Store.put_blob t.store ~now_ns:commit_ns ~key:tr.h_next_key record;
  (* A checkpoint rejoin replays this history from an earlier frontier,
     and the rolled-back timeline may have filed records at higher
     sequence numbers.  Tombstoning the successor on every append keeps
     [records]' contiguous scan from crossing into that stale tail.
     (Full compaction of orphaned tails is a ROADMAP follow-on.)  The
     successor's key is the next append's key. *)
  let next = rec_key t.buf tr.h_prefix (tr.h_seq + 1) in
  if St.Store.mem t.store ~key:next then St.Store.delete t.store ~key:next;
  tr.h_next_key <- next;
  K.Machine.emit t.machine Obs.Event.Hist_append ~name_id:tr.h_name_id
    ~detail_id:0 ~a:key ~b:tr.h_seq

(* One record per tracked object the commit wrote, in order of each
   object's first write; the stamp marks objects already filed. *)
let observe t ~commit_ns ~key ~writes =
  t.stamp <- t.stamp + 1;
  List.iter
    (fun (obj, _, _) ->
      match Hashtbl.find_opt t.by_index (Access.index obj) with
      | Some tr when tr.h_stamp <> t.stamp ->
        tr.h_stamp <- t.stamp;
        append t tr ~commit_ns ~key writes
      | Some _ | None -> ())
    writes

let records store ~name =
  let b = Buffer.create 64 in
  let prefix = prefix name in
  let rec go seq acc =
    let key = rec_key b prefix seq in
    match St.Store.get_blob store ~key with
    | None -> List.rev acc
    | Some blob -> go (seq + 1) (decode ~key blob :: acc)
  in
  go 1 []

let replay store ~name ~to_ns =
  match St.Store.get_blob store ~key:(base_key name) with
  | None -> None
  | Some base ->
    let img = Bytes.copy base in
    List.iter
      (fun (commit_ns, _key, writes) ->
        if commit_ns <= to_ns then
          List.iter
            (fun (off, word) ->
              Bytes.set_int32_le img off (Int32.of_int word))
            writes)
      (records store ~name);
    Some img

(* Replaying [tr]'s history to its end reproduces its live bytes. *)
let replays_live t tr =
  match replay t.store ~name:tr.h_name ~to_ns:max_int with
  | Some img ->
    Bytes.equal img
      (K.Machine.read_bytes t.machine tr.h_obj ~offset:0 ~len:tr.h_len)
  | None -> false

let verify t ~name =
  match List.find_opt (fun tr -> String.equal tr.h_name name) t.names with
  | Some tr -> replays_live t tr
  | None -> false

let diverged t =
  List.filter_map
    (fun tr -> if replays_live t tr then None else Some tr.h_name)
    (List.rev t.names)
