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
  h_stale : int;  (* highest hist/<name>/<seq> before [track]; 0 if none *)
  mutable h_seq : int;  (* last record appended (0 = base only) *)
  mutable h_stamp : int;  (* last [observe] that filed a record for it *)
}

module Int_tbl = Hashtbl.Make (Int)

type t = {
  store : St.Store.t;
  machine : K.Machine.t;
  by_index : tracked Int_tbl.t;
  mutable names : tracked list;  (* reverse tracking order *)
  mutable stamp : int;  (* [observe] calls so far *)
  mutable out : Bytes.t;
      (* the record being encoded; grows for large commits.  One per
         tracker, never shared, so cluster nodes stepping on separate
         domains cannot interleave *)
}

(* Characters [%d] prints for [n].  Digits are counted on the
   non-positive side so [min_int] needs no case. *)
let width n =
  let rec digits m w = if m <= -10 then digits (m / 10) (w + 1) else w in
  digits (if n > 0 then -n else n) (if n < 0 then 2 else 1)

(* The longest [%d] output: [min_int]'s, on 64 bits. *)
let max_width = 20

(* The digits of [m <= 0], last one at [i], leftwards. *)
let rec put_digits b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (m / 10) (i - 1)

(* Write [n] as [%d] prints it into [b] at [pos], which has room;
   returns the position after it. *)
let put_int b pos n =
  let w = width n in
  if n < 0 then Bytes.unsafe_set b pos '-';
  put_digits b (if n > 0 then -n else n) (pos + w - 1);
  pos + w

let prefix name = "hist/" ^ name ^ "/"
let base_key name = prefix name ^ "base"

(* [prefix ^ string_of_int seq], built in place: one allocation. *)
let rec_key prefix seq =
  let n = String.length prefix in
  let b = Bytes.create (n + width seq) in
  Bytes.blit_string prefix 0 b 0 n;
  ignore (put_int b n seq);
  Bytes.unsafe_to_string b

let create store machine =
  {
    store;
    machine;
    by_index = Int_tbl.create 16;
    names = [];
    stamp = 0;
    out = Bytes.create 256;
  }

(* The highest record number filed under [prefix]: records at or below
   it may be a stale tail from a rolled-back timeline.  Not the end of
   the run from 1, since earlier tombstones leave gaps. *)
let highest_seq store prefix =
  let n = String.length prefix in
  List.fold_left
    (fun top key ->
      if String.starts_with ~prefix key then
        match int_of_string_opt (String.sub key n (String.length key - n)) with
        | Some seq -> max top seq
        | None -> top
      else top)
    0 (St.Store.keys store)

let track t ~name obj =
  let index = Access.index obj in
  if Int_tbl.mem t.by_index index then
    invalid_arg
      ("History.track: object " ^ string_of_int index ^ " already tracked");
  let len = Segment.data_length (K.Machine.table t.machine) obj in
  let base = K.Machine.read_bytes t.machine obj ~offset:0 ~len in
  let h_prefix = prefix name in
  let h_stale = highest_seq t.store h_prefix in
  St.Store.put_blob t.store ~now_ns:(K.Machine.now t.machine)
    ~key:(base_key name) base;
  let tr =
    {
      h_name = name;
      h_name_id = K.Machine.string_id t.machine name;
      h_obj = obj;
      h_index = index;
      h_len = len;
      h_prefix;
      h_stale;
      h_seq = 0;
      h_stamp = 0;
    }
  in
  Int_tbl.replace t.by_index index tr;
  t.names <- tr :: t.names

let tracked t = List.rev_map (fun tr -> (tr.h_name, tr.h_obj)) t.names

(* [t.out] with room for [n] bytes at [pos], the first [pos] kept. *)
let reserve t pos n =
  if pos + n > Bytes.length t.out then begin
    let b = Bytes.create (max (pos + n) (2 * Bytes.length t.out)) in
    Bytes.blit t.out 0 b 0 pos;
    t.out <- b
  end;
  t.out

(* One record blob per (commit, tracked object): a text line
   "<commit_ns> <key> <off>:<word>,<off>:<word>,..." — auditable with any
   pager and trivially parseable.  The pairs are the writes to [index]
   in staging order (later writes win on replay, matching the kernel's
   apply order).  Encoded into [t.out]; returns its length. *)
let rec put_writes t index pos sep = function
  | [] -> pos
  | (obj, off, word) :: rest when Access.index obj = index ->
    let b = reserve t pos ((2 * max_width) + 2) in
    let pos = if sep then (Bytes.unsafe_set b pos ','; pos + 1) else pos in
    let pos = put_int b pos off in
    Bytes.unsafe_set b pos ':';
    put_writes t index (put_int b (pos + 1) word) true rest
  | _ :: rest -> put_writes t index pos sep rest

let encode t tr ~commit_ns ~key writes =
  let b = reserve t 0 ((2 * max_width) + 2) in
  let pos = put_int b 0 commit_ns in
  Bytes.unsafe_set b pos ' ';
  let pos = put_int b (pos + 1) key in
  Bytes.unsafe_set b pos ' ';
  put_writes t tr.h_index (pos + 1) false writes

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
  let len = encode t tr ~commit_ns ~key writes in
  let seq = tr.h_seq + 1 in
  tr.h_seq <- seq;
  St.Store.put_blob_sub t.store ~now_ns:commit_ns
    ~key:(rec_key tr.h_prefix seq) t.out ~len;
  (* A checkpoint rejoin replays this history from an earlier frontier,
     and the rolled-back timeline may have filed records at higher
     sequence numbers.  Tombstoning the successor while [seq] is inside
     that stale tail keeps [records]' contiguous scan from crossing into
     it; past the tail, and on a fresh store, there is nothing to
     tombstone.  ([delete] journals nothing for an absent key.  Full
     compaction of orphaned tails is a ROADMAP follow-on.) *)
  if seq < tr.h_stale then
    St.Store.delete t.store ~key:(rec_key tr.h_prefix (seq + 1));
  K.Machine.emit t.machine Obs.Event.Hist_append ~name_id:tr.h_name_id
    ~detail_id:0 ~a:key ~b:seq

(* One record per tracked object the commit wrote, in order of each
   object's first write; the stamp marks objects already filed. *)
let rec observe_writes t ~commit_ns ~key writes = function
  | [] -> ()
  | (obj, _, _) :: rest ->
    (match Int_tbl.find t.by_index (Access.index obj) with
    | tr when tr.h_stamp <> t.stamp ->
      tr.h_stamp <- t.stamp;
      append t tr ~commit_ns ~key writes
    | _ -> ()
    | exception Not_found -> ());
    observe_writes t ~commit_ns ~key writes rest

let observe t ~commit_ns ~key ~writes =
  t.stamp <- t.stamp + 1;
  observe_writes t ~commit_ns ~key writes writes

let records store ~name =
  let prefix = prefix name in
  let rec go seq acc =
    let key = rec_key prefix seq in
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
