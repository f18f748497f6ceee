(* The filing store: journal recovery (crash-point sweep), store/retrieve
   fidelity, virtual-time compaction, and checkpoint/restore by
   deterministic replay — single machine and cluster. *)

open I432
open Testkit
module K = I432_kernel
module Obs = I432_obs
module Fi = I432_fi.Fi
module Net = I432_net
module Filing = Imax.Object_filing
module Journal = I432_store.Journal
module Store = I432_store.Store
module Checkpoint = I432_store.Checkpoint
module Scenario = I432_store.Scenario

(* ---------------- Journal ---------------- *)

let test_journal_roundtrip () =
  with_path (fun path ->
      let j, recovered = Journal.open_ path in
      Alcotest.(check int) "fresh journal is empty" 0 (List.length recovered);
      let o1 = Journal.append j ~kind:1 ~key:"alpha" ~payload:(Bytes.of_string "one") in
      let o2 = Journal.append j ~kind:2 ~key:"beta" ~payload:Bytes.empty in
      let o3 = Journal.append j ~kind:3 ~key:"" ~payload:(Bytes.make 300 'x') in
      Journal.sync j;
      let r = Journal.read_at j o2 in
      Alcotest.(check string) "read_at key" "beta" r.Journal.r_key;
      Alcotest.(check int) "read_at kind" 2 r.Journal.r_kind;
      Journal.close j;
      let j2, recovered = Journal.open_ path in
      Alcotest.(check int) "all three recovered" 3 (List.length recovered);
      let offs = List.map (fun r -> r.Journal.r_offset) recovered in
      Alcotest.(check (list int)) "offsets stable" [ o1; o2; o3 ] offs;
      let last = List.nth recovered 2 in
      Alcotest.(check bytes) "payload intact" (Bytes.make 300 'x')
        last.Journal.r_payload;
      Journal.close j2)

(* Satellite: truncate the journal at every byte boundary; recovery must
   always succeed and yield exactly the records whose frames survived
   whole.  No torn tail ever escapes as data. *)
let test_crash_point_sweep () =
  let path = temp_path () in
  let torn = path ^ ".torn" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; torn ])
    (fun () ->
      let j, _ = Journal.open_ path in
      let keys = [ "a"; "bb"; "ccc"; "dddd" ] in
      let ends =
        List.map
          (fun key ->
            let payload = Bytes.of_string (String.concat "-" [ key; key ]) in
            ignore (Journal.append j ~kind:1 ~key ~payload);
            Journal.size j)
          keys
      in
      Journal.sync j;
      Journal.close j;
      let whole = read_file path in
      let total = String.length whole in
      Alcotest.(check int) "sweep covers the whole file" total
        (List.nth ends (List.length ends - 1));
      for cut = 0 to total do
        write_file torn (String.sub whole 0 cut);
        (* Recovery never raises, for any torn point. *)
        let store = Store.open_ torn in
        let expected = List.length (List.filter (fun e -> e <= cut) ends) in
        Alcotest.(check int)
          (Printf.sprintf "directory matches surviving commits at cut %d" cut)
          expected (Store.count store);
        (* The survivors are readable, whole, and the right ones. *)
        List.iteri
          (fun i key ->
            if i < expected then
              match Store.get_wire store ~key with
              | exception Filing.Corrupt_wire _ ->
                () (* payloads here aren't wires; get_blob path below *)
              | _ -> ())
          keys;
        Store.close store;
        (* Recovery truncated the torn file to the last commit. *)
        let after = String.length (read_file torn) in
        let expected_len =
          List.fold_left (fun acc e -> if e <= cut then max acc e else acc) 0 ends
        in
        Alcotest.(check int)
          (Printf.sprintf "torn tail truncated at cut %d" cut)
          expected_len after
      done)

(* A flipped bit in a committed record's body fails its CRC: recovery
   keeps the records before it and discards it and everything after. *)
let test_corrupt_record_truncates () =
  with_path (fun path ->
      let j, _ = Journal.open_ path in
      ignore (Journal.append j ~kind:1 ~key:"good" ~payload:(Bytes.of_string "11"));
      let second = Journal.size j in
      ignore (Journal.append j ~kind:1 ~key:"bad" ~payload:(Bytes.of_string "22"));
      ignore (Journal.append j ~kind:1 ~key:"after" ~payload:(Bytes.of_string "33"));
      Journal.sync j;
      Journal.close j;
      let whole = Bytes.of_string (read_file path) in
      (* Flip one payload bit inside the second record. *)
      let p = second + 14 in
      Bytes.set whole p (Char.chr (Char.code (Bytes.get whole p) lxor 1));
      write_file path (Bytes.to_string whole);
      let j2, recovered = Journal.open_ path in
      Alcotest.(check (list string)) "valid prefix only" [ "good" ]
        (List.map (fun r -> r.Journal.r_key) recovered);
      Journal.close j2)

(* [read_at] on a closed journal is a typed error — never a raw EBADF,
   and never a read of whatever file now holds the recycled fd number. *)
let test_read_at_closed () =
  with_path (fun path ->
      let j, _ = Journal.open_ path in
      let off =
        Journal.append j ~kind:1 ~key:"k" ~payload:(Bytes.of_string "v")
      in
      Journal.close j;
      with_path (fun other ->
          (* Likely reuses the closed fd's number, as compaction's fresh
             journal does. *)
          let j2, _ = Journal.open_ other in
          ignore
            (Journal.append j2 ~kind:1 ~key:"k" ~payload:(Bytes.of_string "v"));
          Alcotest.check_raises "closed journal"
            (Invalid_argument "Journal.read_at: closed") (fun () ->
              ignore (Journal.read_at j off));
          Journal.close j2))

(* What [read_at] makes of [off]: the record, or the exception's name.
   Anything but [Invalid_argument] escaping is a failure in itself. *)
let read_outcome j off =
  match Journal.read_at j off with
  | r -> `Record r
  | exception Invalid_argument _ -> `Invalid
  | exception e -> `Raised (Printexc.to_string e)

(* Random journals: recovery and [read_at] agree on every record, and
   every other in-range offset — mid-header, mid-payload, the last 1–12
   bytes — is a typed [Invalid_argument], never a record, [End_of_file],
   [Unix_error] or an oversized allocation. *)
let prop_read_at_one_frame =
  let payload_gen =
    QCheck2.Gen.(
      frequency
        [
          (3, int_range 0 16);
          (2, int_range 17 300);
          (1, int_range 4000 4200);
        ]
      >>= fun n -> bytes_size (return n))
  in
  let record_gen =
    QCheck2.Gen.(
      triple (int_range 0 255) (string_size (int_range 0 8)) payload_gen)
  in
  QCheck2.Test.make ~name:"journal: read_at reads exactly its own frame"
    ~count:25
    QCheck2.Gen.(list_size (int_range 1 5) record_gen)
    (fun records ->
      with_path (fun path ->
          let j, _ = Journal.open_ path in
          let offs =
            List.map
              (fun (kind, key, payload) -> Journal.append j ~kind ~key ~payload)
              records
          in
          Journal.close j;
          let j, recovered = Journal.open_ path in
          Fun.protect
            ~finally:(fun () -> Journal.close j)
            (fun () ->
              if List.map (fun r -> r.Journal.r_offset) recovered <> offs then
                QCheck2.Test.fail_report "recovery lost a record";
              List.iter
                (fun r ->
                  if read_outcome j r.Journal.r_offset <> `Record r then
                    QCheck2.Test.fail_reportf "read_at %d <> recovered record"
                      r.Journal.r_offset)
                recovered;
              for off = 0 to Journal.size j - 1 do
                if not (List.mem off offs) then
                  match read_outcome j off with
                  | `Invalid -> ()
                  | `Record _ ->
                    QCheck2.Test.fail_reportf "read_at %d returned a record" off
                  | `Raised e ->
                    QCheck2.Test.fail_reportf "read_at %d raised %s" off e
              done;
              true)))

(* [read_at] checks its frame's CRC and depends on that frame alone: corruption in record k fails record k's read, while
   scribbling over record k+1 leaves record k readable. *)
let test_read_at_own_frame () =
  with_path (fun path ->
      let j, _ = Journal.open_ path in
      let append key payload =
        Journal.append j ~kind:1 ~key ~payload:(Bytes.of_string payload)
      in
      ignore (append "first" "payload-0");
      let o1 = append "second" "payload-1" in
      let o2 = append "third" "payload-2" in
      let expected = Journal.read_at j o1 in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let poke off s =
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            ignore (Unix.write_substring fd s 0 (String.length s))
          in
          let invalid what off =
            Alcotest.(check bool) what true (read_outcome j off = `Invalid)
          in
          (* Flip one payload byte of record 1 ("second": 13-byte header,
             6-byte key). *)
          let p = o1 + 13 + 6 in
          poke p "P";
          invalid "flipped payload byte fails the CRC" o1;
          poke p "p";
          Alcotest.(check bool) "restored byte reads again" true
            (read_outcome j o1 = `Record expected);
          (* Scribble over all of record 2; record 1 does not notice. *)
          poke o2 (String.make (Journal.size j - o2) '\xff');
          Alcotest.(check bool) "record 1 intact beside a scribbled record 2"
            true
            (read_outcome j o1 = `Record expected);
          (* A header claiming 4 GB lengths is capped at the committed
             end, and fails as a typed error. *)
          poke o2 "\x31\x30\x4a\x4c\x01";
          invalid "garbage lengths, typed error" o2);
      Journal.close j)

(* Write-behind: appends are buffered, so a random script of appends
   (0 B to past the 64 KiB buffer, so some frames overflow it and some
   appends cross the flush threshold), reads, syncs and close+reopen
   checks what reaches the file and when.  Every [read_at] returns its
   record; a read of a buffered frame writes every frame out, and a read
   of a frame already on disk leaves the file's length alone; a second
   [open_] at any point recovers an exact prefix with no partial frame
   behind it, at least everything appended before the last buffered
   read/sync/reopen; after [sync] the prefix is everything; a reopen
   after [close] recovers everything. *)
type wb_op = Append of int * int | Read of int | Sync | Peek | Reopen

let prop_write_behind =
  let size_gen =
    QCheck2.Gen.(
      frequency
        [
          (6, int_range 0 64);
          (3, int_range 8_000 30_000);
          (1, int_range 65_000 70_000);
        ])
  in
  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          (8, map2 (fun n seed -> Append (n, seed)) size_gen (int_range 0 255));
          (3, map (fun i -> Read i) nat);
          (1, return Sync);
          (3, return Peek);
          (1, return Reopen);
        ])
  in
  let print_op = function
    | Append (n, _) -> Printf.sprintf "append %dB" n
    | Read i -> Printf.sprintf "read %d" i
    | Sync -> "sync"
    | Peek -> "peek"
    | Reopen -> "reopen"
  in
  QCheck2.Test.make ~name:"journal: write-behind keeps a whole-frame prefix"
    ~count:40
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 40) op_gen)
    (fun ops ->
      with_path (fun path ->
          let j = ref (fst (Journal.open_ path)) in
          (* appended records, newest first; [flushed] of them must be on
             disk already *)
          let appended = ref [] in
          let count = ref 0 in
          let flushed = ref 0 in
          let fail fmt = QCheck2.Test.fail_reportf fmt in
          let same_records what got =
            let expected = List.rev !appended in
            if List.length got <> List.length expected || got <> expected then
              fail "%s: %d records recovered, %d appended" what
                (List.length got) (List.length expected)
          in
          let is_prefix got =
            let rec go got exp =
              match (got, exp) with
              | [], _ -> true
              | g :: gs, e :: es -> g = e && go gs es
              | _ :: _, [] -> false
            in
            go got (List.rev !appended)
          in
          let step = function
            | Append (n, seed) ->
              let kind = seed in
              let key = Printf.sprintf "k%d" !count in
              let payload = Bytes.init n (fun i -> Char.chr ((i + seed) land 0xff)) in
              let expected_off = Journal.size !j in
              let off = Journal.append !j ~kind ~key ~payload in
              if off <> expected_off then
                fail "append %d at %d, expected %d" !count off expected_off;
              appended :=
                { Journal.r_offset = off; r_kind = kind; r_key = key;
                  r_payload = payload }
                :: !appended;
              incr count
            | Read i ->
              if !count > 0 then begin
                let r = List.nth !appended (i mod !count) in
                let before = (Unix.stat path).Unix.st_size in
                let buffered =
                  r.Journal.r_offset
                  + Journal.framed_size ~key:r.Journal.r_key
                      ~payload:r.Journal.r_payload
                  > before
                in
                if Journal.read_at !j r.Journal.r_offset <> r then
                  fail "read_at %d <> appended record" r.Journal.r_offset;
                let after = (Unix.stat path).Unix.st_size in
                if buffered then begin
                  (* A read of a buffered frame writes every frame out. *)
                  if after <> Journal.size !j then
                    fail "read of buffered %d: %d bytes on disk, %d appended"
                      r.Journal.r_offset after (Journal.size !j);
                  flushed := !count
                end
                else if after <> before then
                  (* A read of an on-disk frame leaves the buffer alone. *)
                  fail "read of on-disk %d: file grew from %d to %d"
                    r.Journal.r_offset before after
              end
            | Sync ->
              Journal.sync !j;
              flushed := !count
            | Peek ->
              let on_disk = (Unix.stat path).Unix.st_size in
              let j2, got = Journal.open_ path in
              Journal.close j2;
              if not (is_prefix got) then fail "peek: not a prefix";
              if List.length got < !flushed then
                fail "peek: %d records, %d already written out"
                  (List.length got) !flushed;
              let ends =
                match List.rev got with
                | [] -> 0
                | r :: _ ->
                  r.Journal.r_offset
                  + Journal.framed_size ~key:r.Journal.r_key
                      ~payload:r.Journal.r_payload
              in
              if on_disk <> ends then
                fail "peek: %d bytes on disk, whole frames end at %d" on_disk
                  ends;
              if !flushed = !count then same_records "peek after sync" got
            | Reopen ->
              Journal.close !j;
              let j', got = Journal.open_ path in
              j := j';
              same_records "reopen" got;
              flushed := !count
          in
          Fun.protect
            ~finally:(fun () -> Journal.close !j)
            (fun () ->
              List.iter step ops;
              Journal.close !j;
              let j', got = Journal.open_ path in
              j := j';
              same_records "final reopen" got;
              true)))

(* A read never sees anything but the record recovery finds: a random
   script of appends (some past a 64 KiB mapping window) and reads of any
   earlier offset, buffered or already on disk, and every [read_at]
   equals the record [open_] recovers at that offset after [close] —
   including reads taken while later frames were still buffered. *)
type rr_op = Add of int * int | Get of int

let prop_read_matches_recovery =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun n seed -> Add (n, seed))
              (frequency [ (5, int_range 0 80); (2, int_range 4_000 30_000) ])
              (int_range 0 255) );
          (4, map (fun i -> Get i) nat);
        ])
  in
  let print_op = function
    | Add (n, _) -> Printf.sprintf "append %dB" n
    | Get i -> Printf.sprintf "read %d" i
  in
  QCheck2.Test.make ~name:"journal: every read_at equals the recovered record"
    ~count:40
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      with_path (fun path ->
          let j, _ = Journal.open_ path in
          let offs = ref [||] in
          let reads = ref [] in
          List.iter
            (function
              | Add (n, seed) ->
                let key = Printf.sprintf "r%d" (Array.length !offs) in
                let payload =
                  Bytes.init n (fun i -> Char.chr ((i * 7 + seed) land 0xff))
                in
                let off = Journal.append j ~kind:seed ~key ~payload in
                offs := Array.append !offs [| off |]
              | Get i ->
                let n = Array.length !offs in
                if n > 0 then begin
                  let off = !offs.(i mod n) in
                  let buffered = (Unix.stat path).Unix.st_size < Journal.size j in
                  reads := (off, buffered, Journal.read_at j off) :: !reads
                end)
            ops;
          Journal.close j;
          let j, recovered = Journal.open_ path in
          Journal.close j;
          if List.map (fun r -> r.Journal.r_offset) recovered <> Array.to_list !offs
          then QCheck2.Test.fail_report "recovery lost a record";
          List.iter
            (fun (off, buffered, r) ->
              match
                List.find_opt (fun g -> g.Journal.r_offset = off) recovered
              with
              | Some g when g = r -> ()
              | _ ->
                QCheck2.Test.fail_reportf
                  "read_at %d (%s) <> the record recovered there" off
                  (if buffered then "frames buffered" else "all on disk"))
            !reads;
          true))

(* ---------------- Store: filing graphs ---------------- *)

let test_store_retrieve_graph () =
  with_store (fun _path store ->
      let src = mk () and dst = mk () in
      (* Shared + cyclic + sealed: root -> a -> shared, root -> shared,
         shared -> root, root -> sealed instance. *)
      let root = alloc src ~access_length:3 () in
      let a = alloc src ~access_length:1 () in
      let shared = alloc src ~access_length:1 () in
      K.Machine.write_word src root ~offset:0 1;
      K.Machine.write_word src a ~offset:0 2;
      K.Machine.write_word src shared ~offset:0 3;
      K.Machine.store_access src root ~slot:0 (Some a);
      K.Machine.store_access src root ~slot:1 (Some shared);
      K.Machine.store_access src a ~slot:0 (Some shared);
      K.Machine.store_access src shared ~slot:0 (Some root);
      let table = K.Machine.table src in
      let sro = K.Machine.global_sro src in
      let td = Type_def.create table sro ~name:"mailbox" in
      let inst =
        Type_def.create_instance table td sro ~data_length:8 ~access_length:0
      in
      K.Machine.store_access src root ~slot:2 (Some inst);
      let filed = Store.store_graph store src ~key:"g" root in
      Alcotest.(check int) "four objects filed" 4 filed;
      let root' = Store.retrieve_graph store dst ~key:"g" () in
      Alcotest.(check bool) "isomorphic after disk round trip" true
        (canonical_walk src root = canonical_walk dst root');
      let inst' = Option.get (K.Machine.load_access dst root' ~slot:2) in
      Alcotest.(check bool) "seal survived the disk" true
        (match Segment.otype (K.Machine.table dst) inst' with
        | Obj_type.Custom _ -> true
        | _ -> false);
      Alcotest.check_raises "unknown key" (Filing.Not_filed "nope") (fun () ->
          ignore (Store.retrieve_graph store dst ~key:"nope" ())))

let test_store_rights_mask () =
  with_store (fun _path store ->
      let src = mk () and dst = mk () in
      let root = alloc src ~access_length:1 () in
      let child = alloc src () in
      K.Machine.write_word src child ~offset:0 77;
      K.Machine.store_access src root ~slot:0 (Some child);
      ignore (Store.store_graph store src ~key:"m" ~mask:Rights.read_only root);
      let root' = Store.retrieve_graph store dst ~key:"m" () in
      Alcotest.(check bool) "root write stripped" false
        (Rights.has_write (Access.rights root'));
      let child' = Option.get (K.Machine.load_access dst root' ~slot:0) in
      Alcotest.(check bool) "edge write stripped" false
        (Rights.has_write (Access.rights child'));
      Alcotest.(check int) "data intact" 77
        (K.Machine.read_word dst child' ~offset:0))

(* qcheck satellite, first half: store -> retrieve is observationally
   identical to capture/reconstruct for random graphs. *)
let prop_store_equals_capture =
  QCheck2.Test.make ~name:"store/retrieve ≡ capture/reconstruct" ~count:30
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 1000000))
    (fun (n, salt) ->
      let src = mk () in
      let objs =
        Array.init n (fun i ->
            let o = alloc src ~data_length:8 ~access_length:3 () in
            K.Machine.write_word src o ~offset:0 ((salt * 31) + i);
            o)
      in
      let state = ref (salt + (n * 7919) + 1) in
      let next bound =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      Array.iter
        (fun o ->
          for slot = 0 to 2 do
            if next 3 > 0 then
              K.Machine.store_access src o ~slot (Some objs.(next n))
          done)
        objs;
      let via_mem = mk () and via_disk = mk () in
      let direct = Filing.reconstruct via_mem (Filing.capture src objs.(0)) in
      let from_disk =
        with_store (fun _path store ->
            ignore (Store.store_graph store src ~key:"q" objs.(0));
            Store.retrieve_graph store via_disk ~key:"q" ())
      in
      canonical_walk via_mem direct = canonical_walk via_disk from_disk)

(* Binary codec: encode/decode is the identity on captured wires, and a
   truncated buffer raises instead of yielding a malformed graph. *)
let test_wire_codec_roundtrip () =
  let src = mk () in
  let root = alloc src ~access_length:2 () in
  let child = alloc src ~access_length:1 () in
  K.Machine.store_access src root ~slot:1 (Some child);
  K.Machine.store_access src child ~slot:0 (Some root);
  K.Machine.write_word src root ~offset:0 99;
  let wire = Filing.capture src root in
  let bytes = Filing.encode_wire wire in
  Alcotest.(check bool) "decode inverts encode" true
    (Filing.wire_equal wire (Filing.decode_wire bytes));
  for cut = 0 to Bytes.length bytes - 1 do
    match Filing.decode_wire (Bytes.sub bytes 0 cut) with
    | exception Filing.Corrupt_wire _ -> ()
    | _ -> Alcotest.failf "truncation to %d bytes decoded" cut
  done

(* ---------------- Store: directory and compaction ---------------- *)

let test_directory_rebuild_and_delete () =
  with_path (fun path ->
      let store = Store.open_ path in
      Store.put_blob store ~key:"k1" (Bytes.of_string "v1");
      Store.put_blob store ~key:"k1" (Bytes.of_string "v2");
      Store.put_blob store ~key:"k2" (Bytes.of_string "w");
      Store.delete store ~key:"k2";
      Store.delete store ~key:"ghost";
      (* deleting an absent key journals nothing *)
      Alcotest.(check (list string)) "directory" [ "k1" ] (Store.keys store);
      Store.close store;
      let store = Store.open_ path in
      Alcotest.(check (list string)) "directory rebuilt on open" [ "k1" ]
        (Store.keys store);
      Alcotest.(check (option bytes)) "latest version wins"
        (Some (Bytes.of_string "v2"))
        (Store.get_blob store ~key:"k1");
      Alcotest.(check (option bytes)) "tombstone holds" None
        (Store.get_blob store ~key:"k2");
      Alcotest.(check bool) "garbage accumulated" true
        (Store.garbage_bytes store > 0);
      Store.close store)

(* The directory against a [Map] model: random puts, supersedes and
   deletes (of present and absent keys, the empty key among them) over a
   key space small enough to collide and large enough to grow the table
   several times.  After every operation the store agrees with the model
   on the operation's key; at the end on [keys], [count] and every
   value, and again after a compaction and after a reopen rebuilds the
   directory from the journal. *)
module Model = Map.Make (String)

let prop_directory_model =
  QCheck2.Test.make ~name:"store: directory = Map model under put/delete"
    ~count:25
    QCheck2.Gen.(
      list_size (int_range 0 600) (pair (int_range 0 300) (int_range 0 3)))
    (fun ops ->
      with_path (fun path ->
          let key k = if k = 0 then "" else Printf.sprintf "k%d" k in
          let agrees store model =
            Store.keys store = List.map fst (Model.bindings model)
            && Store.count store = Model.cardinal model
            && Model.for_all
                 (fun key v ->
                   Store.get_blob store ~key = Some (Bytes.of_string v))
                 model
          in
          let store = Store.open_ path in
          let model =
            List.fold_left
              (fun (model, i) (k, op) ->
                let key = key k in
                let model =
                  if op = 0 then begin
                    Store.delete store ~key;
                    Model.remove key model
                  end
                  else begin
                    let v = Printf.sprintf "%s=%d" key i in
                    Store.put_blob store ~key (Bytes.of_string v);
                    Model.add key v model
                  end
                in
                if
                  Store.mem store ~key <> Model.mem key model
                  || Store.get_blob store ~key
                     <> Option.map Bytes.of_string (Model.find_opt key model)
                then QCheck2.Test.fail_reportf "op %d on %S disagrees" i key;
                (model, i + 1))
              (Model.empty, 0) ops
            |> fst
          in
          let live = agrees store model in
          ignore (Store.compact store);
          let compacted = agrees store model in
          Store.close store;
          let store = Store.open_ path in
          let reopened = agrees store model in
          Store.close store;
          live && compacted && reopened))

let test_compaction_reclaims_and_preserves () =
  with_store (fun path store ->
      let m = mk () in
      let root = alloc m ~access_length:1 () in
      let child = alloc m () in
      K.Machine.write_word m child ~offset:0 5;
      K.Machine.store_access m root ~slot:0 (Some child);
      for i = 1 to 20 do
        K.Machine.write_word m root ~offset:0 i;
        ignore (Store.store_graph store m ~key:"hot" root)
      done;
      Store.put_blob store ~key:"cold" (Bytes.of_string "keep");
      Store.delete store ~key:"hot";
      ignore (Store.store_graph store m ~key:"hot" root);
      let before = Store.garbage_bytes store in
      Alcotest.(check bool) "garbage before compaction" true (before > 0);
      let reclaimed = Store.compact store in
      Alcotest.(check bool) "bytes reclaimed" true (reclaimed > 0);
      Alcotest.(check int) "no garbage after" 0 (Store.garbage_bytes store);
      Alcotest.(check (option bytes)) "blob survived" (Some (Bytes.of_string "keep"))
        (Store.get_blob store ~key:"cold");
      let fresh = mk () in
      let root' = Store.retrieve_graph store fresh ~key:"hot" () in
      Alcotest.(check bool) "graph survived compaction" true
        (canonical_walk m root = canonical_walk fresh root');
      Alcotest.(check bool) "tmp file removed" false
        (Sys.file_exists (path ^ ".tmp"));
      (* The compacted file recovers like any other journal. *)
      Store.close store;
      let store2 = Store.open_ path in
      Alcotest.(check (list string)) "compacted file reopens" [ "cold"; "hot" ]
        (Store.keys store2);
      Store.close store2)

(* Compaction and reopen size the directory from the records they
   replay: at a count that exactly fills three quarters of a table, one
   past it, and thousands, every key and its blob survive both. *)
let test_compacted_store_reopens () =
  List.iter
    (fun n ->
      with_path (fun path ->
          let store = Store.open_ path in
          for i = 0 to (2 * n) - 1 do
            let key = Printf.sprintf "k%d" (i mod n) in
            Store.put_blob store ~key (Bytes.of_string (string_of_int i))
          done;
          let contents store =
            List.map
              (fun key -> (key, Store.get_blob store ~key))
              (Store.keys store)
          in
          let before = contents store in
          Alcotest.(check int)
            (Printf.sprintf "%d keys" n)
            n (List.length before);
          ignore (Store.compact store);
          let check what store =
            Alcotest.(check (list (pair string (option bytes))))
              (Printf.sprintf "%s, %d keys" what n) before (contents store)
          in
          check "compacted" store;
          Store.close store;
          let store = Store.open_ path in
          check "reopened" store;
          Store.close store))
    [ 48; 49; 96; 97; 3_000 ]

let test_compaction_virtual_time_driver () =
  (* min_garbage 1: any garbage is enough; the interval alone gates. *)
  with_store ~compact_interval_ns:1_000 ~min_garbage_bytes:1
    (fun _path store ->
      Store.put_blob store ~key:"k" (Bytes.of_string "a");
      Store.put_blob store ~key:"k" (Bytes.of_string "b");
      let _, _, compactions0, _, _ = Store.stats store in
      Alcotest.(check int) "no compaction before the interval" 0 compactions0;
      (* Virtual time crosses the interval: the next append compacts. *)
      Store.put_blob store ~now_ns:5_000 ~key:"k" (Bytes.of_string "c");
      let _, _, compactions1, _, _ = Store.stats store in
      Alcotest.(check int) "compacted once after the interval" 1 compactions1;
      (* Within the same interval, garbage accrues but no second sweep. *)
      Store.put_blob store ~now_ns:5_100 ~key:"k" (Bytes.of_string "d");
      let _, _, compactions2, _, _ = Store.stats store in
      Alcotest.(check int) "interval gates resweep" 1 compactions2)

let test_store_observability () =
  with_store ~sync_every:2 (fun _path store ->
      let m = mk ~trace:true () in
      Store.attach store m;
      Store.put_blob store ~key:"a" (Bytes.of_string "1");
      Store.put_blob store ~key:"b" (Bytes.of_string "2");
      let kinds = List.map (fun e -> e.Obs.Event.kind) (K.Machine.events m) in
      Alcotest.(check bool) "append events emitted" true
        (List.mem Obs.Event.Journal_append kinds);
      Alcotest.(check bool) "sync barrier event emitted" true
        (List.mem Obs.Event.Journal_sync kinds);
      let counter name =
        match Obs.Metrics.find_counter (K.Machine.metrics m) name with
        | Some c -> Obs.Metrics.counter_value c
        | None -> Alcotest.failf "counter %s missing" name
      in
      Alcotest.(check int) "append counter" 2 (counter "store.journal_appends");
      Alcotest.(check int) "sync counter" 1 (counter "store.journal_syncs"))

(* ---------------- Checkpoint: single machine ---------------- *)

(* A deterministic multi-process workload with traced events: producers
   and a consumer through a bounded port, staggered delays, plus an armed
   FI plan so pending injections cross the checkpoint too. *)
let boot_workload ?(chaos = false) () =
  let m = mk ~processors:2 ~trace:true () in
  let port = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"consumer" (fun () ->
         for _ = 1 to 8 do
           let msg = K.Machine.receive m ~port in
           K.Machine.compute m (100 * K.Machine.read_word m msg ~offset:0)
         done));
  for p = 1 to 2 do
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "producer%d" p) (fun () ->
           for i = 1 to 4 do
             K.Machine.delay m ~ns:(10_000 * p);
             let msg = alloc m () in
             K.Machine.write_word m msg ~offset:0 ((p * 10) + i);
             K.Machine.send m ~port ~msg
           done))
  done;
  if chaos then
    Fi.arm m
      (Fi.random ~seed:7 ~horizon_ns:2_000_000 ~processors:2 ~count:6
         ~cpu_faults:1);
  m

let workload ?chaos () =
  Scenario.machine ~name:"workload" (boot_workload ?chaos)

(* Kill anywhere, checkpoint, restore by replay, resume: the resumed
   stream must equal the straight run's.  [reopen] also closes the store
   and reopens it, as a process restarted after the crash would; the
   recovered record must be the one the restore used.  Returns the
   verifier's outcome and whether the record held.  One property covers
   every input; the named cases below pin the ones that matter. *)
let kill_restore_run ~chaos ~bound ~reopen =
  with_path (fun path ->
      let store = Store.open_ path in
      let restored =
        Scenario.kill_restore (workload ~chaos ()) ~store ~key:"ck" ~bound
      in
      let saved = Checkpoint.load store ~key:"ck" in
      Store.close store;
      let recovered =
        if reopen then begin
          let store = Store.open_ path in
          let r = Checkpoint.load store ~key:"ck" in
          Store.close store;
          r
        end
        else saved
      in
      ( restored,
        recovered = saved
        && Option.map (fun r -> r.Checkpoint.c_bound) saved = Some bound ))

let kill_restore_case ?(chaos = false) ?(reopen = false) bound () =
  let restored, record_held = kill_restore_run ~chaos ~bound ~reopen in
  ok "resumed stream vs straight run" restored;
  Alcotest.(check bool) "checkpoint record held" true record_held

let prop_kill_anywhere =
  QCheck2.Test.make ~name:"restore-then-run ≡ run-straight-through" ~count:20
    QCheck2.Gen.(
      triple bool
        (oneof
           [
             map (fun n -> Checkpoint.Steps n) (int_range 1 60);
             map (fun n -> Checkpoint.Virtual_ns n) (int_range 1 400_000);
           ])
        bool)
    (fun (chaos, bound, reopen) ->
      let restored, record_held = kill_restore_run ~chaos ~bound ~reopen in
      holds restored && record_held)

let test_restore_mismatch_detected () =
  with_store (fun _path store ->
      let victim = boot_workload () in
      ignore (K.Machine.run ~max_steps:6 victim);
      ignore (Checkpoint.save store ~key:"ck" ~bound:(Checkpoint.Steps 6) victim);
      (* A boot closure that arms different chaos is not the same run. *)
      match
        Checkpoint.restore store ~key:"ck" ~boot:(fun () ->
            boot_workload ~chaos:true ())
      with
      | exception Checkpoint.Restore_mismatch _ -> ()
      | _ -> Alcotest.fail "divergent replay accepted")

(* ---------------- Checkpoint: cluster node ---------------- *)

let boot_ping_cluster () =
  let cluster = Net.Cluster.create () in
  let config =
    {
      K.Machine.default_config with
      processors = 1;
      trace_level = Obs.Tracer.Events;
    }
  in
  let a, ma = Net.Cluster.boot_node cluster ~name:"a" ~config () in
  let b, mb = Net.Cluster.boot_node cluster ~name:"b" ~config () in
  ignore (Net.Cluster.connect cluster a b);
  let home = K.Machine.create_port mb ~capacity:4 ~discipline:K.Port.Fifo () in
  Net.Cluster.export cluster ~node:b ~name:"chan" home;
  ignore
    (K.Machine.spawn mb ~name:"consumer" (fun () ->
         for _ = 1 to 6 do
           let msg = K.Machine.receive mb ~port:home in
           K.Machine.compute mb (10 * K.Machine.read_word mb msg ~offset:0)
         done));
  let surrogate = Net.Cluster.import cluster ~node:a ~name:"chan" in
  ignore
    (K.Machine.spawn ma ~name:"producer" (fun () ->
         for i = 1 to 6 do
           let msg = alloc ma () in
           K.Machine.write_word ma msg ~offset:0 (i * 10);
           K.Machine.send ma ~port:surrogate ~msg
         done));
  cluster

let ping engine =
  Scenario.cluster ~name:"ping" ~engine ~quantum_ns:100_000 boot_ping_cluster

(* Kill the whole cluster at a round boundary mid-transfer, restore it
   from its per-node images, and resume: every node's stream matches. *)
let test_cluster_checkpoint_restore () =
  with_store (fun _path store ->
      let straight = boot_ping_cluster () in
      let report = Net.Cluster.run straight ~quantum_ns:100_000 () in
      Alcotest.(check bool) "killed mid-run" true (report.Net.Cluster.rounds > 4);
      ok "cluster kill/restore"
        (Scenario.kill_restore
           ~expected:(Scenario.world_streams (Scenario.Cluster straight))
           (ping Net.Cluster.Seq) ~store ~key:"cl"
           ~bound:(Checkpoint.Rounds { rounds = 4; quantum_ns = 100_000 })))

let test_cluster_run_resumable () =
  (* The property cluster checkpoints stand on: a split run equals a
     straight run on every node's event stream. *)
  let straight = Scenario.play (ping Net.Cluster.Seq) in
  let split = boot_ping_cluster () in
  ignore (Net.Cluster.run split ~max_rounds:3 ());
  ignore (Net.Cluster.run split ());
  Alcotest.(check (list (pair string (list string)))) "split ≡ straight"
    (Scenario.world_streams straight)
    (Scenario.world_streams (Scenario.Cluster split))

(* ---------------- Scenario verifiers ---------------- *)

(* The second boot perturbs one value; the divergence names its stream,
   its 1-based line, both lines, and the equal lines leading up to it. *)
let test_same_seed_names_divergence () =
  let boots = ref 0 in
  let perturbed =
    Scenario.make ~name:"perturbed"
      ~streams:(fun v ->
        [
          ("head", [ "fixed" ]);
          ("values", List.init 10 (fun i -> string_of_int (if i = 6 then v else i)));
        ])
      (fun () ->
        incr boots;
        if !boots = 2 then 99 else 6)
  in
  match Scenario.same_seed perturbed with
  | Ok () -> Alcotest.fail "perturbed run accepted"
  | Error d ->
    Alcotest.(check string) "stream" "perturbed/values" d.Scenario.stream;
    Alcotest.(check int) "index" 7 d.Scenario.index;
    Alcotest.(check (option string)) "expected" (Some "6") d.Scenario.expected;
    Alcotest.(check (option string)) "got" (Some "99") d.Scenario.got;
    Alcotest.(check (list string)) "context" [ "3"; "4"; "5" ]
      d.Scenario.context

let test_equal_engines_par2 () =
  ok "Par 2 vs Seq" (Scenario.equal_engines ping (Net.Cluster.Par 2))

(* The restore boot arms a fault plan the victim never had: the replayed
   image departs from the stored one, and kill_restore hands back
   Checkpoint's first divergent image line. *)
let test_kill_restore_mismatched_boot () =
  with_store (fun _path store ->
      let boots = ref 0 in
      let drifting =
        Scenario.machine ~name:"drifting" (fun () ->
            incr boots;
            boot_workload ~chaos:(!boots = 3) ())
      in
      match
        Scenario.kill_restore drifting ~store ~key:"ck"
          ~bound:(Checkpoint.Virtual_ns 300_000)
      with
      | Ok _ -> Alcotest.fail "divergent replay accepted"
      | Error d ->
        Alcotest.(check string) "stream" "drifting/checkpoint \"ck\" image"
          d.Scenario.stream;
        Alcotest.(check bool) "names both lines" true
          (d.Scenario.expected <> d.Scenario.got
          && Option.is_some d.Scenario.expected
          && Option.is_some d.Scenario.got))

(* The stager refuses a rejoin the cluster would mis-stage: a kill
   before the first round, a checkpoint after the kill, and a restart at
   or before the kill (node events sort by instant, so that restart would
   fire on a live node and leave the victim down).  Nothing is filed. *)
let test_stage_rejoin_rejects_bad_instants () =
  with_store (fun _path store ->
      let cluster = boot_ping_cluster () in
      List.iter
        (fun (what, ckpt_ns, kill_ns, restart_ns) ->
          match
            Checkpoint.stage_rejoin
              { Checkpoint.store; ckpt_ns; kill_ns; restart_ns }
              ~key:"bad" ~node:1 ~seed:1 ~engine:Net.Cluster.Seq
              ~quantum_ns:100_000 ~boot:boot_ping_cluster cluster
          with
          | _ -> Alcotest.failf "%s: staged" what
          | exception Invalid_argument _ -> ())
        [
          ("kill before the first round", 0, 50_000, Some 400_000);
          ("checkpoint after the kill", 300_000, 200_000, Some 400_000);
          ("restart at the kill", 200_000, 200_000, Some 200_000);
        ];
      Alcotest.(check bool) "nothing filed" true
        (Option.is_none (Checkpoint.load store ~key:"bad")))

let suite =
  [
    Alcotest.test_case "journal: append/recover/read_at" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: crash-point sweep, every byte" `Quick
      test_crash_point_sweep;
    Alcotest.test_case "journal: corrupt record truncates" `Quick
      test_corrupt_record_truncates;
    Alcotest.test_case "journal: read_at on a closed journal" `Quick
      test_read_at_closed;
    QCheck_alcotest.to_alcotest prop_read_at_one_frame;
    Alcotest.test_case "journal: read_at CRC-checks its own frame only"
      `Quick test_read_at_own_frame;
    QCheck_alcotest.to_alcotest prop_write_behind;
    QCheck_alcotest.to_alcotest prop_read_matches_recovery;
    Alcotest.test_case "store: graph round trip (cycle/sharing/seal)" `Quick
      test_store_retrieve_graph;
    Alcotest.test_case "store: rights mask survives disk" `Quick
      test_store_rights_mask;
    QCheck_alcotest.to_alcotest prop_store_equals_capture;
    Alcotest.test_case "wire codec: encode/decode identity + truncation"
      `Quick test_wire_codec_roundtrip;
    Alcotest.test_case "store: directory rebuild, supersede, delete" `Quick
      test_directory_rebuild_and_delete;
    QCheck_alcotest.to_alcotest prop_directory_model;
    Alcotest.test_case "store: compaction reclaims and preserves" `Quick
      test_compaction_reclaims_and_preserves;
    Alcotest.test_case "store: compacted store reopens with every blob" `Quick
      test_compacted_store_reopens;
    Alcotest.test_case "store: compaction driven from virtual time" `Quick
      test_compaction_virtual_time_driver;
    Alcotest.test_case "store: events and counters when attached" `Quick
      test_store_observability;
    Alcotest.test_case "checkpoint: kill at step bound, restore" `Quick
      (kill_restore_case (Checkpoint.Steps 5));
    Alcotest.test_case "checkpoint: kill at virtual-time bound, restore"
      `Quick
      (kill_restore_case (Checkpoint.Virtual_ns 45_000));
    Alcotest.test_case "checkpoint: kill mid-chaos, injections survive"
      `Quick
      (* The kill instant falls inside the FI plan's horizon: unfired
         injections are part of the image and refire identically. *)
      (kill_restore_case ~chaos:true (Checkpoint.Virtual_ns 300_000));
    Alcotest.test_case "checkpoint: record survives store reopen" `Quick
      (kill_restore_case ~reopen:true (Checkpoint.Steps 4));
    Alcotest.test_case "checkpoint: divergent replay rejected" `Quick
      test_restore_mismatch_detected;
    QCheck_alcotest.to_alcotest prop_kill_anywhere;
    Alcotest.test_case "cluster: checkpoint a node mid-transfer, restore"
      `Quick test_cluster_checkpoint_restore;
    Alcotest.test_case "cluster: split run ≡ straight run" `Quick
      test_cluster_run_resumable;
    Alcotest.test_case "scenario: same_seed names stream, line, both lines"
      `Quick test_same_seed_names_divergence;
    Alcotest.test_case "scenario: equal_engines on a 2-node cluster, Par 2"
      `Quick test_equal_engines_par2;
    Alcotest.test_case "scenario: kill_restore surfaces the image divergence"
      `Quick test_kill_restore_mismatched_boot;
    Alcotest.test_case "checkpoint: stage_rejoin rejects bad instants" `Quick
      test_stage_rejoin_rejects_bad_instants;
  ]
