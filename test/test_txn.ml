(* Transactional multi-object send: kernel atomicity, idempotent keyed
   commits, the banking invariants (conservation, exactly-once) under
   chaos and node kill+rejoin, engine-independence, and event-sourced
   history replay. *)

module K = I432_kernel
module Obs = I432_obs
module Fi = I432_fi.Fi
module Net = I432_net
module Store = I432_store.Store
module Ckpt = I432_store.Checkpoint
module Txn = I432_txn.Txn
module History = I432_txn.History
module Banking = I432_txn.Banking

let mk = Testkit.mk
let with_store f = Testkit.with_store (fun _ store -> f store)

(* ---------------- Kernel atomicity ---------------- *)

(* A group with a send, a receive, and a write applies all three at one
   instant; staging a receive from an empty port applies none of them. *)
let test_all_or_nothing () =
  let m = mk () in
  let full = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let empty = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let out = K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo () in
  let cell = K.Machine.allocate_generic m ~data_length:8 () in
  let seeded = K.Machine.allocate_generic m ~data_length:8 () in
  assert (K.Machine.deliver_external m ~port:full ~msg:seeded ~priority:0 ());
  let outcomes = ref [] in
  ignore
    (K.Machine.spawn m ~name:"t" (fun () ->
         let note = K.Machine.allocate_generic m ~data_length:8 () in
         (* Conflict: [empty] has nothing to receive — nothing applies. *)
         let g1 = Txn.group () in
         Txn.receive g1 empty;
         Txn.send g1 ~port:out ~msg:note;
         Txn.write g1 cell ~offset:0 ~word:7;
         outcomes := Txn.commit m ~retries:0 g1 :: !outcomes;
         Alcotest.(check int)
           "conflict applied nothing" 0
           (K.Machine.read_word m cell ~offset:0);
         (* Fresh: receive from [full], write, send — all at once. *)
         let g2 = Txn.group () in
         Txn.receive g2 full;
         Txn.send g2 ~port:out ~msg:note;
         Txn.write g2 cell ~offset:0 ~word:42;
         outcomes := Txn.commit m ~retries:0 g2 :: !outcomes));
  ignore (K.Machine.run m);
  (match !outcomes with
  | [ Txn.Committed { received; fresh; _ }; Txn.Aborted { reason; _ } ] ->
    Alcotest.(check string) "conflict reason" "empty" reason;
    Alcotest.(check bool) "fresh" true fresh;
    Alcotest.(check int) "received the seeded msg" 1 (List.length received)
  | _ -> Alcotest.fail "unexpected outcomes");
  Alcotest.(check int) "write applied" 42 (K.Machine.read_word m cell ~offset:0);
  let drained = K.Machine.drain_port m ~port:out () in
  Alcotest.(check int) "send applied once" 1 (List.length drained)

(* A keyed group that already committed skips receives and writes and
   re-issues its sends with the same per-send tags. *)
let test_duplicate_key () =
  let m = mk () in
  let out = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in
  let cell = K.Machine.allocate_generic m ~data_length:8 () in
  let key = Txn.key ~origin:3 ~seq:5 in
  let fresh_flags = ref [] in
  ignore
    (K.Machine.spawn m ~name:"t" (fun () ->
         let note = K.Machine.allocate_generic m ~data_length:8 () in
         for i = 1 to 2 do
           let g = Txn.group () in
           Txn.write g cell ~offset:0 ~word:(100 * i);
           Txn.send g ~port:out ~msg:note;
           match Txn.commit m ~key g with
           | Txn.Committed { fresh; _ } ->
             fresh_flags := fresh :: !fresh_flags
           | Txn.Aborted _ -> Alcotest.fail "unexpected abort"
         done));
  ignore (K.Machine.run m);
  Alcotest.(check (list bool)) "second commit is a duplicate" [ false; true ]
    !fresh_flags;
  Alcotest.(check int) "duplicate skipped the write" 100
    (K.Machine.read_word m cell ~offset:0);
  let drained = K.Machine.drain_port m ~port:out () in
  Alcotest.(check int) "both sends delivered" 2 (List.length drained);
  List.iter
    (fun (_, _, _, tag) ->
      Alcotest.(check int) "per-send tag is key + 0" key tag)
    drained;
  Alcotest.(check (list int)) "key recorded once" [ key ]
    (K.Machine.txn_applied_keys m)

(* ---------------- Banking: single machine ---------------- *)

let check_exactly_once r =
  Alcotest.(check (list string)) "settled-run verdict" [] (Banking.violations r)

let test_banking_conserves () =
  let _, _, r =
    Banking.run ~processors:2 ~accounts:6 ~transfers:40 ~seed:7 ()
  in
  Alcotest.(check bool) "some transfers committed" true (r.Banking.committed > 0);
  check_exactly_once r

(* Same seed, same machine shape: byte-identical state image and event
   stream — the scenario inherits the kernel's determinism. *)
let test_banking_deterministic () =
  Testkit.ok "same seed"
    (I432_store.Scenario.(
       same_seed
         (make ~name:"banking"
            ~streams:(fun (m, _, r) ->
              [
                ("image", String.split_on_char '\n' (K.Snapshot.state_image m));
                ("events", event_lines m);
                ("committed", [ string_of_int r.Banking.committed ]);
              ])
            (fun () ->
              Banking.run ~processors:2 ~accounts:5 ~transfers:25 ~seed:11 ()))))

(* ---------------- History ---------------- *)

let test_history_replay () =
  with_store (fun store ->
      let _, history, r =
        Banking.run ~processors:2 ~accounts:4 ~transfers:30 ~seed:3
          ~history_store:store ()
      in
      Alcotest.(check bool) "committed > 0" true (r.Banking.committed > 0);
      check_exactly_once r;
      Alcotest.(check (list string)) "every account replays to live state" []
        (History.diverged (Option.get history));
      (* The audit path needs only the store: replaying acct0 to the end
         of history matches its live balance word. *)
      let img = Option.get (History.replay store ~name:"acct0" ~to_ns:max_int) in
      Alcotest.(check int32) "replayed balance word"
        (Int32.of_int r.Banking.balances.(0))
        (Bytes.get_int32_le img 0);
      (* Replay to virtual time 0 is the base image: the initial balance. *)
      let base = Option.get (History.replay store ~name:"acct0" ~to_ns:0) in
      Alcotest.(check int32) "base balance"
        (Int32.of_int Banking.initial_balance)
        (Bytes.get_int32_le base 0);
      (* Records carry monotonically nondecreasing commit instants. *)
      let recs = History.records store ~name:"acct0" in
      Alcotest.(check bool) "acct0 has history" true (List.length recs > 0);
      ignore
        (List.fold_left
           (fun prev (ns, _, _) ->
             Alcotest.(check bool) "commit_ns nondecreasing" true (ns >= prev);
             ns)
           0 recs))

(* An untracked run writes nothing under hist/. *)
let test_history_opt_in () =
  with_store (fun store ->
      let _, _, _ =
        Banking.run ~processors:1 ~accounts:3 ~transfers:10 ~seed:5 ()
      in
      Alcotest.(check (list string)) "store untouched" [] (Store.keys store))

(* ---------------- History: on-disk format ---------------- *)

(* The record text as the format defines it, written with [Printf]:
   "<commit_ns> <key> <off>:<word>,...". *)
let record_text (ns, key, writes) =
  Printf.sprintf "%d %d %s" ns key
    (String.concat ","
       (List.map (fun (off, w) -> Printf.sprintf "%d:%d" off w) writes))

(* Every hist/<name>/<seq> blob is the [Printf] rendering of the record it
   decodes to, the keys run 1..n under a base, and nothing else is filed
   under hist/. *)
let check_blobs_canonical store names =
  let expected_keys =
    List.concat_map
      (fun name ->
        let n = List.length (History.records store ~name) in
        Printf.sprintf "hist/%s/base" name
        :: List.init n (fun i -> Printf.sprintf "hist/%s/%d" name (i + 1)))
      names
  in
  let hist_keys =
    List.filter (fun k -> String.starts_with ~prefix:"hist/" k) (Store.keys store)
  in
  Alcotest.(check (list string)) "hist/ keys" (List.sort compare expected_keys)
    hist_keys;
  List.iter
    (fun name ->
      List.iteri
        (fun i r ->
          let key = Printf.sprintf "hist/%s/%d" name (i + 1) in
          Alcotest.(check (option string))
            (key ^ " is the Printf rendering")
            (Some (record_text r))
            (Option.map Bytes.to_string (Store.get_blob store ~key)))
        (History.records store ~name))
    names

(* Random commits straight into [observe]: commit instants past 2^31,
   negative and zero keys and words, min_int/max_int, several tracked
   objects per commit (one untracked), repeated writes to one object.
   The records decode to exactly the per-object writes in staging order,
   and their bytes are the [Printf] rendering. *)
let prop_history_bytes =
  let int_gen =
    QCheck2.Gen.(
      oneof
        [
          int_range (-1000) 1000;
          oneofl [ 0; -1; min_int; max_int; 1 lsl 31; (1 lsl 31) + 7 ];
          int;
        ])
  in
  let commit_gen =
    QCheck2.Gen.(
      pair int_gen
        (list_size (int_range 1 6)
           (triple (int_range 0 3) (int_range 0 1000) int_gen)))
  in
  QCheck2.Test.make ~name:"history: blobs byte-identical to Printf" ~count:50
    QCheck2.Gen.(list_size (int_range 1 12) commit_gen)
    (fun commits ->
      with_store (fun store ->
          let m = mk () in
          let h = History.create store m in
          let objs =
            Array.init 4 (fun _ -> K.Machine.allocate_generic m ~data_length:8 ())
          in
          let names = [ "a"; "b"; "c" ] in
          List.iteri (fun i name -> History.track h ~name objs.(i)) names;
          let ns = ref ((1 lsl 31) - 3) in
          let model = Array.make 3 [] in
          List.iter
            (fun (key, ws) ->
              ns := !ns + 2;
              let writes = List.map (fun (o, off, w) -> (objs.(o), off, w)) ws in
              History.observe h ~commit_ns:!ns ~key ~writes;
              for o = 0 to 2 do
                match List.filter (fun (o', _, _) -> o' = o) ws with
                | [] -> ()
                | mine ->
                  model.(o) <-
                    (!ns, key, List.map (fun (_, off, w) -> (off, w)) mine)
                    :: model.(o)
              done)
            commits;
          List.iteri
            (fun i name ->
              if History.records store ~name <> List.rev model.(i) then
                QCheck2.Test.fail_reportf "%s: decoded records differ" name)
            names;
          check_blobs_canonical store names;
          true))

(* The banking mix files canonical blobs too, and a two-node cluster
   files the same hist/ blobs under Par 2 as under Seq: every scratch
   buffer belongs to one tracker, so nodes on separate domains never
   share one. *)
let test_history_cluster_engines () =
  let blobs engine =
    with_store (fun store ->
        ignore
          (Banking.run_cluster ~engine ~accounts:4 ~transfers:16 ~seed:21
             ~history_store:store ());
        check_blobs_canonical store (List.init 4 (Printf.sprintf "acct%d"));
        List.filter_map
          (fun key ->
            if String.starts_with ~prefix:"hist/" key then
              Some (key, Bytes.to_string (Option.get (Store.get_blob store ~key)))
            else None)
          (Store.keys store))
  in
  let seq = blobs Net.Cluster.Seq in
  Alcotest.(check bool) "records filed" true (List.length seq > 4);
  Alcotest.(check (list (pair string string))) "Seq = Par 2 hist/ blobs" seq
    (blobs (Net.Cluster.Par 2))

(* A malformed blob fails one way, naming its key: truncations of a
   valid record that are not themselves a valid record, and garbled
   fields, all raise the same [Failure]. *)
let test_history_malformed () =
  with_store (fun store ->
      let key = "hist/x/1" in
      let expected = Failure ("History: malformed record " ^ key) in
      let read text =
        Store.put_blob store ~key (Bytes.of_string text);
        History.records store ~name:"x"
      in
      let valid = "2147483650 -12 0:7,4:-9,8:0" in
      let failures = ref 0 in
      for cut = 0 to String.length valid - 1 do
        let text = String.sub valid 0 cut in
        match read text with
        | [ r ] ->
          Alcotest.(check string)
            (Printf.sprintf "cut %d decodes only when canonical" cut)
            text (record_text r)
        | _ -> Alcotest.fail "one blob, one record"
        | exception e ->
          Alcotest.(check bool)
            (Printf.sprintf "cut %d: %s" cut (Printexc.to_string e))
            true (e = expected);
          incr failures
      done;
      Alcotest.(check bool) "most truncations are malformed" true
        (!failures >= String.length valid - 3);
      List.iter
        (fun text ->
          Alcotest.check_raises (Printf.sprintf "%S" text) expected (fun () ->
              ignore (read text)))
        [
          "";
          "1 2 ";
          "x 2 0:1";
          "1 y 0:1";
          "1 2 0:z";
          "1 2 q:1";
          "1 2 0;1";
          "1 2 0:1:2";
          "1 2 0:1,,4:5";
          "1 2 0:1,";
          "1 2 :5";
          "1 2 3 4";
          "1  2 0:1";
          "1 2 0:99999999999999999999999";
        ])

(* Records the random property rarely draws: commit instants at and just
   below [max_int], zero and negative keys and words, [min_int], and one
   commit of 300 writes to one tracked object among writes to an
   untracked one, which outgrows the encoder's initial buffer.  Every
   blob is the [Printf] rendering and decodes to the model. *)
let test_history_extreme_records () =
  with_store (fun store ->
      let m = mk () in
      let h = History.create store m in
      let obj = K.Machine.allocate_generic m ~data_length:8 () in
      let other = K.Machine.allocate_generic m ~data_length:8 () in
      History.track h ~name:"e" obj;
      let rng = I432_util.Prng.create ~seed:5 in
      let big =
        List.init 300 (fun i ->
            ( 4 * i,
              match i mod 4 with
              | 0 -> min_int + i
              | 1 -> 0
              | 2 -> -I432_util.Prng.int rng 1_000_000_000
              | _ -> max_int - i ))
      in
      let commits =
        [
          (max_int - 3, 0, [ (0, 0) ]);
          (max_int - 2, -64, [ (0, -1); (4, min_int); (8, max_int) ]);
          (max_int - 1, min_int, big);
          (max_int, max_int, [ (0, -1000) ]);
        ]
      in
      List.iter
        (fun (commit_ns, key, ws) ->
          let writes =
            List.concat_map
              (fun (off, w) -> [ (obj, off, w); (other, off, w + 1) ])
              ws
          in
          History.observe h ~commit_ns ~key ~writes)
        commits;
      Alcotest.(check (list (triple int int (list (pair int int)))))
        "decoded records" commits
        (History.records store ~name:"e");
      check_blobs_canonical store [ "e" ])

(* A rejoin leaves a stale tail of records from the rolled-back timeline,
   with gaps where earlier successor tombstones fell.  Filing over it
   tombstones each successor up to the tail's highest record, not just
   to its first gap, so the contiguous scan stops at the last record
   filed.  On a fresh store a tracked run journals no tombstone. *)
let test_history_stale_tail () =
  with_store (fun store ->
      let m = mk () in
      List.iter
        (fun seq ->
          Store.put_blob store
            ~key:(Printf.sprintf "hist/x/%d" seq)
            (Bytes.of_string (Printf.sprintf "1 64 0:%d" seq)))
        [ 1; 2; 3; 4; 5; 7; 8; 9; 10 ];
      let h = History.create store m in
      let obj = K.Machine.allocate_generic m ~data_length:8 () in
      History.track h ~name:"x" obj;
      let filed =
        List.init 6 (fun i -> (100 + i, 64 * (i + 2), [ (0, -i); (4, i) ]))
      in
      List.iter
        (fun (commit_ns, key, ws) ->
          History.observe h ~commit_ns ~key
            ~writes:(List.map (fun (off, w) -> (obj, off, w)) ws))
        filed;
      Alcotest.(check (list (triple int int (list (pair int int)))))
        "exactly the six records filed" filed
        (History.records store ~name:"x");
      Alcotest.(check bool) "hist/x/7 tombstoned" false
        (Store.mem store ~key:"hist/x/7"));
  Testkit.with_store (fun path store ->
      ignore
        (Banking.run ~processors:2 ~accounts:4 ~transfers:30 ~seed:3
           ~history_store:store ());
      Store.close store;
      let j, records = I432_store.Journal.open_ path in
      I432_store.Journal.close j;
      Alcotest.(check bool) "records filed" true (List.length records > 4);
      (* Kind 2 is the store's tombstone. *)
      Alcotest.(check int) "tombstones on a fresh store" 0
        (List.length
           (List.filter (fun r -> r.I432_store.Journal.r_kind = 2) records)))

(* The journal a seeded history-on banking run writes, pinned byte for
   byte: the CRC, the directory and the record encoder may change how
   they work, never what they write. *)
let test_history_journal_pinned () =
  Testkit.with_store (fun path store ->
      let _, _, r =
        Banking.run ~processors:2 ~accounts:8 ~transfers:400 ~seed:1
          ~history_store:store ()
      in
      Alcotest.(check int) "committed" 400 r.Banking.committed;
      Store.close store;
      Alcotest.(check string) "journal MD5" "6a875d0658c4895ddca69815e032a296"
        (Digest.to_hex (Digest.file path)))

(* ---------------- Banking: chaos (qcheck) ---------------- *)

(* Under a random §8 fault plan every transaction is still all-or-nothing:
   total balance conserved, completions match commits, no duplicates. *)
let prop_atomic_under_chaos =
  QCheck2.Test.make ~name:"banking atomic under random fault plans" ~count:12
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 4))
    (fun (seed, faults) ->
      let plan =
        Fi.random ~seed ~horizon_ns:3_000_000 ~processors:2 ~count:faults
          ~cpu_faults:0
      in
      let _, _, r =
        Banking.run ~processors:2 ~trace:false ~accounts:4 ~transfers:20
          ~seed ~plan ()
      in
      Banking.atomic r)

(* ---------------- Banking: cluster ---------------- *)

let test_banking_cluster_engines () =
  let go engine =
    let cr =
      Banking.run_cluster ~engine ~accounts:4 ~transfers:16 ~seed:21 ()
    in
    check_exactly_once cr.Banking.res;
    List.map
      (fun i -> K.Snapshot.state_image (Net.Cluster.machine cr.Banking.cluster i))
      [ cr.Banking.bank_node; cr.Banking.audit_node ]
  in
  let seq = go Net.Cluster.Seq in
  let par = go (Net.Cluster.Par 2) in
  Alcotest.(check (list string)) "Seq and Par 2 byte-identical" seq par

(* Chaos on the interconnect: link faults delay or drop frames, ARQ
   retries them, and the transaction invariants still hold. *)
let test_banking_cluster_link_chaos () =
  let link_plan =
    Fi.random_links ~seed:31 ~horizon_ns:8_000_000 ~links:1 ~count:6
      ~partitions:1
  in
  let cr =
    Banking.run_cluster ~accounts:4 ~transfers:16 ~seed:31 ~link_plan ()
  in
  check_exactly_once cr.Banking.res

let rejoin store ~ckpt_ns ~kill_ns ~restart_ns =
  { Ckpt.store; ckpt_ns; kill_ns; restart_ns = Some restart_ns }

(* Kill the bank node mid-stream and rejoin it from its checkpoint: the
   replayed tellers re-commit deterministically, re-issued completion
   frames that had already escaped are dropped by the audit NIC's
   per-tag dedup, and delivery stays exactly-once. *)
let test_banking_kill_rejoin () =
  with_store (fun store ->
      let cr =
        Banking.run_cluster ~accounts:4 ~transfers:24 ~seed:13
          ~rejoin:
            (rejoin store ~ckpt_ns:400_000 ~kill_ns:400_000 ~restart_ns:700_000)
          ()
      in
      let r = cr.Banking.res in
      Alcotest.(check bool) "some transfers committed" true (r.Banking.committed > 0);
      check_exactly_once r;
      (* The rejoin actually happened and the audit node saw the replay's
         re-sent frames as duplicates (NIC-level, so the collector never
         had to dedup). *)
      Alcotest.(check bool) "bank node alive" true
        (Net.Cluster.node_alive cr.Banking.cluster cr.Banking.bank_node))

(* Checkpoint WELL BEFORE the kill: commits from the window between
   checkpoint and kill already delivered their completions to the audit
   node, the rejoin rolls them back and re-commits them, and the audit
   NIC must drop the re-sent frames by transaction tag.  This is the
   configuration that proves the dedup path actually fires (the
   boundary-checkpoint test above never rolls a commit back). *)
let test_banking_rollback_window_dedup () =
  with_store (fun store ->
      with_store (fun history_store ->
          let cr =
            Banking.run_cluster ~accounts:4 ~transfers:24 ~seed:13
              ~rejoin:(Banking.rollback_window store) ~history_store ()
          in
          let r = cr.Banking.res in
          check_exactly_once r;
          Alcotest.(check bool) "NIC dropped re-sent duplicate frames" true
            (Net.Cluster.txn_dup_drops cr.Banking.cluster > 0);
          (* The rolled-back timeline also appended history records; the
             re-executed timeline must overwrite/truncate them so replay
             still lands on the live balances. *)
          Array.iteri
            (fun i bal ->
              let name = Printf.sprintf "acct%d" i in
              let img =
                Option.get (History.replay history_store ~name ~to_ns:max_int)
              in
              Alcotest.(check int32)
                (Printf.sprintf "%s history replays through rollback" name)
                (Int32.of_int bal)
                (Bytes.get_int32_le img 0))
            r.Banking.balances))

(* History survives the kill+rejoin: the replayed bank re-appends
   byte-identical records up to the checkpoint and continues past it, so
   replaying any account from the store reproduces the final live
   balance. *)
let test_banking_kill_rejoin_history () =
  with_store (fun store ->
      with_store (fun history_store ->
          let cr =
            Banking.run_cluster ~accounts:3 ~transfers:18 ~seed:17
              ~rejoin:
                (rejoin store ~ckpt_ns:400_000 ~kill_ns:400_000
                   ~restart_ns:700_000)
              ~history_store ()
          in
          let r = cr.Banking.res in
          check_exactly_once r;
          Array.iteri
            (fun i bal ->
              let name = Printf.sprintf "acct%d" i in
              let img =
                Option.get (History.replay history_store ~name ~to_ns:max_int)
              in
              Alcotest.(check int32)
                (Printf.sprintf "%s history replays to live balance" name)
                (Int32.of_int bal)
                (Bytes.get_int32_le img 0))
            r.Banking.balances))

(* ---------------- Group-commit rules ---------------- *)

(* One Txn_try per group against 1-3 ports and up to two write targets.
   Write targets are allocated first, so w0 < w1 < p0 < p1 < p2 by object
   index.  A case renders as one line: each attempt's outcome (a conflict
   names its object), every port's sends/receives/send blocks/receive
   blocks/max depth, every target's first word, the txn counters
   (commits/conflicts/dup_drops), each process's sent/received/blocks
   counters, the final clock, and the event sequence as kind:name
   (spawns and allocations omitted).  The group runs in process "g" at
   the lowest priority, after every helper process has parked. *)

type gc_env = {
  gm : K.Machine.t;
  ports : I432.Access.t array;
  targets : I432.Access.t array;
  msg : int -> I432.Access.t;
  spawn : string -> int -> (unit -> unit) -> unit;
}

let gc_case ~capacities ~targets ~setup ~groups =
  let m = mk ~trace:true () in
  let targets =
    Array.init targets (fun _ -> K.Machine.allocate_generic m ~data_length:8 ())
  in
  let ports =
    Array.of_list
      (List.map
         (fun capacity ->
           K.Machine.create_port m ~capacity ~discipline:K.Port.Fifo ())
         capacities)
  in
  let msg n =
    let o = K.Machine.allocate_generic m ~data_length:8 () in
    K.Machine.write_word m o ~offset:0 n;
    o
  in
  let spawn name priority body =
    ignore (K.Machine.spawn m ~name ~priority body)
  in
  let env = { gm = m; ports; targets; msg; spawn } in
  setup env;
  let names =
    List.mapi (fun i a -> (I432.Access.index a, Printf.sprintf "w%d" i))
      (Array.to_list targets)
    @ List.mapi (fun i a -> (I432.Access.index a, Printf.sprintf "p%d" i))
        (Array.to_list ports)
  in
  let name idx =
    Option.value (List.assoc_opt idx names) ~default:(string_of_int idx)
  in
  let word a = K.Machine.read_word m a ~offset:0 in
  let outcomes = ref [] in
  let attempts = groups env in
  spawn "g" 1 (fun () ->
      List.iter
        (fun (key, receives, sends, writes) ->
          let line =
            match K.Machine.txn_try m ~key ~receives ~sends ~writes () with
            | K.Syscall.Txn_committed { received; commit_ns; fresh } ->
              Printf.sprintf "committed fresh=%b recv=[%s] at=%d" fresh
                (String.concat "," (List.map (fun a -> string_of_int (word a)) received))
                commit_ns
            | K.Syscall.Txn_conflict { port; reason } ->
              Printf.sprintf "conflict %s %s" (name port) reason
          in
          outcomes := line :: !outcomes)
        attempts);
  let report = K.Machine.run m in
  let port_line i a =
    let s, r, sb, rb, depth, _ = K.Machine.port_stats m a in
    Printf.sprintf "p%d:%d/%d/%d/%d/%d" i s r sb rb depth
  in
  let count = Obs.Metrics.count (K.Machine.metrics m) in
  let procs =
    List.rev_map
      (fun (p : K.Process.t) ->
        Printf.sprintf "%s:%d/%d/%d" p.K.Process.name p.K.Process.messages_sent
          p.K.Process.messages_received p.K.Process.blocks)
      (K.Machine.all_processes m)
  in
  let kinds =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.kind with
        | Obs.Event.Spawn | Obs.Event.Allocate -> None
        | k -> Some (Obs.Event.kind_to_string k ^ ":" ^ e.Obs.Event.name))
      (K.Machine.events m)
  in
  Printf.sprintf "%s | %s | %s | %d/%d/%d | %s | %d | %s"
    (String.concat "; " (List.rev !outcomes))
    (String.concat " " (Array.to_list (Array.mapi port_line ports)))
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i a ->
               let table = K.Machine.table m in
               if
                 I432.Object_table.swapped_out table
                   (I432.Object_table.lookup_access table a)
               then Printf.sprintf "w%d=out" i
               else Printf.sprintf "w%d=%d" i (word a))
             targets)))
    (count "txn.commits") (count "txn.conflicts") (count "txn.dup_drops")
    (String.concat " " procs) report.K.Machine.elapsed_ns
    (String.concat " " kinds)

let group ?(key = 0) ?(receives = []) ?(sends = []) ?(writes = []) () =
  (key, receives, sends, writes)

(* Queue [n] messages at port [i] before the run. *)
let fill e i n =
  for k = 1 to n do
    assert (
      K.Machine.deliver_external e.gm ~port:e.ports.(i)
        ~msg:(e.msg ((10 * (i + 1)) + k))
        ~priority:0 ())
  done

let read_only a = I432.Access.restrict a I432.Rights.read_only
let no_setup _ = ()

(* (name, port capacities, write targets, setup, groups) *)
let gc_cases =
  let key = Txn.key ~origin:1 ~seq:1 in
  [
    ( "commit: receive, write, send",
      [ 1; 1 ], 1,
      (fun e -> fill e 0 1),
      fun e ->
        [
          group ~receives:[ e.ports.(0) ] ~sends:[ (e.ports.(1), e.msg 1) ]
            ~writes:[ (e.targets.(0), 0, 7) ] ();
        ] );
    ("empty", [ 2 ], 0, no_setup, fun e -> [ group ~receives:[ e.ports.(0) ] () ]);
    ( "full",
      [ 1 ], 0,
      (fun e -> fill e 0 1),
      fun e -> [ group ~sends:[ (e.ports.(0), e.msg 1) ] () ] );
    ( "rights",
      [], 1, no_setup,
      fun e -> [ group ~writes:[ (read_only e.targets.(0), 0, 7) ] () ] );
    ( "swapped",
      [], 1,
      (fun e ->
        let table = K.Machine.table e.gm in
        I432.Object_table.set_swapped_out table
          (I432.Object_table.lookup_access table e.targets.(0))
          true),
      fun e -> [ group ~writes:[ (e.targets.(0), 0, 7) ] () ] );
    ( "bounds",
      [], 1, no_setup,
      fun e -> [ group ~writes:[ (e.targets.(0), 6, 7) ] () ] );
    ( "own receive frees room for own send",
      [ 1 ], 0,
      (fun e -> fill e 0 1),
      fun e ->
        [ group ~receives:[ e.ports.(0) ] ~sends:[ (e.ports.(0), e.msg 1) ] () ]
    );
    ( "tie: lowest port index first",
      [ 1; 2 ], 0,
      (fun e -> fill e 0 1),
      fun e ->
        [ group ~receives:[ e.ports.(1) ] ~sends:[ (e.ports.(0), e.msg 1) ] () ]
    );
    ( "tie: ports before write targets",
      [ 2 ], 1, no_setup,
      fun e ->
        [
          group ~writes:[ (read_only e.targets.(0), 0, 7) ]
            ~receives:[ e.ports.(0) ] ();
        ] );
    ( "tie: writes in staging order",
      [], 2, no_setup,
      fun e ->
        [
          group
            ~writes:[ (read_only e.targets.(1), 0, 7); (e.targets.(0), 6, 7) ]
            ();
        ] );
    ( "parked receiver counts as room",
      [ 1 ], 0,
      (fun e ->
        e.spawn "rx" 10 (fun () -> ignore (K.Machine.receive e.gm ~port:e.ports.(0)))),
      fun e ->
        [ group ~sends:[ (e.ports.(0), e.msg 1); (e.ports.(0), e.msg 2) ] () ]
    );
    ( "parked receiver, one send too many",
      [ 1 ], 0,
      (fun e ->
        e.spawn "rx" 10 (fun () -> ignore (K.Machine.receive e.gm ~port:e.ports.(0)))),
      fun e ->
        [
          group
            ~sends:
              [
                (e.ports.(0), e.msg 1);
                (e.ports.(0), e.msg 2);
                (e.ports.(0), e.msg 3);
              ]
            ();
        ] );
    (* Senders park at p2, p1, p0 in that order; the group's receives free
       all three slots, its send claims p1's, and the parked senders of p0
       and p2 are admitted in ascending port order. *)
    ( "parked senders admitted in port order, after own sends",
      [ 1; 1; 1 ], 0,
      (fun e ->
        for i = 0 to 2 do
          fill e i 1
        done;
        for i = 2 downto 0 do
          e.spawn (Printf.sprintf "s%d" i) (8 + i) (fun () ->
              K.Machine.send e.gm ~port:e.ports.(i) ~msg:(e.msg (100 + i)))
        done),
      fun e ->
        [
          group
            ~receives:[ e.ports.(2); e.ports.(1); e.ports.(0) ]
            ~sends:[ (e.ports.(1), e.msg 1) ]
            ();
        ] );
    ( "repeated key",
      [ 2; 4 ], 1,
      (fun e -> fill e 0 2),
      fun e ->
        [
          group ~key ~receives:[ e.ports.(0) ] ~sends:[ (e.ports.(1), e.msg 1) ]
            ~writes:[ (e.targets.(0), 0, 7) ] ();
          group ~key ~receives:[ e.ports.(0) ] ~sends:[ (e.ports.(1), e.msg 2) ]
            ~writes:[ (e.targets.(0), 0, 9) ] ();
        ] );
    ( "repeated key, full port: re-offered send dropped",
      [ 1 ], 0, no_setup,
      fun e ->
        [
          group ~key ~sends:[ (e.ports.(0), e.msg 1) ] ();
          group ~key ~sends:[ (e.ports.(0), e.msg 2) ] ();
        ] );
  ]

let gc_expected =
  [
    ("commit: receive, write, send",
     "committed fresh=true recv=[11] at=46625 | p0:1/1/0/0/1 p1:1/0/0/0/1 | w0=7 | 1/0/0 | g:1/1/0 | 47125 | ready:g dispatch:g receive:g send:g txn-commit:g finish:g");
    ("empty",
     "conflict p0 empty | p0:0/0/0/0/0 |  | 0/1/0 | g:0/0/0 | 34000 | ready:g dispatch:g finish:g");
    ("full",
     "conflict p0 full | p0:1/0/0/0/1 |  | 0/1/0 | g:0/0/0 | 34000 | ready:g dispatch:g finish:g");
    ("rights",
     "conflict w0 rights |  | w0=0 | 0/1/0 | g:0/0/0 | 22625 | ready:g dispatch:g finish:g");
    ("swapped",
     "conflict w0 swapped |  | w0=out | 0/1/0 | g:0/0/0 | 22625 | ready:g dispatch:g finish:g");
    ("bounds",
     "conflict w0 bounds |  | w0=0 | 0/1/0 | g:0/0/0 | 22625 | ready:g dispatch:g finish:g");
    ("own receive frees room for own send",
     "committed fresh=true recv=[11] at=46000 | p0:2/1/0/0/1 |  | 1/0/0 | g:1/1/0 | 46500 | ready:g dispatch:g receive:g send:g txn-commit:g finish:g");
    ("tie: lowest port index first",
     "conflict p0 full | p0:1/0/0/0/1 p1:0/0/0/0/0 |  | 0/1/0 | g:0/0/0 | 46000 | ready:g dispatch:g finish:g");
    ("tie: ports before write targets",
     "conflict p0 empty | p0:0/0/0/0/0 | w0=0 | 0/1/0 | g:0/0/0 | 34625 | ready:g dispatch:g finish:g");
    ("tie: writes in staging order",
     "conflict w1 rights |  | w0=0 w1=0 | 0/1/0 | g:0/0/0 | 23250 | ready:g dispatch:g finish:g");
    ("parked receiver counts as room",
     "committed fresh=true recv=[] at=96000 | p0:2/1/0/1/1 |  | 1/0/0 | rx:0/1/1 g:2/0/0 | 118000 | ready:rx ready:g dispatch:rx block-receive:rx dispatch:g send:g receive:rx ready:rx send:g txn-commit:g finish:g dispatch:rx finish:rx");
    ("parked receiver, one send too many",
     "conflict p0 full | p0:0/0/0/1/0 |  | 0/1/0 | rx:0/0/1 g:0/0/0 | 108000 | ready:rx ready:g dispatch:rx block-receive:rx dispatch:g finish:g");
    ("parked senders admitted in port order, after own sends",
     "committed fresh=true recv=[31,21,11] at=461875 | p0:2/1/1/0/1 p1:3/1/1/0/1 p2:2/1/1/0/1 |  | 1/0/0 | s2:1/0/1 s1:1/0/1 s0:1/0/1 g:1/3/0 | 507375 | ready:s2 ready:s1 ready:s0 ready:g dispatch:s2 send:s2 block-send:s2 dispatch:s1 send:s1 block-send:s1 dispatch:s0 send:s0 block-send:s0 dispatch:g receive:g receive:g receive:g send:g ready:s0 ready:s2 txn-commit:g finish:g dispatch:s2 finish:s2 dispatch:s0 finish:s0");
    ("repeated key",
     "committed fresh=true recv=[11] at=46625; committed fresh=false recv=[] at=71750 | p0:2/1/0/0/2 p1:2/0/0/0/2 | w0=7 | 1/0/1 | g:2/1/0 | 71750 | ready:g dispatch:g receive:g send:g txn-commit:g send:g txn-dup-drop:g finish:g");
    ("repeated key, full port: re-offered send dropped",
     "committed fresh=true recv=[] at=34000; committed fresh=false recv=[] at=46000 | p0:1/0/0/0/1 |  | 1/0/1 | g:1/0/0 | 46000 | ready:g dispatch:g send:g txn-commit:g txn-dup-drop:g finish:g");
  ]

let test_group_commit_rules () =
  let bad =
    List.filter_map
      (fun (name, capacities, targets, setup, groups) ->
        let got = gc_case ~capacities ~targets ~setup ~groups in
        match List.assoc_opt name gc_expected with
        | Some want when want = got -> None
        | Some _ | None -> Some (Printf.sprintf "    (%S,\n     %S);" name got))
      gc_cases
  in
  if bad <> [] then
    Alcotest.failf "group-commit cases differ:\n%s" (String.concat "\n" bad)

(* ---------------- Group commit against the reference model ---------------- *)

(* [Ref_kernel.group_commit] against [Machine.txn_try]: 1-4 FIFO ports of
   capacity 1-3 holding queued messages, parked receivers or parked
   senders; 0-3 write targets with random write rights and residency; and
   1-4 groups of 0-3 receives, 0-4 sends and 0-3 writes, half of them
   keyed with one of two keys, so some repeat a key. *)
let ref_case_gen =
  let open QCheck2.Gen in
  let port =
    let* cap = int_range 1 3 in
    int_range 0 3 >>= function
    | 0 ->
      map (fun rx -> { Ref_kernel.cap; fill = 0; rx; tx = 0 }) (int_range 1 2)
    | 1 ->
      map (fun tx -> { Ref_kernel.cap; fill = cap; rx = 0; tx }) (int_range 1 2)
    | _ ->
      map (fun fill -> { Ref_kernel.cap; fill; rx = 0; tx = 0 }) (int_range 0 cap)
  in
  let target =
    map2
      (fun w s -> { Ref_kernel.writable = w > 0; swapped = s = 0 })
      (int_range 0 4) (int_range 0 4)
  in
  let* ports = list_size (int_range 1 4) port in
  let* targets = list_size (int_range 0 3) target in
  let np = List.length ports and nt = List.length targets in
  let group =
    let* key =
      map
        (function 0 -> 0 | seq -> Txn.key ~origin:1 ~seq)
        (oneofl [ 0; 0; 1; 2 ])
    in
    let* recv = list_size (int_range 0 3) (int_range 0 (np - 1)) in
    let* send = list_size (int_range 0 4) (int_range 0 (np - 1)) in
    let+ write =
      if nt = 0 then return []
      else
        list_size (int_range 0 3)
          (triple (int_range 0 (nt - 1))
             (oneofl [ 0; 0; 4; 4; 5; 8; -1 ])
             (int_range 1 99))
    in
    { Ref_kernel.key; recv; send; write }
  in
  let+ groups = list_size (int_range 1 4) group in
  { Ref_kernel.ports; targets; groups }

let ref_case_print (c : Ref_kernel.case) =
  let ints l = String.concat "," (List.map string_of_int l) in
  String.concat "\n"
    (List.mapi
       (fun i (p : Ref_kernel.port) ->
         Printf.sprintf "p%d cap=%d fill=%d rx=%d tx=%d" i p.cap p.fill p.rx
           p.tx)
       c.ports
    @ List.mapi
        (fun i (t : Ref_kernel.target) ->
          Printf.sprintf "w%d writable=%b swapped=%b" i t.writable t.swapped)
        c.targets
    @ List.map
        (fun (g : Ref_kernel.group) ->
          Printf.sprintf "group key=%d recv=[%s] send=[%s] write=[%s]" g.key
            (ints g.recv) (ints g.send)
            (String.concat ";"
               (List.map
                  (fun (t, off, w) -> Printf.sprintf "w%d@%d:=%d" t off w)
                  g.write)))
        c.groups)

(* The case on a traced one-GDP machine.  The helpers park first, in port
   order, at priorities above the group's process "g"; events are read
   from g's first dispatch on, keeping the kinds a commit emits (a
   preempted "g" re-readying itself is not one of them). *)
let machine_view (c : Ref_kernel.case) =
  let m = mk ~trace:true () in
  let table = K.Machine.table m in
  let targets =
    Array.of_list
      (List.map
         (fun (t : Ref_kernel.target) ->
           let a = K.Machine.allocate_generic m ~data_length:8 () in
           if t.swapped then
             I432.Object_table.set_swapped_out table
               (I432.Object_table.lookup_access table a)
               true;
           if t.writable then a else read_only a)
         c.targets)
  in
  let ports =
    Array.of_list
      (List.map
         (fun (p : Ref_kernel.port) ->
           K.Machine.create_port m ~capacity:p.cap ~discipline:K.Port.Fifo ())
         c.ports)
  in
  let msg n =
    let o = K.Machine.allocate_generic m ~data_length:8 () in
    K.Machine.write_word m o ~offset:0 n;
    o
  in
  let priority = ref 100 in
  let spawn name body =
    decr priority;
    ignore (K.Machine.spawn m ~name ~priority:!priority body)
  in
  List.iteri
    (fun i (p : Ref_kernel.port) ->
      let port = ports.(i) in
      for k = 1 to p.fill do
        assert (
          K.Machine.deliver_external m ~port ~msg:(msg (Ref_kernel.fill_msg i k))
            ~priority:0 ())
      done;
      for k = 1 to p.rx do
        spawn (Ref_kernel.receiver_name i k) (fun () ->
            ignore (K.Machine.receive m ~port))
      done;
      for k = 1 to p.tx do
        let msg = msg (Ref_kernel.sender_msg i k) in
        spawn (Ref_kernel.sender_name i k) (fun () -> K.Machine.send m ~port ~msg)
      done)
    c.ports;
  let groups =
    List.mapi
      (fun gi (g : Ref_kernel.group) ->
        ( g.key,
          List.map (fun i -> ports.(i)) g.recv,
          List.mapi
            (fun j i -> (ports.(i), msg (Ref_kernel.send_msg gi j)))
            g.send,
          List.map (fun (t, off, w) -> (targets.(t), off, w)) g.write ))
      c.groups
  in
  let names =
    List.mapi (fun i a -> (I432.Access.index a, Printf.sprintf "p%d" i))
      (Array.to_list ports)
    @ List.mapi (fun i a -> (I432.Access.index a, Printf.sprintf "w%d" i))
        (Array.to_list targets)
  in
  let word a off = K.Machine.read_word m a ~offset:off in
  let outcomes = ref [] in
  ignore
    (K.Machine.spawn m ~name:"g" ~priority:1 (fun () ->
         List.iter
           (fun (key, receives, sends, writes) ->
             let line =
               match K.Machine.txn_try m ~key ~receives ~sends ~writes () with
               | K.Syscall.Txn_committed { received; fresh; _ } ->
                 Ref_kernel.committed ~fresh
                   (List.map (fun a -> word a 0) received)
               | K.Syscall.Txn_conflict { port; reason } ->
                 Printf.sprintf "conflict %s %s" (List.assoc port names) reason
             in
             outcomes := line :: !outcomes)
           groups));
  ignore (K.Machine.run m);
  let rec from_g = function
    | [] -> []
    | (e : Obs.Event.t) :: rest ->
      if e.Obs.Event.kind = Obs.Event.Dispatch && e.Obs.Event.name = "g" then
        rest
      else from_g rest
  in
  let events =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.kind with
        | Obs.Event.Send | Obs.Event.Receive | Obs.Event.Txn_commit
        | Obs.Event.Txn_dup_drop ->
          Some (Obs.Event.kind_to_string e.Obs.Event.kind ^ ":" ^ e.Obs.Event.name)
        | Obs.Event.Ready when e.Obs.Event.name <> "g" ->
          Some ("ready:" ^ e.Obs.Event.name)
        | _ -> None)
      (from_g (K.Machine.events m))
  in
  {
    Ref_kernel.outcomes = List.rev !outcomes;
    port_lines =
      List.mapi
        (fun i port ->
          let s, r, sb, rb, d, _ = K.Machine.port_stats m port in
          Ref_kernel.port_line i (s, r, sb, rb, d)
            (List.map
               (fun (a, _, _, tag) -> (word a 0, tag))
               (K.Machine.drain_port m ~port ())))
        (Array.to_list ports);
    words =
      List.mapi
        (fun i (t : Ref_kernel.target) ->
          if t.swapped then Ref_kernel.word_line i t 0 0
          else Ref_kernel.word_line i t (word targets.(i) 0) (word targets.(i) 4))
        c.targets;
    events;
  }

let prop_group_commit_model =
  QCheck2.Test.make ~name:"txn: group commit matches the reference model"
    ~count:300 ~print:ref_case_print ref_case_gen (fun c ->
      let want = Ref_kernel.group_commit c and got = machine_view c in
      let same what (w : string list) g =
        if w <> g then
          QCheck2.Test.fail_reportf "%s differ:\nmodel:   %s\nmachine: %s" what
            (String.concat " | " w) (String.concat " | " g)
      in
      same "outcomes" want.Ref_kernel.outcomes got.Ref_kernel.outcomes;
      same "ports" want.Ref_kernel.port_lines got.Ref_kernel.port_lines;
      same "words" want.Ref_kernel.words got.Ref_kernel.words;
      same "events" want.Ref_kernel.events got.Ref_kernel.events;
      true)

let suite =
  [
    Alcotest.test_case "txn: all-or-nothing" `Quick test_all_or_nothing;
    Alcotest.test_case "txn: duplicate key is idempotent" `Quick
      test_duplicate_key;
    Alcotest.test_case "banking: conserves and completes exactly once" `Quick
      test_banking_conserves;
    Alcotest.test_case "banking: same seed, same bytes" `Quick
      test_banking_deterministic;
    Alcotest.test_case "history: replay reproduces live state" `Quick
      test_history_replay;
    Alcotest.test_case "history: opt-in leaves the store untouched" `Quick
      test_history_opt_in;
    QCheck_alcotest.to_alcotest prop_history_bytes;
    Alcotest.test_case "history: cluster blobs canonical, Seq = Par 2" `Quick
      test_history_cluster_engines;
    Alcotest.test_case "history: malformed records fail one way" `Quick
      test_history_malformed;
    Alcotest.test_case "history: extreme records = Printf" `Quick
      test_history_extreme_records;
    Alcotest.test_case "history: successors tombstoned over a stale tail"
      `Quick test_history_stale_tail;
    Alcotest.test_case "history: banking journal bytes pinned" `Quick
      test_history_journal_pinned;
    QCheck_alcotest.to_alcotest prop_atomic_under_chaos;
    Alcotest.test_case "banking cluster: Seq = Par 2" `Quick
      test_banking_cluster_engines;
    Alcotest.test_case "banking cluster: link chaos" `Quick
      test_banking_cluster_link_chaos;
    Alcotest.test_case "banking cluster: kill + rejoin is exactly-once" `Quick
      test_banking_kill_rejoin;
    Alcotest.test_case "banking cluster: rollback window exercises NIC dedup"
      `Quick test_banking_rollback_window_dedup;
    Alcotest.test_case "banking cluster: history survives rejoin" `Quick
      test_banking_kill_rejoin_history;
    Alcotest.test_case "txn: group-commit rules" `Quick
      test_group_commit_rules;
    QCheck_alcotest.to_alcotest prop_group_commit_model;
  ]
