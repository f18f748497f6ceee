(* The banking macro scenario (DESIGN.md §15.4, EXPERIMENTS.md).

   N accounts, each a 32-bit balance segment guarded by a capacity-1
   token port; a seeded mix of transfers, each executed as two
   transaction groups:

     txn1 (unkeyed)  atomically receive BOTH account tokens — all or
                     nothing, so two transfers contending for
                     overlapping accounts can never deadlock; retry
                     exhaustion aborts the transfer loudly.
     txn2 (keyed)    atomically write both balances, return both
                     tokens, and send a completion message — guarded by
                     an idempotency key, so a duplicate commit (e.g. a
                     checkpoint replay after a node kill) re-issues the
                     sends without touching balances, and the cluster's
                     per-tag dedup drops any completion frame that
                     already escaped.  If txn2 itself aborts, the
                     compensation hook returns the held tokens.

   Every caller checks a settled run with [violations] and, when it
   tracks history, [History.diverged]. *)

open I432
open I432_util
module K = I432_kernel
module Net = I432_net
module Obs = I432_obs
module Fi = I432_fi.Fi
module St = I432_store
module Int_tbl = Hashtbl.Make (Int)

let initial_balance = 1_000

type account = {
  a_bal : Access.t;  (* 8-byte segment, balance word at offset 0 *)
  a_port : Access.t;  (* capacity-1 token port *)
  a_token : Access.t;  (* the token message priming the port *)
}

type result = {
  transfers : int;  (* requested *)
  committed : int;  (* distinct keyed commits (kernel txn_applied) *)
  aborted : int;  (* acquire gave up after retry exhaustion *)
  completions : int;  (* distinct completion keys at the collector *)
  dup_completions : int;  (* duplicates the collector deduped *)
  latencies : int list;  (* request-to-completion ns, arrival order *)
  initial_total : int;
  final_total : int;
  balances : int array;
}

let conserved r = r.final_total = r.initial_total

let atomic r =
  conserved r && r.completions = r.committed && r.dup_completions = 0

let violations r =
  List.filter_map
    (fun (holds, what) -> if holds then None else Some what)
    [
      ( conserved r,
        Printf.sprintf "balance NOT conserved (%d != %d)" r.final_total
          r.initial_total );
      ( r.completions = r.committed,
        Printf.sprintf "%d commits but %d completions — not exactly-once"
          r.committed r.completions );
      ( r.dup_completions = 0,
        Printf.sprintf "%d duplicate completions reached the auditor"
          r.dup_completions );
      ( r.committed + r.aborted = r.transfers,
        Printf.sprintf "%d commits and %d aborts for %d transfers" r.committed
          r.aborted r.transfers );
    ]

let result_to_string r =
  Printf.sprintf
    "transfers=%d committed=%d aborted=%d completions=%d dups=%d total=%d/%d%s"
    r.transfers r.committed r.aborted r.completions r.dup_completions
    r.final_total r.initial_total
    (if conserved r then "" else " VIOLATED")

(* Shared collector state: raw (note, arrival) pairs, newest first.  The
   auditor records with pure OCaml mutation only — no charged instruction
   between the receive and the record — so an armed transient fault can
   kill it between notes but never lose one it consumed.  Parsing happens
   after the run, outside the loop. *)
type collector = { mutable notes : (Access.t * int option) list }

(* One worker's share of the transfer mix.  [done_port] may be a home
   port or a cluster surrogate; the transaction machinery is identical. *)
let worker machine ~accts ~done_port ~origin ~seed ~count ~pace_ns ?history ()
    =
  let rng = Prng.create ~seed:(seed + (origin * 7919)) in
  let n = Array.length accts in
  for t = 0 to count - 1 do
    let src = Prng.int rng n in
    let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
    let a, b = (accts.(src), accts.(dst)) in
    let start_ns = K.Machine.now machine in
    let acquire = Txn.group () in
    Txn.receive acquire a.a_port;
    Txn.receive acquire b.a_port;
    (match Txn.commit machine ~retries:10 ~backoff_ns:2_000 acquire with
    | Txn.Aborted _ -> ()  (* nothing held: all-or-nothing acquire *)
    | Txn.Committed { received; _ } ->
      let tok_a, tok_b =
        match received with [ x; y ] -> (x, y) | _ -> assert false
      in
      let bal_a = K.Machine.read_word machine a.a_bal ~offset:0 in
      let bal_b = K.Machine.read_word machine b.a_bal ~offset:0 in
      let amt = if bal_a <= 0 then 0 else 1 + Prng.int rng (min 100 bal_a) in
      let key = Txn.key ~origin ~seq:t in
      let note = K.Machine.allocate_generic machine ~data_length:8 () in
      K.Machine.write_word machine note ~offset:0 key;
      K.Machine.write_word machine note ~offset:4 start_ns;
      let g = Txn.group () in
      Txn.write g a.a_bal ~offset:0 ~word:(bal_a - amt);
      Txn.write g b.a_bal ~offset:0 ~word:(bal_b + amt);
      Txn.send g ~port:a.a_port ~msg:tok_a;
      Txn.send g ~port:b.a_port ~msg:tok_b;
      Txn.send g ~port:done_port ~msg:note;
      let compensate () =
        (* Undo the acquire so an aborted transfer never wedges the
           accounts: tokens go back, balances were never touched. *)
        ignore (K.Machine.cond_send machine ~port:a.a_port ~msg:tok_a);
        ignore (K.Machine.cond_send machine ~port:b.a_port ~msg:tok_b)
      in
      ignore
        (Txn.commit machine ~key ~retries:20 ~backoff_ns:4_000 ~compensate
           ?history g));
    if pace_ns > 0 then K.Machine.delay machine ~ns:pace_ns
  done

(* Receive completions until the stream stays quiet. *)
let collect machine ~done_port ~quiet_ns c =
  let quiet = ref 0 in
  while !quiet < 3 do
    match K.Machine.receive_timeout machine ~port:done_port ~timeout_ns:quiet_ns with
    | None -> incr quiet
    | Some note ->
      quiet := 0;
      c.notes <- (note, Some (K.Machine.now machine)) :: c.notes
  done

(* The run's [result]: completions from [audit]'s [done_port], the rest
   from [bank].  Chaos (a transient or CPU fault) can kill the auditor
   process itself; notes still queued at quiescence were nonetheless
   delivered exactly once, so they count too (with no latency sample). *)
let gather ~transfers ~bank ~audit ~done_port c ~accts =
  let seen = Int_tbl.create 64 in
  let dups = ref 0 in
  let lats = ref [] in
  let one note arrival =
    let key = K.Machine.read_word audit note ~offset:0 in
    if Int_tbl.mem seen key then incr dups
    else begin
      Int_tbl.replace seen key ();
      match arrival with
      | None -> ()
      | Some at ->
        lats := (at - K.Machine.read_word audit note ~offset:4) :: !lats
    end
  in
  List.iter (fun (note, at) -> one note at) (List.rev c.notes);
  List.iter
    (fun (note, _, _, _) -> one note None)
    (K.Machine.drain_port audit ~port:done_port ());
  let balances =
    Array.map (fun a -> K.Machine.read_word bank a.a_bal ~offset:0) accts
  in
  {
    transfers;
    committed = K.Machine.txn_applied_count bank;
    aborted = Obs.Metrics.count (K.Machine.metrics bank) "txn.aborts";
    completions = Int_tbl.length seen;
    dup_completions = !dups;
    latencies = List.rev !lats;
    initial_total = Array.length accts * initial_balance;
    final_total = Array.fold_left ( + ) 0 balances;
    balances;
  }

let split_transfers ~transfers ~workers w =
  (transfers / workers) + (if w < transfers mod workers then 1 else 0)

(* The completion port holds every completion at once; the cluster's
   audit node leaves room for re-sent ones. *)
let completion_capacity ~cluster ~transfers =
  (if cluster then 2 * transfers else transfers) + 8

let max_transfers ~cluster =
  (K.Machine.max_port_capacity - 8) / if cluster then 2 else 1

(* The bank side of a run, in one allocation and spawn order: each
   account's balance, token port and primed token; history tracking; the
   completion port [done_port ()] returns; then one teller per worker. *)
let boot_bank machine ~workers ~pace_ns ?history_store ~done_port ~accounts
    ~transfers ~seed () =
  let accts =
    Array.init accounts (fun _ ->
        let a_bal = K.Machine.allocate_generic machine ~data_length:8 () in
        K.Machine.write_word machine a_bal ~offset:0 initial_balance;
        let a_port =
          K.Machine.create_port machine ~capacity:1 ~discipline:K.Port.Fifo ()
        in
        let a_token = K.Machine.allocate_generic machine ~data_length:8 () in
        let primed =
          K.Machine.deliver_external machine ~port:a_port ~msg:a_token
            ~priority:0 ()
        in
        assert primed;
        { a_bal; a_port; a_token })
  in
  let history = Option.map (fun s -> History.create s machine) history_store in
  Option.iter
    (fun h ->
      Array.iteri
        (fun i a -> History.track h ~name:(Printf.sprintf "acct%d" i) a.a_bal)
        accts)
    history;
  let done_port = done_port () in
  for w = 0 to workers - 1 do
    let count = split_transfers ~transfers ~workers w in
    ignore
      (K.Machine.spawn machine
         ~name:(Printf.sprintf "teller%d" w)
         (fun () ->
           worker machine ~accts ~done_port ~origin:w ~seed ~count ~pace_ns
             ?history ()))
  done;
  (accts, history, done_port)

(* ---------------- Single machine ---------------- *)

let run ?(processors = 2) ?(workers = 4) ?(pace_ns = 5_000) ?(trace = true)
    ?history_store ?plan ~accounts ~transfers ~seed () =
  let machine =
    K.Machine.create
      ~config:
        {
          K.Machine.default_config with
          processors;
          trace_level = (if trace then Obs.Tracer.Events else Obs.Tracer.Off);
        }
      ()
  in
  let accts, history, done_port =
    boot_bank machine ~workers ~pace_ns ?history_store ~accounts ~transfers
      ~seed ()
      ~done_port:(fun () ->
        K.Machine.create_port machine
          ~capacity:(completion_capacity ~cluster:false ~transfers)
          ~discipline:K.Port.Fifo ())
  in
  let c = { notes = [] } in
  ignore
    (K.Machine.spawn machine ~name:"auditor" (fun () ->
         collect machine ~done_port ~quiet_ns:500_000 c));
  (match plan with Some p -> Fi.arm machine p | None -> ());
  ignore (K.Machine.run machine);
  ( machine,
    history,
    gather ~transfers ~bank:machine ~audit:machine ~done_port c ~accts )

(* ---------------- Two-node cluster ---------------- *)

(* Node 0 ("bank") hosts the accounts and tellers; node 1 ("audit")
   hosts the collector behind an exported "done" port, so every
   completion crosses the interconnect carrying its per-send idempotency
   tag.  A kill+rejoin of the bank node rolls uncommitted work back to
   the checkpoint; the replayed tellers re-commit deterministically and
   the audit NIC's tag dedup drops any completion frame that had already
   escaped — the exactly-once seam this scenario exists to prove. *)

type cluster_run = {
  cluster : Net.Cluster.t;
  bank_node : int;
  audit_node : int;
  report : Net.Cluster.report;
  res : result;
}

let run_cluster ?(processors = 1) ?(workers = 4) ?(pace_ns = 20_000)
    ?(quantum_ns = 50_000) ?(engine = Net.Cluster.Seq) ?rejoin ?history_store
    ?link_plan ~accounts ~transfers ~seed () =
  let boot () =
    let cluster = Net.Cluster.create () in
    let config =
      {
        K.Machine.default_config with
        processors;
        trace_level = Obs.Tracer.Events;
      }
    in
    let bank_id, bank = Net.Cluster.boot_node cluster ~name:"bank" ~config () in
    let audit_id, audit =
      Net.Cluster.boot_node cluster ~name:"audit" ~config ()
    in
    ignore (Net.Cluster.connect cluster bank_id audit_id);
    let done_home =
      K.Machine.create_port audit
        ~capacity:(completion_capacity ~cluster:true ~transfers)
        ~discipline:K.Port.Fifo ()
    in
    Net.Cluster.export cluster ~node:audit_id ~name:"done" done_home;
    let done_port = Net.Cluster.import cluster ~node:bank_id ~name:"done" in
    let accts, _, _ =
      boot_bank bank ~workers ~pace_ns ?history_store ~accounts ~transfers
        ~seed ()
        ~done_port:(fun () -> done_port)
    in
    let c = { notes = [] } in
    ignore
      (K.Machine.spawn audit ~name:"auditor" (fun () ->
           collect audit ~done_port:done_home ~quiet_ns:2_000_000 c));
    (match link_plan with Some p -> Net.Cluster.arm_links cluster p | None -> ());
    (cluster, bank_id, audit_id, accts, c, done_home)
  in
  let cluster, bank_id, audit_id, accts, c, done_home = boot () in
  Option.iter
    (fun r ->
      ignore
        (St.Checkpoint.stage_rejoin r ~key:"banking" ~node:bank_id ~seed
           ~engine ~quantum_ns
           ~boot:(fun () ->
             let cl, _, _, _, _, _ = boot () in
             cl)
           cluster))
    rejoin;
  let report = Net.Cluster.run cluster ~engine ~quantum_ns () in
  (* Re-fetch: a killed bank node's machine was replaced by the replay. *)
  let res =
    gather ~transfers ~bank:(Net.Cluster.machine cluster bank_id)
      ~audit:(Net.Cluster.machine cluster audit_id) ~done_port:done_home c
      ~accts
  in
  { cluster; bank_node = bank_id; audit_node = audit_id; report; res }

let rollback_window store =
  St.Checkpoint.
    { store; ckpt_ns = 200_000; kill_ns = 600_000; restart_ns = Some 900_000 }
