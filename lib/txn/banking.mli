(** The banking macro scenario (DESIGN.md §15.4): N accounts, each a
    balance segment guarded by a capacity-1 token port, driven by a
    seeded transfer mix where every transfer is an atomic two-token
    acquire (txn1, unkeyed — all-or-nothing, so no deadlock) followed by
    a keyed commit (txn2) that writes both balances, returns both
    tokens, and sends a completion.  Callers check: total balance
    conserved, every non-aborted transfer completed exactly once, and
    tracked-account history replays to the live balance. *)

open I432
module K := I432_kernel
module Net := I432_net
module Fi := I432_fi.Fi
module St := I432_store

val initial_balance : int

type account = private {
  a_bal : Access.t;
  a_port : Access.t;
  a_token : Access.t;
}

type result = {
  transfers : int;  (** requested *)
  committed : int;  (** distinct keyed commits (kernel [txn_applied]) *)
  aborted : int;  (** acquire gave up after retry exhaustion *)
  completions : int;  (** distinct completion keys at the collector *)
  dup_completions : int;  (** duplicates the collector deduped *)
  latencies : int list;  (** request-to-completion ns, arrival order *)
  initial_total : int;
  final_total : int;
  balances : int array;
}

(** Total balance equals the initial total. *)
val conserved : result -> bool

(** Conserved, and every commit completed exactly once: the atomicity a
    run keeps even when a fault kills tellers mid-mix. *)
val atomic : result -> bool

(** The settled-run verdict, one line per broken rule: conserved, every
    commit completed once, every transfer committed or aborted. *)
val violations : result -> string list

val result_to_string : result -> string

(** The most transfers a run takes: every completion must fit the
    completion port at once ({!K.Machine.max_port_capacity}), and the
    cluster variant sizes its port for twice the transfers. *)
val max_transfers : cluster:bool -> int

(** Single-machine sweep.  [history_store] tracks every account's
    balance under [acct<i>]; [plan] arms a §8 fault plan before the
    run. *)
val run :
  ?processors:int ->
  ?workers:int ->
  ?pace_ns:int ->
  ?trace:bool ->
  ?history_store:St.Store.t ->
  ?plan:Fi.plan ->
  accounts:int ->
  transfers:int ->
  seed:int ->
  unit ->
  K.Machine.t * History.t option * result

type cluster_run = {
  cluster : Net.Cluster.t;
  bank_node : int;
  audit_node : int;
  report : Net.Cluster.report;
  res : result;
}

(** Two-node variant: node "bank" hosts accounts and tellers, node
    "audit" hosts the collector behind an exported port, so every
    completion crosses the interconnect carrying its per-send
    idempotency tag.  [rejoin] kills the bank node and rejoins it by
    checkpoint replay through {!I432_store.Checkpoint.stage_rejoin}
    (key ["banking"], plan seed [seed]).  Commits between the checkpoint
    and the kill roll back and re-commit after the restart: their groups
    re-issue their completion sends, and the audit NIC's tag dedup drops
    any frame that already escaped, keeping delivery exactly-once.  Set
    [ckpt_ns] well below [kill_ns] to guarantee escaped frames exist to
    drop. *)
val run_cluster :
  ?processors:int ->
  ?workers:int ->
  ?pace_ns:int ->
  ?quantum_ns:int ->
  ?engine:Net.Cluster.engine ->
  ?rejoin:St.Checkpoint.rejoin ->
  ?history_store:St.Store.t ->
  ?link_plan:Fi.link_plan ->
  accounts:int ->
  transfers:int ->
  seed:int ->
  unit ->
  cluster_run

(** The rejoin that rolls commits back, checkpointing into the store:
    checkpoint at 200 us, kill at 600 us, restart at 900 us.  Commits in
    that window re-send completions the audit NIC must drop. *)
val rollback_window : St.Store.t -> St.Checkpoint.rejoin
