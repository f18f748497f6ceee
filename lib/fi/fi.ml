(* Deterministic fault injection plans (DESIGN.md §8).

   A plan is data: a seed plus (virtual-time instant, injection) pairs.
   Generation uses only the machine's own Prng, and arming only schedules
   through Machine.schedule_injection, whose firing point in the run loop
   is a deterministic function of virtual time — so a chaos run is
   replayable bit-for-bit from (config, workload, seed). *)

open I432
open I432_util
module K = I432_kernel

type event = { at_ns : int; inj : K.Machine.injection }
type plan = { seed : int; events : event list }

let random ~seed ~horizon_ns ~processors ~count ~cpu_faults =
  if processors < 1 then invalid_arg "Fi.random: processors";
  if horizon_ns < 10 then invalid_arg "Fi.random: horizon_ns";
  if count < 0 || cpu_faults < 0 then invalid_arg "Fi.random: counts";
  let rng = Prng.create ~seed in
  (* Keep the first tenth of the horizon quiet so the workload exists
     before the first fault lands. *)
  let lo = horizon_ns / 10 in
  let instant () = lo + Prng.int rng (horizon_ns - lo) in
  (* Hard faults hit distinct processors and spare at least one, so the
     machine can always degrade to N-1 rather than dying. *)
  let faults = min cpu_faults (processors - 1) in
  let ids = Array.init processors (fun i -> i) in
  Prng.shuffle rng ids;
  let events = ref [] in
  for i = 0 to faults - 1 do
    events :=
      { at_ns = instant (); inj = K.Machine.Inj_cpu_fault ids.(i) } :: !events
  done;
  for _ = 1 to count do
    let inj =
      match Prng.int rng 3 with
      | 0 -> K.Machine.Inj_transient (Prng.int rng processors)
      | 1 -> K.Machine.Inj_alloc_fault (1 + Prng.int rng 3)
      | _ -> K.Machine.Inj_port_delay (1_000 * (1 + Prng.int rng 500))
    in
    events := { at_ns = instant (); inj } :: !events
  done;
  let events =
    List.stable_sort (fun a b -> compare a.at_ns b.at_ns) (List.rev !events)
  in
  { seed; events }

(* Link faults: the same plan-is-data discipline, aimed at the virtual
   interconnect (lib/net).  Fi stays net-agnostic — a link plan is pure
   data; I432_net.Cluster.arm_links interprets it at transmit time, so a
   faulted run replays bit-for-bit from (topology, workload, seed). *)

type link_act =
  | L_drop of int  (* lose the next n frames crossing the link *)
  | L_dup of int  (* deliver the next n frames twice *)
  | L_reorder of int  (* hold back the next n frames one extra hop each *)
  | L_partition of int  (* sever the link for this many virtual ns *)

type link_event = { l_at_ns : int; l_link : int; l_act : link_act }
type link_plan = { l_seed : int; l_events : link_event list }

let random_links ~seed ~horizon_ns ~links ~count ~partitions =
  if links < 1 then invalid_arg "Fi.random_links: links";
  if horizon_ns < 10 then invalid_arg "Fi.random_links: horizon_ns";
  if count < 0 || partitions < 0 then invalid_arg "Fi.random_links: counts";
  let rng = Prng.create ~seed in
  (* Same quiet first tenth as [random]: let traffic exist before the
     first fault lands. *)
  let lo = horizon_ns / 10 in
  let instant () = lo + Prng.int rng (horizon_ns - lo) in
  let events = ref [] in
  for _ = 1 to partitions do
    (* Partitions last between 2% and 20% of the horizon. *)
    let dur = (horizon_ns / 50) + Prng.int rng (horizon_ns * 9 / 50) in
    events :=
      { l_at_ns = instant (); l_link = Prng.int rng links;
        l_act = L_partition dur }
      :: !events
  done;
  for _ = 1 to count do
    let l_act =
      match Prng.int rng 3 with
      | 0 -> L_drop (1 + Prng.int rng 3)
      | 1 -> L_dup (1 + Prng.int rng 2)
      | _ -> L_reorder (1 + Prng.int rng 3)
    in
    events := { l_at_ns = instant (); l_link = Prng.int rng links; l_act }
              :: !events
  done;
  let l_events =
    List.stable_sort (fun a b -> compare a.l_at_ns b.l_at_ns) (List.rev !events)
  in
  { l_seed = seed; l_events }

(* Node faults: whole-machine kill/restart pairs, interpreted by
   I432_net.Cluster.arm_nodes at quantum boundaries.  Like link plans, a
   node plan is pure data — Fi knows nothing about checkpoints; the
   cluster's restore hook supplies the replacement machine. *)

type node_act = N_kill | N_restart
type node_event = { n_at_ns : int; n_node : int; n_act : node_act }
type node_plan = { n_seed : int; n_events : node_event list }

let random_nodes ~seed ~horizon_ns ~nodes ~kills =
  if nodes < 2 then invalid_arg "Fi.random_nodes: nodes";
  if horizon_ns < 10 then invalid_arg "Fi.random_nodes: horizon_ns";
  if kills < 0 then invalid_arg "Fi.random_nodes: kills";
  let rng = Prng.create ~seed in
  (* Same quiet first tenth as [random]: let the workload exist before
     the first node dies. *)
  let lo = horizon_ns / 10 in
  (* Kills hit distinct nodes and spare at least one, so the cluster
     always keeps a survivor to re-home against. *)
  let kills = min kills (nodes - 1) in
  let ids = Array.init nodes (fun i -> i) in
  Prng.shuffle rng ids;
  let events = ref [] in
  for i = 0 to kills - 1 do
    let at = lo + Prng.int rng (horizon_ns - lo) in
    (* Outages last between 2% and 20% of the horizon; every kill is
       paired with a restart so the plan always converges. *)
    let dur = (horizon_ns / 50) + Prng.int rng (horizon_ns * 9 / 50) in
    events :=
      { n_at_ns = at + dur; n_node = ids.(i); n_act = N_restart }
      :: { n_at_ns = at; n_node = ids.(i); n_act = N_kill }
      :: !events
  done;
  let n_events =
    List.stable_sort (fun a b -> compare a.n_at_ns b.n_at_ns) (List.rev !events)
  in
  { n_seed = seed; n_events }

let node_act_to_string = function
  | N_kill -> "kill"
  | N_restart -> "restart"

let node_plan_to_string plan =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "node plan seed=%d (%d events)\n" plan.n_seed
    (List.length plan.n_events);
  List.iter
    (fun e ->
      Printf.bprintf buf "  %9d ns  node %d: %s\n" e.n_at_ns e.n_node
        (node_act_to_string e.n_act))
    plan.n_events;
  Buffer.contents buf

let link_act_to_string = function
  | L_drop n -> Printf.sprintf "drop %d frame%s" n (if n = 1 then "" else "s")
  | L_dup n -> Printf.sprintf "duplicate %d frame%s" n (if n = 1 then "" else "s")
  | L_reorder n ->
    Printf.sprintf "reorder %d frame%s" n (if n = 1 then "" else "s")
  | L_partition ns -> Printf.sprintf "partition for %d ns" ns

let link_plan_to_string plan =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "link plan seed=%d (%d events)\n" plan.l_seed
    (List.length plan.l_events);
  List.iter
    (fun e ->
      Printf.bprintf buf "  %9d ns  link %d: %s\n" e.l_at_ns e.l_link
        (link_act_to_string e.l_act))
    plan.l_events;
  Buffer.contents buf

let arm machine plan =
  List.iter
    (fun e -> K.Machine.schedule_injection machine ~at_ns:e.at_ns e.inj)
    plan.events

let to_string plan =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "plan seed=%d (%d events)\n" plan.seed
    (List.length plan.events);
  List.iter
    (fun e ->
      Printf.bprintf buf "  %9d ns  %s\n" e.at_ns
        (K.Machine.injection_to_string e.inj))
    plan.events;
  Buffer.contents buf

(* The run loop's progress state against a recount over every process.
   The recount is this audit's own oracle, written from the definitions
   in machine.mli, not a second copy of the kernel's bookkeeping. *)
let check_progress machine =
  let kept = K.Machine.progress machine in
  let local = ref 0 and timed = ref 0 and unbound = ref 0 and timers = ref 0 in
  let bound = Array.make (Array.length kept.K.Machine.ready_bound) 0 in
  let next = ref None in
  let timer at =
    incr timers;
    next := Some (match !next with Some n -> min n at | None -> at)
  in
  List.iter
    (fun (p : K.Process.t) ->
      let in_mix = not p.K.Process.stopped and user = not p.K.Process.daemon in
      match p.K.Process.status with
      | K.Process.Created | K.Process.Running ->
        if in_mix && user then incr local
      | K.Process.Sleeping ->
        if in_mix && user then incr local;
        timer p.K.Process.wake_at
      | K.Process.Ready ->
        if in_mix then begin
          if user then incr local;
          match p.K.Process.affinity with
          | None -> incr unbound
          | Some id -> bound.(id) <- bound.(id) + 1
        end
      | K.Process.Blocked_send _ | K.Process.Blocked_receive _ -> (
        match p.K.Process.timeout_at with
        | Some at ->
          if user then incr timed;
          timer at
        | None -> ())
      | K.Process.Finished | K.Process.Faulted _ -> ())
    (K.Machine.all_processes machine);
  let bad = ref [] in
  let cmp what kept recount =
    if kept <> recount then
      bad :=
        Printf.sprintf "progress state: %s kept %d, recount %d" what kept
          recount
        :: !bad
  in
  cmp "local work" kept.K.Machine.local_work !local;
  cmp "timed waits" kept.K.Machine.timed_waits !timed;
  cmp "ready unbound" kept.K.Machine.ready_unbound !unbound;
  Array.iteri
    (fun id n -> cmp (Printf.sprintf "ready bound to cpu%d" id) n bound.(id))
    kept.K.Machine.ready_bound;
  cmp "live timers" kept.K.Machine.live_timers !timers;
  let show = function Some at -> string_of_int at | None -> "none" in
  if kept.K.Machine.next_timer <> !next then
    bad :=
      Printf.sprintf "progress state: earliest timer kept %s, recount %s"
        (show kept.K.Machine.next_timer) (show !next)
      :: !bad;
  List.rev !bad

(* Post-run invariants.  Violations accumulate as messages; [] = intact. *)
let check_invariants machine =
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  let table = K.Machine.table machine in
  let processes = K.Machine.all_processes machine in
  (* 1. Once the run loop returns, nothing may still claim a processor. *)
  List.iter
    (fun (p : K.Process.t) ->
      match p.K.Process.status with
      | K.Process.Running ->
        fail "process %s (#%d) still Running after halt" p.K.Process.name
          p.K.Process.index
      | _ -> ())
    processes;
  (* 2. The table's valid count must agree with an iter_valid walk. *)
  let walked = ref 0 in
  Object_table.iter_valid (fun _ -> incr walked) table;
  let counted = Object_table.count_valid table in
  if !walked <> counted then
    fail "object table count_valid %d <> iter_valid walk %d" counted !walked;
  (* 3/4. Port-queue consistency, both directions: blocked processes are
     queued, queued waiters are blocked — a fired timeout must leave no
     dangling entry behind. *)
  let ports = Hashtbl.create 16 in
  Object_table.iter_valid
    (fun i ->
      match Object_table.payload table i with
      | Some (K.Port.Port_state p) -> Hashtbl.replace ports p.K.Port.self p
      | Some _ | None -> ())
    table;
  Hashtbl.iter
    (fun self (p : K.Port.t) ->
      if K.Port.queue_length p > p.K.Port.capacity then
        fail "port #%d holds %d messages over capacity %d" self
          (K.Port.queue_length p) p.K.Port.capacity;
      (* 5. A waiter waits only for what the queue cannot give it: no
         receiver is parked beside a queued message, no sender beside a
         free slot. *)
      let receivers = p.K.Port.receivers and senders = p.K.Port.senders in
      if (not (K.Proc_queue.is_empty receivers)) && not (K.Port.is_empty p)
      then
        fail "port #%d parks receivers beside a non-empty queue (%d queued)"
          self (K.Port.queue_length p);
      if (not (K.Proc_queue.is_empty senders)) && not (K.Port.is_full p) then
        fail "port #%d parks senders beside a free slot (%d/%d queued)" self
          (K.Port.queue_length p) p.K.Port.capacity;
      let waiters what queue ~blocked_here =
        K.Proc_queue.iter
          (fun (w : K.Process.t) ->
            if not (blocked_here w.K.Process.status) then
              fail "port #%d queues %s #%d that is not blocked on it" self what
                w.K.Process.index;
            (* 6. A process is in one queue at a time: a waiter is not
               also ready. *)
            if w.K.Process.q_queued then
              fail "port #%d queues %s #%d that is also in the ready queue"
                self what w.K.Process.index)
          queue
      in
      waiters "receiver" receivers ~blocked_here:(function
        | K.Process.Blocked_receive q -> q = self
        | _ -> false);
      waiters "sender" senders ~blocked_here:(function
        | K.Process.Blocked_send q -> q = self
        | _ -> false))
    ports;
  let queued waiters pi (p : K.Process.t) =
    match Hashtbl.find_opt ports pi with
    | None -> false
    | Some port ->
      K.Proc_queue.fold (fun w found -> found || w == p) (waiters port) false
  in
  let queued_receiver = queued (fun port -> port.K.Port.receivers)
  and queued_sender = queued (fun port -> port.K.Port.senders) in
  List.iter
    (fun (p : K.Process.t) ->
      match p.K.Process.status with
      | K.Process.Blocked_receive pi when not (queued_receiver pi p) ->
        fail "process %s (#%d) Blocked_receive on port #%d but not queued"
          p.K.Process.name p.K.Process.index pi
      | K.Process.Blocked_send pi when not (queued_sender pi p) ->
        fail "process %s (#%d) Blocked_send on port #%d but not queued"
          p.K.Process.name p.K.Process.index pi
      | _ -> ())
    processes;
  List.rev_append !bad (check_progress machine)
