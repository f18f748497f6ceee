(* Resource-control policies layered on the basic process manager (paper
   §6.1): "Using this basic process manager, many resource control policies
   are possible."

   - Null: passes the hardware dispatching parameters through untouched —
     "completely acceptable for simple embedded systems in which the system
     load can be pre-evaluated".
   - Round_robin: equalizes priorities and relies on the hardware time
     slice, a minimal arbitration layer.
   - Fair_share: a user-process manager enforcing fairness across accounting
     groups in "a multi-user environment where the processing resource must
     be allocated fairly": a daemon samples consumed CPU per group and
     renices processes of over-served groups.

   The system "is configured by selecting those packages that provide the
   facilities needed": pick one of these modules at boot (see {!System}). *)

open I432
module K = I432_kernel

type group = {
  group_name : string;
  mutable members : Access.t list;
  mutable consumed_ns : int;
}

type policy = Null | Round_robin | Fair_share

type t = {
  machine : K.Machine.t;
  pm : Process_manager.t;
  policy : policy;
  mutable groups : group list;
  quantum_ns : int;  (* fair-share sampling period *)
}

let create ?(quantum_ns = 5_000_000) machine pm policy =
  { machine; pm; policy; groups = []; quantum_ns }

let add_group t name =
  let g = { group_name = name; members = []; consumed_ns = 0 } in
  t.groups <- t.groups @ [ g ];
  g

let enroll t group access =
  group.members <- access :: group.members;
  match t.policy with
  | Null -> ()  (* dispatching parameters pass through *)
  | Round_robin -> Process_manager.set_priority t.pm access 8
  | Fair_share -> ()

let group_consumed t group =
  let sum = ref 0 in
  List.iter
    (fun a ->
      let p = K.Machine.process_state t.machine a in
      sum := !sum + p.K.Process.cpu_ns)
    group.members;
  group.consumed_ns <- !sum;
  ignore t;
  !sum

(* One fair-share rebalancing pass: groups above the mean consumption get
   demoted, groups below get promoted.  Priorities stay in [2, 14]. *)
let rebalance t =
  match t.groups with
  | [] -> ()
  | groups ->
    let consumptions = List.map (fun g -> float_of_int (group_consumed t g)) groups in
    let mean =
      List.fold_left ( +. ) 0.0 consumptions
      /. float_of_int (List.length groups)
    in
    List.iter2
      (fun g c ->
        let prio =
          if mean <= 0.0 then 8
          else if c > mean *. 1.1 then 4
          else if c < mean *. 0.9 then 12
          else 8
        in
        List.iter
          (fun a ->
            let p = K.Machine.process_state t.machine a in
            if not (K.Process.is_terminal p) then
              Process_manager.set_priority t.pm a prio)
          g.members)
      groups consumptions

(* The scheduler daemon: periodically samples and rebalances.  Null and
   Round_robin need no daemon. *)
let daemon_body t () =
  match t.policy with
  | Null | Round_robin ->
    (* Nothing to arbitrate; the hardware dispatches on its own. *)
    ()
  | Fair_share ->
    let live () =
      List.exists
        (fun g ->
          List.exists
            (fun a ->
              not (K.Process.is_terminal (K.Machine.process_state t.machine a)))
            g.members)
        t.groups
    in
    while live () do
      rebalance t;
      K.Machine.delay t.machine ~ns:t.quantum_ns
    done

let spawn_daemon t =
  K.Machine.spawn t.machine ~daemon:true ~priority:14 ~system_level:3
    ~name:"scheduler" (daemon_body t)

let groups t = t.groups

let policy_to_string = function
  | Null -> "null"
  | Round_robin -> "round-robin"
  | Fair_share -> "fair-share"
