(* Scenarios and the three generic verifiers.  See the .mli. *)

module K = I432_kernel
module Net = I432_net
module Obs = I432_obs

type divergence = Checkpoint.divergence = {
  stream : string;
  index : int;
  expected : string option;
  got : string option;
  context : string list;
}

type world = Machine of K.Machine.t | Cluster of Net.Cluster.t

type 'w t = {
  name : string;
  boot : unit -> 'w;
  run : ?bound:Checkpoint.bound -> 'w -> unit;
  streams : 'w -> (string * string list) list;
}

let event_lines m =
  let tr = K.Machine.tracer m in
  Obs.Tracer.to_list tr (fun seq -> Obs.Event.to_string (Obs.Tracer.event tr seq))

let world_streams = function
  | Machine m -> [ ("events", event_lines m) ]
  | Cluster c ->
    List.init (Net.Cluster.node_count c) (fun i ->
        (Net.Cluster.node_name c i, event_lines (Net.Cluster.machine c i)))

let make ~name ~streams boot =
  { name; boot; run = (fun ?bound:_ _ -> ()); streams }

let run_world ?engine ?quantum_ns ?bound w =
  match (w, (bound : Checkpoint.bound option)) with
  | Machine m, None -> ignore (K.Machine.run m)
  | Machine m, Some (Steps n) -> ignore (K.Machine.run ~max_steps:n m)
  | Machine m, Some (Virtual_ns n) -> ignore (K.Machine.run ~max_ns:n m)
  | Cluster c, None -> ignore (Net.Cluster.run c ?engine ?quantum_ns ())
  | Cluster c, Some (Rounds { rounds; quantum_ns }) ->
    ignore (Net.Cluster.run c ?engine ~quantum_ns ~max_rounds:rounds ())
  | Machine _, Some (Rounds _) | Cluster _, Some (Steps _ | Virtual_ns _) ->
    invalid_arg "Scenario: a machine stops at Steps/Virtual_ns, a cluster at Rounds"

let machine ~name boot =
  {
    name;
    boot = (fun () -> Machine (boot ()));
    run = (fun ?bound w -> run_world ?bound w);
    streams = world_streams;
  }

let cluster ~name ?engine ?quantum_ns boot =
  {
    name;
    boot = (fun () -> Cluster (boot ()));
    run = (fun ?bound w -> run_world ?engine ?quantum_ns ?bound w);
    streams = world_streams;
  }

let play s =
  let w = s.boot () in
  s.run w;
  w

(* Streams are compared in order; a different list of stream names is
   itself a divergence, reported on the names. *)
let diff s expected got =
  let names = List.map fst in
  let first =
    if names expected <> names got then
      Checkpoint.first_divergence ~stream:"streams" ~expected:(names expected)
        ~got:(names got)
    else
      List.find_map
        (fun ((stream, e), (_, g)) ->
          Checkpoint.first_divergence ~stream ~expected:e ~got:g)
        (List.combine expected got)
  in
  match first with
  | None -> Ok ()
  | Some d -> Error { d with stream = s.name ^ "/" ^ d.stream }

(* Each world's streams are read as soon as it has run: a scenario's
   streams may read host-side state that the next boot resets. *)
let played s = s.streams (play s)

let same_seed ?first s =
  let expected = match first with Some w -> s.streams w | None -> played s in
  diff s expected (played s)

let equal_engines ?first mk engine =
  let s = mk engine in
  match first with
  | Some w ->
    let got = s.streams w in
    diff s (played (mk Net.Cluster.Seq)) got
  | None ->
    let expected = played (mk Net.Cluster.Seq) in
    diff s expected (played s)

let kill_restore ?expected s ~store ~key ~bound =
  let expected = match expected with Some e -> e | None -> played s in
  let victim = s.boot () in
  s.run ~bound victim;
  let boot_as unwrap () =
    match unwrap (s.boot ()) with
    | Some x -> x
    | None -> invalid_arg "Scenario.kill_restore: boot changed world kind"
  in
  match
    match (victim, bound) with
    | Machine m, _ ->
      ignore (Checkpoint.save store ~key ~bound m);
      Machine
        (Checkpoint.restore store ~key
           ~boot:(boot_as (function Machine m -> Some m | _ -> None)))
    | Cluster c, Rounds { rounds; quantum_ns } ->
      ignore (Checkpoint.save_cluster store ~key ~rounds ~quantum_ns c);
      Cluster
        (Checkpoint.restore_cluster store ~key
           ~boot:(boot_as (function Cluster c -> Some c | _ -> None)))
    | Cluster _, (Steps _ | Virtual_ns _) ->
      invalid_arg "Scenario.kill_restore: a cluster stops at a Rounds bound"
  with
  | exception Checkpoint.Restore_mismatch { divergence = Some d; _ } ->
    Error { d with stream = s.name ^ "/" ^ d.stream }
  | resumed ->
    s.run resumed;
    Result.map (fun () -> resumed) (diff s expected (s.streams resumed))

let to_string = Checkpoint.divergence_to_string
