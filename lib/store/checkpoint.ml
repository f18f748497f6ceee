(* Checkpoint/restore by deterministic replay.  See the .mli for why no
   closure is ever serialized: the record is (kill bound, state image),
   and restore = re-boot + replay + byte-for-byte image verification. *)

module K = I432_kernel
module Net = I432_net
module Fi = I432_fi.Fi
module Obs = I432_obs
module Filing = Imax.Object_filing

type bound =
  | Steps of int
  | Virtual_ns of int
  | Rounds of { rounds : int; quantum_ns : int }

type record = {
  c_key : string;
  c_bound : bound;
  c_now_ns : int;
  c_nodes : (string * string) list;
}

type divergence = {
  stream : string;
  index : int;
  expected : string option;
  got : string option;
  context : string list;
}

exception Restore_mismatch of {
  message : string;
  divergence : divergence option;
}

let () =
  Printexc.register_printer (function
    | Restore_mismatch { message; _ } ->
      Some ("Checkpoint.Restore_mismatch: " ^ message)
    | _ -> None)

let mismatch fmt =
  Printf.ksprintf
    (fun message -> raise (Restore_mismatch { message; divergence = None }))
    fmt

(* ------------------------------------------------------------------ *)
(* Record codec (little-endian, length-prefixed)                       *)
(* ------------------------------------------------------------------ *)

let put_i64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let encode r =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '\001';
  let tag, value, quantum =
    match r.c_bound with
    | Steps n -> (0, n, 0)
    | Virtual_ns n -> (1, n, 0)
    | Rounds { rounds; quantum_ns } -> (2, rounds, quantum_ns)
  in
  Buffer.add_char buf (Char.chr tag);
  put_i64 buf value;
  put_i64 buf quantum;
  put_i64 buf r.c_now_ns;
  put_i64 buf (List.length r.c_nodes);
  List.iter
    (fun (name, image) ->
      put_i64 buf (String.length name);
      Buffer.add_string buf name;
      put_i64 buf (String.length image);
      Buffer.add_string buf image)
    r.c_nodes;
  Buffer.to_bytes buf

let decode ~key bytes =
  let pos = ref 0 in
  let len = Bytes.length bytes in
  let corrupt what = mismatch "corrupt checkpoint record: %s" what in
  let u8 what =
    if !pos >= len then corrupt what;
    let v = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v
  in
  let i64 what =
    if !pos + 8 > len then corrupt what;
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get bytes (!pos + i))
    done;
    pos := !pos + 8;
    if !v < 0 then corrupt what;
    !v
  in
  let str what =
    let n = i64 what in
    if !pos + n > len then corrupt what;
    let s = Bytes.sub_string bytes !pos n in
    pos := !pos + n;
    s
  in
  if u8 "version" <> 1 then corrupt "version";
  let tag = u8 "bound tag" in
  let value = i64 "bound value" in
  let quantum = i64 "quantum" in
  let bound =
    match tag with
    | 0 -> Steps value
    | 1 -> Virtual_ns value
    | 2 -> Rounds { rounds = value; quantum_ns = quantum }
    | _ -> corrupt "bound tag"
  in
  let now_ns = i64 "now" in
  let node_count = i64 "node count" in
  let nodes =
    List.init node_count (fun _ ->
        let name = str "node name" in
        let image = str "node image" in
        (name, image))
  in
  { c_key = key; c_bound = bound; c_now_ns = now_ns; c_nodes = nodes }

(* ------------------------------------------------------------------ *)
(* Observability (routed through the store's attached machine)         *)
(* ------------------------------------------------------------------ *)

let observe store kind r =
  match Store.attached_machine store with
  | None -> ()
  | Some machine ->
    let bytes =
      List.fold_left (fun acc (_, img) -> acc + String.length img) 0 r.c_nodes
    in
    Obs.Metrics.incr
      (Obs.Metrics.counter (K.Machine.metrics machine)
         (match kind with
         | Obs.Event.Ckpt_restore -> "store.ckpt_restores"
         | _ -> "store.ckpt_saves"));
    K.Machine.emit machine kind
      ~name_id:(K.Machine.string_id machine r.c_key) ~detail_id:0 ~a:bytes
      ~b:r.c_now_ns

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

let save_record store r =
  Store.put_blob store ~now_ns:r.c_now_ns ~key:r.c_key (encode r);
  Store.sync store;
  observe store Obs.Event.Ckpt_save r;
  r

let save store ~key ~bound machine =
  (match bound with
  | Rounds _ -> invalid_arg "Checkpoint.save: Rounds bounds a cluster"
  | Steps _ | Virtual_ns _ -> ());
  save_record store
    {
      c_key = key;
      c_bound = bound;
      c_now_ns = K.Machine.now machine;
      c_nodes = [ ("", K.Snapshot.state_image machine) ];
    }

let save_cluster store ~key ~rounds ~quantum_ns cluster =
  let nodes =
    List.init (Net.Cluster.node_count cluster) (fun i ->
        ( Net.Cluster.node_name cluster i,
          K.Snapshot.state_image (Net.Cluster.machine cluster i) ))
  in
  let now_ns =
    List.fold_left
      (fun acc i -> max acc (K.Machine.now (Net.Cluster.machine cluster i)))
      0
      (List.init (Net.Cluster.node_count cluster) Fun.id)
  in
  save_record store
    {
      c_key = key;
      c_bound = Rounds { rounds; quantum_ns };
      c_now_ns = now_ns;
      c_nodes = nodes;
    }

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let load store ~key =
  match Store.get_blob store ~key with
  | Some payload -> Some (decode ~key payload)
  | None -> None

let require store ~key =
  match load store ~key with
  | Some r -> r
  | None -> raise (Filing.Not_filed key)

(* The one line differ: replayed images against stored ones here, and
   every scenario stream in Scenario.  A mismatch names the first
   divergent line and the lines leading up to it, not just "differ". *)
let first_divergence ~stream ~expected ~got =
  let rec go index context = function
    | x :: xs, y :: ys when String.equal x y ->
      let context =
        match context with a :: b :: _ -> [ x; a; b ] | c -> x :: c
      in
      go (index + 1) context (xs, ys)
    | [], [] -> None
    | xs, ys ->
      Some
        {
          stream;
          index;
          expected = List.nth_opt xs 0;
          got = List.nth_opt ys 0;
          context = List.rev context;
        }
  in
  go 1 [] (expected, got)

let divergence_to_string d =
  let line = function
    | Some l -> Printf.sprintf "%S" l
    | None -> "end of stream"
  in
  String.concat "\n"
    (Printf.sprintf "%s, line %d: expected %s, got %s" d.stream d.index
       (line d.expected) (line d.got)
    :: List.mapi
         (fun i l ->
           Printf.sprintf "  %6d  %S" (d.index - List.length d.context + i) l)
         d.context)

let verify_node ~key ~name ~stored machine =
  let replayed = K.Snapshot.state_image machine in
  if not (String.equal stored replayed) then
    let stream =
      if name = "" then Printf.sprintf "checkpoint %S image" key
      else Printf.sprintf "checkpoint %S node %S image" key name
    in
    Option.iter
      (fun d ->
        raise
          (Restore_mismatch
             { message = divergence_to_string d; divergence = Some d }))
      (first_divergence ~stream
         ~expected:(String.split_on_char '\n' stored)
         ~got:(String.split_on_char '\n' replayed))

let restore store ~key ~boot =
  let r = require store ~key in
  let stored =
    match r.c_nodes with
    | [ ("", image) ] -> image
    | _ -> mismatch "checkpoint %S holds a cluster; use restore_cluster" key
  in
  let machine = boot () in
  (match r.c_bound with
  | Steps n -> ignore (K.Machine.run ~max_steps:n machine)
  | Virtual_ns n -> ignore (K.Machine.run ~max_ns:n machine)
  | Rounds _ -> assert false);
  verify_node ~key ~name:"" ~stored machine;
  observe store Obs.Event.Ckpt_restore r;
  machine

(* Replay a cluster checkpoint into a fresh [boot ()] and verify the
   stored nodes ([only]: just that one) by name and image.  The whole
   cluster replays even for one node: its state depends on every frame
   it exchanged. *)
let replay_cluster store ~key ~only ~boot =
  let r = require store ~key in
  let rounds, quantum_ns =
    match r.c_bound with
    | Rounds { rounds; quantum_ns } -> (rounds, quantum_ns)
    | Steps _ | Virtual_ns _ ->
      mismatch "checkpoint %S holds a single machine; use restore" key
  in
  let stored = List.length r.c_nodes in
  (match only with
  | Some node when node < 0 || node >= stored ->
    mismatch "checkpoint %S has no node %d (stored %d)" key node stored
  | Some _ | None -> ());
  let cluster = boot () in
  if rounds > 0 then
    ignore (Net.Cluster.run cluster ~quantum_ns ~max_rounds:rounds ());
  if Net.Cluster.node_count cluster <> stored then
    mismatch "checkpoint %S: %d nodes stored, boot built %d" key stored
      (Net.Cluster.node_count cluster);
  List.iteri
    (fun i (name, image) ->
      match only with
      | Some node when node <> i -> ()
      | Some _ | None ->
        let booted = Net.Cluster.node_name cluster i in
        if not (String.equal name booted) then
          mismatch "checkpoint %S: node %d is %S, boot built %S" key i name
            booted;
        verify_node ~key ~name ~stored:image (Net.Cluster.machine cluster i))
    r.c_nodes;
  observe store Obs.Event.Ckpt_restore r;
  cluster

(* One node out of a cluster checkpoint, for splicing back into a LIVE
   cluster (Cluster.restart_node): only the target node's image is
   verified and only its machine survives; the rest of the shadow is
   garbage once this returns. *)
let restore_node store ~key ~node ~boot =
  Net.Cluster.machine (replay_cluster store ~key ~only:(Some node) ~boot) node

let restore_cluster store ~key ~boot = replay_cluster store ~key ~only:None ~boot

(* ------------------------------------------------------------------ *)
(* Staged rejoin                                                       *)
(* ------------------------------------------------------------------ *)

type rejoin = {
  store : Store.t;
  ckpt_ns : int;
  kill_ns : int;
  restart_ns : int option;
}

(* Arguments are checked here because the cluster would not catch them:
   node events are sorted by instant, so a restart at or before the kill
   would fire on a live node, do nothing, and leave the node down. *)
let stage_rejoin r ~key ~node ~seed ~engine ~quantum_ns ~boot cluster =
  if r.kill_ns < quantum_ns then
    invalid_arg "Checkpoint.stage_rejoin: kill before the first round";
  if r.ckpt_ns > r.kill_ns then
    invalid_arg "Checkpoint.stage_rejoin: checkpoint after the kill";
  (match r.restart_ns with
  | Some at when at <= r.kill_ns ->
    invalid_arg "Checkpoint.stage_rejoin: restart not after the kill"
  | Some _ | None -> ());
  let report =
    Net.Cluster.run cluster ~engine ~quantum_ns
      ~max_rounds:(r.ckpt_ns / quantum_ns) ()
  in
  ignore
    (save_cluster r.store ~key ~rounds:report.Net.Cluster.rounds ~quantum_ns
       cluster);
  let event n_at_ns n_act = { Fi.n_at_ns; n_node = node; n_act } in
  let plan =
    {
      Fi.n_seed = seed;
      n_events =
        event r.kill_ns Fi.N_kill
        :: Option.to_list
             (Option.map (fun at -> event at Fi.N_restart) r.restart_ns);
    }
  in
  Net.Cluster.arm_nodes cluster
    ~restore:(fun ~node ~at_ns:_ -> restore_node r.store ~key ~node ~boot)
    plan;
  plan
