(* The basic process manager (paper §6.1).

   It "completes the model of processes embedded in the hardware" without
   arbitrating the processor resource: dispatching parameters pass through
   to the hardware, and resource policy is layered on top by a scheduler
   package (see {!Scheduler}).

   Stop/start semantics: "Each process has a count of the number of stops or
   starts outstanding against it which determines if it is currently
   running.  Since starts and stops apply to entire trees, a user wishing to
   control a computation need not be aware of the internal structure of that
   process."  A process is in the dispatching mix iff its stop count is
   zero; the kernel is told only about 0<->1 transitions, and the scheduler
   port is notified so a policy module can track the mix without tracking
   the tree (the counts are "maintained by the basic process manager").

   The manager also registers the process destruction filter so that lost
   process objects are recovered (§8.2: the first release of iMAX "uses this
   facility only to recover lost process objects"). *)

open I432
module K = I432_kernel

type node = {
  access : Access.t;
  node_name : string;
  parent : int option;  (* object index of parent process *)
  mutable children : int list;
  mutable stop_count : int;
  mutable live : bool;
}

(* Restart-on-fault supervision (DESIGN.md §8): when a supervised process
   faults, the manager spawns a fresh incarnation of the same body after an
   exponentially growing virtual-time backoff, until the restart budget is
   spent.  This is iMAX's "sending them back to software" fault path closed
   into a loop: the corpse still goes to the fault port; the computation
   continues under a new process object. *)
type restart_policy = {
  max_restarts : int;  (* total restarts allowed over the body's lifetime *)
  backoff_ns : int;  (* virtual-time delay before the first restart *)
}

let default_policy = { max_restarts = 3; backoff_ns = 1_000_000 }

type supervision = {
  policy : restart_policy;
  sup_body : unit -> unit;
  sup_name : string;
  sup_priority : int;
  sup_level : int;
  sup_parent : int option;
  mutable restarts : int;
  mutable next_backoff_ns : int;
  mutable incarnations : int list;  (* process indices, newest first *)
}

type t = {
  machine : K.Machine.t;
  mutable nodes : (int * node) list;  (* keyed by process object index *)
  recovery_port : Access.t;  (* destruction filter for process objects *)
  mutable recovered : int;
  mutable supervised : supervision list;
  restarts_ctr : I432_obs.Metrics.counter;
}

let find t index = List.assoc_opt index t.nodes

let register_node t ~access ~name ~parent_index =
  let index = Access.index access in
  (match parent_index with
  | Some pi -> (
    match find t pi with
    | Some pn -> pn.children <- index :: pn.children
    | None -> Fault.raise_fault (Fault.Protocol "parent process not managed"))
  | None -> ());
  let node =
    {
      access;
      node_name = name;
      parent = parent_index;
      children = [];
      stop_count = 0;
      live = true;
    }
  in
  t.nodes <- (index, node) :: t.nodes;
  node

(* Fault hook: restart the supervised incarnation that just died, if its
   budget allows.  Unsupervised processes are untouched. *)
let handle_fault t (proc : K.Process.t) (_ : Fault.cause) =
  match
    List.find_opt
      (fun s ->
        match s.incarnations with i :: _ -> i = proc.K.Process.index | [] -> false)
      t.supervised
  with
  | None -> ()
  | Some s ->
    if s.restarts < s.policy.max_restarts then begin
      s.restarts <- s.restarts + 1;
      (match find t proc.K.Process.index with
      | Some n -> n.live <- false
      | None -> ());
      let access =
        K.Machine.spawn t.machine ~priority:s.sup_priority
          ~system_level:s.sup_level ~name:s.sup_name
          ~start_after:s.next_backoff_ns s.sup_body
      in
      s.next_backoff_ns <- s.next_backoff_ns * 2;
      s.incarnations <- Access.index access :: s.incarnations;
      ignore (register_node t ~access ~name:s.sup_name ~parent_index:s.sup_parent);
      I432_obs.Metrics.incr t.restarts_ctr;
      K.Machine.emit t.machine I432_obs.Event.Proc_restarted
        ~name_id:(K.Machine.string_id t.machine s.sup_name) ~detail_id:0
        ~a:(Access.index access) ~b:s.restarts
    end

let create machine =
  let recovery_port =
    K.Machine.create_port machine ~capacity:256 ~discipline:K.Port.Fifo ()
  in
  I432_gc.Destruction_filter.register_process_filter (K.Machine.table machine)
    recovery_port;
  let t =
    {
      machine;
      nodes = [];
      recovery_port;
      recovered = 0;
      supervised = [];
      restarts_ctr =
        I432_obs.Metrics.counter (K.Machine.metrics machine) "proc.restarts";
    }
  in
  K.Machine.set_fault_hook machine (Some (fun proc cause -> handle_fault t proc cause));
  t

let node_of_access t access =
  match find t (Access.index access) with
  | Some n -> n
  | None -> Fault.raise_fault (Fault.Protocol "process not managed")

(* Create a managed process, optionally as the child of another managed
   process (the Ada task model: a process's lifetime nests in its
   parent's). *)
let create_process t ?parent ?(priority = 8) ?(system_level = 4) ~name body =
  let access =
    K.Machine.spawn t.machine ~priority ~system_level ~name body
  in
  let parent_index = Option.map (fun a -> Access.index a) parent in
  ignore (register_node t ~access ~name ~parent_index);
  access

(* Create a managed process with a restart-on-fault policy.  The returned
   access names the first incarnation; {!current_incarnation} follows the
   replacement chain after restarts. *)
let create_supervised t ?parent ?(priority = 8) ?(system_level = 4)
    ?(policy = default_policy) ~name body =
  if policy.max_restarts < 0 || policy.backoff_ns < 0 then
    invalid_arg "Process_manager.create_supervised: policy";
  let access = create_process t ?parent ~priority ~system_level ~name body in
  let parent_index = Option.map (fun a -> Access.index a) parent in
  t.supervised <-
    {
      policy;
      sup_body = body;
      sup_name = name;
      sup_priority = priority;
      sup_level = system_level;
      sup_parent = parent_index;
      restarts = 0;
      next_backoff_ns = policy.backoff_ns;
      incarnations = [ Access.index access ];
    }
    :: t.supervised;
  access

let find_supervision t access =
  let index = Access.index access in
  List.find_opt (fun s -> List.mem index s.incarnations) t.supervised

let restart_count t access =
  match find_supervision t access with Some s -> s.restarts | None -> 0

let current_incarnation t access =
  match find_supervision t access with
  | Some s -> (
    match s.incarnations with
    | i :: _ -> (
      match find t i with Some n -> n.access | None -> access)
    | [] -> access)
  | None -> access

(* Apply [f] over the whole tree rooted at [node], prefix order. *)
let rec iter_tree t node f =
  f node;
  List.iter
    (fun ci -> match find t ci with Some c -> iter_tree t c f | None -> ())
    node.children

(* Stop the entire computation rooted at [access]: increment every count;
   processes crossing 0 -> 1 leave the dispatching mix. *)
let stop t access =
  let root = node_of_access t access in
  iter_tree t root (fun n ->
      n.stop_count <- n.stop_count + 1;
      if n.stop_count = 1 then K.Machine.set_stopped t.machine n.access true)

(* Start: decrement every count; 1 -> 0 re-enters the mix.  Starts without a
   matching stop are a protocol fault, keeping the nesting discipline. *)
let start t access =
  let root = node_of_access t access in
  iter_tree t root (fun n ->
      if n.stop_count <= 0 then
        Fault.raise_fault (Fault.Protocol "start without outstanding stop");
      n.stop_count <- n.stop_count - 1;
      if n.stop_count = 0 then K.Machine.set_stopped t.machine n.access false)

let stop_count t access = (node_of_access t access).stop_count
let is_runnable t access = (node_of_access t access).stop_count = 0

let children t access =
  List.filter_map (fun i -> find t i) (node_of_access t access).children

(* Dispatching parameters pass straight through to the hardware ("the null
   policy simply passes through the dispatching parameters"). *)
let set_priority t access priority =
  K.Machine.set_priority t.machine access priority

let set_scheduler_port t access port =
  K.Machine.set_scheduler_port t.machine access port

(* Drain the process destruction filter: recover lost process objects,
   releasing their table entries.  Must run inside a process body.  Returns
   the number recovered. *)
let recover_lost_processes t =
  let corpses =
    I432_gc.Destruction_filter.drain t.machine ~port:t.recovery_port
      ~finalize:(fun corpse ->
        let index = Access.index corpse in
        (match find t index with
        | Some n -> n.live <- false
        | None -> ());
        let table = K.Machine.table t.machine in
        let sro = Object_table.sro table (Object_table.lookup table index) in
        if Object_table.is_valid table sro then
          match Object_table.payload table sro with
          | Some (Sro.Sro_state s) ->
            Sro.release table ~sro_state:s ~index
          | Some _ | None -> ())
  in
  let n = List.length corpses in
  t.recovered <- t.recovered + n;
  n

let recovered t = t.recovered
