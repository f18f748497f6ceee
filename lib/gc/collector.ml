(* The iMAX system-wide parallel garbage collector (paper §8.1).

   "iMAX provides a system-wide parallel garbage collector based upon the
   algorithm of Dijkstra et al.  To support this, the 432 hardware
   implements the gray bit of that algorithm, setting it whenever access
   descriptors are moved. ...  The iMAX garbage collector is implemented as
   a daemon process that globally scans the system.  It requires only
   minimal synchronization with the rest of the operating system."

   Mapping onto the simulator:

   - Colors live in the object descriptor ({!Object_table.color}); the
     store-access write barrier shades the moved descriptor's target gray.
   - The collector is a daemon process; each scanned or swept object charges
     virtual time, so mutators running on other processors genuinely overlap
     with collection.
   - Roots are (a) the machine's registered root objects, (b) every live
     process object (its access part and its local-root shadow stack — the
     simulation's stand-in for ADs held in context objects), and (c) every
     message sitting in a port queue or attached to a blocked sender.
   - Only [Generic] and [Custom] objects are collected.  System objects are
     structural (the paper's first release likewise confined collection, and
     recovered only lost process objects — which we route through the
     destruction-filter mechanism, see {!Destruction_filter}).

   Sweep honours destruction filters (§8.2): when a dying object's type has
   a registered filter port, the collector "manufactures an access
   descriptor for such objects and sends them to a port defined by the type
   manager" instead of freeing the storage. *)

open I432

type config = {
  scan_quantum : int;  (* objects marked per collector step *)
  idle_sleep_ns : int;  (* pause between collection cycles *)
  collect_processes : bool;  (* reclaim terminated process objects *)
}

let default_config =
  { scan_quantum = 64; idle_sleep_ns = 2_000_000; collect_processes = true }

type stats = {
  mutable cycles : int;
  mutable marked : int;
  mutable swept : int;
  mutable filtered : int;  (* garbage delivered to destruction filters *)
  mutable processes_recovered : int;
  mutable mark_ns : int;
  mutable sweep_ns : int;
}

type t = {
  machine : I432_kernel.Machine.t;
  config : config;
  stats : stats;
  mutable gray_stack : int list;
  daemon_id : int;  (* the tracer's id for "gc-daemon" *)
}

let create ?(config = default_config) machine =
  {
    machine;
    config;
    stats =
      {
        cycles = 0;
        marked = 0;
        swept = 0;
        filtered = 0;
        processes_recovered = 0;
        mark_ns = 0;
        sweep_ns = 0;
      };
    gray_stack = [];
    daemon_id = I432_kernel.Machine.string_id machine "gc-daemon";
  }

let stats t = t.stats

let shade t index =
  let table = I432_kernel.Machine.table t.machine in
  if
    Object_table.is_valid table index
    && Object_table.color table index = Object_table.White
  then begin
    Object_table.set_color table index Object_table.Gray;
    t.gray_stack <- index :: t.gray_stack
  end

(* Root scan: registered roots, live processes (access part + shadow
   stacks), and in-flight port messages. *)
let scan_roots t =
  let table = I432_kernel.Machine.table t.machine in
  List.iter (fun a -> shade t (Access.index a)) (I432_kernel.Machine.roots t.machine);
  List.iter
    (fun (proc : I432_kernel.Process.t) ->
      if not (I432_kernel.Process.is_terminal proc) then begin
        shade t proc.I432_kernel.Process.index;
        List.iter
          (fun a -> shade t (Access.index a))
          proc.I432_kernel.Process.local_roots;
        (* A message delivered but not yet consumed by the resuming process
           is reachable from its (virtual) context. *)
        (match proc.I432_kernel.Process.pending with
        | I432_kernel.Syscall.R_msg box ->
          shade t (Access.index box.I432_kernel.Syscall.msg)
        | I432_kernel.Syscall.R_txn
            (I432_kernel.Syscall.Txn_committed { received; _ }) ->
          List.iter (fun a -> shade t (Access.index a)) received
        | I432_kernel.Syscall.R_unit | I432_kernel.Syscall.R_accepted _
        | I432_kernel.Syscall.R_no_msg
        | I432_kernel.Syscall.R_txn (I432_kernel.Syscall.Txn_conflict _) -> ());
        (* Activation records currently on the process's context stack. *)
        List.iter
          (fun a -> shade t (Access.index a))
          proc.I432_kernel.Process.contexts
      end)
    (I432_kernel.Machine.all_processes t.machine);
  Object_table.iter_valid
    (fun i ->
      match Object_table.payload table i with
      | Some (I432_kernel.Port.Port_state p) ->
        I432_kernel.Port.iter_messages
          (fun ~msg ~priority:_ ~seq:_ ~enqueued_at:_ ~txn:_ ->
            shade t (Access.index msg))
          p;
        I432_kernel.Proc_queue.iter
          (fun s -> shade t (Access.index s.I432_kernel.Process.q_msg))
          p.I432_kernel.Port.senders
      | Some _ | None -> ())
    table

(* Mark one object: scan its access part and shade the targets, then
   blacken.  Gray objects added concurrently by the mutator barrier are
   picked up from the table on the next drain pass. *)
let mark_one t index =
  let table = I432_kernel.Machine.table t.machine in
  if Object_table.is_valid table index then begin
    Array.iter
      (function
        | Some a -> shade t (Access.index a)
        | None -> ())
      (Object_table.access_part table index);
    Object_table.set_color table index Object_table.Black;
    t.stats.marked <- t.stats.marked + 1
  end

(* Collect stragglers shaded by the write barrier while our stack was
   empty. *)
let refill_gray t =
  let table = I432_kernel.Machine.table t.machine in
  let found = ref false in
  Object_table.iter_valid
    (fun i ->
      if Object_table.color table i = Object_table.Gray then begin
        t.gray_stack <- i :: t.gray_stack;
        found := true
      end)
    table;
  !found

let collectable t table i =
  match Object_table.otype table i with
  | Obj_type.Generic | Obj_type.Custom _ -> Object_table.sro table i >= 0
  | Obj_type.Process ->
    t.config.collect_processes
    && Object_table.sro table i >= 0
    &&
    (match Object_table.payload table i with
    | Some (I432_kernel.Process.Process_state p) -> I432_kernel.Process.is_terminal p
    | Some _ | None -> false)
  | Obj_type.Processor | Obj_type.Port | Obj_type.Dispatching_port
  | Obj_type.Storage_resource | Obj_type.Domain | Obj_type.Context
  | Obj_type.Type_definition -> false

(* Deliver a dying object to its type's destruction filter port, if any.
   Returns true when the object was filtered (and must not be freed). *)
let deliver_to_filter t table i =
  let otype = Object_table.otype table i in
  let filter_port =
    match otype with
    | Obj_type.Custom id -> Type_def.filter_port_for_id table ~id
    | Obj_type.Process -> Destruction_filter.process_filter_port table
    | Obj_type.Generic | Obj_type.Processor | Obj_type.Port
    | Obj_type.Dispatching_port | Obj_type.Storage_resource | Obj_type.Domain
    | Obj_type.Context | Obj_type.Type_definition -> None
  in
  match filter_port with
  | None -> false
  | Some port_index -> (
    match I432_kernel.Port.state_of_index table port_index with
    | p when not (I432_kernel.Port.is_full p) ->
      (* Manufacture a full-rights access descriptor for the corpse and send
         it to the type manager (§8.2). *)
      let corpse = Access.make ~index:i ~rights:Rights.full in
      ignore (I432_kernel.Machine.post t.machine p ~msg:corpse ~priority:0 ());
      (* The corpse is reachable again: blacken it for this cycle. *)
      Object_table.set_color table i Object_table.Black;
      t.stats.filtered <- t.stats.filtered + 1;
      if Obj_type.equal otype Obj_type.Process then
        t.stats.processes_recovered <- t.stats.processes_recovered + 1;
      true
    | _ -> false
    | exception Fault.Fault _ -> false)

(* Free a white object back to the SRO that created it. *)
let free_object t table i =
  let sro = Object_table.sro table i in
  if Object_table.is_valid table sro then begin
    match Object_table.payload table sro with
    | Some (Sro.Sro_state s) ->
      Sro.release table ~sro_state:s ~index:i;
      t.stats.swept <- t.stats.swept + 1
    | Some _ | None -> ()
  end

(* One full stop-the-world-free collection cycle, charged step by step so it
   interleaves with mutators in virtual time.  [step] yields the collector
   between quanta (a daemon calling I432_kernel.Machine.yield). *)
let cycle ?(step = fun () -> ()) t =
  let table = I432_kernel.Machine.table t.machine in
  let tm = I432_kernel.Machine.timings t.machine in
  let metrics = I432_kernel.Machine.metrics t.machine in
  (* Snapshot (in i432_kernel, a layer below us) reads the phase back from
     this gauge: 0 = idle, 1 = mark, 2 = sweep. *)
  let phase = I432_obs.Metrics.gauge metrics "gc.phase" in
  let marked0 = t.stats.marked in
  let swept0 = t.stats.swept in
  let filtered0 = t.stats.filtered in
  let t0 = I432_kernel.Machine.now t.machine in
  I432_obs.Metrics.set phase 1;
  I432_kernel.Machine.emit t.machine I432_obs.Event.Gc_mark_begin
    ~name_id:t.daemon_id ~detail_id:0 ~a:0 ~b:0;
  (* Whiten the world. *)
  Object_table.iter_valid
    (fun i -> Object_table.set_color table i Object_table.White)
    table;
  t.gray_stack <- [];
  scan_roots t;
  (* Mark until no gray remains, even under concurrent barrier shading. *)
  let continue_marking = ref true in
  while !continue_marking do
    let budget = ref t.config.scan_quantum in
    while !budget > 0 && t.gray_stack <> [] do
      (match t.gray_stack with
      | i :: rest ->
        t.gray_stack <- rest;
        I432_kernel.Machine.charge t.machine tm.Timings.gc_scan_object_ns;
        mark_one t i
      | [] -> ());
      decr budget
    done;
    if t.gray_stack = [] then
      if not (refill_gray t) then continue_marking := false else step ()
    else step ()
  done;
  t.stats.mark_ns <- t.stats.mark_ns + (I432_kernel.Machine.now t.machine - t0);
  I432_kernel.Machine.emit t.machine I432_obs.Event.Gc_mark_end
    ~name_id:t.daemon_id ~detail_id:0 ~a:(t.stats.marked - marked0) ~b:0;
  (* Sweep: white collectable objects die (via filter when registered). *)
  let t1 = I432_kernel.Machine.now t.machine in
  I432_obs.Metrics.set phase 2;
  I432_kernel.Machine.emit t.machine I432_obs.Event.Gc_sweep_begin
    ~name_id:t.daemon_id ~detail_id:0 ~a:0 ~b:0;
  let victims = ref [] in
  Object_table.iter_valid
    (fun i ->
      if Object_table.color table i = Object_table.White && collectable t table i
      then victims := i :: !victims)
    table;
  List.iter
    (fun i ->
      I432_kernel.Machine.charge t.machine tm.Timings.gc_sweep_object_ns;
      if not (deliver_to_filter t table i) then free_object t table i)
    !victims;
  t.stats.sweep_ns <- t.stats.sweep_ns + (I432_kernel.Machine.now t.machine - t1);
  t.stats.cycles <- t.stats.cycles + 1;
  I432_kernel.Machine.emit t.machine I432_obs.Event.Gc_sweep_end
    ~name_id:t.daemon_id ~detail_id:0 ~a:(t.stats.swept - swept0)
    ~b:(t.stats.filtered - filtered0);
  I432_obs.Metrics.set phase 0;
  I432_obs.Metrics.incr (I432_obs.Metrics.counter metrics "gc.cycles");
  I432_obs.Metrics.incr
    ~by:(t.stats.marked - marked0)
    (I432_obs.Metrics.counter metrics "gc.marked");
  I432_obs.Metrics.incr
    ~by:(t.stats.swept - swept0)
    (I432_obs.Metrics.counter metrics "gc.swept");
  I432_obs.Metrics.incr
    ~by:(t.stats.filtered - filtered0)
    (I432_obs.Metrics.counter metrics "gc.filtered");
  List.length !victims

(* The collector daemon body (paper: "implemented as a daemon process that
   globally scans the system").  Spawn with I432_kernel.Machine.spawn ~daemon:true. *)
let daemon_body ?(cycles = max_int) t () =
  let n = ref 0 in
  while !n < cycles do
    incr n;
    let _ = cycle t ~step:(fun () -> I432_kernel.Machine.yield t.machine) in
    I432_kernel.Machine.delay t.machine ~ns:t.config.idle_sleep_ns
  done

let spawn_daemon ?(cycles = max_int) ?(priority = 2) t =
  I432_kernel.Machine.spawn t.machine ~daemon:true ~priority ~system_level:3 ~name:"gc-daemon"
    (daemon_body ~cycles t)
