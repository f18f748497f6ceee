(* Machine introspection: a consistent summary of the whole system for
   operator tooling and integration tests.

   Note the deliberate contrast with §7.1 of the paper: *inside* the
   capability system there is no central table of all processes, and a
   module only ever reaches the objects it manages.  This module is the
   simulator's debugging view from outside the protection boundary — the
   equivalent of a logic analyzer on the real hardware, not an iMAX
   service. *)

open I432

type process_line = {
  p_name : string;
  p_status : string;
  p_priority : int;
  p_cpu_ns : int;
  p_dispatches : int;
  p_preemptions : int;
  p_messages : int * int;  (* sent, received *)
}

type processor_line = {
  c_id : int;
  c_clock_ns : int;
  c_busy_ns : int;
  c_idle_ns : int;
  c_utilization : float;
  c_dispatches : int;
  c_online : bool;
}

type port_line = {
  q_index : int;
  q_capacity : int;
  q_depth : int;
  q_sends : int;
  q_receives : int;
  q_blocks : int * int;  (* send, receive *)
}

type sro_line = {
  s_index : int;
  s_level : int;
  s_free_bytes : int;
  s_largest_free : int;
  s_region_count : int;
  s_live_objects : int;
}

type t = {
  now_ns : int;
  processes : process_line list;
  processors : processor_line list;
  ports : port_line list;
  sros : sro_line list;
  objects_live : int;
  table_capacity : int;
  barrier_shades : int;
  fault_count : int;
  gc_phase : string;
  events_emitted : int;
  events_retained : int;
  events_dropped : int;
}

(* The collector (a layer above this library) publishes its phase through
   the machine's metrics registry; 0 = idle, 1 = mark, 2 = sweep. *)
let gc_phase_of machine =
  match I432_obs.Metrics.find_gauge (Machine.metrics machine) "gc.phase" with
  | Some g -> (
    match I432_obs.Metrics.gauge_value g with
    | 1 -> "mark"
    | 2 -> "sweep"
    | _ -> "idle")
  | None -> "idle"

let capture machine =
  let table = Machine.table machine in
  let processes =
    List.rev_map
      (fun (p : Process.t) ->
        {
          p_name = p.Process.name;
          p_status = Process.status_to_string p.Process.status;
          p_priority = p.Process.priority;
          p_cpu_ns = p.Process.cpu_ns;
          p_dispatches = p.Process.dispatches;
          p_preemptions = p.Process.preemptions;
          p_messages = (p.Process.messages_sent, p.Process.messages_received);
        })
      (Machine.all_processes machine)
  in
  let ports = ref [] in
  Object_table.iter_valid
    (fun i ->
      match Object_table.payload table i with
      | Some (Port.Port_state p) ->
        ports :=
          {
            q_index = i;
            q_capacity = p.Port.capacity;
            q_depth = Port.queue_length p;
            q_sends = p.Port.sends;
            q_receives = p.Port.receives;
            q_blocks = (p.Port.send_blocks, p.Port.receive_blocks);
          }
          :: !ports
      | Some _ | None -> ())
    table;
  let sros = ref [] in
  Object_table.iter_valid
    (fun i ->
      match Object_table.payload table i with
      | Some (Sro.Sro_state _) ->
        let access = Access.make ~index:i ~rights:Rights.full in
        sros :=
          {
            s_index = i;
            s_level = Sro.level table access;
            s_free_bytes = Sro.free_bytes table access;
            s_largest_free = Sro.largest_free table access;
            s_region_count = Sro.region_count table access;
            s_live_objects = Sro.live_objects table access;
          }
          :: !sros
      | Some _ | None -> ())
    table;
  let processors = ref [] in
  Object_table.iter_valid
    (fun i ->
      match Object_table.payload table i with
      | Some (Processor.Processor_state c) ->
        processors :=
          {
            c_id = c.Processor.id;
            c_clock_ns = c.Processor.clock_ns;
            c_busy_ns = c.Processor.busy_ns;
            c_idle_ns = c.Processor.idle_ns;
            c_utilization = Processor.utilization c;
            c_dispatches = c.Processor.dispatches;
            c_online = c.Processor.online;
          }
          :: !processors
      | Some _ | None -> ())
    table;
  {
    now_ns = Machine.now machine;
    processes;
    processors = List.sort (fun a b -> compare a.c_id b.c_id) !processors;
    ports = List.sort (fun a b -> compare a.q_index b.q_index) !ports;
    sros = List.sort (fun a b -> compare a.s_index b.s_index) !sros;
    objects_live = Object_table.count_valid table;
    table_capacity = Object_table.capacity table;
    barrier_shades = Object_table.barrier_shades table;
    fault_count = List.length (Machine.faults machine);
    gc_phase = gc_phase_of machine;
    events_emitted = I432_obs.Tracer.emitted (Machine.tracer machine);
    events_retained = I432_obs.Tracer.retained (Machine.tracer machine);
    events_dropped = I432_obs.Tracer.dropped (Machine.tracer machine);
  }

(* ------------------------------------------------------------------ *)
(* Deterministic full-state image (checkpoint verification)            *)
(* ------------------------------------------------------------------ *)

(* Everything below iterates in index order (the table's iter_valid) or
   queue service order, never hash order, so two machines that replayed
   the same history render byte-identical images.  The image is textual
   on purpose: a mismatch diff names the divergent object instead of
   reducing to "digests differ". *)

let rights_str (r : Rights.t) =
  Printf.sprintf "%c%c%d"
    (if r.Rights.read then 'r' else '-')
    (if r.Rights.write then 'w' else '-')
    r.Rights.type_rights

let access_str a =
  Printf.sprintf "%d:%s" (Access.index a) (rights_str (Access.rights a))

let state_image machine =
  let table = Machine.table machine in
  let mem = Machine.memory machine in
  let buf = Buffer.create 8192 in
  Printf.bprintf buf "state-image/1 now=%d online=%d\n" (Machine.now machine)
    (Machine.online_processors machine);
  Object_table.iter_valid
    (fun i ->
      let len = Object_table.data_length table i in
      Printf.bprintf buf "obj %d type=%s len=%d alen=%d level=%d sro=%d%s\n" i
        (Obj_type.to_string (Object_table.otype table i))
        len
        (Array.length (Object_table.access_part table i))
        (Object_table.level table i) (Object_table.sro table i)
        (if Object_table.swapped_out table i then " swapped" else "");
      if len > 0 then begin
        let img =
          Memory.blit_to_bytes mem ~src_addr:(Object_table.base table i) ~len
        in
        Buffer.add_string buf " data=";
        Bytes.iter (fun c -> Printf.bprintf buf "%02x" (Char.code c)) img;
        Buffer.add_char buf '\n'
      end;
      Array.iteri
        (fun slot a ->
          match a with
          | None -> ()
          | Some a -> Printf.bprintf buf " ad %d -> %s\n" slot (access_str a))
        (Object_table.access_part table i);
      match Object_table.payload table i with
      | Some (Port.Port_state p) ->
        Printf.bprintf buf
          " port %s cap=%d seq=%d sends=%d recvs=%d blocks=%d/%d maxd=%d \
           wait=%d\n"
          (Port.discipline_to_string p.Port.discipline)
          p.Port.capacity p.Port.seq p.Port.sends p.Port.receives
          p.Port.send_blocks p.Port.receive_blocks p.Port.max_depth
          p.Port.total_queue_wait_ns;
        Port.iter_messages
          (fun ~msg ~priority ~seq ~enqueued_at ~txn ->
            (* The txn suffix appears only for transactional messages, so
               images of runs without transactions are unchanged. *)
            Printf.bprintf buf " msg %s prio=%d seq=%d at=%d%s\n"
              (access_str msg) priority seq enqueued_at
              (if txn <> 0 then Printf.sprintf " txn=%d" txn else ""))
          p;
        Proc_queue.iter
          (fun (s : Process.t) ->
            Printf.bprintf buf " sender %d msg=%s prio=%d\n" s.Process.index
              (access_str s.Process.q_msg) s.Process.q_prio)
          p.Port.senders;
        Proc_queue.iter
          (fun (r : Process.t) ->
            Printf.bprintf buf " receiver %d\n" r.Process.index)
          p.Port.receivers
      | Some (Process.Process_state p) ->
        Printf.bprintf buf
          " process %s status=%s%s prio=%d wake=%d tmo=%s cpu=%d slice=%d \
           ready=%d lvl=%d aff=%s sched=%s depth=%d disp=%d pre=%d blk=%d \
           msgs=%d/%d roots=%d ctxs=%d\n"
          p.Process.name
          (Process.status_to_string p.Process.status)
          (if p.Process.stopped then " stopped" else "")
          p.Process.priority p.Process.wake_at
          (match p.Process.timeout_at with
          | None -> "-"
          | Some t -> string_of_int t)
          p.Process.cpu_ns p.Process.slice_used_ns p.Process.last_ready_ns
          p.Process.system_level
          (match p.Process.affinity with
          | None -> "-"
          | Some c -> string_of_int c)
          (match p.Process.scheduler_port with
          | None -> "-"
          | Some i -> string_of_int i)
          p.Process.call_depth p.Process.dispatches p.Process.preemptions
          p.Process.blocks p.Process.messages_sent p.Process.messages_received
          (List.length p.Process.local_roots)
          (List.length p.Process.contexts)
      | Some (Processor.Processor_state c) ->
        Printf.bprintf buf
          " cpu %d clock=%d busy=%d idle=%d disp=%d%s%s cur=%s\n"
          c.Processor.id c.Processor.clock_ns c.Processor.busy_ns
          c.Processor.idle_ns c.Processor.dispatches
          (if c.Processor.online then "" else " offline")
          (if c.Processor.transient_pending then " transient" else "")
          (if c.Processor.current < 0 then "-"
           else string_of_int c.Processor.current)
      | Some (Sro.Sro_state _) ->
        let access = Access.make ~index:i ~rights:Rights.full in
        Printf.bprintf buf " sro level=%d free=%d largest=%d regions=%d live=%d\n"
          (Sro.level table access)
          (Sro.free_bytes table access)
          (Sro.largest_free table access)
          (Sro.region_count table access)
          (Sro.live_objects table access)
      | Some _ | None -> ())
    table;
  List.iter
    (fun (name, cause) ->
      Printf.bprintf buf "fault %s %s\n" name (Fault.to_string cause))
    (Machine.faults machine);
  List.iter
    (fun (at, inj) ->
      Printf.bprintf buf "injection %d %s\n" at
        (Machine.injection_to_string inj))
    (Machine.pending_injections machine);
  if Machine.armed_alloc_faults machine > 0 then
    Printf.bprintf buf "armed alloc-faults=%d\n"
      (Machine.armed_alloc_faults machine);
  if Machine.armed_port_delay_ns machine > 0 then
    Printf.bprintf buf "armed port-delay=%d\n"
      (Machine.armed_port_delay_ns machine);
  (match Machine.txn_applied_keys machine with
  | [] -> ()
  | keys ->
    Printf.bprintf buf "txn applied=%s\n"
      (String.concat "," (List.map string_of_int keys)));
  Printf.bprintf buf "trace emitted=%d retained=%d dropped=%d\n"
    (I432_obs.Tracer.emitted (Machine.tracer machine))
    (I432_obs.Tracer.retained (Machine.tracer machine))
    (I432_obs.Tracer.dropped (Machine.tracer machine));
  Buffer.contents buf

let render t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "machine at %.3f ms: %d live objects (table cap %d), %d faults\n"
    (float_of_int t.now_ns /. 1e6)
    t.objects_live t.table_capacity t.fault_count;
  Printf.bprintf buf "  gc %s; trace %d emitted, %d retained, %d dropped\n"
    t.gc_phase t.events_emitted t.events_retained t.events_dropped;
  List.iter
    (fun c ->
      (* The " offline" suffix appears only after a hard fault, so renders
         of healthy machines stay byte-identical to the seed. *)
      Printf.bprintf buf
        "  cpu%d: clock %.3f ms, busy %.3f ms, util %.0f%%, %d dispatches%s\n"
        c.c_id
        (float_of_int c.c_clock_ns /. 1e6)
        (float_of_int c.c_busy_ns /. 1e6)
        (100.0 *. c.c_utilization) c.c_dispatches
        (if c.c_online then "" else " offline"))
    t.processors;
  List.iter
    (fun p ->
      Printf.bprintf buf "  process %-16s %-12s prio %2d cpu %.3f ms msgs %d/%d\n"
        p.p_name p.p_status p.p_priority
        (float_of_int p.p_cpu_ns /. 1e6)
        (fst p.p_messages) (snd p.p_messages))
    t.processes;
  List.iter
    (fun q ->
      Printf.bprintf buf "  port #%d depth %d/%d sends %d receives %d blocks %d/%d\n"
        q.q_index q.q_depth q.q_capacity q.q_sends q.q_receives
        (fst q.q_blocks) (snd q.q_blocks))
    t.ports;
  List.iter
    (fun s ->
      Printf.bprintf buf
        "  sro #%d level %d free %d B (largest %d B, %d regions) %d objects\n"
        s.s_index s.s_level s.s_free_bytes s.s_largest_free s.s_region_count
        s.s_live_objects)
    t.sros;
  Buffer.contents buf
