(* Machine introspection: one walk of the whole system's state, for
   checkpoint verification, operator tooling, the fault-injection audit
   and integration tests.

   Note the deliberate contrast with §7.1 of the paper: *inside* the
   capability system there is no central table of all processes, and a
   module only ever reaches the objects it manages.  This module is the
   simulator's debugging view from outside the protection boundary — the
   equivalent of a logic analyzer on the real hardware, not an iMAX
   service. *)

open I432

type obj =
  | Plain
  | Port of Port.t
  | Process of Process.t
  | Processor of Processor.t
  | Sro of Access.t

(* The one walk: every valid descriptor once, in index order, its
   payload classified; the records are the kernel's own. *)
let fold machine ~init f =
  let table = Machine.table machine in
  let acc = ref init in
  Object_table.iter_valid
    (fun i ->
      let obj =
        match Object_table.payload table i with
        | Some (Port.Port_state p) -> Port p
        | Some (Process.Process_state p) -> Process p
        | Some (Processor.Processor_state c) -> Processor c
        | Some (Sro.Sro_state _) ->
          Sro (Access.make ~index:i ~rights:Rights.full)
        | Some _ | None -> Plain
      in
      acc := f i obj !acc)
    table;
  !acc

(* ------------------------------------------------------------------ *)
(* Deterministic full-state image (checkpoint verification)            *)
(* ------------------------------------------------------------------ *)

(* Everything below iterates in index order (the walk) or
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
  fold machine ~init:() (fun i obj () ->
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
      match obj with
      | Port p ->
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
      | Process p ->
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
      | Processor c ->
        Printf.bprintf buf
          " cpu %d clock=%d busy=%d idle=%d disp=%d%s%s cur=%s\n"
          c.Processor.id c.Processor.clock_ns c.Processor.busy_ns
          c.Processor.idle_ns c.Processor.dispatches
          (if c.Processor.online then "" else " offline")
          (if c.Processor.transient_pending then " transient" else "")
          (if c.Processor.current < 0 then "-"
           else string_of_int c.Processor.current)
      | Sro access ->
        Printf.bprintf buf " sro level=%d free=%d largest=%d regions=%d live=%d\n"
          (Sro.level table access)
          (Sro.free_bytes table access)
          (Sro.largest_free table access)
          (Sro.region_count table access)
          (Sro.live_objects table access)
      | Plain -> ());
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

(* ------------------------------------------------------------------ *)
(* Operator summary (--snapshot)                                       *)
(* ------------------------------------------------------------------ *)

(* The collector (a layer above this library) publishes its phase through
   the machine's metrics registry; 0 = idle, 1 = mark, 2 = sweep. *)
let gc_phase machine =
  match I432_obs.Metrics.find_gauge (Machine.metrics machine) "gc.phase" with
  | Some g -> (
    match I432_obs.Metrics.gauge_value g with
    | 1 -> "mark"
    | 2 -> "sweep"
    | _ -> "idle")
  | None -> "idle"

let summary machine =
  let table = Machine.table machine in
  let tracer = Machine.tracer machine in
  (* One walk fills the three object sections; processors are allocated
     at boot in id order, so index order lists them by id. *)
  let cpus = Buffer.create 128 and ports = Buffer.create 256 in
  let sros = Buffer.create 128 in
  fold machine ~init:() (fun i obj () ->
      match obj with
      | Processor c ->
        (* The " offline" suffix appears only after a hard fault, so
           renders of healthy machines stay byte-identical to the seed. *)
        Printf.bprintf cpus
          "  cpu%d: clock %.3f ms, busy %.3f ms, util %.0f%%, %d dispatches%s\n"
          c.Processor.id
          (float_of_int c.Processor.clock_ns /. 1e6)
          (float_of_int c.Processor.busy_ns /. 1e6)
          (100.0 *. Processor.utilization c)
          c.Processor.dispatches
          (if c.Processor.online then "" else " offline")
      | Port p ->
        Printf.bprintf ports
          "  port #%d depth %d/%d sends %d receives %d blocks %d/%d\n" i
          (Port.queue_length p) p.Port.capacity p.Port.sends p.Port.receives
          p.Port.send_blocks p.Port.receive_blocks
      | Sro access ->
        Printf.bprintf sros
          "  sro #%d level %d free %d B (largest %d B, %d regions) %d objects\n"
          i (Sro.level table access)
          (Sro.free_bytes table access)
          (Sro.largest_free table access)
          (Sro.region_count table access)
          (Sro.live_objects table access)
      | Process _ | Plain -> ());
  let buf = Buffer.create 512 in
  Printf.bprintf buf "machine at %.3f ms: %d live objects (table cap %d), %d faults\n"
    (float_of_int (Machine.now machine) /. 1e6)
    (Object_table.count_valid table)
    (Object_table.capacity table)
    (List.length (Machine.faults machine));
  Printf.bprintf buf "  gc %s; trace %d emitted, %d retained, %d dropped\n"
    (gc_phase machine)
    (I432_obs.Tracer.emitted tracer)
    (I432_obs.Tracer.retained tracer)
    (I432_obs.Tracer.dropped tracer);
  Buffer.add_buffer buf cpus;
  List.iter
    (fun (p : Process.t) ->
      Printf.bprintf buf "  process %-16s %-12s prio %2d cpu %.3f ms msgs %d/%d\n"
        p.Process.name
        (Process.status_to_string p.Process.status)
        p.Process.priority
        (float_of_int p.Process.cpu_ns /. 1e6)
        p.Process.messages_sent p.Process.messages_received)
    (List.rev (Machine.all_processes machine));
  Buffer.add_buffer buf ports;
  Buffer.add_buffer buf sros;
  Buffer.contents buf
