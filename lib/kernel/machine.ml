(* The simulated 432 system: one shared memory, one global object table, N
   general data processors, and a hardware dispatching port.

   The run loop is a deterministic discrete-event simulation: it always
   advances the processor with the smallest virtual clock (ties broken by
   processor id), resuming that processor's current process until its next
   syscall.  Non-blocking instructions (segment access, allocation, domain
   calls, computation) are charged to the running processor directly by the
   wrapper functions below; potentially blocking instructions arrive here as
   {!Syscall} effects and are implemented against the port and dispatching
   structures.

   All synchronization is explicit, as §3 requires: nothing in the kernel
   assumes a single processor is running. *)

open I432
module Obs = I432_obs
module Int_tbl = Hashtbl.Make (Int)

exception Kernel_panic of string

type config = {
  processors : int;
  memory_bytes : int;
  timings : Timings.t;
  bus_alpha_per_mille : int;
  global_heap_bytes : int;  (* size of the boot-time level-0 SRO *)
  trace_level : Obs.Tracer.level;
  trace_capacity : int;  (* events the trace ring retains *)
}

let default_config =
  {
    processors = 1;
    memory_bytes = 1 lsl 22;
    timings = Timings.default;
    bus_alpha_per_mille = 20;
    global_heap_bytes = (1 lsl 22) - 4096;
    trace_level = Obs.Tracer.Off;
    trace_capacity = Obs.Tracer.default_capacity;
  }

type run_report = {
  elapsed_ns : int;  (* largest processor clock at halt *)
  completed : int;
  faulted : int;
  deadlocked : string list;  (* names of processes still blocked at halt *)
  dispatches : int;
  preemptions : int;
}

(* Deterministic fault injection (DESIGN.md §8).  An injection is an action
   scheduled at a virtual instant; the run loop fires every injection whose
   time has come on the processor it is about to advance, so identical
   plans replay identically.  All of this is off unless a plan is armed:
   the legacy hot paths see one empty-list check per loop iteration. *)
type injection =
  | Inj_cpu_fault of int  (* hard-fault the GDP: it goes offline forever *)
  | Inj_transient of int  (* next body instruction on this GDP faults *)
  | Inj_alloc_fault of int  (* force the next n allocations to fail *)
  | Inj_port_delay of int  (* extra ns charged at the next port syscall *)

let injection_to_string = function
  | Inj_cpu_fault id -> Printf.sprintf "cpu-fault(%d)" id
  | Inj_transient id -> Printf.sprintf "transient(%d)" id
  | Inj_alloc_fault n -> Printf.sprintf "alloc-fault(%d)" n
  | Inj_port_delay ns -> Printf.sprintf "port-delay(%dns)" ns

let injection_arg = function
  | Inj_cpu_fault id | Inj_transient id -> id
  | Inj_alloc_fault n -> n
  | Inj_port_delay ns -> ns

(* Pre-resolved metrics instruments: the hot paths update them without a
   lookup; the registry is only walked on dump. *)
type monitors = {
  mon_enqueues : Obs.Metrics.counter;
  mon_sends : Obs.Metrics.counter;
  mon_receives : Obs.Metrics.counter;
  mon_send_blocks : Obs.Metrics.counter;
  mon_receive_blocks : Obs.Metrics.counter;
  mon_allocates : Obs.Metrics.counter;
  mon_releases : Obs.Metrics.counter;
  mon_sro_creates : Obs.Metrics.counter;
  mon_sro_destroys : Obs.Metrics.counter;
  mon_domain_calls : Obs.Metrics.counter;
  mon_injections : Obs.Metrics.counter;
  mon_cpu_offline : Obs.Metrics.counter;
  mon_requeues : Obs.Metrics.counter;
  mon_alloc_retries : Obs.Metrics.counter;
  mon_timeouts : Obs.Metrics.counter;
  mon_ready_len : Obs.Metrics.gauge;
  mon_dispatch_latency : Obs.Metrics.histogram;
  mon_port_wait : Obs.Metrics.histogram;
  mon_alloc_size : Obs.Metrics.histogram;
  (* registered at first use: runs without transactions dump as before *)
  mon_txn_commits : Obs.Metrics.counter Lazy.t;
  mon_txn_conflicts : Obs.Metrics.counter Lazy.t;
  mon_txn_dup_drops : Obs.Metrics.counter Lazy.t;
}

type t = {
  table : Object_table.t;
  memory : Memory.t;
  timings : Timings.t;
  bus : Bus.t;
  processors : Processor.t array;
  dispatch : Dispatch.t;
  eligible : (Process.t -> bool) array;  (* per processor: [eligible_for_dispatch] *)
  global_sro : Access.t;
  mutable cur : int;  (* the executing processor's id, -1 outside the run loop *)
  running : Process.t array;  (* per processor: what [dispatch] bound *)
  mutable in_body : bool;  (* true while a process body is executing *)
  mutable processes : Process.t list;  (* every process ever created *)
  mutable spawned : int;  (* ordinals handed out *)
  (* Progress state (DESIGN.md §6), kept at every transition by [tally]:
     what the run loop's predicates read instead of walking [processes]. *)
  mutable n_local_work : int;  (* see [tally] for each count's members *)
  mutable n_timed_waits : int;
  mutable n_ready_unbound : int;
  n_ready_bound : int array;  (* per processor *)
  timers : Timers.t;  (* sleeps and deadlines, one per process at most *)
  mutable gc_roots : Access.t list;
  obs : Obs.Tracer.t;
  traced : bool;  (* [obs]'s level is not [Off]; fixed at creation *)
  metrics : Obs.Metrics.t;
  mon : monitors;
  mutable faults : (string * Fault.cause) list;  (* newest first; see [faults] *)
  mutable fault_port : int option;  (* faulted processes are sent here *)
  (* Fault injection and recovery state.  All defaults leave every legacy
     path untouched: empty plan, zero counters, no hooks. *)
  mutable injections : (int * int * injection) list;  (* (at_ns, seq, _) sorted *)
  mutable inj_seq : int;
  mutable forced_alloc_faults : int;  (* armed by Inj_alloc_fault *)
  mutable pending_port_delay_ns : int;  (* armed by Inj_port_delay *)
  mutable reclaim_hook : (unit -> int) option;  (* allocate_retry's GC *)
  mutable fault_hook : (Process.t -> Fault.cause -> unit) option;
  (* Idempotency keys of applied transaction groups (Txn_try).  Part of
     the machine's replayed state: a checkpoint restore re-executes the
     same commits and rebuilds the same set, so a retried group can never
     double-apply across a crash.  Empty until the first keyed commit. *)
  txn_applied : unit Int_tbl.t;
  (* Domain id currently inside [advance], -1 if none.  A machine is a
     single-domain object: the parallel cluster engine steps each node on
     exactly one domain per round, and this field turns a violated
     partitioning into an immediate failure instead of a data race. *)
  mutable stepper : int;
}

let make_monitors metrics =
  {
    mon_enqueues = Obs.Metrics.counter metrics "dispatch.enqueues";
    mon_sends = Obs.Metrics.counter metrics "port.sends";
    mon_receives = Obs.Metrics.counter metrics "port.receives";
    mon_send_blocks = Obs.Metrics.counter metrics "port.send_blocks";
    mon_receive_blocks = Obs.Metrics.counter metrics "port.receive_blocks";
    mon_allocates = Obs.Metrics.counter metrics "sro.allocates";
    mon_releases = Obs.Metrics.counter metrics "sro.releases";
    mon_sro_creates = Obs.Metrics.counter metrics "sro.creates";
    mon_sro_destroys = Obs.Metrics.counter metrics "sro.destroys";
    mon_domain_calls = Obs.Metrics.counter metrics "domain.calls";
    mon_injections = Obs.Metrics.counter metrics "fi.injections";
    mon_cpu_offline = Obs.Metrics.counter metrics "fi.cpu_offline";
    mon_requeues = Obs.Metrics.counter metrics "fi.requeues";
    mon_alloc_retries = Obs.Metrics.counter metrics "sro.alloc_retries";
    mon_timeouts = Obs.Metrics.counter metrics "port.timeouts";
    mon_ready_len = Obs.Metrics.gauge metrics "dispatch.ready_len";
    mon_dispatch_latency =
      Obs.Metrics.histogram metrics ~buckets:32 ~lo:0.0 ~hi:3.2e6
        "dispatch.latency_ns";
    mon_port_wait =
      Obs.Metrics.histogram metrics ~buckets:32 ~lo:0.0 ~hi:3.2e6
        "port.wait_ns";
    mon_alloc_size =
      Obs.Metrics.histogram metrics ~buckets:32 ~lo:0.0 ~hi:65536.0
        "alloc.size_bytes";
    mon_txn_commits = lazy (Obs.Metrics.counter metrics "txn.commits");
    mon_txn_conflicts = lazy (Obs.Metrics.counter metrics "txn.conflicts");
    mon_txn_dup_drops = lazy (Obs.Metrics.counter metrics "txn.dup_drops");
  }

(* Eligibility for dispatch onto [cpu]: in the mix, ready, and (when the
   process carries a processor affinity) bound to this processor.  The 432
   realized such partitioning with multiple dispatching ports; a per-process
   binding is the equivalent observable behaviour in this model.  [create]
   partially applies it once per processor, so a pop builds no closure. *)
let eligible_for_dispatch ~(cpu : Processor.t) (proc : Process.t) =
  (not proc.Process.stopped)
  && (match proc.Process.status with
     | Process.Ready -> true
     | Process.Created | Process.Running | Process.Blocked_send _
     | Process.Blocked_receive _ | Process.Sleeping | Process.Finished
     | Process.Faulted _ ->
       false)
  &&
  match proc.Process.affinity with
  | None -> true
  | Some id -> id = cpu.Processor.id

(* Total busy time across processors: the "total processing power" metric of
   the scaling experiment. *)
let total_busy_ns t =
  Array.fold_left (fun acc p -> acc + p.Processor.busy_ns) 0 t.processors

let total_dispatches t =
  Array.fold_left (fun acc p -> acc + p.Processor.dispatches) 0 t.processors

let total_preemptions t =
  List.fold_left (fun acc p -> acc + p.Process.preemptions) 0 t.processes

let create ?(config = default_config) () =
  if config.processors <= 0 then invalid_arg "Machine.create: processors";
  (* A trace slot has room for cpu ids below [max_cpus]; checked here so
     the emit path never checks. *)
  if config.trace_level <> Obs.Tracer.Off
     && config.processors > Obs.Tracer.max_cpus
  then invalid_arg "Machine.create: too many processors to trace";
  let metrics = Obs.Metrics.create () in
  let table = Object_table.create () in
  let memory = Memory.create ~size_bytes:config.memory_bytes in
  let bus =
    Bus.create ~alpha_per_mille:config.bus_alpha_per_mille
      ~processors:config.processors ()
  in
  let global_sro =
    Sro.create table ~level:0 ~base:4096 ~length:config.global_heap_bytes
  in
  let processors =
    Array.init config.processors (fun id ->
        let self =
          Object_table.allocate_entry table ~otype:Obj_type.Processor ~base:0
            ~data_length:0 ~access_length:4 ~level:0 ~sro:(-1)
        in
        let p = Processor.make ~id ~self in
        Object_table.set_payload table self (Some (Processor.Processor_state p));
        p)
  in
  let t =
    {
      table;
      memory;
      timings = config.timings;
      bus;
      processors;
      dispatch = Dispatch.create ();
      eligible = Array.map (fun cpu -> eligible_for_dispatch ~cpu) processors;
      global_sro;
      cur = -1;
      running = Array.make config.processors Process.none;
      in_body = false;
      processes = [];
      spawned = 0;
      n_local_work = 0;
      n_timed_waits = 0;
      n_ready_unbound = 0;
      n_ready_bound = Array.make config.processors 0;
      timers = Timers.create ();
      gc_roots = [];
      obs =
        Obs.Tracer.create ~capacity:config.trace_capacity
          ~level:config.trace_level ();
      traced = config.trace_level <> Obs.Tracer.Off;
      metrics;
      mon = make_monitors metrics;
      faults = [];
      fault_port = None;
      injections = [];
      inj_seq = 0;
      forced_alloc_faults = 0;
      pending_port_delay_ns = 0;
      reclaim_hook = None;
      fault_hook = None;
      txn_applied = Int_tbl.create 16;
      stepper = -1;
    }
  in
  (* Counts the machine's objects keep already, read only when asked. *)
  Obs.Metrics.pull metrics "machine.charged_ns" (fun () -> total_busy_ns t);
  Obs.Metrics.pull metrics "proc.spawns" (fun () -> t.spawned);
  Obs.Metrics.pull metrics "dispatch.dispatches" (fun () -> total_dispatches t);
  Obs.Metrics.pull metrics "dispatch.preemptions" (fun () -> total_preemptions t);
  Obs.Metrics.pull metrics "machine.faults" (fun () -> List.length t.faults);
  t

let table t = t.table
let memory t = t.memory
let timings t = t.timings
let bus t = t.bus
let global_sro t = t.global_sro
let processor_count t = Array.length t.processors
let tracer t = t.obs
let metrics t = t.metrics
let events t = Obs.Tracer.events t.obs

(* Faults in emission order: the list is accumulated newest-first (O(1)
   prepend on the fault path) and reversed here, so the first fault the
   machine recorded is the first element.  This ordering is part of the
   API contract and covered by a regression test. *)
let faults t = List.rev t.faults

let online_processors t =
  Array.fold_left
    (fun acc p -> if p.Processor.online then acc + 1 else acc)
    0 t.processors

let set_reclaim_hook t hook = t.reclaim_hook <- hook
let set_fault_hook t hook = t.fault_hook <- hook

(* Applied transaction keys, ascending (snapshot images and tests). *)
let txn_applied_keys t =
  List.sort Int.compare
    (Int_tbl.fold (fun k () acc -> k :: acc) t.txn_applied [])

let txn_applied_count t = Int_tbl.length t.txn_applied

let count_txn_dup_drop t = Obs.Metrics.incr (Lazy.force t.mon.mon_txn_dup_drops)

(* Virtual time now: the clock of the executing processor, or the max clock
   when called from outside the run loop. *)
let[@inline] now t =
  if t.cur >= 0 then t.processors.(t.cur).Processor.clock_ns
  else
    Array.fold_left
      (fun acc p -> Int.max acc p.Processor.clock_ns)
      0 t.processors

(* Record one structured event, stamped with the executing processor's id
   and virtual clock (or -1 / max clock outside the run loop).  One field
   read when tracing is off.  Names and details are ids from [string_id]:
   a process's name is interned once at spawn ([Process.trace_name_id]). *)
let emit t kind ~name_id ~detail_id ~a ~b =
  if t.traced then
    if t.cur >= 0 then
      let p = t.processors.(t.cur) in
      Obs.Tracer.emit t.obs kind ~cpu:p.Processor.id ~ts_ns:p.Processor.clock_ns
        ~name_id ~detail_id ~a ~b
    else
      Obs.Tracer.emit t.obs kind ~cpu:(-1) ~ts_ns:(now t) ~name_id ~detail_id
        ~a ~b

(* Same, on behalf of a known processor (the run loop clears [t.cur]
   before it settles a process's outcome). *)
let emit_on t (cpu : Processor.t) kind ~name_id ~detail_id ~a ~b =
  if t.traced then
    Obs.Tracer.emit t.obs kind ~cpu:cpu.Processor.id
      ~ts_ns:cpu.Processor.clock_ns ~name_id ~detail_id ~a ~b

let string_id t s = Obs.Tracer.string_id t.obs s

(* Charge virtual time for an instruction to the running processor, with bus
   contention applied.  Outside the run loop (boot code) charges are free:
   configuration happens "before the machine starts". *)
let charge t ns =
  if t.cur >= 0 then begin
    let p = t.processors.(t.cur) in
    let eff = Bus.penalize t.bus ns in
    p.Processor.clock_ns <- p.Processor.clock_ns + eff;
    p.Processor.busy_ns <- p.Processor.busy_ns + eff;
    (* [running] holds what [dispatch] bound while [cur] is set. *)
    if p.Processor.current >= 0 then begin
      let proc = t.running.(p.Processor.id) in
      proc.Process.cpu_ns <- proc.Process.cpu_ns + eff;
      proc.Process.slice_used_ns <- proc.Process.slice_used_ns + eff;
      (* Injected transient instruction fault: unwinds as the running
         process's own fault, from body context only (like the time-slice
         check below, kernel-side charges must not unwind). *)
      if t.in_body && p.Processor.transient_pending then begin
        p.Processor.transient_pending <- false;
        Fault.raise_fault (Fault.Transient "injected instruction fault")
      end;
      (* Time-slice end (§5): when the slice expires while the body is
         executing, inject an involuntary yield at this instruction
         boundary.  Only from body context — kernel-side charges (dispatch,
         syscall service) must not unwind. *)
      if
        t.in_body
        && proc.Process.slice_used_ns >= t.timings.Timings.time_slice_ns
        && proc.Process.status = Process.Running
      then ignore (Syscall.perform Syscall.Preempt)
    end
  end

(* ------------------------------------------------------------------ *)
(* Checked, time-charged instruction wrappers                          *)
(* ------------------------------------------------------------------ *)

let compute t units = charge t (units * t.timings.Timings.compute_unit_ns)

let read_word t access ~offset =
  charge t t.timings.Timings.read_word_ns;
  Segment.read_i32 t.table t.memory access ~offset

let write_word t access ~offset v =
  charge t t.timings.Timings.write_word_ns;
  Segment.write_i32 t.table t.memory access ~offset v

let read_bytes t access ~offset ~len =
  charge t (t.timings.Timings.read_word_ns * (1 + (len / 4)));
  Segment.read_bytes t.table t.memory access ~offset ~len

let write_bytes t access ~offset src =
  charge t (t.timings.Timings.write_word_ns * (1 + (Bytes.length src / 4)));
  Segment.write_bytes t.table t.memory access ~offset src

let load_access t access ~slot =
  charge t t.timings.Timings.move_access_ns;
  Segment.load_access t.table access ~slot

let store_access t access ~slot v =
  charge t t.timings.Timings.move_access_ns;
  Segment.store_access t.table access ~slot v

(* The create-object instruction (§5): ~80 us. *)
let allocate t sro ~data_length ~access_length ~otype =
  charge t t.timings.Timings.allocate_ns;
  (* Injected storage exhaustion: only process-context allocations fault
     (boot-time configuration is exempt). *)
  if t.forced_alloc_faults > 0 && t.cur >= 0 then begin
    t.forced_alloc_faults <- t.forced_alloc_faults - 1;
    Fault.raise_fault
      (Fault.Storage_exhausted { requested = data_length; available = 0 })
  end;
  let access = Sro.allocate t.table sro ~data_length ~access_length ~otype in
  Obs.Metrics.incr t.mon.mon_allocates;
  Obs.Metrics.observe_int t.mon.mon_alloc_size data_length;
  emit t Obs.Event.Allocate ~name_id:0 ~detail_id:0 ~a:(Access.index access)
    ~b:data_length;
  access

let allocate_generic t ?(data_length = 64) ?(access_length = 4) () =
  allocate t t.global_sro ~data_length ~access_length ~otype:Obj_type.Generic

let release t sro ~index =
  charge t t.timings.Timings.destroy_ns;
  Sro.release_by_access t.table sro ~index;
  Obs.Metrics.incr t.mon.mon_releases;
  emit t Obs.Event.Release ~name_id:0 ~detail_id:0 ~a:index ~b:0

(* Local heaps (§5): an SRO created at the process's current call depth.
   Carved from the global heap's free store. *)
let create_local_sro t ~level ~bytes =
  charge t t.timings.Timings.allocate_ns;
  (* The new heap's store is carved whole from the global heap's free
     regions (it is address space, not a segment, so the 64K segment limit
     does not apply). *)
  let s = Sro.state_of t.table t.global_sro in
  match Sro.carve t.table ~sro_state:s ~size:bytes with
  | Some base ->
    let sro = Sro.create t.table ~level ~base ~length:bytes in
    Obs.Metrics.incr t.mon.mon_sro_creates;
    emit t Obs.Event.Sro_create ~name_id:0 ~detail_id:0 ~a:(Access.index sro)
      ~b:bytes;
    sro
  | None ->
    Fault.raise_fault
      (Fault.Storage_exhausted
         { requested = bytes; available = Sro.free_bytes t.table t.global_sro })

let destroy_sro t sro =
  Sro.check_local t.table sro;
  charge t t.timings.Timings.destroy_ns;
  let index = Access.index sro in
  let reclaimed = Sro.destroy t.table sro in
  Obs.Metrics.incr t.mon.mon_sro_destroys;
  emit t Obs.Event.Sro_destroy ~name_id:0 ~detail_id:0 ~a:index ~b:reclaimed;
  reclaimed

(* Domain transitions (§2): ~65 us per switch at 8 MHz.  With [timeout_ns]
   the call is supervised by a virtual-time watchdog: if the callee consumed
   more than the budget, the (completed) call still raises [Fault.Timeout] —
   the caller asked for a bounded operation and did not get one. *)
let domain_call t ?timeout_ns domain f =
  let d = Domain.state_of t.table domain in
  let started_at = now t in
  charge t t.timings.Timings.domain_call_ns;
  d.Domain.calls <- d.Domain.calls + 1;
  d.Domain.depth <- d.Domain.depth + 1;
  if d.Domain.depth > d.Domain.max_depth then d.Domain.max_depth <- d.Domain.depth;
  Obs.Metrics.incr t.mon.mon_domain_calls;
  emit t Obs.Event.Domain_call ~name_id:0
    ~detail_id:(string_id t d.Domain.domain_name) ~a:d.Domain.self ~b:0;
  let finish () =
    d.Domain.depth <- d.Domain.depth - 1;
    d.Domain.returns <- d.Domain.returns + 1;
    emit t Obs.Event.Domain_return ~name_id:0
      ~detail_id:(string_id t d.Domain.domain_name) ~a:d.Domain.self ~b:0;
    charge t t.timings.Timings.domain_return_ns
  in
  match f () with
  | v -> (
    finish ();
    match timeout_ns with
    | Some limit when now t - started_at > limit ->
      Fault.raise_fault (Fault.Timeout { waited_ns = now t - started_at })
    | Some _ | None -> v)
  | exception e ->
    finish ();
    raise e

(* An ordinary activation within the current domain, for comparison. *)
let intra_call t f =
  charge t t.timings.Timings.intra_call_ns;
  let v = f () in
  charge t t.timings.Timings.intra_return_ns;
  v

(* The process currently executing on the charging processor, or
   [Process.none]. *)
let running_process t =
  if t.cur >= 0 && t.processors.(t.cur).Processor.current >= 0 then
    t.running.(t.cur)
  else Process.none

(* Bounded retry around [allocate]: on [Storage_exhausted], run the
   registered reclaim hook (a GC cycle, when the system wires one), back
   off for [backoff_ns] of virtual time (doubling each attempt), and try
   again.  Re-raises the last fault once the budget is spent. *)
let allocate_retry t sro ?(max_retries = 4) ?(backoff_ns = 100_000)
    ~data_length ~access_length ~otype () =
  let rec go attempt backoff =
    match allocate t sro ~data_length ~access_length ~otype with
    | access -> access
    | exception Fault.Fault (Fault.Storage_exhausted _ as cause) ->
      if attempt > max_retries then Fault.raise_fault cause
      else begin
        Obs.Metrics.incr t.mon.mon_alloc_retries;
        let name_id = (running_process t).Process.trace_name_id in
        emit t Obs.Event.Alloc_retry ~name_id ~detail_id:0 ~a:attempt
          ~b:backoff;
        (match t.reclaim_hook with
        | Some reclaim -> ignore (reclaim ())
        | None -> ());
        charge t backoff;
        go (attempt + 1) (backoff * 2)
      end
  in
  go 1 backoff_ns

(* Call [f] inside a fresh activation record (paper §2, §5): the context's
   level is one greater than the caller's, so capabilities for objects
   allocated at this depth cannot leak upward.  The context object is
   passed to [f] for its capability locals and destroyed on return. *)
let call_in_context t ?(slots = 8) f =
  match running_process t with
  | proc when proc == Process.none ->
    Fault.raise_fault (Fault.Protocol "call_in_context outside a process")
  | proc ->
    charge t t.timings.Timings.intra_call_ns;
    let depth = proc.Process.call_depth + 1 in
    let caller =
      match proc.Process.contexts with
      | c :: _ -> Some (Access.index c)
      | [] -> None
    in
    let ctx = Context.create t.table t.global_sro ~depth ~caller ~slots in
    proc.Process.call_depth <- depth;
    proc.Process.contexts <- ctx :: proc.Process.contexts;
    let finish () =
      proc.Process.call_depth <- depth - 1;
      (match proc.Process.contexts with
      | _ :: rest -> proc.Process.contexts <- rest
      | [] -> ());
      Context.destroy t.table ctx;
      charge t t.timings.Timings.intra_return_ns
    in
    (match f ctx with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

(* Current activation record of the running process. *)
let current_context t =
  match (running_process t).Process.contexts with
  | c :: _ -> Some c
  | [] -> None

(* Route faulted processes to a supervisor port (§5). *)
let set_fault_port t port =
  Segment.check_type t.table port Obj_type.Port;
  t.fault_port <- Some (Access.index port)

(* ------------------------------------------------------------------ *)
(* Ports                                                               *)
(* ------------------------------------------------------------------ *)

(* A port's queue lives in its object's access part. *)
let max_port_capacity = Object_table.max_access_length

let create_port t ?(sro = None) ~capacity ~discipline () =
  if capacity < 1 then invalid_arg "Machine.create_port: capacity";
  if capacity > max_port_capacity then
    invalid_arg
      (Printf.sprintf
         "Machine.create_port: capacity %d exceeds max_port_capacity (%d)"
         capacity max_port_capacity);
  let sro = match sro with Some s -> s | None -> t.global_sro in
  let access =
    allocate t sro ~data_length:0 ~access_length:capacity ~otype:Obj_type.Port
  in
  let self = Object_table.lookup_access t.table access in
  Object_table.set_payload t.table self
    (Some (Port.Port_state (Port.make ~self ~capacity ~discipline)));
  access

let port_stats t access =
  let p = Port.state_of t.table access in
  ( p.Port.sends,
    p.Port.receives,
    p.Port.send_blocks,
    p.Port.receive_blocks,
    p.Port.max_depth,
    Port.mean_queue_wait_ns p )

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

(* Progress state.  [tally t proc d] adds [proc]'s share of the counts
   the run loop's predicates read, with sign [d]:
   - [n_local_work]: non-daemon processes in the mix that are created,
     ready, running or asleep;
   - [n_timed_waits]: non-daemon port waits with an armed deadline;
   - [n_ready_unbound], [n_ready_bound.(id)]: ready processes in the mix
     without a binding, or bound to processor [id].
   Every write to a field a share reads ([status], [stopped], [affinity],
   [timeout_at]) sits between a [tally t proc (-1)] and a
   [tally t proc 1]: [set_status], [set_deadline], [set_binding] and
   [set_stopped] are the only writers, and [spawn] adds each new
   process's first share. *)
let tally t (proc : Process.t) d =
  match proc.Process.status with
  | Process.Created | Process.Running | Process.Sleeping ->
    if not (proc.Process.daemon || proc.Process.stopped) then
      t.n_local_work <- t.n_local_work + d
  | Process.Ready ->
    if not proc.Process.stopped then begin
      if not proc.Process.daemon then t.n_local_work <- t.n_local_work + d;
      match proc.Process.affinity with
      | None -> t.n_ready_unbound <- t.n_ready_unbound + d
      | Some id -> t.n_ready_bound.(id) <- t.n_ready_bound.(id) + d
    end
  | Process.Blocked_send _ | Process.Blocked_receive _ -> (
    match proc.Process.timeout_at with
    | Some _ when not proc.Process.daemon ->
      t.n_timed_waits <- t.n_timed_waits + d
    | Some _ | None -> ())
  | Process.Finished | Process.Faulted _ -> ()

let[@inline] set_status t (proc : Process.t) status =
  tally t proc (-1);
  proc.Process.status <- status;
  tally t proc 1

let set_binding t (proc : Process.t) affinity =
  tally t proc (-1);
  proc.Process.affinity <- affinity;
  tally t proc 1

(* Arm ([Some at]) or disarm ([None]) the deadline of [proc]'s port
   wait. *)
let set_deadline t (proc : Process.t) deadline =
  tally t proc (-1);
  proc.Process.timeout_at <- deadline;
  (match deadline with
  | Some at -> Timers.arm t.timers proc at
  | None -> Timers.disarm t.timers proc);
  tally t proc 1

let make_ready t (proc : Process.t) =
  set_status t proc Process.Ready;
  proc.Process.last_ready_ns <- now t;
  Dispatch.enqueue t.dispatch ~process:proc ~priority:proc.Process.priority;
  Obs.Metrics.incr t.mon.mon_enqueues;
  Obs.Metrics.set t.mon.mon_ready_len (Dispatch.length t.dispatch);
  emit t Obs.Event.Ready ~name_id:proc.Process.trace_name_id ~detail_id:0
    ~a:proc.Process.index ~b:0

(* A process leaving a wait re-enters the dispatching mix — unless it is
   stopped, in which case it only turns Ready and [set_stopped] enqueues it
   when it is started again. *)
let[@inline] ready_or_hold t (proc : Process.t) =
  if proc.Process.stopped then set_status t proc Process.Ready
  else make_ready t proc

(* ------------------------------------------------------------------ *)
(* Port transfer                                                       *)
(* ------------------------------------------------------------------ *)

(* Every kernel path that moves a message through a port goes through the
   functions below: [offer] (to a parked receiver or a free slot), [take]
   plus [admit] (the head message out, one parked sender in), [park] (the
   caller waits, optionally with a deadline), and [post] for deliveries
   from outside any process.  Together they keep two queue invariants
   ([Fi.check_invariants] checks each port as its [Snapshot.fold] visits
   it): a port with parked receivers has an empty queue, and a port with
   parked senders has a full one.

   The steps on the send/receive hot path carry [@inline]: ocamlopt
   without flambda keeps each one a call otherwise, which costs a
   two-process send/receive loop ~10% host time (OCaml 5.1, x86-64). *)

(* End a port wait with [result]: disarm its deadline, if any, and
   re-enter the mix. *)
let[@inline] wake t (proc : Process.t) result =
  (match proc.Process.timeout_at with
  | Some _ -> set_deadline t proc None
  | None -> ());
  proc.Process.pending <- result;
  ready_or_hold t proc

(* Hand [msg] to [proc] in its prebuilt result. *)
let[@inline] delivered (proc : Process.t) msg =
  proc.Process.mailbox.Syscall.msg <- msg;
  proc.Process.delivered

let[@inline] unblock_receiver t (proc : Process.t) msg =
  proc.Process.messages_received <- proc.Process.messages_received + 1;
  Object_table.shade t.table (Access.index msg);
  wake t proc (delivered proc msg)

let[@inline] count_send t (proc : Process.t) (p : Port.t) msg =
  p.Port.sends <- p.Port.sends + 1;
  proc.Process.messages_sent <- proc.Process.messages_sent + 1;
  Obs.Metrics.incr t.mon.mon_sends;
  emit t Obs.Event.Send ~name_id:proc.Process.trace_name_id ~detail_id:0
    ~a:p.Port.self ~b:(Access.index msg)

(* Deliver [msg] from [proc] without waiting: straight to the first parked
   receiver, else into a free slot.  [false] (and nothing counted) when the
   queue is full. *)
let[@inline] offer t (proc : Process.t) (p : Port.t) ?txn msg =
  let rproc = Proc_queue.pop p.Port.receivers in
  if rproc != Process.none then begin
    count_send t proc p msg;
    p.Port.receives <- p.Port.receives + 1;
    Obs.Metrics.incr t.mon.mon_receives;
    emit t Obs.Event.Receive ~name_id:rproc.Process.trace_name_id ~detail_id:0
      ~a:p.Port.self ~b:(Access.index msg);
    unblock_receiver t rproc msg;
    true
  end
  else if Port.is_full p then false
  else begin
    count_send t proc p msg;
    Object_table.shade t.table (Access.index msg);
    Port.enqueue ?txn p ~msg ~priority:proc.Process.priority ~now:(now t);
    true
  end

(* Dequeue the head message of the non-empty [p], counting it as
   received.  The caller admits a parked sender into the freed slot
   ([admit]). *)
let[@inline] take t (p : Port.t) =
  let msg = Port.pop p ~now:(now t) in
  p.Port.receives <- p.Port.receives + 1;
  Obs.Metrics.incr t.mon.mon_receives;
  msg

(* [take] on behalf of the receiving process [proc]. *)
let[@inline] receive_from t (proc : Process.t) (p : Port.t) =
  let msg = take t p in
  proc.Process.messages_received <- proc.Process.messages_received + 1;
  Obs.Metrics.observe_int t.mon.mon_port_wait p.Port.last_wait_ns;
  emit t Obs.Event.Receive ~name_id:proc.Process.trace_name_id ~detail_id:0
    ~a:p.Port.self ~b:(Access.index msg);
  msg

(* Move the first parked sender's message into a free slot and wake the
   sender.  A timed sender (one with a deadline) is counted here, when its
   send is accepted; a blocking one was counted when it parked. *)
let[@inline] admit t (p : Port.t) =
  let proc = Proc_queue.pop p.Port.senders in
  if proc != Process.none then begin
    let msg = proc.Process.q_msg in
    (match proc.Process.timeout_at with
    | Some _ -> count_send t proc p msg
    | None -> ());
    Port.enqueue p ~msg ~priority:proc.Process.q_prio ~now:(now t);
    wake t proc (Syscall.R_accepted true)
  end

(* Queue [msg] at [p] on behalf of no process (the NIC, the fault port,
   the scheduler port), then serve a parked receiver from the queue head —
   so the message counts toward [max_depth] even when it is handed on at
   once.  The caller checks for room.  [true] when a receiver was served. *)
let post t (p : Port.t) ?txn ~msg ~priority () =
  Port.enqueue ?txn p ~msg ~priority ~now:(now t);
  p.Port.sends <- p.Port.sends + 1;
  let r = Proc_queue.pop p.Port.receivers in
  r != Process.none
  && begin
       let m = Port.pop p ~now:(now t) in
       p.Port.receives <- p.Port.receives + 1;
       unblock_receiver t r m;
       true
     end

(* Park [proc] at [p] — a sender with its [msg], a receiver without — until
   a peer serves it or, when [wait] has a deadline, the timeout sweep gives
   up for it.  The block event is the process's leave from its processor;
   a timed wait's ns rides in its [b]. *)
let park t (cpu : Processor.t) (proc : Process.t) (p : Port.t) ~wait ?msg () =
  let timeout_ns =
    match wait with Syscall.Timeout ns -> ns | Syscall.Block -> 0
  in
  charge t t.timings.Timings.block_ns;
  proc.Process.blocks <- proc.Process.blocks + 1;
  (match msg with
  | Some msg ->
    p.Port.send_blocks <- p.Port.send_blocks + 1;
    Obs.Metrics.incr t.mon.mon_send_blocks;
    emit t Obs.Event.Block_send ~name_id:proc.Process.trace_name_id
      ~detail_id:0 ~a:p.Port.self ~b:timeout_ns;
    Object_table.shade t.table (Access.index msg);
    Port.park_sender p proc ~msg;
    set_status t proc p.Port.blocked_send
  | None ->
    p.Port.receive_blocks <- p.Port.receive_blocks + 1;
    Obs.Metrics.incr t.mon.mon_receive_blocks;
    emit t Obs.Event.Block_receive ~name_id:proc.Process.trace_name_id
      ~detail_id:0 ~a:p.Port.self ~b:timeout_ns;
    Proc_queue.push p.Port.receivers proc;
    set_status t proc p.Port.blocked_receive);
  (match wait with
  | Syscall.Timeout ns ->
    set_deadline t proc (Some (cpu.Processor.clock_ns + ns))
  | Syscall.Block -> ());
  cpu.Processor.current <- -1

(* Injected port-delivery delay: charged once, at the next port syscall.
   One int compare when no injection is armed. *)
let consume_port_delay t =
  if t.pending_port_delay_ns > 0 then begin
    let d = t.pending_port_delay_ns in
    t.pending_port_delay_ns <- 0;
    charge t d
  end

(* Notify the scheduler port that [proc] entered or left the dispatching mix
   (§6.1).  Non-blocking: notifications overflowing the port are dropped. *)
let notify_scheduler t (proc : Process.t) =
  match proc.Process.scheduler_port with
  | None -> ()
  | Some port_index ->
    let p = Port.state_of_index t.table port_index in
    if not (Port.is_full p) then
      ignore
        (post t p
           ~msg:(Access.make ~index:proc.Process.index ~rights:Rights.read_only)
           ~priority:proc.Process.priority ())

let spawn t ?(priority = 8) ?(daemon = false) ?(system_level = 4)
    ?(name = "process") ?sro ?start_after body =
  let sro = match sro with Some s -> s | None -> t.global_sro in
  let access =
    Sro.allocate t.table sro ~data_length:0 ~access_length:8
      ~otype:Obj_type.Process
  in
  let index = Object_table.lookup_access t.table access in
  let proc =
    Process.create ~index ~ordinal:t.spawned ~name ~daemon ~priority
      ~system_level body
  in
  proc.Process.trace_name_id <- string_id t name;
  Object_table.set_payload t.table index (Some (Process.Process_state proc));
  t.processes <- proc :: t.processes;
  t.spawned <- t.spawned + 1;
  tally t proc 1;
  emit t Obs.Event.Spawn ~name_id:proc.Process.trace_name_id ~detail_id:0
    ~a:proc.Process.index ~b:0;
  (match start_after with
  | None -> make_ready t proc
  | Some ns ->
    (* Delayed start (used by supervision backoff): park the fresh process
       as a sleeper; the run loop readies it when the delay elapses. *)
    if ns < 0 then invalid_arg "Machine.spawn: start_after";
    set_status t proc Process.Sleeping;
    proc.Process.wake_at <- now t + ns;
    Timers.arm t.timers proc proc.Process.wake_at);
  access

let process_state t access = Process.state_of t.table access

(* Kernel half of stop/start (§6.1): flip the in-mix bit.  iMAX's basic
   process manager keeps the nested counts and calls these on 0<->1
   transitions only. *)
let set_stopped t access stopped =
  let proc = Process.state_of t.table access in
  if proc.Process.stopped <> stopped then begin
    tally t proc (-1);
    proc.Process.stopped <- stopped;
    tally t proc 1;
    if stopped then begin
      (match proc.Process.status with
      | Process.Ready -> Dispatch.remove t.dispatch ~process:proc
      | Process.Created | Process.Running | Process.Blocked_send _
      | Process.Blocked_receive _ | Process.Sleeping | Process.Finished
      | Process.Faulted _ -> ());
      emit t Obs.Event.Stop ~name_id:proc.Process.trace_name_id ~detail_id:0
        ~a:proc.Process.index ~b:0
    end
    else begin
      (match proc.Process.status with
      | Process.Ready ->
        Dispatch.enqueue t.dispatch ~process:proc ~priority:proc.Process.priority
      | Process.Created | Process.Running | Process.Blocked_send _
      | Process.Blocked_receive _ | Process.Sleeping | Process.Finished
      | Process.Faulted _ -> ());
      emit t Obs.Event.Start ~name_id:proc.Process.trace_name_id ~detail_id:0
        ~a:proc.Process.index ~b:0
    end;
    notify_scheduler t proc
  end

let set_priority t access priority =
  let proc = Process.state_of t.table access in
  proc.Process.priority <- priority;
  (* Re-sort the ready queue if the process is waiting in it. *)
  if Dispatch.mem t.dispatch ~process:proc then begin
    Dispatch.remove t.dispatch ~process:proc;
    Dispatch.enqueue t.dispatch ~process:proc ~priority
  end

let set_scheduler_port t access port =
  let proc = Process.state_of t.table access in
  proc.Process.scheduler_port <- Some (Access.index port)

(* Bind the process to one processor (None lifts the binding).  The 432
   realized processor partitioning with multiple dispatching ports; this is
   the per-process equivalent in this model. *)
let set_affinity t access affinity =
  (match affinity with
  | Some id when id < 0 || id >= Array.length t.processors ->
    invalid_arg "Machine.set_affinity: no such processor"
  | Some _ | None -> ());
  set_binding t (Process.state_of t.table access) affinity

(* GC root registration: explicit roots plus per-process shadow stacks. *)

let add_root t access = t.gc_roots <- access :: t.gc_roots

let remove_root t access =
  t.gc_roots <- List.filter (fun a -> not (Access.equal a access)) t.gc_roots

let roots t = t.gc_roots
let all_processes t = t.processes

(* ------------------------------------------------------------------ *)
(* Syscalls performed by process bodies                                *)
(* ------------------------------------------------------------------ *)

let[@inline] send_with wait ~port ~msg =
  match Syscall.perform (Syscall.Send { port; msg; wait }) with
  | Syscall.R_accepted accepted -> accepted
  | Syscall.R_unit | Syscall.R_msg _ | Syscall.R_no_msg | Syscall.R_txn _ ->
    assert false

(* The message a receive got, or [None] when it gave up. *)
let[@inline] receive_with wait ~port =
  match Syscall.perform (Syscall.Receive { port; wait }) with
  | Syscall.R_msg box -> Some box.Syscall.msg
  | Syscall.R_no_msg -> None
  | Syscall.R_unit | Syscall.R_accepted _ | Syscall.R_txn _ -> assert false

let send (_ : t) ~port ~msg = ignore (send_with Syscall.Block ~port ~msg)

let receive (_ : t) ~port =
  match Syscall.perform (Syscall.Receive { port; wait = Syscall.Block }) with
  | Syscall.R_msg box -> box.Syscall.msg
  | Syscall.R_unit | Syscall.R_accepted _ | Syscall.R_no_msg | Syscall.R_txn _
    ->
    assert false

let cond_send (_ : t) ~port ~msg = send_with (Syscall.Timeout 0) ~port ~msg
let cond_receive (_ : t) ~port = receive_with (Syscall.Timeout 0) ~port

let send_timeout (_ : t) ~port ~msg ~timeout_ns =
  send_with (Syscall.Timeout timeout_ns) ~port ~msg

let receive_timeout (_ : t) ~port ~timeout_ns =
  receive_with (Syscall.Timeout timeout_ns) ~port

let delay (_ : t) ~ns =
  match Syscall.perform (Syscall.Delay ns) with
  | Syscall.R_unit -> ()
  | Syscall.R_accepted _ | Syscall.R_msg _ | Syscall.R_no_msg | Syscall.R_txn _
    ->
    assert false

let yield (_ : t) =
  match Syscall.perform Syscall.Yield with
  | Syscall.R_unit -> ()
  | Syscall.R_accepted _ | Syscall.R_msg _ | Syscall.R_no_msg | Syscall.R_txn _
    ->
    assert false

let exit_process (_ : t) =
  ignore (Syscall.perform Syscall.Exit);
  assert false

(* One atomic attempt at a multi-port transaction group; never blocks.
   Retry/abort policy lives above the kernel (I432_txn.Txn). *)
let txn_try (_ : t) ~key ?(receives = []) ?(sends = []) ?(writes = []) () =
  match
    Syscall.perform
      (Syscall.Txn_try
         { t_key = key; t_receives = receives; t_sends = sends; t_writes = writes })
  with
  | Syscall.R_txn r -> r
  | Syscall.R_unit | Syscall.R_accepted _ | Syscall.R_msg _ | Syscall.R_no_msg
    ->
    assert false

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Interconnect hooks (lib/net)                                        *)
(* ------------------------------------------------------------------ *)

(* These three entry points are the whole kernel surface the virtual
   interconnect needs: a node's NIC pump runs *between* run-loop slices
   (t.cur = -1), draining surrogate ports into frames and landing
   reconstructed messages in home ports.  Nothing here is reachable from a
   machine without a cluster around it, so runs without one are untouched. *)

(* Deliver [msg] into [port] from outside the run loop, waking a blocked
   receiver exactly as a local send would.  [false] when the queue is full
   (the NIC keeps the frame in its backlog and retries at the next pump). *)
let deliver_external t ?txn ~port ~msg ~priority () =
  let p = Port.state_of t.table port in
  if Port.is_full p then false
  else begin
    Object_table.shade t.table (Access.index msg);
    Obs.Metrics.incr t.mon.mon_sends;
    if post t p ?txn ~msg ~priority () then Obs.Metrics.incr t.mon.mon_receives;
    true
  end

(* Withdraw the head message of the port [p] in service order — the NIC
   acting as the port's receiver — and admit (and ready) one blocked
   sender into the freed slot, exactly as a local receive would.  The
   message's priority, enqueue instant and [txn] are left in [p]'s
   [last_*] fields; [txn] is the committing transaction's idempotency key
   (0 = not transactional), which the interconnect carries across the
   wire for cluster-level dedup. *)
let drain_one t (p : Port.t) =
  if Port.is_empty p then None
  else begin
    let msg = take t p in
    admit t p;
    Some msg
  end

(* [drain_one] up to [max] times, as [(msg, priority, enqueued_at, txn)]
   per message. *)
let drain_port t ?(max = max_int) ~port () =
  let p = Port.state_of t.table port in
  let rec go n acc =
    if n >= max then List.rev acc
    else
      match drain_one t p with
      | None -> List.rev acc
      | Some msg ->
        go (n + 1)
          ((msg, p.Port.last_priority, p.Port.last_enqueued_at, p.Port.last_txn)
          :: acc)
  in
  go 0 []

(* Advance every *idle* processor's clock to [to_ns] (as idle time), so a
   message delivered with a frame-arrival stamp cannot be consumed in its
   own past.  Busy processors keep their own pace — the interconnect never
   rewrites time a processor has already spent. *)
let advance_idle_clocks t ~to_ns =
  Array.iter
    (fun (p : Processor.t) ->
      if
        p.Processor.online && p.Processor.current < 0
        && p.Processor.clock_ns < to_ns
      then begin
        p.Processor.idle_ns <- p.Processor.idle_ns + (to_ns - p.Processor.clock_ns);
        p.Processor.clock_ns <- to_ns
      end)
    t.processors

(* The send instruction (§4).  An offer the queue cannot take parks the
   sender unless [wait] polls.  A blocking send is counted before it parks;
   a timed one when it is accepted, at once or by [admit] (DESIGN.md §8). *)
let[@inline] send_op t cpu (proc : Process.t) ~port ~msg ~wait =
  Port.check_send_right port;
  let p = Port.state_of t.table port in
  charge t t.timings.Timings.send_ns;
  consume_port_delay t;
  if offer t proc p msg then proc.Process.pending <- Syscall.R_accepted true
  else
    match wait with
    | Syscall.Timeout ns when ns <= 0 ->
      proc.Process.pending <- Syscall.R_accepted false
    | Syscall.Timeout _ -> park t cpu proc p ~wait ~msg ()
    | Syscall.Block ->
      count_send t proc p msg;
      park t cpu proc p ~wait ~msg ()

(* The receive instruction (§4): the head message, and its freed slot goes
   to the first parked sender; an empty queue parks the receiver unless
   [wait] polls. *)
let[@inline] receive_op t cpu (proc : Process.t) ~port ~wait =
  Port.check_receive_right port;
  let p = Port.state_of t.table port in
  charge t t.timings.Timings.receive_ns;
  consume_port_delay t;
  if not (Port.is_empty p) then begin
    let msg = receive_from t proc p in
    admit t p;
    proc.Process.pending <- delivered proc msg
  end
  else
    match wait with
    | Syscall.Timeout ns when ns <= 0 ->
      proc.Process.pending <- Syscall.R_no_msg
    | Syscall.Timeout _ | Syscall.Block -> park t cpu proc p ~wait ()

(* Group-commit validation (DESIGN.md §15), one tally per distinct port in
   ascending object-index order.  A port gives at most its queued messages
   (parked senders do not rendezvous with a transaction) and takes at most
   its free slots, plus those its own receives free, plus its parked
   receivers, counted only when the slots do not suffice. *)
let rec count_port (p : Port.t) n = function
  | [] -> n
  | (q : Port.t) :: rest ->
    count_port p (if q.Port.self = p.Port.self then n + 1 else n) rest

let rec port_conflict recvs sends = function
  | [] -> None
  | (p : Port.t) :: rest ->
    let wants = count_port p 0 recvs and puts = count_port p 0 sends in
    let queued = Port.queue_length p in
    let room = p.Port.capacity - queued + wants in
    if wants > queued then Some (p.Port.self, "empty")
    else if
      puts > room
      && puts > Proc_queue.fold (fun _ n -> n + 1) p.Port.receivers room
    then Some (p.Port.self, "full")
    else port_conflict recvs sends rest

(* Write targets validate after the ports, in staging order, so the apply
   step cannot fault. *)
let rec write_conflict table = function
  | [] -> None
  | (a, offset, _) :: rest ->
    let i = Object_table.lookup_access table a in
    if not (Rights.has_write (Access.rights a)) then Some (i, "rights")
    else if Object_table.swapped_out table i then Some (i, "swapped")
    else if offset < 0 || offset + 4 > Object_table.data_length table i then
      Some (i, "bounds")
    else write_conflict table rest

(* One atomic attempt at a multi-port group, serviced with [in_body =
   false], so it commits at one virtual-time instant or, on a conflict,
   touches nothing.  Never blocks.  A key that already committed replays:
   only the sends are re-offered, best-effort, so a retrier gets its
   completion (or returned tokens) again. *)
let txn_op t (cpu : Processor.t) (proc : Process.t) ~key ~receives ~sends
    ~writes =
  let tm = t.timings in
  let nr = List.length receives
  and ns = List.length sends
  and nw = List.length writes in
  (* Conflicts cost what commits cost, so a retry loop above the kernel
     consumes virtual time and cannot livelock the clock. *)
  charge t
    ((tm.Timings.receive_ns * nr) + (tm.Timings.send_ns * ns)
    + (tm.Timings.write_word_ns * nw));
  consume_port_delay t;
  let recv_ports = List.map (Port.state_of t.table) receives in
  let send_ports = List.map (fun (a, m) -> (Port.state_of t.table a, m)) sends in
  List.iter Port.check_receive_right receives;
  List.iter (fun (a, _) -> Port.check_send_right a) sends;
  let replay = key <> 0 && Int_tbl.mem t.txn_applied key in
  let send_targets = List.map fst send_ports in
  let ports =
    List.sort_uniq
      (fun (p : Port.t) (q : Port.t) -> Int.compare p.Port.self q.Port.self)
      (recv_ports @ send_targets)
  in
  match
    if replay then None
    else
      match port_conflict recv_ports send_targets ports with
      | None -> write_conflict t.table writes
      | conflict -> conflict
  with
  | Some (port, reason) ->
    Obs.Metrics.incr (Lazy.force t.mon.mon_txn_conflicts);
    proc.Process.pending <- Syscall.R_txn (Syscall.Txn_conflict { port; reason })
  | None ->
    (* Receives, then writes, then sends, all at this instant. *)
    let received =
      if replay then []
      else
        List.map
          (fun p -> receive_from t proc p (* queued >= wants *))
          recv_ports
    in
    if not replay then
      List.iter
        (fun (a, offset, v) -> Segment.write_i32 t.table t.memory a ~offset v)
        writes;
    (* The i-th send of group [k] is tagged [k + i], so cluster-level dedup
       can drop a re-issued copy without confusing two sends of one group
       bound for one node ([I432_txn.Txn] strides keys apart). *)
    List.iteri
      (fun i (p, msg) ->
        let txn = if key = 0 then 0 else key + i in
        let delivered = offer t proc p ~txn msg in
        assert (delivered || replay) (* validated: a receiver or a slot *))
      send_ports;
    if replay then begin
      count_txn_dup_drop t;
      emit t Obs.Event.Txn_dup_drop ~name_id:proc.Process.trace_name_id
        ~detail_id:0 ~a:key ~b:0
    end
    else begin
      (* Room the receives freed, net of the group's own sends, admits
         parked senders in ascending port order. *)
      List.iter
        (fun p ->
          while
            (not (Port.is_full p)) && not (Proc_queue.is_empty p.Port.senders)
          do
            admit t p
          done)
        ports;
      if key <> 0 then Int_tbl.replace t.txn_applied key ();
      Obs.Metrics.incr (Lazy.force t.mon.mon_txn_commits);
      emit t Obs.Event.Txn_commit ~name_id:proc.Process.trace_name_id
        ~detail_id:0 ~a:key ~b:(nr + ns + nw)
    end;
    proc.Process.pending <-
      Syscall.R_txn
        (Syscall.Txn_committed
           { received; commit_ns = cpu.Processor.clock_ns; fresh = not replay })

(* Implement one syscall for the process running on [cpu].  The process
   either stays current (its result is delivered at its next step) or
   leaves the processor, at an instruction that traces its own event:
   block-send, block-receive, sleep, yield, preempt or exit. *)
let handle_syscall t (cpu : Processor.t) (proc : Process.t) op =
  let tm = t.timings in
  match op with
  | Syscall.Yield ->
    charge t tm.Timings.dispatch_ns;
    emit t Obs.Event.Yield ~name_id:proc.Process.trace_name_id ~detail_id:0
      ~a:0 ~b:0;
    proc.Process.pending <- Syscall.R_unit;
    cpu.Processor.current <- -1;
    ready_or_hold t proc
  | Syscall.Preempt ->
    charge t tm.Timings.dispatch_ns;
    proc.Process.pending <- Syscall.R_unit;
    proc.Process.slice_used_ns <- 0;
    proc.Process.preemptions <- proc.Process.preemptions + 1;
    emit t Obs.Event.Preempt ~name_id:proc.Process.trace_name_id ~detail_id:0
      ~a:0 ~b:0;
    cpu.Processor.current <- -1;
    ready_or_hold t proc
  | Syscall.Exit ->
    set_status t proc Process.Finished;
    proc.Process.code <- Process.Terminated;
    emit t Obs.Event.Exit ~name_id:proc.Process.trace_name_id ~detail_id:0
      ~a:0 ~b:0;
    cpu.Processor.current <- -1
  | Syscall.Delay ns ->
    if ns < 0 then invalid_arg "delay: negative";
    emit t Obs.Event.Sleep ~name_id:proc.Process.trace_name_id ~detail_id:0
      ~a:ns ~b:0;
    proc.Process.pending <- Syscall.R_unit;
    set_status t proc Process.Sleeping;
    proc.Process.wake_at <- cpu.Processor.clock_ns + ns;
    Timers.arm t.timers proc proc.Process.wake_at;
    cpu.Processor.current <- -1
  | Syscall.Send { port; msg; wait } -> send_op t cpu proc ~port ~msg ~wait
  | Syscall.Receive { port; wait } -> receive_op t cpu proc ~port ~wait
  | Syscall.Txn_try { t_key; t_receives; t_sends; t_writes } ->
    txn_op t cpu proc ~key:t_key ~receives:t_receives ~sends:t_sends
      ~writes:t_writes

(* Record a fault in a user process; faults below system level 3 are fatal
   to the whole machine (§7.3: such processes "are in general not permitted
   to fault").  When a fault port is configured, the process object is sent
   there so a supervisor can inspect the corpse — the hardware "sending
   them back to software when various fault ... conditions arise" (§5).
   The fault is traced on [cpu], the processor the process faulted on;
   the corpse is posted, and the supervisor runs, off the run loop. *)
let record_fault t (cpu : Processor.t) (proc : Process.t) cause =
  t.faults <- (proc.Process.name, cause) :: t.faults;
  (* Guarded: rendering the cause formats, even when untraced. *)
  if t.traced then
    emit_on t cpu Obs.Event.Fault ~name_id:proc.Process.trace_name_id
      ~detail_id:(string_id t (Fault.to_string cause)) ~a:0 ~b:0;
  set_status t proc (Process.Faulted cause);
  proc.Process.code <- Process.Terminated;
  if proc.Process.system_level < 3 then
    raise
      (Kernel_panic
         (Printf.sprintf "process %s at system level %d faulted: %s"
            proc.Process.name proc.Process.system_level
            (Fault.to_string cause)));
  (match t.fault_port with
  | None -> ()
  | Some port_index -> (
    match Port.state_of_index t.table port_index with
    | p when not (Port.is_full p) ->
      let corpse =
        Access.make ~index:proc.Process.index ~rights:Rights.read_only
      in
      ignore (post t p ~msg:corpse ~priority:proc.Process.priority ())
    | _ -> ()
    | exception Fault.Fault _ -> ()));
  (* Supervision hook (process manager restart policies): runs after the
     corpse is routed, and only for faults the machine survives. *)
  match t.fault_hook with None -> () | Some hook -> hook proc cause

(* Execute one step of [proc], the process current on [cpu]. *)
let step_process t (cpu : Processor.t) (proc : Process.t) =
  t.cur <- cpu.Processor.id;
  t.in_body <- true;
  let outcome = Process.step proc in
  t.in_body <- false;
  t.cur <- -1;
  match outcome with
  | Process.Completed ->
    set_status t proc Process.Finished;
    cpu.Processor.current <- -1;
    emit_on t cpu Obs.Event.Finish ~name_id:proc.Process.trace_name_id
      ~detail_id:0 ~a:0 ~b:0
  | Process.Raised (Fault.Fault cause) ->
    cpu.Processor.current <- -1;
    record_fault t cpu proc cause
  | Process.Raised e ->
    cpu.Processor.current <- -1;
    record_fault t cpu proc (Fault.Protocol (Printexc.to_string e))
  | Process.Pending -> (
    t.cur <- cpu.Processor.id;
    (* Faults detected while servicing the syscall (rights, types) are
       the faulting process's own. *)
    match handle_syscall t cpu proc proc.Process.op with
    | () -> t.cur <- -1
    | exception Fault.Fault cause ->
      t.cur <- -1;
      cpu.Processor.current <- -1;
      record_fault t cpu proc cause)

(* ------------------------------------------------------------------ *)
(* Processor failure and injection plans                               *)
(* ------------------------------------------------------------------ *)

(* Hard-fault one GDP (paper §6: iMAX "adapts at system initialization to
   the number of processors"; here the set also shrinks at run time).  The
   processor goes offline forever; the process it was running — suspended
   at an instruction boundary with its pending result intact — re-enters
   the dispatching mix, and any processor bindings to the dead GDP are
   lifted: a binding dies with its processor.  The system degrades to N−1
   processors instead of panicking. *)
let fail_processor t id =
  if id < 0 || id >= Array.length t.processors then
    invalid_arg "Machine.fail_processor: no such processor";
  let cpu = t.processors.(id) in
  if cpu.Processor.online then begin
    cpu.Processor.online <- false;
    Obs.Metrics.incr t.mon.mon_cpu_offline;
    emit_on t cpu Obs.Event.Cpu_offline ~name_id:0 ~detail_id:0 ~a:id ~b:0;
    (match cpu.Processor.current with
    | pi when pi >= 0 ->
      cpu.Processor.current <- -1;
      let proc = t.running.(id) in
      proc.Process.slice_used_ns <- 0;
      set_binding t proc None;
      Obs.Metrics.incr t.mon.mon_requeues;
      emit_on t cpu Obs.Event.Proc_requeued ~name_id:proc.Process.trace_name_id
        ~detail_id:0 ~a:pi ~b:id;
      ready_or_hold t proc
    | _ -> ());
    List.iter
      (fun (proc : Process.t) ->
        match proc.Process.affinity with
        | Some a when a = id -> set_binding t proc None
        | Some _ | None -> ())
      t.processes
  end

let schedule_injection t ~at_ns inj =
  if at_ns < 0 then invalid_arg "Machine.schedule_injection: at_ns";
  let seq = t.inj_seq in
  t.inj_seq <- seq + 1;
  let entry = (at_ns, seq, inj) in
  (* Sorted insert by (time, registration order): plans are small and
     armed before the run, so O(n) insertion is irrelevant. *)
  let rec ins = function
    | [] -> [ entry ]
    | ((a, s, _) as hd) :: tl ->
      if at_ns < a || (at_ns = a && seq < s) then entry :: hd :: tl
      else hd :: ins tl
  in
  t.injections <- ins t.injections

let apply_injection t = function
  | Inj_cpu_fault id ->
    if id >= 0 && id < Array.length t.processors then fail_processor t id
  | Inj_transient id ->
    if id >= 0 && id < Array.length t.processors then
      t.processors.(id).Processor.transient_pending <- true
  | Inj_alloc_fault n -> t.forced_alloc_faults <- t.forced_alloc_faults + n
  | Inj_port_delay ns ->
    t.pending_port_delay_ns <- t.pending_port_delay_ns + ns

(* The not-yet-fired part of an armed plan, in firing order.  The
   checkpoint facility folds this (and the armed one-shot counters) into
   the machine's state image so a restored run faces the same remaining
   chaos as the original. *)
let pending_injections t = List.map (fun (at, _, inj) -> (at, inj)) t.injections
let armed_alloc_faults t = t.forced_alloc_faults
let armed_port_delay_ns t = t.pending_port_delay_ns

(* Fire every injection whose instant has been reached by the processor
   the run loop is about to advance.  Events are stamped on that
   processor's clock, in (time, registration) order — deterministic. *)
let fire_injections t (cpu : Processor.t) =
  let rec go () =
    match t.injections with
    | (at, _, inj) :: rest when at <= cpu.Processor.clock_ns ->
      t.injections <- rest;
      t.cur <- cpu.Processor.id;
      Obs.Metrics.incr t.mon.mon_injections;
      (* Guarded: rendering the injection formats, even when untraced. *)
      if t.traced then
        emit t Obs.Event.Fi_inject ~name_id:0
          ~detail_id:(string_id t (injection_to_string inj))
          ~a:(injection_arg inj) ~b:0;
      apply_injection t inj;
      t.cur <- -1;
      go ()
    | _ -> ()
  in
  go ()

let wake_sleeper t (proc : Process.t) =
  match proc.Process.status with
  | Process.Sleeping ->
    emit t Obs.Event.Wake ~name_id:proc.Process.trace_name_id ~detail_id:0
      ~a:0 ~b:0;
    ready_or_hold t proc
  | _ -> ()

let give_up t (proc : Process.t) pi ~b result =
  Obs.Metrics.incr t.mon.mon_timeouts;
  emit t Obs.Event.Timeout_fired ~name_id:proc.Process.trace_name_id
    ~detail_id:0 ~a:pi ~b;
  wake t proc result

(* An expired deadline unlinks its process from the port's queue of
   waiters, in O(1), and delivers the documented give-up result. *)
let expire t (proc : Process.t) =
  match proc.Process.status with
  | Process.Blocked_receive pi ->
    Proc_queue.unlink (Port.state_of_index t.table pi).Port.receivers proc;
    give_up t proc pi ~b:1 Syscall.R_no_msg
  | Process.Blocked_send pi ->
    (* The parked message is withdrawn with its sender. *)
    Proc_queue.unlink (Port.state_of_index t.table pi).Port.senders proc;
    give_up t proc pi ~b:0 (Syscall.R_accepted false)
  | _ -> ()

(* Wake the sleepers and expire the port-wait deadlines due at [horizon]
   (DESIGN.md §6), in the order the run loop always used: every sleeper
   before every deadline, and newest-spawned first within each. *)
let fire_timers t ~horizon =
  let n = Timers.pop_due t.timers ~horizon in
  for i = 0 to n - 1 do
    wake_sleeper t (Timers.due t.timers i)
  done;
  for i = 0 to n - 1 do
    expire t (Timers.due t.timers i)
  done

(* The index of the online processor with the smallest clock (ties by
   id), or [-1] when every GDP has hard-faulted. *)
let min_clock_processor t =
  let best = ref (-1) and best_clock = ref 0 in
  for i = 0 to Array.length t.processors - 1 do
    let p = Array.unsafe_get t.processors i in
    if p.Processor.online && (!best < 0 || p.Processor.clock_ns < !best_clock)
    then begin
      best := i;
      best_clock := p.Processor.clock_ns
    end
  done;
  !best

(* The progress rule: three predicates that read the progress state
   ([tally]) and the timer heap instead of walking the processes.
   [has_local_work] is the per-node test the cluster's round loop also
   asks, [can_progress] decides halting, and [idle_target] is where an
   idle processor's clock goes next.  [Fi.check_progress], a clause of
   [Fi.check_invariants], audits the counts against a recount. *)

let has_local_work t = t.n_local_work > 0

(* Can anything still move?  A processor is running a process; some
   process has local work; a user process is blocked with an armed
   deadline (it resumes when the deadline fires at the latest); or a ready
   process, daemon or not, may be dispatched by an online processor.
   Daemons that only sleep or wait do not keep the machine running. *)
let can_progress t =
  t.n_local_work > 0 || t.n_timed_waits > 0
  ||
  let any_online = ref false and runnable = ref false in
  for i = 0 to Array.length t.processors - 1 do
    let p = t.processors.(i) in
    if p.Processor.online then begin
      any_online := true;
      if p.Processor.current >= 0 || t.n_ready_bound.(i) > 0 then
        runnable := true
    end
  done;
  !runnable || (!any_online && t.n_ready_unbound > 0)

(* [c] if it is after [now] and before [acc]; [acc = now] means "none
   yet". *)
let[@inline] earlier ~now (c : int) acc = if c > now && (acc = now || c < acc) then c else acc

(* The next instant at which anything can reach the idle processor [cpu]:
   a sleeper's wake time, a timed wait's deadline, or another processor's
   next turn when it is busy or a ready process may run there (one past
   its clock, so that it goes first).  [cpu]'s own clock when there is
   none: nothing can ever reach it.  O(processors): [step] has just fired
   every timer due at [cpu]'s clock, so the heap's earliest live entry is
   the earliest timer after it. *)
let idle_target t (cpu : Processor.t) =
  let now = cpu.Processor.clock_ns in
  let acc = ref now and next_online = ref now in
  for i = 0 to Array.length t.processors - 1 do
    let p = t.processors.(i) in
    if i <> cpu.Processor.id then begin
      let next = p.Processor.clock_ns + 1 in
      if p.Processor.current >= 0 then acc := earlier ~now next !acc;
      if p.Processor.online then begin
        next_online := earlier ~now next !next_online;
        if t.n_ready_bound.(i) > 0 then acc := earlier ~now next !acc
      end
    end
  done;
  let acc =
    if t.n_ready_unbound > 0 then earlier ~now !next_online !acc else !acc
  in
  earlier ~now (Timers.next t.timers) acc

(* Bind the ready process [proc] to the idle processor [cpu]. *)
let dispatch t (cpu : Processor.t) (proc : Process.t) =
  set_status t proc Process.Running;
  proc.Process.slice_used_ns <- 0;
  proc.Process.dispatches <- proc.Process.dispatches + 1;
  cpu.Processor.current <- proc.Process.index;
  t.running.(cpu.Processor.id) <- proc;
  cpu.Processor.dispatches <- cpu.Processor.dispatches + 1;
  Obs.Metrics.observe_int t.mon.mon_dispatch_latency
    (Int.max 0 (cpu.Processor.clock_ns - proc.Process.last_ready_ns));
  Obs.Metrics.set t.mon.mon_ready_len (Dispatch.length t.dispatch);
  emit_on t cpu Obs.Event.Dispatch ~name_id:proc.Process.trace_name_id
    ~detail_id:0 ~a:cpu.Processor.id ~b:0;
  t.cur <- cpu.Processor.id;
  charge t t.timings.Timings.dispatch_ns;
  t.cur <- -1

(* One step on [cpu], the online processor with the smallest clock: wake
   the sleepers and expire the deadlines it has reached (events stamped on
   it), then run its process up to the next syscall, dispatch a ready
   process onto it, or idle it to [idle_target].  [false] when it is idle
   and nothing can ever reach it. *)
let step t (cpu : Processor.t) ~max_ns =
  t.cur <- cpu.Processor.id;
  fire_timers t ~horizon:cpu.Processor.clock_ns;
  t.cur <- -1;
  if cpu.Processor.current >= 0 then begin
    step_process t cpu t.running.(cpu.Processor.id);
    true
  end
  else
    match Dispatch.pop t.dispatch ~eligible:t.eligible.(cpu.Processor.id) with
    | proc when proc != Process.none ->
      dispatch t cpu proc;
      true
    | _ ->
      let target = idle_target t cpu in
      target > cpu.Processor.clock_ns
      &&
      (* Never idle past the caller's horizon: the bound check must fire
         at the bound, not at some distant wake time.  [target > max_ns]
         never holds when [max_ns = max_int], so [max_ns + 1] cannot
         wrap. *)
      let target = if target > max_ns then max_ns + 1 else target in
      cpu.Processor.idle_ns <-
        cpu.Processor.idle_ns + (target - cpu.Processor.clock_ns);
      cpu.Processor.clock_ns <- target;
      true

type progress = {
  local_work : int;
  timed_waits : int;
  ready_unbound : int;
  ready_bound : int array;
  live_timers : int;
  next_timer : int option;
}

(* A copy of the progress state, for the audit in [Fi.check_progress]:
   the heap is walked, so the audit reads every timer's instant. *)
let progress t =
  let timers = Timers.length t.timers and next = ref max_int in
  Timers.iter (fun proc -> next := Int.min !next proc.Process.tm_at) t.timers;
  {
    local_work = t.n_local_work;
    timed_waits = t.n_timed_waits;
    ready_unbound = t.n_ready_unbound;
    ready_bound = Array.copy t.n_ready_bound;
    live_timers = timers;
    next_timer = (if timers = 0 then None else Some !next);
  }

let report t =
  let completed, faulted, deadlocked =
    List.fold_left
      (fun ((c, f, d) as acc) (p : Process.t) ->
        match p.Process.status with
        | Process.Finished -> (c + 1, f, d)
        | Process.Faulted _ -> (c, f + 1, d)
        | Process.Blocked_send _ | Process.Blocked_receive _ ->
          (c, f, p.Process.name :: d)
        | Process.Created | Process.Ready | Process.Running
        | Process.Sleeping ->
          acc)
      (0, 0, []) t.processes
  in
  {
    elapsed_ns = now t;
    completed;
    faulted;
    deadlocked = List.rev deadlocked;
    dispatches = total_dispatches t;
    preemptions = total_preemptions t;
  }

(* Each iteration is one step (what [max_steps] counts) on the online
   processor with the smallest clock, after the injections it has reached
   fire; an injection may take that very processor offline, and then the
   iteration only asks the halting question. *)
let run_loop t ~max_ns ~max_steps =
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr steps;
    continue_ :=
      !steps <= max_steps
      &&
      match min_clock_processor t with
      | -1 -> false (* every GDP has hard-faulted *)
      | i ->
        let cpu = t.processors.(i) in
        cpu.Processor.clock_ns <= max_ns
        &&
        (if t.injections <> [] then fire_injections t cpu;
         ((not cpu.Processor.online) || step t cpu ~max_ns) && can_progress t)
  done

(* Stepping is exclusive: mark the machine for the calling domain, run,
   then release it.  Two overlapping calls from different domains — a
   broken parallel-engine partition — fail loudly here rather than
   corrupting state.  This one check also keeps a second domain off the
   machine's metrics registry while it runs. *)
let advance ?(max_steps = max_int) t ~max_ns =
  let self = (Stdlib.Domain.self () :> int) in
  if t.stepper >= 0 && t.stepper <> self then
    failwith
      (Printf.sprintf "Machine.run: machine is being stepped by domain %d"
         t.stepper);
  t.stepper <- self;
  match run_loop t ~max_ns ~max_steps with
  | () -> t.stepper <- -1
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.stepper <- -1;
    Printexc.raise_with_backtrace e bt

let run ?(max_ns = max_int) ?max_steps t =
  advance ?max_steps t ~max_ns;
  report t

let processor_utilizations t =
  Array.map Processor.utilization t.processors
