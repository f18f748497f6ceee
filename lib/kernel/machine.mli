(** The simulated 432 system: shared memory, global object table, N general
    data processors, and the hardware dispatching port.

    The run loop is a deterministic discrete-event simulation.  Process
    bodies are ordinary OCaml functions; they invoke the charged instruction
    wrappers below for non-blocking work and the syscall wrappers
    ({!send}, {!receive}, {!delay}, {!yield}) for potentially blocking
    instructions, which suspend the process via an effect. *)

open I432

(** Raised when a process below system level 3 faults (paper §7.3). *)
exception Kernel_panic of string

type config = {
  processors : int;
  memory_bytes : int;
  timings : Timings.t;
  bus_alpha_per_mille : int;  (** bus contention per extra processor *)
  global_heap_bytes : int;  (** size of the boot-time level-0 SRO *)
  trace_level : I432_obs.Tracer.level;
  trace_capacity : int;  (** events the trace ring retains *)
}

val default_config : config

type run_report = {
  elapsed_ns : int;
  completed : int;
  faulted : int;
  deadlocked : string list;
  dispatches : int;
  preemptions : int;
}

type t

(** [Invalid_argument] unless [processors > 0], and, when traced, at most
    {!I432_obs.Tracer.max_cpus}. *)
val create : ?config:config -> unit -> t

(** {1 Accessors} *)

val table : t -> Object_table.t
val memory : t -> Memory.t
val timings : t -> Timings.t
val bus : t -> Bus.t

(** The level-0 global heap every process can allocate from (paper §5). *)
val global_sro : t -> Access.t

val processor_count : t -> int

(** {1 Observability} *)

(** The machine's event tracer (one bounded ring, shared by its
    processors). *)
val tracer : t -> I432_obs.Tracer.t

(** The machine's metrics registry (counters, gauges, histograms).
    [port.sends]/[port.receives] count process transfers and
    {!deliver_external} only, unlike {!port_stats}; [dispatch.enqueues]
    skips {!set_stopped}'s and {!set_priority}'s re-enqueues. *)
val metrics : t -> I432_obs.Metrics.t

(** All retained structured events, in emission order. *)
val events : t -> I432_obs.Event.t list

(** Record one event, stamped with the executing processor's id and
    virtual clock (-1 and the maximum clock outside the run loop).
    [name_id]/[detail_id] come from {!string_id}; intern a fixed string
    once, not per event.  No-op unless the machine is traced. *)
val emit :
  t ->
  I432_obs.Event.kind ->
  name_id:int ->
  detail_id:int ->
  a:int ->
  b:int ->
  unit

(** The machine tracer's id for a string ({!I432_obs.Tracer.string_id}):
    0 when tracing is off.  Valid only on this machine. *)
val string_id : t -> string -> int

(** Every fault the machine recorded, in emission order: the first fault
    recorded is the first element.  (Internally the list is accumulated
    newest-first for O(1) prepends and reversed here.) *)
val faults : t -> (string * Fault.cause) list

(** Virtual time: the executing processor's clock, or the maximum clock when
    called outside the run loop. *)
val now : t -> int

(** Charge virtual nanoseconds to the running processor (bus-adjusted).
    No-op outside the run loop. *)
val charge : t -> int -> unit

(** {1 Charged instruction wrappers} *)

val compute : t -> int -> unit
val read_word : t -> Access.t -> offset:int -> int
val write_word : t -> Access.t -> offset:int -> int -> unit
val read_bytes : t -> Access.t -> offset:int -> len:int -> Bytes.t
val write_bytes : t -> Access.t -> offset:int -> Bytes.t -> unit
val load_access : t -> Access.t -> slot:int -> Access.t option
val store_access : t -> Access.t -> slot:int -> Access.t option -> unit

(** The create-object instruction: ~80 µs of virtual time. *)
val allocate :
  t ->
  Access.t ->
  data_length:int ->
  access_length:int ->
  otype:Obj_type.t ->
  Access.t

val allocate_generic :
  t -> ?data_length:int -> ?access_length:int -> unit -> Access.t

val release : t -> Access.t -> index:int -> unit

(** Create a local heap (an SRO at the given lifetime level) carved from the
    global heap's store.  [~level:0] makes a global heap instead: one that
    {!destroy_sro} refuses, whose objects are reclaimed one at a time. *)
val create_local_sro : t -> level:int -> bytes:int -> Access.t

(** Destroy a local heap, bulk-reclaiming every object it created.  Returns
    the number of objects reclaimed.  Raises [Fault Protocol] on a global
    heap (level 0), before charging the destroy time. *)
val destroy_sro : t -> Access.t -> int

(** Inter-domain call: charges the ~65 µs domain switch (paper §2).  With
    [timeout_ns], a virtual-time watchdog: if the callee consumed more
    than the budget, raises [Fault.Timeout] even though the call
    completed. *)
val domain_call : t -> ?timeout_ns:int -> Access.t -> (unit -> 'a) -> 'a

(** Ordinary activation within the current domain, for comparison. *)
val intra_call : t -> (unit -> 'a) -> 'a

(** Call [f] inside a fresh activation record whose lifetime level is one
    greater than the caller's; the context object is passed in for
    capability locals and destroyed on return.  Must be called from inside
    a process body. *)
val call_in_context : t -> ?slots:int -> (Access.t -> 'a) -> 'a

(** The running process's current activation record, if any. *)
val current_context : t -> Access.t option

(** Route faulted processes' objects to a supervisor port. *)
val set_fault_port : t -> Access.t -> unit

(** {1 Ports} *)

(** The largest port capacity: a port queues its messages in its
    object's access part, which holds at most
    {!I432.Object_table.max_access_length} descriptors. *)
val max_port_capacity : int

(** Raises [Invalid_argument] for a capacity below 1 or above
    {!max_port_capacity}. *)
val create_port :
  t ->
  ?sro:Access.t option ->
  capacity:int ->
  discipline:Port.discipline ->
  unit ->
  Access.t

(** (sends, receives, send_blocks, receive_blocks, max_depth,
    mean_queue_wait_ns).  The sends and receives are {!Port.t}'s: unlike
    the [port.*] metrics, they count posts to a fault or scheduler port. *)
val port_stats : t -> Access.t -> int * int * int * int * int * float

(** {1 Processes} *)

(** Create a process and place it in the dispatching mix.  [daemon]
    processes do not keep the machine alive.  [system_level] is the iMAX
    internal level (below 3, faulting panics the machine). *)
val spawn :
  t ->
  ?priority:int ->
  ?daemon:bool ->
  ?system_level:int ->
  ?name:string ->
  ?sro:Access.t ->
  ?start_after:int ->
  (unit -> unit) ->
  Access.t

val process_state : t -> Access.t -> Process.t

(** Kernel half of stop/start: flip the in-dispatching-mix bit and notify
    the scheduler port.  The nested counts live in iMAX's process manager. *)
val set_stopped : t -> Access.t -> bool -> unit

val set_priority : t -> Access.t -> int -> unit
val set_scheduler_port : t -> Access.t -> Access.t -> unit

(** Bind a process to one processor ([None] lifts the binding) — the
    observable equivalent of the 432's partitioned dispatching ports. *)
val set_affinity : t -> Access.t -> int option -> unit

(** {1 GC roots} *)

val add_root : t -> Access.t -> unit
val remove_root : t -> Access.t -> unit
val roots : t -> Access.t list
val all_processes : t -> Process.t list

(** {1 Syscalls (usable only inside a process body)} *)

(** The port instructions are one send and one receive
    ({!Syscall.Send}/{!Syscall.Receive}) that differ only in how long
    they may wait: until served, at most a budget, or not at all. *)

val send : t -> port:Access.t -> msg:Access.t -> unit
val receive : t -> port:Access.t -> Access.t

(** Like {!send}, but gives up once [timeout_ns] of virtual time has
    passed with the queue still full; reports acceptance.  A budget
    [<= 0] polls: it is {!cond_send}. *)
val send_timeout : t -> port:Access.t -> msg:Access.t -> timeout_ns:int -> bool

(** Like {!receive}, but returns [None] once [timeout_ns] of virtual time
    has passed with no message available.  A budget [<= 0] polls: it is
    {!cond_receive}. *)
val receive_timeout : t -> port:Access.t -> timeout_ns:int -> Access.t option

(** {!send_timeout} with a zero budget: never blocks. *)
val cond_send : t -> port:Access.t -> msg:Access.t -> bool

(** {!receive_timeout} with a zero budget: never blocks. *)
val cond_receive : t -> port:Access.t -> Access.t option

val delay : t -> ns:int -> unit
val yield : t -> unit
val exit_process : t -> 'a

(** One atomic attempt at a multi-port transaction group: validate every
    staged receive, send, and data write, then apply all of them at one
    virtual-time instant — or apply none and report the first conflicting
    object in deterministic (ascending index) order.  Never blocks.  A
    nonzero [key] makes the group idempotent: a key that already
    committed skips receives and writes and re-issues the sends
    best-effort ([fresh = false]).  Retry/abort policy lives above the
    kernel ({!I432_txn.Txn}). *)
val txn_try :
  t ->
  key:int ->
  ?receives:Access.t list ->
  ?sends:(Access.t * Access.t) list ->
  ?writes:(Access.t * int * int) list ->
  unit ->
  Syscall.txn_result

(** Idempotency keys of applied transaction groups, ascending.  Part of
    the replayed machine state (checkpoint restores rebuild it). *)
val txn_applied_keys : t -> int list

(** [List.length (txn_applied_keys t)], without building or sorting the
    list. *)
val txn_applied_count : t -> int

(** Count one re-issued send of a committed group dropped, under
    [txn.dup_drops]. *)
val count_txn_dup_drop : t -> unit

(** {1 Interconnect hooks}

    The kernel surface used by the virtual interconnect ({!I432_net}).  A
    node's NIC pump runs between run-loop slices: it drains surrogate
    ports into frames and lands reconstructed messages in home ports.
    Unreachable without a cluster, so single-machine runs are unchanged. *)

(** Queue [msg] at a port on behalf of no process, then hand the queue
    head to a parked receiver, if any, readying it.  Counts the send (and
    the receive when one is served); the caller checks for room.  [true]
    when a receiver was served.  Every delivery made on behalf of no
    process goes through it: the NIC, the fault port, the scheduler port
    and the collector's destruction filters. *)
val post :
  t -> Port.t -> ?txn:int -> msg:Access.t -> priority:int -> unit -> bool

(** Deliver a message into a port from outside the run loop, waking a
    blocked receiver exactly as a local send would.  [false] when the
    queue is full.  [txn] re-tags the message with the committing
    transaction's idempotency key carried by the frame (0 = none). *)
val deliver_external :
  t -> ?txn:int -> port:Access.t -> msg:Access.t -> priority:int -> unit -> bool

(** Withdraw the head message of a port in service order, admitting (and
    readying) one blocked sender into the freed slot; [None] when the
    queue is empty.  The message's priority, enqueue instant and [txn]
    (the committing transaction's idempotency key, 0 = not
    transactional) are left in the port's [last_*] fields. *)
val drain_one : t -> Port.t -> Access.t option

(** {!drain_one} up to [max] times.  Returns
    [(msg, priority, enqueued_at, txn)] per message. *)
val drain_port :
  t -> ?max:int -> port:Access.t -> unit -> (Access.t * int * int * int) list

(** Advance every idle processor's clock to [to_ns] (as idle time), so a
    delivered message cannot be consumed before its frame arrived.  Busy
    processors are untouched. *)
val advance_idle_clocks : t -> to_ns:int -> unit

(** {1 Fault injection and recovery}

    Deterministic chaos: an injection is an action scheduled at a virtual
    instant; the run loop fires due injections on the processor it is
    about to advance, so identical plans replay identically.  All of this
    is inert unless a plan is armed — with no injections scheduled, every
    run is byte-identical to one on a machine without the subsystem. *)

type injection =
  | Inj_cpu_fault of int
      (** hard-fault the GDP with this id: it goes offline forever, its
          running process is requeued, bindings to it are lifted *)
  | Inj_transient of int
      (** the next body instruction charged on this GDP raises a
          [Fault.Transient] fault in the running process *)
  | Inj_alloc_fault of int
      (** force the next n process-context allocations to raise
          [Fault.Storage_exhausted] *)
  | Inj_port_delay of int
      (** charge this many extra virtual ns at the next port syscall *)

val injection_to_string : injection -> string

(** Schedule [injection] to fire at virtual time [at_ns]. *)
val schedule_injection : t -> at_ns:int -> injection -> unit

(** The not-yet-fired injections, in firing order, plus the armed one-shot
    counters ([Inj_alloc_fault]/[Inj_port_delay] that fired but have not
    been consumed).  Folded into checkpoint state images so a restored
    run faces the same remaining chaos. *)
val pending_injections : t -> (int * injection) list

val armed_alloc_faults : t -> int
val armed_port_delay_ns : t -> int

(** Hard-fault a processor immediately (what [Inj_cpu_fault] fires).
    Idempotent; raises [Invalid_argument] for an unknown id. *)
val fail_processor : t -> int -> unit

(** Number of processors still online. *)
val online_processors : t -> int

(** Bounded retry around {!allocate}: on [Storage_exhausted], run the
    reclaim hook (if registered), charge [backoff_ns] of virtual time
    (doubled per attempt, default 100 µs), and retry up to [max_retries]
    times (default 4) before re-raising. *)
val allocate_retry :
  t ->
  Access.t ->
  ?max_retries:int ->
  ?backoff_ns:int ->
  data_length:int ->
  access_length:int ->
  otype:Obj_type.t ->
  unit ->
  Access.t

(** Register the storage-reclaim hook {!allocate_retry} runs between
    attempts (typically a GC cycle); returns objects reclaimed. *)
val set_reclaim_hook : t -> (unit -> int) option -> unit

(** Register a hook called after a fault is recorded in a process the
    machine survives (supervision restart policies hang off this). *)
val set_fault_hook : t -> (Process.t -> Fault.cause -> unit) option -> unit

(** {1 Running} *)

(** A live non-daemon process could run without outside input: it is in
    the dispatching mix and created, ready or running, or it sleeps.
    Port-blocked processes do not count.  Reads one count. *)
val has_local_work : t -> bool

(** The state the run loop's progress predicates read, kept at every
    status transition rather than recounted (DESIGN.md §6).  "In the mix"
    means not stopped. *)
type progress = {
  local_work : int;
      (** non-daemon processes in the mix that are created, ready,
          running or asleep *)
  timed_waits : int;  (** non-daemon port waits with an armed deadline *)
  ready_unbound : int;  (** ready processes in the mix without a binding *)
  ready_bound : int array;
      (** per processor: ready processes in the mix bound to it *)
  live_timers : int;  (** timer-heap entries: sleeps, armed deadlines *)
  next_timer : int option;  (** the earliest entry's instant *)
}

(** A copy of the progress state (the audit {!I432_fi.Fi.check_invariants}
    compares with a recount over {!all_processes}). *)
val progress : t -> progress

(** Run until nothing can make progress, or a bound is hit.  Nothing can
    when no processor is running a process, no process has local work
    ({!has_local_work}), no user process waits with an armed deadline,
    and no ready process may be dispatched by an online processor. *)
val run : ?max_ns:int -> ?max_steps:int -> t -> run_report

(** {!run} without its report: what the cluster round calls, since
    building a report walks every process.  Stepping is exclusive to one
    domain at a time; a call from a second domain while one is stepping
    fails. *)
val advance : ?max_steps:int -> t -> max_ns:int -> unit

(** Sum of busy time across processors: the "total processing power"
    delivered. *)
val total_busy_ns : t -> int

val processor_utilizations : t -> float array
