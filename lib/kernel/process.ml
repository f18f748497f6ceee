(* Process objects.

   The hardware's process object "contains the information for scheduling
   ... processes, dispatching them on any one of several potentially
   available processors, and sending them back to software when various
   fault or scheduling conditions arise" (paper §5).  The body of a process
   is an OCaml function executed as an effect-handler coroutine: each
   potentially blocking instruction performs a {!Syscall} effect, at which
   point the run loop takes over.

   The [stopped] flag and the scheduler notification port implement the
   kernel half of the basic process manager's contract (§6.1): iMAX keeps
   the nested stop/start counts; the kernel keeps a single in/out-of-mix
   bit and tells the scheduler whenever it flips.

   Host-cost structure: a syscall allocates only the effect and its
   continuation.  The handler is built once per process ([start_body]);
   its [effc] parks the op in [op] and returns the same prebuilt [Some]
   every time, whose function parks the continuation in the process's
   one [Suspended] block, allocated at the first syscall and rewritten
   after.  [Pending] carries nothing.  A message handed to the process
   comes back in its one [delivered] result, rewritten per delivery.

   The kernel's other queues link through the process too, so none of
   them allocates per entry: the dispatching port's ready queue ([q_*],
   see {!Dispatch}), a port's parked receivers ([w_*], see {!Port}), and
   the machine's timer heap ([tm_*], see {!Timers}), where a process
   holds at most one timer. *)

open I432

type status =
  | Created  (* not yet in the dispatching mix *)
  | Ready
  | Running
  | Blocked_send of int  (* port object index *)
  | Blocked_receive of int
  | Sleeping
  | Finished
  | Faulted of Fault.cause

type outcome =
  | Completed
  | Raised of exn
  | Pending  (* the op is in [op], the continuation in [code] *)

type code =
  | Not_started of (unit -> unit)
  | Suspended of {
      mutable k : (Syscall.result, outcome) Effect.Deep.continuation;
    }
  | Terminated

type t = {
  index : int;  (* object-table index of the process object *)
  ordinal : int;  (* spawn order on its machine: 0 for the first process *)
  name : string;
  daemon : bool;  (* daemons do not keep the machine alive *)
  mutable code : code;
  mutable status : status;
  mutable stopped : bool;  (* out of the dispatching mix (kernel bit) *)
  mutable priority : int;  (* higher runs first *)
  mutable pending : Syscall.result;  (* delivered at next resume *)
  mutable wake_at : int;  (* for Sleeping *)
  mutable timeout_at : int option;  (* deadline for a timed blocking op *)
  mutable cpu_ns : int;  (* total virtual time consumed *)
  mutable slice_used_ns : int;  (* since last dispatch *)
  mutable last_ready_ns : int;  (* when the process last entered the mix *)
  mutable trace_name_id : int;  (* the tracer's interned id for [name] *)
  mutable system_level : int;  (* iMAX internal level (§7.3); 4 = user *)
  mutable affinity : int option;  (* restrict dispatch to one processor *)
  mutable scheduler_port : int option;  (* notified on mix transitions *)
  mutable local_roots : Access.t list;  (* GC shadow stack *)
  mutable call_depth : int;  (* lifetime level of the current context *)
  mutable contexts : Access.t list;  (* activation-record stack, top first *)
  mutable dispatches : int;
  mutable preemptions : int;
  mutable blocks : int;
  mutable messages_sent : int;
  mutable messages_received : int;
  mutable op : Syscall.op;  (* the syscall parked by the last [Pending] *)
  mailbox : Syscall.mailbox;  (* the message in [delivered] *)
  delivered : Syscall.result;  (* [R_msg mailbox], built once *)
  (* Its timer on the machine's heap, kept by Machine alone: the key
     (instant clamped at 0, arm stamp), the instant, and its heap slot,
     -1 when it has no timer. *)
  mutable tm_key : int;
  mutable tm_arm : int;
  mutable tm_at : int;
  mutable tm_pos : int;
  (* Neighbours among the receivers parked at its port, kept by Port. *)
  mutable w_next : t;
  mutable w_prev : t;
  (* Dispatching-port queue state, kept by Dispatch alone. *)
  mutable q_next : t;  (* FIFO neighbours in its priority level *)
  mutable q_prev : t;
  mutable q_prio : int;  (* key of its linked entry *)
  mutable q_seq : int;
  mutable q_count : int;  (* live entries *)
  mutable q_more : (int * int) list;  (* keys of the others, served later *)
}

type Object_table.payload += Process_state of t

let none_mailbox = { Syscall.msg = Access.make ~index:0 ~rights:Rights.none }

(* The absent process: queue links and empty processor slots point here.
   Nothing ever writes its fields. *)
let rec none =
  {
    index = -1;
    ordinal = -1;
    name = "";
    daemon = true;
    code = Terminated;
    status = Created;
    stopped = false;
    priority = 0;
    pending = Syscall.R_unit;
    wake_at = 0;
    timeout_at = None;
    cpu_ns = 0;
    slice_used_ns = 0;
    last_ready_ns = 0;
    trace_name_id = 0;
    system_level = 4;
    affinity = None;
    scheduler_port = None;
    local_roots = [];
    call_depth = 0;
    contexts = [];
    dispatches = 0;
    preemptions = 0;
    blocks = 0;
    messages_sent = 0;
    messages_received = 0;
    op = Syscall.Yield;
    mailbox = none_mailbox;
    delivered = Syscall.R_msg none_mailbox;
    tm_key = 0;
    tm_arm = 0;
    tm_at = 0;
    tm_pos = -1;
    w_next = none;
    w_prev = none;
    q_next = none;
    q_prev = none;
    q_prio = 0;
    q_seq = 0;
    q_count = 0;
    q_more = [];
  }

let create ~index ~ordinal ~name ~daemon ~priority ~system_level body =
  let mailbox = { Syscall.msg = none_mailbox.Syscall.msg } in
  {
    none with
    mailbox;
    delivered = Syscall.R_msg mailbox;
    index;
    ordinal;
    name;
    daemon;
    code = Not_started body;
    priority;
    system_level;
  }

let state_of table access =
  Segment.check_type table access Obj_type.Process;
  let e = Object_table.entry_of_access table access in
  match e.Object_table.payload with
  | Some (Process_state p) -> p
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "process object has no process state")

let state_of_index table index =
  let e = Object_table.lookup table index in
  match e.Object_table.payload with
  | Some (Process_state p) -> p
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "process object has no process state")

(* Run the body until its first syscall, completion, or exception.  The
   handler and the [Some] its [effc] returns are built here, once per
   process: matching [Syscall.Syscall] refines the effect's result type to
   [Syscall.result], so the one prebuilt [park] fits every syscall. *)
let start_body t body =
  let park =
    Some
      (fun k ->
        (match t.code with
        | Suspended s -> s.k <- k
        | Not_started _ | Terminated -> t.code <- Suspended { k });
        Pending)
  in
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          t.code <- Terminated;
          Completed);
      exnc =
        (fun e ->
          t.code <- Terminated;
          Raised e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, outcome) Effect.Deep.continuation -> outcome) option ->
          match eff with
          | Syscall.Syscall op ->
            t.op <- op;
            park
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

(* Advance the coroutine one step, delivering the pending syscall result.
   A continuation resumes once: stepping a process whose body is already
   running raises [Effect.Continuation_already_resumed]. *)
let step t =
  match t.code with
  | Suspended s -> Effect.Deep.continue s.k t.pending
  | Not_started body ->
    t.code <- Terminated;
    (* [park] replaces it at the first syscall *)
    start_body t body
  | Terminated ->
    Fault.raise_fault (Fault.Protocol "stepping a terminated process")

let is_terminal t =
  match t.status with
  | Finished | Faulted _ -> true
  | Created | Ready | Running | Blocked_send _ | Blocked_receive _ | Sleeping
    ->
    false

let status_to_string = function
  | Created -> "created"
  | Ready -> "ready"
  | Running -> "running"
  | Blocked_send p -> Printf.sprintf "blocked-send(%d)" p
  | Blocked_receive p -> Printf.sprintf "blocked-receive(%d)" p
  | Sleeping -> "sleeping"
  | Finished -> "finished"
  | Faulted c -> "faulted: " ^ Fault.to_string c
