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
   bit and tells the scheduler whenever it flips. *)

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
  | Pending of Syscall.op * (Syscall.result, outcome) Effect.Deep.continuation

type code =
  | Not_started of (unit -> unit)
  | Suspended of (Syscall.result, outcome) Effect.Deep.continuation
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
  mutable timer : int;  (* arm stamp of its live timer-heap entry *)
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
}

type Object_table.payload += Process_state of t

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

(* Run the body until its first syscall, completion, or exception. *)
let start_body body =
  let handler =
    {
      Effect.Deep.retc = (fun () -> Completed);
      exnc = (fun e -> Raised e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Syscall.Syscall op ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                Pending (op, k))
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

(* Advance the coroutine one step, delivering the pending syscall result. *)
let step t =
  match t.code with
  | Not_started body ->
    t.code <- Terminated;
    (* replaced below if the body suspends *)
    start_body body
  | Suspended k ->
    t.code <- Terminated;
    Effect.Deep.continue k t.pending
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
