(* Structured kernel events.

   One record per observable kernel transition, stamped with the virtual
   clock of the processor that caused it.  The shape is fixed — two strings
   (interned process/domain names, shared with the kernel's own records, so
   emitting an event never copies them) and two integer arguments whose
   meaning depends on [kind] — so a trace is a flat, bounded-size stream
   the exporters can walk without interpretation.

   Virtual-time stamps make traces deterministic: two runs of the same
   workload produce byte-identical event streams, because nothing in the
   record depends on host wall-clock, allocation addresses, or hash order. *)

type kind =
  | Spawn  (* a=object index *)
  | Exit
  | Finish
  | Fault  (* detail=cause *)
  | Ready  (* process entered the dispatching mix *)
  | Dispatch  (* a=processor id *)
  | Preempt  (* time slice expired *)
  | Yield
  | Block_send  (* a=port index, b=timeout ns of a timed wait, else 0 *)
  | Block_receive  (* a=port index, b=timeout ns of a timed wait, else 0 *)
  | Sleep  (* a=delay ns *)
  | Wake
  | Send  (* a=port index, b=message object index *)
  | Receive  (* a=port index, b=message object index *)
  | Allocate  (* a=object index, b=data length *)
  | Release  (* a=object index *)
  | Sro_create  (* a=SRO index, b=bytes *)
  | Sro_destroy  (* a=SRO index, b=objects reclaimed *)
  | Domain_call  (* detail=domain name, a=domain index *)
  | Domain_return  (* detail=domain name, a=domain index *)
  | Stop
  | Start
  | Gc_mark_begin
  | Gc_mark_end  (* a=objects marked this cycle *)
  | Gc_sweep_begin
  | Gc_sweep_end  (* a=objects swept, b=objects filtered *)
  | Fi_inject  (* detail=injected action, a=kind-specific argument *)
  | Cpu_offline  (* a=processor id *)
  | Proc_requeued  (* a=process index, b=failed processor id *)
  | Alloc_retry  (* a=attempt number, b=backoff ns *)
  | Timeout_fired  (* a=port index, b=0 for send, 1 for receive *)
  | Proc_restarted  (* a=new process index, b=restart count *)
  | Remote_send  (* name=port name, a=channel id, b=frame seq *)
  | Remote_deliver  (* name=port name, a=channel id, b=frame seq *)
  | Frame_tx  (* name=port name, detail=frame kind, a=frame seq, b=dst node *)
  | Frame_rx  (* name=port name, detail=frame kind, a=frame seq, b=src node *)
  | Journal_append  (* name=key, detail=record kind, a=offset, b=bytes *)
  | Journal_sync  (* a=records since last barrier, b=journal length *)
  | Store_compact  (* a=live records kept, b=bytes reclaimed *)
  | Ckpt_save  (* name=key, a=state image bytes, b=virtual time ns *)
  | Ckpt_restore  (* name=key, a=state image bytes, b=virtual time ns *)
  | Req_issue  (* name=user, detail=mix class, a=request id, b=session *)
  | Req_done  (* name=worker, detail=mix class, a=request id, b=latency ns *)
  | Node_kill  (* name=node name, a=node id *)
  | Node_restart  (* name=node name, a=node id, b=name-service epoch *)
  | Frame_dead  (* name=port name, a=frame seq, b=dst node *)
  | Dead_letter  (* name=port name, a=channel id, b=frame seq *)
  | Swap_out  (* name=policy, a=object index, b=segment bytes *)
  | Swap_in  (* name=device name, a=object index, b=segment bytes *)
  | Swap_fault  (* name=process name, a=object index, b=segment bytes *)
  | Txn_commit  (* name=process name, a=idempotency key, b=staged ops *)
  | Txn_abort  (* name=process name, detail=reason, a=key, b=conflict port *)
  | Txn_dup_drop  (* name=where it was caught, a=key, b=node or port *)
  | Hist_append  (* name=object name, a=history seq, b=record bytes *)

type t = {
  seq : int;  (* global emission order, 0-based *)
  ts_ns : int;  (* virtual time of the emitting processor *)
  cpu : int;  (* processor id, -1 outside the run loop (boot/kernel) *)
  kind : kind;
  name : string;  (* process name, or "" *)
  detail : string;  (* kind-specific: syscall, domain, fault cause *)
  a : int;
  b : int;
}

(* Dense integer codes, for storing kinds in the tracer's packed int
   ring.  A constant constructor is represented as its position in the
   type's declaration (OCaml manual, "Interfacing C with OCaml"), and
   [kind] has only constant constructors, so the code is the value
   itself: a primitive the compiler inlines at every call, even across
   modules, on the tracer's hot path.  [kind_of_int] is the inverse on
   [0 .. kind_count - 1]. *)
external kind_to_int : kind -> int = "%identity"

(* The kinds in code order, each with its name and its subsystem (the
   Chrome trace category): [kind_of_int], [kind_to_string] and [category]
   are lookups here.  Module initialisation checks that the table's order
   is the declaration order [kind_to_int] reads. *)
let kinds =
  [|
    (Spawn, "spawn", "proc");
    (Exit, "exit", "proc");
    (Finish, "finish", "proc");
    (Fault, "fault", "proc");
    (Ready, "ready", "dispatch");
    (Dispatch, "dispatch", "dispatch");
    (Preempt, "preempt", "dispatch");
    (Yield, "yield", "dispatch");
    (Block_send, "block-send", "port");
    (Block_receive, "block-receive", "port");
    (Sleep, "sleep", "dispatch");
    (Wake, "wake", "dispatch");
    (Send, "send", "port");
    (Receive, "receive", "port");
    (Allocate, "allocate", "sro");
    (Release, "release", "sro");
    (Sro_create, "sro-create", "sro");
    (Sro_destroy, "sro-destroy", "sro");
    (Domain_call, "domain-call", "domain");
    (Domain_return, "domain-return", "domain");
    (Stop, "stop", "proc");
    (Start, "start", "proc");
    (Gc_mark_begin, "gc-mark-begin", "gc");
    (Gc_mark_end, "gc-mark-end", "gc");
    (Gc_sweep_begin, "gc-sweep-begin", "gc");
    (Gc_sweep_end, "gc-sweep-end", "gc");
    (Fi_inject, "fi-inject", "fi");
    (Cpu_offline, "cpu-offline", "dispatch");
    (Proc_requeued, "proc-requeued", "dispatch");
    (Alloc_retry, "alloc-retry", "sro");
    (Timeout_fired, "timeout-fired", "port");
    (Proc_restarted, "proc-restarted", "proc");
    (Remote_send, "remote-send", "net");
    (Remote_deliver, "remote-deliver", "net");
    (Frame_tx, "frame-tx", "net");
    (Frame_rx, "frame-rx", "net");
    (Journal_append, "journal-append", "store");
    (Journal_sync, "journal-sync", "store");
    (Store_compact, "store-compact", "store");
    (Ckpt_save, "ckpt-save", "store");
    (Ckpt_restore, "ckpt-restore", "store");
    (Req_issue, "req-issue", "load");
    (Req_done, "req-done", "load");
    (Node_kill, "node-kill", "net");
    (Node_restart, "node-restart", "net");
    (Frame_dead, "frame-dead", "net");
    (Dead_letter, "dead-letter", "net");
    (Swap_out, "swap-out", "vm");
    (Swap_in, "swap-in", "vm");
    (Swap_fault, "swap-fault", "vm");
    (Txn_commit, "txn-commit", "txn");
    (Txn_abort, "txn-abort", "txn");
    (Txn_dup_drop, "txn-dup-drop", "txn");
    (Hist_append, "hist-append", "txn");
  |]

let kind_count = Array.length kinds

let () =
  Array.iteri (fun i (k, _, _) -> assert (kind_to_int k = i)) kinds

let kind_of_int n =
  if n < 0 || n >= kind_count then
    invalid_arg (Printf.sprintf "Event.kind_of_int: %d" n)
  else
    let k, _, _ = kinds.(n) in
    k

let kind_to_string k =
  let _, name, _ = kinds.(kind_to_int k) in
  name

let category k =
  let _, _, cat = kinds.(kind_to_int k) in
  cat

(* "#%d %dns cpu%d %s name=%s detail=%s a=%d b=%d", built with one
   concatenation rather than [Printf]'s format interpreter: a trace dump
   or digest calls it once per event. *)
let to_string e =
  String.concat ""
    [ "#"; string_of_int e.seq; " "; string_of_int e.ts_ns; "ns cpu";
      string_of_int e.cpu; " "; kind_to_string e.kind; " name="; e.name;
      " detail="; e.detail; " a="; string_of_int e.a; " b=";
      string_of_int e.b ]

(* Compat shim: render the pre-structured-tracing trace line for the events
   that used to produce one.  The formats are frozen — the seed emitted
   exactly these strings — so legacy consumers see byte-identical output.
   The seed's "descheduled on <op>" line is the event that took the
   process off its processor: each way off has its own kind, and a timed
   wait's or a delay's ns rides in its ints. *)
let legacy_line e =
  let descheduled op =
    Some (Printf.sprintf "process %s descheduled on %s" e.name op)
  in
  let timed op ns = descheduled (Printf.sprintf "%s(%dns)" op ns) in
  match e.kind with
  | Spawn -> Some (Printf.sprintf "spawn %s as process %d" e.name e.a)
  | Stop -> Some (Printf.sprintf "stop %s" e.name)
  | Start -> Some (Printf.sprintf "start %s" e.name)
  | Finish -> Some (Printf.sprintf "process %s finished" e.name)
  | Block_send when e.b > 0 -> timed "timed-send" e.b
  | Block_send -> descheduled "send"
  | Block_receive when e.b > 0 -> timed "timed-receive" e.b
  | Block_receive -> descheduled "receive"
  | Sleep -> timed "delay" e.a
  | Yield -> descheduled "yield"
  | Preempt -> descheduled "preempt"
  | Exit -> descheduled "exit"
  | Fault | Ready | Dispatch | Wake | Send | Receive | Allocate | Release
  | Sro_create | Sro_destroy | Domain_call | Domain_return | Gc_mark_begin
  | Gc_mark_end | Gc_sweep_begin | Gc_sweep_end | Fi_inject | Cpu_offline
  | Proc_requeued | Alloc_retry | Timeout_fired | Proc_restarted
  | Remote_send | Remote_deliver | Frame_tx | Frame_rx | Journal_append
  | Journal_sync | Store_compact | Ckpt_save | Ckpt_restore | Req_issue
  | Req_done | Node_kill | Node_restart | Frame_dead | Dead_letter
  | Swap_out | Swap_in | Swap_fault | Txn_commit | Txn_abort | Txn_dup_drop
  | Hist_append -> None
