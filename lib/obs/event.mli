(** Structured kernel events: fixed-shape records stamped with virtual
    time, so two identical runs produce byte-identical streams. *)

type kind =
  | Spawn  (** a=object index *)
  | Exit
  | Finish
  | Fault  (** detail=cause *)
  | Ready  (** process entered the dispatching mix *)
  | Dispatch  (** a=processor id *)
  | Preempt
  | Yield
  | Block_send  (** a=port index, b=timeout ns of a timed wait, else 0 *)
  | Block_receive  (** a=port index, b=timeout ns of a timed wait, else 0 *)
  | Sleep  (** a=delay ns *)
  | Wake
  | Send  (** a=port index, b=message object index *)
  | Receive  (** a=port index, b=message object index *)
  | Allocate  (** a=object index, b=data length *)
  | Release  (** a=object index *)
  | Sro_create  (** a=SRO index, b=bytes *)
  | Sro_destroy  (** a=SRO index, b=objects reclaimed *)
  | Domain_call  (** detail=domain name, a=domain index *)
  | Domain_return  (** detail=domain name, a=domain index *)
  | Stop
  | Start
  | Gc_mark_begin
  | Gc_mark_end  (** a=objects marked this cycle *)
  | Gc_sweep_begin
  | Gc_sweep_end  (** a=objects swept, b=objects filtered *)
  | Fi_inject  (** detail=injected action, a=kind-specific argument *)
  | Cpu_offline  (** a=processor id *)
  | Proc_requeued  (** a=process index, b=failed processor id *)
  | Alloc_retry  (** a=attempt number, b=backoff ns *)
  | Timeout_fired  (** a=port index, b=0 for send, 1 for receive *)
  | Proc_restarted  (** a=new process index, b=restart count *)
  | Remote_send  (** name=port name, a=channel id, b=frame seq *)
  | Remote_deliver  (** name=port name, a=channel id, b=frame seq *)
  | Frame_tx  (** name=port name, detail=frame kind, a=frame seq, b=dst node *)
  | Frame_rx  (** name=port name, detail=frame kind, a=frame seq, b=src node *)
  | Journal_append  (** name=key, detail=record kind, a=offset, b=bytes *)
  | Journal_sync  (** a=records since last barrier, b=journal length *)
  | Store_compact  (** a=live records kept, b=bytes reclaimed *)
  | Ckpt_save  (** name=key, a=state image bytes, b=virtual time ns *)
  | Ckpt_restore  (** name=key, a=state image bytes, b=virtual time ns *)
  | Req_issue  (** name=user, detail=mix class, a=request id, b=session *)
  | Req_done  (** name=worker, detail=mix class, a=request id, b=latency ns *)
  | Node_kill  (** name=node name, a=node id *)
  | Node_restart  (** name=node name, a=node id, b=name-service epoch *)
  | Frame_dead  (** name=port name, a=frame seq, b=dst node *)
  | Dead_letter  (** name=port name, a=channel id, b=frame seq *)
  | Swap_out  (** name=policy, a=object index, b=segment bytes *)
  | Swap_in  (** name=device name, a=object index, b=segment bytes *)
  | Swap_fault  (** name=process name, a=object index, b=segment bytes *)
  | Txn_commit  (** name=process name, a=idempotency key, b=staged ops *)
  | Txn_abort  (** name=process name, detail=reason, a=key, b=conflict port *)
  | Txn_dup_drop  (** name=where it was caught, a=key, b=node or port *)
  | Hist_append  (** name=object name, a=history seq, b=record bytes *)

type t = {
  seq : int;  (** global emission order, 0-based *)
  ts_ns : int;  (** virtual time of the emitting processor *)
  cpu : int;  (** processor id, -1 outside the run loop *)
  kind : kind;
  name : string;  (** process name, or "" *)
  detail : string;  (** kind-specific: syscall, domain, fault cause *)
  a : int;
  b : int;
}

val kind_to_string : kind -> string

(** Dense integer code of a kind (0-based, in declaration order), and its
    inverse.  Used by the tracer's packed ring; [kind_to_int] costs
    nothing.  [kind_of_int] raises [Invalid_argument] outside the valid
    range. *)
external kind_to_int : kind -> int = "%identity"

val kind_of_int : int -> kind

(** Number of kinds; codes are the dense range [0 .. kind_count - 1]. *)
val kind_count : int

(** Subsystem of the event: proc, dispatch, port, sro, domain, gc, fi,
    net, store, load, vm or txn. *)
val category : kind -> string

val to_string : t -> string

(** Compat shim: the seed's unstructured trace line for this event
    (byte-identical formats): spawn, stop, start and finish, and the
    seed's "process X descheduled on <op>" for each event that takes a
    process off its processor — block-send, block-receive, sleep, yield,
    preempt and exit. *)
val legacy_line : t -> string option
