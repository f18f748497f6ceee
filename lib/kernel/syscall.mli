(** The kernel boundary of a simulated process.

    Every potentially blocking 432 instruction is performed as an effect;
    the machine's run loop handles it, charges virtual time, and either
    resumes the process or suspends it. *)

open I432

(** How long a port op may wait when it cannot complete at once. *)
type wait =
  | Block  (** until a peer serves it *)
  | Timeout of int
      (** at most this many virtual ns, then give up; [<= 0] polls *)

type op =
  | Send of { port : Access.t; msg : Access.t; wait : wait }
      (** waits while the port's message queue is full; the result
          reports whether the message was accepted *)
  | Receive of { port : Access.t; wait : wait }
      (** waits while no message is available; the result is
          [R_no_msg] when the op gave up *)
  | Delay of int  (** sleep for the given virtual nanoseconds *)
  | Yield  (** surrender the processor, stay ready *)
  | Preempt  (** involuntary yield injected at time-slice end *)
  | Exit  (** voluntary termination *)
  | Txn_try of {
      t_key : int;  (** idempotency key; a key is applied at most once *)
      t_receives : Access.t list;  (** ports to take one message from *)
      t_sends : (Access.t * Access.t) list;  (** (port, msg) to deliver *)
      t_writes : (Access.t * int * int) list;
          (** (object, byte offset, i32 word) data writes *)
    }
      (** one atomic attempt at a multi-port group: validate every staged
          operation in ascending port-id order, then apply all of them at
          one virtual-time instant, or apply none and report the first
          conflicting port.  Never blocks; retry/abort policy lives above
          the kernel ({!I432_txn.Txn}). *)

(** A process's one message slot.  The kernel writes each message it
    delivers here and resumes the process with the process's prebuilt
    [R_msg] of it, so a delivery allocates nothing; the body reads the
    message before its next syscall, the only point a new one can land. *)
type mailbox = { mutable msg : Access.t }

type result =
  | R_unit
  | R_accepted of bool
  | R_msg of mailbox  (** a received message *)
  | R_no_msg  (** a timed or polling receive gave up *)
  | R_txn of txn_result

and txn_result =
  | Txn_committed of {
      received : Access.t list;  (** receives, in staging order *)
      commit_ns : int;  (** the commit's virtual-time instant *)
      fresh : bool;
          (** [false]: the key had already been applied — receives and
              writes were skipped, sends were re-issued best-effort (the
              reply-cache semantics a retried commit needs) *)
    }
  | Txn_conflict of { port : int; reason : string }
      (** first conflicting port in validation order; [port] is [-1] when
          the conflict is not port-shaped (e.g. a swapped-out write
          target's object index is reported instead) *)

type _ Effect.t += Syscall : op -> result Effect.t

(** Perform one syscall; only meaningful inside a process body running
    under the machine's handler. *)
val perform : op -> result
