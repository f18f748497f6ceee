(* The kernel boundary of a simulated process.

   Every potentially blocking 432 instruction is performed as an effect; the
   machine's run loop handles it, charges virtual time, and either resumes
   the process immediately or suspends it (saving the one-shot continuation
   in the process object). *)

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
      (** waits while no message is available; the result is [R_no_msg]
          when the op gave up *)
  | Delay of int  (** sleep for the given virtual nanoseconds *)
  | Yield  (** surrender the processor, stay ready *)
  | Preempt  (** involuntary yield injected at time-slice end *)
  | Exit  (** voluntary termination *)
  | Txn_try of {
      t_key : int;
      t_receives : Access.t list;
      t_sends : (Access.t * Access.t) list;  (** (port, msg) *)
      t_writes : (Access.t * int * int) list;  (** (object, offset, word) *)
    }
      (** one atomic attempt at a multi-port group: validate every staged
          operation, then apply all of them at one virtual-time instant,
          or apply none and report the first conflicting port.  Never
          blocks; retry/abort policy lives above the kernel (lib/txn). *)

(* A process's one message slot: the kernel writes each message it
   delivers here and resumes the process with the process's prebuilt
   [R_msg] of it, so a delivery allocates nothing.  The body reads the
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
      fresh : bool;  (** false: key already applied, commit skipped *)
    }
  | Txn_conflict of { port : int; reason : string }

type _ Effect.t += Syscall : op -> result Effect.t

let perform op = Effect.perform (Syscall op)
