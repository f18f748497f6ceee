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
      (** waits while no message is available; the result is [None]
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

type result =
  | R_unit
  | R_accepted of bool
  | R_msg_option of Access.t option
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

(* The blocking forms return literals: the tracer interns a Deschedule
   detail by physical equality, so "send"/"receive" must stay constants. *)
let op_to_string = function
  | Send { wait = Block; _ } -> "send"
  | Receive { wait = Block; _ } -> "receive"
  | Send { wait = Timeout ns; _ } -> Printf.sprintf "timed-send(%dns)" ns
  | Receive { wait = Timeout ns; _ } -> Printf.sprintf "timed-receive(%dns)" ns
  | Delay ns -> Printf.sprintf "delay(%dns)" ns
  | Yield -> "yield"
  | Preempt -> "preempt"
  | Exit -> "exit"
  | Txn_try { t_receives; t_sends; t_writes; _ } ->
    Printf.sprintf "txn-try(%dr/%ds/%dw)" (List.length t_receives)
      (List.length t_sends) (List.length t_writes)
