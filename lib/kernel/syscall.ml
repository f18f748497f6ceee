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

(* The trace encoding of an op: a detail code and two int arguments, all
   immediate, so a traced deschedule formats and interns nothing.  Text
   comes only from [render], when a trace is read (the machine registers
   it with the tracer) or through [op_to_string], which renders the same
   three ints, so the two cannot drift.  A timed op's or a delay's ns is
   [a].  [Txn_try]'s three list lengths are kept whole: receives in [a],
   sends in [b], writes in the detail above the code's [code_bits].  The
   tracer's detail field bounds the writes at [max_txn_writes]; the
   kernel faults a larger group before it applies, so every traced op
   encodes, and [op_to_string] renders any op. *)
let code_bits = 4
let code_mask = (1 lsl code_bits) - 1
let max_txn_writes = (I432_obs.Tracer.max_ids lsr code_bits) - 1

let encode = function
  | Send { wait = Block; _ } -> 0
  | Receive { wait = Block; _ } -> 1
  | Send { wait = Timeout _; _ } -> 2
  | Receive { wait = Timeout _; _ } -> 3
  | Delay _ -> 4
  | Yield -> 5
  | Preempt -> 6
  | Exit -> 7
  | Txn_try { t_writes; _ } -> 8 lor (List.length t_writes lsl code_bits)

let trace_detail op = I432_obs.Tracer.fits_id (encode op)

let trace_a = function
  | Send { wait = Timeout ns; _ } | Receive { wait = Timeout ns; _ } | Delay ns
    ->
    ns
  | Txn_try { t_receives; _ } -> List.length t_receives
  | Send _ | Receive _ | Yield | Preempt | Exit -> 0

let trace_b = function
  | Txn_try { t_sends; _ } -> List.length t_sends
  | Send _ | Receive _ | Delay _ | Yield | Preempt | Exit -> 0

let render ~detail ~a ~b =
  let ns name = String.concat "" [ name; "("; string_of_int a; "ns)" ] in
  match detail land code_mask with
  | 0 -> "send"
  | 1 -> "receive"
  | 2 -> ns "timed-send"
  | 3 -> ns "timed-receive"
  | 4 -> ns "delay"
  | 5 -> "yield"
  | 6 -> "preempt"
  | 7 -> "exit"
  | 8 ->
    String.concat ""
      [ "txn-try("; string_of_int a; "r/"; string_of_int b; "s/";
        string_of_int (detail lsr code_bits); "w)" ]
  | code -> invalid_arg ("Syscall.render: op code " ^ string_of_int code)

let op_to_string op =
  render ~detail:(encode op) ~a:(trace_a op) ~b:(trace_b op)
