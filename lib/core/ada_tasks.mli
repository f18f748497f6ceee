(** The Ada intertask (rendezvous) model, implemented on 432 ports — the
    compiler mapping the paper describes in §4.

    Tasks are 432 processes; an entry is a request port carrying
    (parameter, reply-port) carrier objects; a rendezvous suspends the
    caller until the acceptor replies. *)

open I432

type task
type entry

val create_task :
  I432_kernel.Machine.t -> ?priority:int -> name:string -> (unit -> unit) -> task

val create_entry : I432_kernel.Machine.t -> ?queue:int -> unit -> entry

val call_count : entry -> int
val accept_count : entry -> int

(** Synchronous entry call: blocks until the acceptor replies.  Returns the
    result object. *)
val call : entry -> parameter:Access.t -> Access.t

(** Accept one queued (or future) call, run [body] on the parameter, and
    reply with its result. *)
val accept : entry -> body:(Access.t -> Access.t) -> unit

(** Accept only if a caller is already queued ("select ... else"). *)
val try_accept : entry -> body:(Access.t -> Access.t) -> bool

(** Selective wait: accept the first available alternative, yielding
    between sweeps; [until] is a virtual-time deadline. *)
val select : ?until:int -> (entry * (Access.t -> Access.t)) list -> bool
