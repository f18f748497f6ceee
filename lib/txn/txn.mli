(** Transactional multi-object send (DESIGN.md §15).

    Stage receives, sends, and data writes against any number of ports
    and objects, then [commit] the group: the kernel validates every leg
    and applies all of them at one virtual-time instant, or applies none
    and reports the first conflicting object in deterministic (ascending
    index) order.  This layer adds the policy the kernel deliberately
    omits: bounded retry with doubling virtual-time backoff, a
    compensation hook on abort, a loud [Txn_abort] event (a transaction
    never hangs), and idempotency keys that make retries exactly-once
    cluster-wide. *)

module K := I432_kernel

(** Pack a nonzero idempotency key from an origin id (e.g. a node or
    worker number) and a per-origin sequence number ([0 <= seq < 2^20]).
    Distinct (origin, seq) pairs never collide.  Keys are multiples of
    64: the kernel tags the i-th send of group [k] with [k + i], so each
    logical send carries a cluster-unique tag the receiving NIC dedups
    on after a failover replay. *)
val key : origin:int -> seq:int -> int

(** A staging buffer; legs commit in staging order. *)
type group

val group : unit -> group

(** Stage an atomic receive from [port]. *)
val receive : group -> I432.Access.t -> unit

(** Stage a send of [msg] to [port] (a home port or a cluster
    surrogate). *)
val send : group -> port:I432.Access.t -> msg:I432.Access.t -> unit

(** Stage a 32-bit data write to [obj] at byte [offset]. *)
val write : group -> I432.Access.t -> offset:int -> word:int -> unit

type outcome =
  | Committed of {
      received : I432.Access.t list;  (** in staging order *)
      commit_ns : int;  (** the commit's virtual-time instant *)
      fresh : bool;  (** [false]: the key had already committed *)
      attempts : int;
    }
  | Aborted of { port : int; reason : string; attempts : int }

(** Commit the group, retrying conflicts up to [retries] times with a
    doubling virtual-time backoff starting at [backoff_ns].  On
    exhaustion: bumps [txn.aborts], emits a [Txn_abort] event, runs
    [compensate] (the §8 destruction-filter shape, reused as undo), and
    returns [Aborted] — never hangs.  A nonzero [key] (from {!key})
    makes the group idempotent: a duplicate commit skips receives and
    writes, re-issues the sends best-effort, and returns
    [fresh = false].  Fresh commits append their writes to [history]'s
    tracked objects.  Must run inside a process body. *)
val commit :
  K.Machine.t ->
  ?key:int ->
  ?retries:int ->
  ?backoff_ns:int ->
  ?compensate:(unit -> unit) ->
  ?history:History.t ->
  group ->
  outcome
