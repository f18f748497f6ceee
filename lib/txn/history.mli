(** Event-sourced per-object history (DESIGN.md §15.3).

    Opt-in audit trail for transactionally mutated objects: [track] files
    the object's current data image as a base blob
    ([hist/<name>/base]) in the store, and every committed transactional
    write to it afterwards appends a numbered record blob
    ([hist/<name>/<seq>]) carrying the commit's virtual timestamp, its
    idempotency key, and the applied (offset, word) pairs.  A run that
    never creates a tracker produces byte-identical output to the
    pre-history kernel.

    The live run uses the store write-only — records are never read back
    — so a checkpoint replay that re-commits the same groups re-puts
    byte-identical blobs under the same keys.  [replay] and [records]
    audit the blobs offline from just a store. *)

open I432
module K := I432_kernel
module St := I432_store

type t

val create : St.Store.t -> K.Machine.t -> t

(** Start tracking [obj] under [name]: files the base image now.  Raises
    [Invalid_argument] if the object is already tracked. *)
val track : t -> name:string -> Access.t -> unit

(** (name, object) pairs in tracking order. *)
val tracked : t -> (string * Access.t) list

(** Record one committed group's writes: appends one record blob per
    tracked object the group touched (untracked targets are ignored) and
    emits a [Hist_append] event per record.  Called by {!Txn.commit} on
    fresh commits only. *)
val observe :
  t -> commit_ns:int -> key:int -> writes:(Access.t * int * int) list -> unit

(** Decoded records for [name] in append order:
    [(commit_ns, key, (offset, word) list)].  A blob that is not a record
    (wrong field count, a pair without its [:], a non-numeric field, no
    pairs) raises [Failure "History: malformed record <blob key>"]; so do
    {!replay} and {!verify}, which read through this. *)
val records : St.Store.t -> name:string -> (int * int * (int * int) list) list

(** Rebuild [name]'s data image by deterministic replay: the base image
    plus every record with [commit_ns <= to_ns], in append order.
    [None] if no history was filed under [name]. *)
val replay : St.Store.t -> name:string -> to_ns:int -> Bytes.t option

(** [replay] to the end of history equals the live image byte-for-byte.
    [false] for an unknown name. *)
val verify : t -> name:string -> bool

(** The tracked names, in tracking order, whose {!verify} fails: [[]]
    when every tracked object replays to its live state. *)
val diverged : t -> string list
