(** The persistent object filing store (DESIGN.md §10).

    A log-structured passive store: {!Imax.Object_filing} wire graphs are
    encoded and appended to a {!Journal}, an in-memory name→offset
    directory is rebuilt from the committed records on {!open_}, and
    compaction — driven from virtual time — rewrites the live records
    into a fresh journal, atomically replacing the old file.  Type
    identity, seals, sharing, cycles, and masked rights survive a
    store/retrieve round trip exactly as they survive a network hop,
    because both sides of the trip are the same wire codec.

    The store is host infrastructure, not a kernel object: it holds no
    machine state and a machine holds no store state.  Attaching a
    machine ({!attach}) only routes observability — journal appends,
    fsync barriers, and compactions then emit trace events on that
    machine, and its registry reads the store's counts.  With no store
    configured, no kernel output changes by a byte. *)

open I432
module K := I432_kernel

type t

(** Open (creating if absent) the store journaled at [path], recovering
    committed records and rebuilding the directory.  A torn tail from a
    crash mid-append is truncated, never surfaced.  [sync_every] is the
    fsync barrier cadence in appends (default 8).  [compact_interval_ns]
    is the virtual-time compaction period (default 10 ms); compaction
    triggers at most once per period, and only when at least
    [min_garbage_bytes] (default 4096) are reclaimable. *)
val open_ :
  ?sync_every:int ->
  ?compact_interval_ns:int ->
  ?min_garbage_bytes:int ->
  string ->
  t

(** Route the store's observability to [machine], once per machine: its
    registry's store.* counters read {!stats} from now on (attach before
    the first append), and store events go through its tracer. *)
val attach : t -> K.Machine.t -> unit

val close : t -> unit
val path : t -> string

(** {1 Filing object graphs} *)

(** Capture everything reachable from the root (rights masked by [mask],
    as in {!Imax.Object_filing.capture}), encode it, and journal it under
    [key], superseding any previous version.  Returns the number of
    objects filed.  Advances the compaction clock to [now machine]. *)
val store_graph :
  t -> K.Machine.t -> key:string -> ?mask:Rights.t -> Access.t -> int

(** Rebuild the graph filed under [key] on [machine]'s heap (allocated
    from [sro], default its global heap).  Raises
    [Imax.Object_filing.Not_filed] for an unknown key. *)
val retrieve_graph :
  t -> K.Machine.t -> ?sro:Access.t -> key:string -> unit -> Access.t

(** The decoded wire graph under [key], if any — introspection for tests
    and tooling; does not touch any machine. *)
val get_wire : t -> key:string -> Imax.Object_filing.wire option

(** Journal a tombstone for [key] and drop it from the directory. *)
val delete : t -> key:string -> unit

val mem : t -> key:string -> bool

(** Directory keys in lexicographic order (graphs and blobs alike). *)
val keys : t -> string list

val count : t -> int

(** {1 Blobs}

    Raw payloads sharing the journal and directory with filed graphs,
    distinguished by record kind — the checkpoint facility stores machine
    images through this interface.  [now_ns] advances the compaction
    clock (blobs have no machine to read a clock from). *)

val put_blob : t -> ?now_ns:int -> key:string -> Bytes.t -> unit

(** [put_blob_sub t ~now_ns ~key b ~len] is [put_blob t ~now_ns ~key
    (Bytes.sub b 0 len)] without the copy: the journal frames the bytes
    in place, and [b] is free for reuse once it returns. *)
val put_blob_sub : t -> now_ns:int -> key:string -> Bytes.t -> len:int -> unit
val get_blob : t -> key:string -> Bytes.t option

(** {1 Durability and compaction} *)

(** Force an fsync barrier now (also taken automatically every
    [sync_every] appends, on compaction, and on [close]). *)
val sync : t -> unit

(** Rewrite live records into a fresh journal and atomically replace the
    file ([path].tmp + rename), reclaiming superseded and deleted
    records.  Returns bytes reclaimed. *)
val compact : t -> int

(** (appends, syncs, compactions, bytes_written, bytes_reclaimed). *)
val stats : t -> int * int * int * int * int

(** Journal bytes currently superseded or deleted (reclaimable). *)
val garbage_bytes : t -> int

(** The machine whose tracer/metrics receive store events, if attached. *)
val attached_machine : t -> K.Machine.t option

(** {1 Scratch journals} *)

(** [_build/imax-scratch/NAME]: where imax_ctl and the benches keep throwaway
    journals, relative to the working directory, so that a run from the
    repository root never litters the source tree. *)
val scratch_path : string -> string

(** Create [path]'s directory (and its parents) and delete any stale
    journal at [path], compaction scratch [path.tmp] included. *)
val fresh_path : string -> unit

(** Delete the journal at [path] and its compaction scratch, if present. *)
val remove_files : string -> unit
