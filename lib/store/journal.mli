(** Append-only record journal with per-record CRCs and commit markers.

    The filing store's durability layer (DESIGN.md §10).  A record is
    framed as

    {v magic | kind | key_len | payload_len | key | payload | crc | commit v}

    where the CRC covers everything between the magic and itself, and the
    final commit byte is written last — a record is committed iff its
    frame is complete, checksums, and carries the marker.

    Recovery ([open_] on an existing file) scans from the start and
    truncates the file at the first incomplete, corrupt, or uncommitted
    record: a crash mid-append can only tear the tail, so the surviving
    prefix is exactly the committed records.  No recovery error escapes
    [open_]; a torn tail is silently discarded, never surfaced as data.

    Appends are written behind: each journal frames its records in place
    in one 64 KiB buffer, and the buffered frames reach the OS in one
    [write] when the next frame would overflow it, at a {!read_at} of
    one of them, and at {!sync} or {!close}.  Only whole frames are
    written, so the file on disk is always a prefix of whole frames —
    another [open_] of the path at any moment recovers an exact prefix
    of the appended records.

    Reads of frames already on disk go through read-only [Unix.map_file]
    mappings of the file in fixed 64 KiB windows, each mapped once, when
    all of it is on disk, and never remapped.  The file must not shrink
    under an open journal: recovery by another [open_] truncates only a
    torn tail, which whole-frame writes never leave.

    Offsets returned by [append] are stable until [Store] compaction
    rewrites the file.  All I/O is plain [Unix] file operations; [sync]
    is a real [fsync] barrier, and the only durability barrier. *)

type t

type record = {
  r_offset : int;  (** file offset of the record's magic *)
  r_kind : int;  (** caller-defined tag, 0..255 *)
  r_key : string;
  r_payload : Bytes.t;
}

(** Open (creating if absent) and recover the journal at [path].
    Returns the journal and the committed records, in append order. *)
val open_ : string -> t * record list

val path : t -> string

(** Committed length in bytes (the next append offset), buffered frames
    included. *)
val size : t -> int

(** Number of records appended since the last {!sync} barrier. *)
val unsynced : t -> int

(** Append one record; returns its offset.  The frame (commit marker
    included) is buffered: it reaches the OS with the buffer's next write
    (at 64 KiB of frames, at a {!read_at} of a buffered frame, or at
    {!sync} or {!close}); a frame larger than the buffer is written at
    once, after the frames before it.  Call {!sync} for a durability barrier.  Raises
    [Invalid_argument] if [kind] is outside 0..255, and on a closed
    journal. *)
val append : t -> kind:int -> key:string -> payload:Bytes.t -> int

(** [append_sub t ~kind ~key b ~len] appends the first [len] bytes of [b]
    as the payload, exactly as {!append} of [Bytes.sub b 0 len] would,
    without the copy.  [b] is free for reuse once it returns.  Raises
    [Invalid_argument] as {!append} does, and when [len] is outside
    [0..Bytes.length b]. *)
val append_sub : t -> kind:int -> key:string -> Bytes.t -> len:int -> int

(** Read the committed record at [offset] (as returned by {!append} or
    recovery) from the file, checking its magic, CRC and commit marker
    as recovery does.  The buffered frames are written out first only
    when [offset] is among them; a read of a frame already on disk
    leaves the buffer, and the file's length, alone.  The frame is
    copied out of its mapped window without a syscall; one in the
    unmapped tail, or across a window boundary, is read with syscalls:
    the header, then the rest of the frame it names.  Either way
    the cost is O(record), whatever follows it in the journal.  Raises
    [Invalid_argument] on an offset that does not hold a committed
    record, and on a closed journal. *)
val read_at : t -> int -> record

(** Write the buffered frames out and fsync the file.  No-op if nothing
    was appended since the last call. *)
val sync : t -> unit

(** Write the buffered frames out (no fsync) and close the file. *)
val close : t -> unit

(** Size in bytes a record with this key and payload occupies on disk. *)
val framed_size : key:string -> payload:Bytes.t -> int
