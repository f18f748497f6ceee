(* Append-only journal: framed records, CRC-32 integrity, commit markers,
   torn-tail truncation on open.  See the .mli for the frame layout. *)

open I432_util

let magic = 0x4C4A3031 (* "10JL" little-endian: version 1, journal *)
let commit_marker = 0xC5
let header_bytes = 13 (* magic + kind + key_len + payload_len *)
let trailer_bytes = 5 (* crc + commit marker *)

type record = {
  r_offset : int;
  r_kind : int;
  r_key : string;
  r_payload : Bytes.t;
}

(* Appends are framed in place into [pending] and go out in one [write]
   when the next frame would overflow it, at a [read_at] of one of the
   buffered frames, and at [sync] or [close]; only whole frames are ever
   written, so the file on disk is always a prefix of whole frames.  The
   buffer belongs to the journal (never module-global): cluster nodes on
   separate domains each append to their own journal. *)
let buffer_bytes = 65_536

(* Reads of frames already on disk go through read-only mappings of the
   file in fixed, aligned windows: window [k] maps bytes
   [k * window_bytes, (k + 1) * window_bytes), once, at the first read
   inside it after all of it is on disk, and is never remapped.  A frame
   in the unmapped tail, or across a window boundary, is read with
   syscalls.  A mapping lives outside the OCaml heap and goes when the GC
   collects it after [close]. *)
let window_bytes = 65_536

type window = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let no_window : window = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

type t = {
  j_path : string;
  fd : Unix.file_descr;
  mutable end_off : int;  (* committed length = next append offset *)
  mutable fd_pos : int;  (* the fd's file position; -1 when unknown *)
  mutable pending : Bytes.t;  (* write-behind frames; allocated on first use *)
  mutable pending_len : int;  (* bytes of [pending] not yet written *)
  mutable unsynced : int;  (* appends since the last fsync *)
  mutable windows : window array;  (* [no_window] where not mapped yet *)
  mutable closed : bool;
}

let path t = t.j_path
let size t = t.end_off
let unsynced t = t.unsynced

let frame_bytes ~key_len ~len = header_bytes + key_len + len + trailer_bytes

let framed_size ~key ~payload =
  frame_bytes ~key_len:(String.length key) ~len:(Bytes.length payload)

(* Little-endian u32 helpers over Bytes. *)
let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

(* Frame one record, the first [len] bytes of [payload], into [b] at
   [pos]; the caller checked that the frame fits. *)
let frame_into b pos ~kind ~key payload ~len =
  let key_len = String.length key in
  put_u32 b pos magic;
  Bytes.set b (pos + 4) (Char.chr kind);
  put_u32 b (pos + 5) key_len;
  put_u32 b (pos + 9) len;
  Bytes.blit_string key 0 b (pos + header_bytes) key_len;
  Bytes.blit payload 0 b (pos + header_bytes + key_len) len;
  let crc_pos = pos + header_bytes + key_len + len in
  put_u32 b crc_pos (Crc32.sub b (pos + 4) (crc_pos - pos - 4));
  Bytes.set b (crc_pos + 4) (Char.chr commit_marker)

(* Parse the record starting at [off] in [buf].  [None] when the bytes
   from [off] do not hold one complete committed record — incomplete
   header, impossible lengths, truncated body, CRC mismatch, or missing
   commit marker all look the same to recovery: the journal ends here. *)
let parse buf off limit =
  if off + header_bytes + trailer_bytes > limit then None
  else if get_u32 buf off <> magic then None
  else
    let kind = Char.code (Bytes.get buf (off + 4)) in
    let key_len = get_u32 buf (off + 5) in
    let payload_len = get_u32 buf (off + 9) in
    if key_len < 0 || payload_len < 0 then None
    else
      let body_end = off + header_bytes + key_len + payload_len in
      if body_end + trailer_bytes > limit then None
      else
        let stored_crc = get_u32 buf body_end land 0xFFFFFFFF in
        if stored_crc <> Crc32.sub buf (off + 4) (body_end - off - 4) then None
        else if Char.code (Bytes.get buf (body_end + 4)) <> commit_marker then
          None
        else
          Some
            ( {
                r_offset = off;
                r_kind = kind;
                r_key = Bytes.sub_string buf (off + header_bytes) key_len;
                r_payload =
                  Bytes.sub buf (off + header_bytes + key_len) payload_len;
              },
              body_end + trailer_bytes )

(* Fill [buf] from [pos] until it is full or the file ends; returns the
   length filled. *)
let read_into fd buf pos =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | n -> go (off + n)
    else off
  in
  go pos

let read_all fd len =
  let buf = Bytes.create len in
  let got = read_into fd buf 0 in
  if got = len then buf else Bytes.sub buf 0 got

let write_all fd buf len =
  let rec go off =
    if off < len then go (off + Unix.single_write fd buf off (len - off))
  in
  go 0

(* Position the fd at [off] for a transfer: [fd_pos] stays -1 until the
   caller records where the transfer ended, so one that raises forces a
   seek next time. *)
let seek t off =
  if t.fd_pos <> off then ignore (Unix.lseek t.fd off Unix.SEEK_SET);
  t.fd_pos <- -1

(* Write [len] bytes of [b] at [off], the end of what the file holds. *)
let write_out t b len ~off =
  seek t off;
  write_all t.fd b len;
  t.fd_pos <- off + len

(* Length of the file: every frame before this offset is on disk. *)
let on_disk t = t.end_off - t.pending_len

let flush t =
  if t.pending_len > 0 then begin
    write_out t t.pending t.pending_len ~off:(on_disk t);
    t.pending_len <- 0
  end

let open_ path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let file_len = (Unix.fstat fd).Unix.st_size in
  let buf = read_all fd file_len in
  let limit = Bytes.length buf in
  let rec scan off acc =
    match parse buf off limit with
    | Some (r, next) -> scan next (r :: acc)
    | None -> (off, List.rev acc)
  in
  let committed, records = scan 0 [] in
  (* Discard the torn tail, if any, so appends resume on a clean
     boundary. *)
  if committed < file_len then Unix.ftruncate fd committed;
  ignore (Unix.lseek fd committed Unix.SEEK_SET);
  ( {
      j_path = path;
      fd;
      end_off = committed;
      fd_pos = committed;
      pending = Bytes.empty;
      pending_len = 0;
      unsynced = 0;
      windows = [||];
      closed = false;
    },
    records )

(* A frame that fits goes into [pending] (written first if the frame
   would overflow it); a frame larger than the whole buffer goes straight
   out from its own bytes, after the frames before it. *)
let append_sub t ~kind ~key payload ~len =
  if t.closed then invalid_arg "Journal.append: closed";
  if kind < 0 || kind > 0xff then invalid_arg "Journal.append: kind";
  if len < 0 || len > Bytes.length payload then
    invalid_arg "Journal.append: len";
  let size = frame_bytes ~key_len:(String.length key) ~len in
  if t.pending_len + size > buffer_bytes then flush t;
  let off = t.end_off in
  if size > buffer_bytes then begin
    let b = Bytes.create size in
    frame_into b 0 ~kind ~key payload ~len;
    write_out t b size ~off
  end
  else begin
    if Bytes.length t.pending = 0 then t.pending <- Bytes.create buffer_bytes;
    frame_into t.pending t.pending_len ~kind ~key payload ~len;
    t.pending_len <- t.pending_len + size
  end;
  t.end_off <- off + size;
  t.unsynced <- t.unsynced + 1;
  off

let append t ~kind ~key ~payload =
  append_sub t ~kind ~key payload ~len:(Bytes.length payload)

(* The mapped window holding file offset [off], or [no_window] while
   part of that window is not on disk yet, or when the file cannot be
   mapped (the read then falls back to syscalls). *)
let window t off =
  let k = off / window_bytes in
  if (k + 1) * window_bytes > on_disk t then no_window
  else begin
    let n = Array.length t.windows in
    if k >= n then begin
      let grown = Array.make (max (k + 1) (2 * n)) no_window in
      Array.blit t.windows 0 grown 0 n;
      t.windows <- grown
    end;
    if Bigarray.Array1.dim t.windows.(k) = 0 then begin
      try
        t.windows.(k) <-
          Bigarray.array1_of_genarray
            (Unix.map_file t.fd
               ~pos:(Int64.of_int (k * window_bytes))
               Bigarray.char Bigarray.c_layout false [| window_bytes |])
      with Unix.Unix_error _ -> ()
    end;
    t.windows.(k)
  end

let window_u32 (w : window) pos =
  Char.code w.{pos}
  lor (Char.code w.{pos + 1} lsl 8)
  lor (Char.code w.{pos + 2} lsl 16)
  lor (Char.code w.{pos + 3} lsl 24)

(* The frame's length as its header names it, capped at the [avail]
   bytes the file holds from its start, so a garbage header can neither
   allocate nor read past the file's end. *)
let frame_len ~key_len ~payload_len avail =
  min avail (header_bytes + key_len + payload_len + trailer_bytes)

(* The frame at [off] copied out of its mapped window, or [None] when
   the window is not mapped or the frame does not lie inside it. *)
let read_mapped t off avail =
  let w = window t off in
  let pos = off mod window_bytes in
  if pos + header_bytes > Bigarray.Array1.dim w then None
  else
    let len =
      frame_len ~key_len:(window_u32 w (pos + 5))
        ~payload_len:(window_u32 w (pos + 9)) avail
    in
    if pos + len > window_bytes then None
    else begin
      let buf = Bytes.create len in
      for i = 0 to len - 1 do
        Bytes.unsafe_set buf i (Bigarray.Array1.unsafe_get w (pos + i))
      done;
      Some buf
    end

(* The frame at [off] read with syscalls: the header, then the rest of
   the frame it names. *)
let read_syscalls t off avail =
  seek t off;
  let header = read_all t.fd (min header_bytes avail) in
  let len =
    if Bytes.length header < header_bytes then Bytes.length header
    else
      frame_len ~key_len:(get_u32 header 5) ~payload_len:(get_u32 header 9)
        avail
  in
  let buf = Bytes.extend header 0 (len - Bytes.length header) in
  let got = read_into t.fd buf (Bytes.length header) in
  t.fd_pos <- off + got;
  if got = len then buf else Bytes.sub buf 0 got

(* One frame, read from the file: the buffered frames are written out
   first only when [off] is among them.  [parse] then checks magic, CRC
   and commit marker of the bytes on disk, as recovery does. *)
let read_at t off =
  if t.closed then invalid_arg "Journal.read_at: closed";
  if off < 0 || off >= t.end_off then invalid_arg "Journal.read_at: offset";
  if off >= on_disk t then flush t;
  let avail = on_disk t - off in
  let buf =
    match read_mapped t off avail with
    | Some buf -> buf
    | None -> read_syscalls t off avail
  in
  match parse buf 0 (Bytes.length buf) with
  | Some (r, _) -> { r with r_offset = off }
  | None -> invalid_arg "Journal.read_at: no committed record at offset"

let sync t =
  if (not t.closed) && t.unsynced > 0 then begin
    flush t;
    Unix.fsync t.fd;
    t.unsynced <- 0
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Fun.protect
      ~finally:(fun () ->
        t.pending <- Bytes.empty;
        t.windows <- [||];
        Unix.close t.fd)
      (fun () -> flush t)
  end
