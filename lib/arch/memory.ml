(* Physical memory of one tightly-coupled 432 system.

   All processors see this single homogeneous memory (paper §3).  The data
   parts of segments live here; access parts are simulated as descriptor-side
   arrays (see Object_table) since on the 432 they are only reachable via
   checked access instructions anyway.

   The memory is a page table of 4 KiB pages.  Every slot starts as the
   one shared zero page, which nothing ever writes; the first write into a
   page gives it its own zeroed page.  So a machine costs the host only
   the pages it writes, not its configured size, and a read of a page
   never written reads zeros, exactly as a zero-filled memory would.  The
   zero page is immutable, so every machine and every Par-engine domain
   may share it.

   Bounds are checked against the configured size, before any page is
   touched; an access that crosses a page boundary takes a split path.
   The page loops are top-level recursions, not closures, so a blit or
   fill allocates nothing but the pages it materializes (and, for
   [blit_to_bytes], its result). *)

(* Unchecked native-order 32-bit loads and stores, for offsets
   [within_page]; memory is little-endian on every host. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let le32 v = if Sys.big_endian then swap32 v else v

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

type t = {
  pages : Bytes.t array;  (* [zero_page] until the page is first written *)
  size : int;
  mutable resident : int;  (* pages of their own *)
  mutable reads : int;  (* counters for the bus-contention model *)
  mutable writes : int;
}

let create ~size_bytes =
  if size_bytes <= 0 then invalid_arg "Memory.create: size";
  {
    pages = Array.make ((size_bytes + page_mask) lsr page_bits) zero_page;
    size = size_bytes;
    resident = 0;
    reads = 0;
    writes = 0;
  }

let size t = t.size
let read_count t = t.reads
let write_count t = t.writes
let resident_bytes t = t.resident * page_size

let out_of_bounds t addr =
  Fault.raise_fault
    (Fault.Bounds { part = "physical"; offset = addr; length = t.size })

(* Inlined into every access; the fault is built out of line. *)
let[@inline] check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then out_of_bounds t addr

(* Page [p] of an address already checked: [p] is in range. *)
let page t p = Array.unsafe_get t.pages p

let materialize t p =
  let fresh = Bytes.make page_size '\000' in
  Array.unsafe_set t.pages p fresh;
  t.resident <- t.resident + 1;
  fresh

(* Page [p], made its own if it is still the zero page. *)
let[@inline] writable t p =
  let pg = page t p in
  if pg != zero_page then pg else materialize t p

let get t addr =
  Char.code
    (Bytes.unsafe_get (page t (addr lsr page_bits)) (addr land page_mask))

let set t addr v =
  Bytes.unsafe_set
    (writable t (addr lsr page_bits))
    (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

(* Does [len] bytes from [addr] stay within one page? *)
let within_page addr len = addr land page_mask <= page_size - len

let read_u8 t addr =
  check t addr 1;
  t.reads <- t.reads + 1;
  get t addr

let write_u8 t addr v =
  check t addr 1;
  t.writes <- t.writes + 1;
  set t addr v

let read_u16 t addr =
  check t addr 2;
  t.reads <- t.reads + 1;
  get t addr lor (get t (addr + 1) lsl 8)

let write_u16 t addr v =
  check t addr 2;
  t.writes <- t.writes + 1;
  set t addr v;
  set t (addr + 1) (v lsr 8)

(* One 32-bit load or store: the int32 is never boxed.  A write keeps
   the low 32 bits of [v]; a read sign-extends them.  A word that
   crosses a page boundary goes byte by byte. *)
let read_i32 t addr =
  check t addr 4;
  t.reads <- t.reads + 1;
  if within_page addr 4 then
    Int32.to_int
      (le32 (get32u (page t (addr lsr page_bits)) (addr land page_mask)))
  else
    let v =
      get t addr
      lor (get t (addr + 1) lsl 8)
      lor (get t (addr + 2) lsl 16)
      lor (get t (addr + 3) lsl 24)
    in
    (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

let write_i32 t addr v =
  check t addr 4;
  t.writes <- t.writes + 1;
  if within_page addr 4 then
    set32u (writable t (addr lsr page_bits)) (addr land page_mask)
      (le32 (Int32.of_int v))
  else begin
    set t addr v;
    set t (addr + 1) (v lsr 8);
    set t (addr + 2) (v lsr 16);
    set t (addr + 3) (v lsr 24)
  end

(* Bytes from [addr] to the end of its page, or [len] if fewer. *)
let chunk addr len =
  let room = page_size - (addr land page_mask) in
  if len < room then len else room

let rec copy_in t src pos addr len =
  if len > 0 then begin
    let n = chunk addr len in
    Bytes.blit src pos
      (writable t (addr lsr page_bits))
      (addr land page_mask) n;
    copy_in t src (pos + n) (addr + n) (len - n)
  end

let rec copy_out t dst pos addr len =
  if len > 0 then begin
    let n = chunk addr len in
    Bytes.blit (page t (addr lsr page_bits)) (addr land page_mask) dst pos n;
    copy_out t dst (pos + n) (addr + n) (len - n)
  end

(* A zero fill leaves a page that is still the zero page as it is. *)
let rec fill_pages t addr len byte =
  if len > 0 then begin
    let n = chunk addr len in
    let p = addr lsr page_bits in
    let pg = page t p in
    if pg != zero_page then Bytes.fill pg (addr land page_mask) n byte
    else if byte <> '\000' then
      Bytes.fill (materialize t p) (addr land page_mask) n byte;
    fill_pages t (addr + n) (len - n) byte
  end

let blit_from_bytes t ~src ~dst_addr =
  let len = Bytes.length src in
  check t dst_addr len;
  t.writes <- t.writes + 1;
  copy_in t src 0 dst_addr len

let blit_to_bytes t ~src_addr ~len =
  check t src_addr len;
  t.reads <- t.reads + 1;
  let dst = Bytes.create len in
  copy_out t dst 0 src_addr len;
  dst

let fill t ~addr ~len ~byte =
  check t addr len;
  t.writes <- t.writes + 1;
  fill_pages t addr len byte
