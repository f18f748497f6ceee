(* Physical memory of one tightly-coupled 432 system.

   All processors see this single homogeneous memory (paper §3).  The data
   parts of segments live here; access parts are simulated as descriptor-side
   arrays (see Object_table) since on the 432 they are only reachable via
   checked access instructions anyway. *)

type t = {
  bytes : Bytes.t;
  mutable reads : int;  (* counters for the bus-contention model *)
  mutable writes : int;
}

let create ~size_bytes =
  if size_bytes <= 0 then invalid_arg "Memory.create: size";
  { bytes = Bytes.make size_bytes '\000'; reads = 0; writes = 0 }

let size t = Bytes.length t.bytes
let read_count t = t.reads
let write_count t = t.writes

let check t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.bytes then
    Fault.raise_fault
      (Fault.Bounds { part = "physical"; offset = addr; length = Bytes.length t.bytes })

let read_u8 t addr =
  check t addr 1;
  t.reads <- t.reads + 1;
  Char.code (Bytes.get t.bytes addr)

let write_u8 t addr v =
  check t addr 1;
  t.writes <- t.writes + 1;
  Bytes.set t.bytes addr (Char.chr (v land 0xff))

let read_u16 t addr =
  check t addr 2;
  t.reads <- t.reads + 1;
  Char.code (Bytes.get t.bytes addr)
  lor (Char.code (Bytes.get t.bytes (addr + 1)) lsl 8)

let write_u16 t addr v =
  check t addr 2;
  t.writes <- t.writes + 1;
  Bytes.set t.bytes addr (Char.chr (v land 0xff));
  Bytes.set t.bytes (addr + 1) (Char.chr ((v lsr 8) land 0xff))

(* One 32-bit load or store: the int32 is never boxed.  A write keeps
   the low 32 bits of [v]; a read sign-extends them. *)
let read_i32 t addr =
  check t addr 4;
  t.reads <- t.reads + 1;
  Int32.to_int (Bytes.get_int32_le t.bytes addr)

let write_i32 t addr v =
  check t addr 4;
  t.writes <- t.writes + 1;
  Bytes.set_int32_le t.bytes addr (Int32.of_int v)

let blit_from_bytes t ~src ~dst_addr =
  check t dst_addr (Bytes.length src);
  t.writes <- t.writes + 1;
  Bytes.blit src 0 t.bytes dst_addr (Bytes.length src)

let blit_to_bytes t ~src_addr ~len =
  check t src_addr len;
  t.reads <- t.reads + 1;
  Bytes.sub t.bytes src_addr len

let fill t ~addr ~len ~byte =
  check t addr len;
  t.writes <- t.writes + 1;
  Bytes.fill t.bytes addr len byte
