(* CRC-32 (IEEE), table-driven, slicing-by-8.  The reflected polynomial
   0xEDB88320 with init/final xor 0xFFFFFFFF — the same parameters as
   zlib's crc32, so journal files are checkable with standard tools.

   Slicing-by-8 folds eight bytes per step: two little-endian 32-bit
   loads, eight lookups in eight 256-entry tables.  Table [k] holds the
   CRC of byte [n] followed by [k] zero bytes, so the eight lookups sum
   (xor) each byte's contribution at its distance from the end of the
   step.  The tail shorter than eight bytes goes a byte at a time through
   table 0.  The tables are one flat [int] array and the running value a
   plain [int] (32 significant bits), so nothing allocates. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* [tables.(k * 256 + n)]: table [k], entry [n]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* The unsigned little-endian 32-bit word at [i]. *)
let le32 buf i =
  let v = get32u buf i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let sub buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.sub";
  let t = tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor le32 buf !i and hi = le32 buf (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get buf j) in
    c := Array.unsafe_get t ((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
