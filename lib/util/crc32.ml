(* CRC-32 (IEEE), table-driven, one byte at a time.  The reflected
   polynomial 0xEDB88320 with init/final xor 0xFFFFFFFF — the same
   parameters as zlib's crc32, so journal files are checkable with
   standard tools.  The table and the running value are plain [int]s
   (32 significant bits), so the inner loop allocates nothing; only the
   [int32] results at the interface are boxed. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let init = 0xFFFFFFFFl
let finalize crc = Int32.logxor crc 0xFFFFFFFFl

let update crc buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.update";
  let t = Lazy.force table in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get buf i) in
    c := Array.unsafe_get t ((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int !c

let bytes ?(pos = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  finalize (update init buf pos len)

let string ?pos ?len s = bytes ?pos ?len (Bytes.unsafe_of_string s)
