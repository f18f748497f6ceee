(* Rights carried by an access descriptor (paper §2: "Each access descriptor
   ... contains rights flags that control the access available via that
   access descriptor").

   Base rights are read/write; three type rights are interpreted by the type
   manager of the object's type (for ports: send/receive; for processes:
   control; for SROs: allocate). Rights can only ever be restricted, never
   amplified, except through a type-definition object (Type_def.amplify). *)

type t = {
  read : bool;
  write : bool;
  type_rights : int;  (* 3-bit mask, bits 0..2 *)
}

let full = { read = true; write = true; type_rights = 0b111 }
let none = { read = false; write = false; type_rights = 0 }
let read_only = { read = true; write = false; type_rights = 0 }

(* Named type-right bits.  The interpretation is per-type; these names cover
   the uses in this repository. *)
let t1 = 0b001
let t2 = 0b010
let t3 = 0b100

let has_read t = t.read
let has_write t = t.write
let has_type_right t bit = t.type_rights land bit <> 0

(* Intersection: the result never exceeds either argument. *)
let restrict a b =
  {
    read = a.read && b.read;
    write = a.write && b.write;
    type_rights = a.type_rights land b.type_rights;
  }

let remove_type_right t bit = { t with type_rights = t.type_rights land lnot bit }

let equal a b =
  a.read = b.read && a.write = b.write && a.type_rights = b.type_rights

let subset ~of_ t =
  (not t.read || of_.read)
  && (not t.write || of_.write)
  && t.type_rights land lnot of_.type_rights = 0

let to_string t =
  Printf.sprintf "%c%c%c%c%c"
    (if t.read then 'r' else '-')
    (if t.write then 'w' else '-')
    (if has_type_right t t1 then '1' else '-')
    (if has_type_right t t2 then '2' else '-')
    (if has_type_right t t3 then '3' else '-')

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Five bits, read above write above the type rights, so the integer
   order of two bit sets is the record order (read, then write, then
   type rights).  Type-right bits past the three are dropped. *)
let[@inline] to_bits t =
  (if t.read then 0b10000 else 0)
  lor (if t.write then 0b01000 else 0)
  lor (t.type_rights land 0b111)

(* One prebuilt record per bit set, so decoding allocates nothing. *)
let by_bits =
  Array.init 32 (fun b ->
      {
        read = b land 0b10000 <> 0;
        write = b land 0b01000 <> 0;
        type_rights = b land 0b111;
      })

let[@inline] of_bits b = Array.unsafe_get by_bits (b land 0b11111)
