(* Access descriptors: the 432's capabilities.

   An access descriptor names an entry in the global object table and
   carries the rights available through it (paper §2).  Possession of an
   access descriptor is the only way to reach an object.

   On the 432 an AD is one word, and so it is here: the object-table
   index shifted above the five rights bits of {!Rights.to_bits}.  An
   immediate int is stored in a port queue, an access part or a message
   array without a box and without OCaml's write barrier, and the
   integer order of two descriptors is the order of their (index,
   rights) pairs. *)

type t = int

let rights_bits = 5
let rights_mask = (1 lsl rights_bits) - 1
let max_index = max_int lsr rights_bits

let make ~index ~rights =
  if index < 0 then invalid_arg "Access.make: negative index";
  if index > max_index then invalid_arg "Access.make: index out of range";
  (index lsl rights_bits) lor Rights.to_bits rights

let[@inline] index t = t lsr rights_bits
let[@inline] rights t = Rights.of_bits t

(* Weaken the descriptor; rights can only shrink through this path. *)
let[@inline] restrict t rights = t land (Rights.to_bits rights lor lnot rights_mask)

let read_only t = restrict t Rights.read_only

let without_type_right t bit = t land lnot (bit land 0b111)

let equal = Int.equal

let to_string t = Printf.sprintf "#%d[%s]" (index t) (Rights.to_string (rights t))
let pp fmt t = Format.pp_print_string fmt (to_string t)
