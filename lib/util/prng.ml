(* Deterministic splitmix64 PRNG.  The simulator must be reproducible, so no
   use of [Random] or wall-clock anywhere in the repository.

   The 64-bit state lives unboxed in an 8-byte [Bytes], read and written
   with the native-endian primitives, and the draws below are inlined, so
   a draw allocates nothing: a [mutable int64] field would box the state
   at every step. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 (Int64.of_int seed);
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative int in [0, bound).  Mask to 62 bits so the Int64 -> int
   conversion can never wrap negative on a 63-bit OCaml int. *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

let[@inline] float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

(* Exponentially distributed value with the given mean. *)
let[@inline] exponential t ~mean =
  let u = float t in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

(* Pick uniformly from a non-empty array. *)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
