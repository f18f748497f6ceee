(* A bounded reading: the one row shape every [micro] section reports.

   A section is a list of readings.  Each reading is a key, a value, its
   unit and, where a gate holds it, a bound written once, next to the
   measurement that produces it.  Printing, the JSON section, the gate
   check and the failure line are all derived from the list, so a bound
   is stated in exactly one place.  A value is [None] where the host
   cannot measure it (an unreadable /proc/self/io); such a reading
   prints n/a and holds. *)

type bound = Below of float | At_most of float | At_least of float | Unbounded

type t = { key : string; value : float option; unit : string; bound : bound }

let make ?(bound = Unbounded) key unit value = { key; value; unit; bound }
let v ?bound key unit x = make ?bound key unit (Some x)
let int ?bound key unit n = v ?bound key unit (float_of_int n)

let holds r =
  match (r.value, r.bound) with
  | None, _ | _, Unbounded -> true
  | Some x, Below b -> x < b
  | Some x, At_most b -> x <= b
  | Some x, At_least b -> x >= b

(* How far the value lies past its bound (negative while it holds):
   what [Paired.best_epoch] minimises. *)
let excess r =
  match (r.value, r.bound) with
  | Some x, (Below b | At_most b) -> x -. b
  | Some x, At_least b -> b -. x
  | None, _ | _, Unbounded -> neg_infinity

let number x =
  if Float.is_integer x then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

let value_text r = match r.value with Some x -> number x | None -> "n/a"

let bound_text = function
  | Below b -> Printf.sprintf "< %g" b
  | At_most b -> Printf.sprintf "<= %g" b
  | At_least b -> Printf.sprintf ">= %g" b
  | Unbounded -> ""

let print section readings =
  Printf.printf "%s:\n" section;
  List.iter
    (fun r ->
      Printf.printf "  %-32s %12s %s%s\n" r.key (value_text r) r.unit
        (match r.bound with Unbounded -> "" | b -> ", bound " ^ bound_text b))
    readings

(* A reading past its bound, as the failure line and a re-measured epoch
   name it. *)
let describe r =
  Printf.sprintf "%s = %s %s, bound %s" r.key (value_text r) r.unit
    (bound_text r.bound)

let failure section r = Printf.sprintf "FAIL: %s.%s" section (describe r)

(* A count prints as an int; a reading with no value is null. *)
let to_json readings =
  let open Json_out in
  let value = function
    | Some x when Float.is_integer x && Float.abs x < 0x1p53 ->
      Int (int_of_float x)
    | Some x -> Float x
    | None -> Null
  in
  let bound = function
    | Below b -> [ ("below", Float b) ]
    | At_most b -> [ ("at_most", Float b) ]
    | At_least b -> [ ("at_least", Float b) ]
    | Unbounded -> []
  in
  Obj
    (List.map
       (fun r ->
         ( r.key,
           Obj
             (("value", value r.value) :: ("unit", Str r.unit)
             :: bound r.bound) ))
       readings)
