(* Store-backed swap device (see the .mli). *)

(* [Printf.sprintf "swap/%010d" index], byte for byte, without the format
   interpreter: this runs on every fault and every swap-out. *)
let key_of_index index =
  let rec digits n = if n > -10 && n < 10 then 1 else 1 + digits (n / 10) in
  let sign = if index < 0 then 1 else 0 in
  let width = max 10 (sign + digits index) in
  let b = Bytes.make (5 + width) '0' in
  Bytes.blit_string "swap/" 0 b 0 5;
  if index < 0 then Bytes.set b 5 '-';
  let rec fill n pos =
    Bytes.set b pos (Char.unsafe_chr (48 + abs (n mod 10)));
    if n / 10 <> 0 then fill (n / 10) (pos - 1)
  in
  fill index (4 + width);
  Bytes.unsafe_to_string b

let device store =
  I432_vm.Swap_device.make ~name:"store"
    ~mem:(fun ~index -> Store.mem store ~key:(key_of_index index))
    ~write:(fun ~index ~now_ns image ->
      Store.put_blob store ~now_ns ~key:(key_of_index index) image)
    ~read:(fun ~index -> Store.get_blob store ~key:(key_of_index index))
    ~drop:(fun ~index ~now_ns:_ ->
      Store.delete store ~key:(key_of_index index))
    ()
