(* ASCII table rendering for the benchmark harness, in the style of the
   tables a paper would print. *)

type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ~title ~header ~aligns rows =
  let ncols = List.length header in
  if List.exists (fun r -> List.length r <> ncols) rows then
    invalid_arg "Table.render: ragged rows";
  let widths = Array.make ncols 0 in
  let update row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  update header;
  List.iter update rows;
  let aligns = Array.of_list aligns in
  if Array.length aligns <> ncols then invalid_arg "Table.render: aligns";
  let buf = Buffer.create 256 in
  let line ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  line '-';
  row header;
  line '=';
  List.iter row rows;
  line '-';
  Buffer.contents buf

let print ~title ~header ~aligns rows =
  print_string (render ~title ~header ~aligns rows)

let fmt_float ?(decimals = 2) v =
  Printf.sprintf "%.*f" decimals v


let fmt_us ns = Printf.sprintf "%.2f" (float_of_int ns /. 1000.0)
