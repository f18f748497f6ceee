(* Pairing heap ordered by (priority descending, sequence ascending).

   The two-pass merge in [pop] gives the classic O(log n) amortized bound;
   both passes are tail-recursive so a pop after millions of inserts cannot
   blow the OCaml stack. *)

type 'a node = {
  prio : int;
  nseq : int;
  value : 'a;
  mutable children : 'a node list;
}

type 'a t = {
  mutable root : 'a node option;
  mutable size : int;
}

let create () = { root = None; size = 0 }
let size t = t.size
let is_empty t = t.size = 0

(* [a] is served before [b]. *)
let before a b = a.prio > b.prio || (a.prio = b.prio && a.nseq < b.nseq)

let meld a b =
  if before a b then begin
    a.children <- b :: a.children;
    a
  end
  else begin
    b.children <- a :: b.children;
    b
  end

let insert t ~priority ~seq v =
  let n = { prio = priority; nseq = seq; value = v; children = [] } in
  t.root <- (match t.root with None -> Some n | Some r -> Some (meld r n));
  t.size <- t.size + 1

(* Two-pass pairing: meld adjacent pairs left to right, then fold the pairs
   back right to left.  [pairs] returns its list reversed, so the fold_left
   is the right-to-left pass. *)
let merge_pairs children =
  let rec pairs acc = function
    | [] -> acc
    | [ x ] -> x :: acc
    | a :: b :: rest -> pairs (meld a b :: acc) rest
  in
  match pairs [] children with
  | [] -> None
  | x :: rest -> Some (List.fold_left meld x rest)

let pop t =
  match t.root with
  | None -> None
  | Some r ->
    t.root <- merge_pairs r.children;
    r.children <- [];
    t.size <- t.size - 1;
    Some r.value

let peek t = match t.root with None -> None | Some r -> Some r.value
let front_priority t ~empty = match t.root with None -> empty | Some r -> r.prio

(* Explicit work-list traversal: the heap can be a single long spine after
   adversarial insert orders, so no recursion over children. *)
let iter_nodes f t =
  match t.root with
  | None -> ()
  | Some r ->
    let stack = ref [ r ] in
    let continue_ = ref true in
    while !continue_ do
      match !stack with
      | [] -> continue_ := false
      | n :: rest ->
        stack := List.rev_append n.children rest;
        f n
    done

let iter f t = iter_nodes (fun n -> f n.value) t

let to_sorted_list t =
  let acc = ref [] in
  iter_nodes (fun n -> acc := n :: !acc) t;
  List.sort (fun a b -> if before a b then -1 else 1) !acc
  |> List.map (fun n -> n.value)

let clear t =
  t.root <- None;
  t.size <- 0
