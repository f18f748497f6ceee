(* AVL tree keyed by region base, augmented with the max region length per
   subtree.  The augmentation is what makes first fit O(log n): at every
   node we know whether any region to the left (= lower base) can satisfy
   the request, so the descent takes the leftmost viable branch directly.

   Only a region that appears or vanishes rebuilds (and rebalances) a
   path.  A carve that leaves a remainder, or a freed block that merges
   into one neighbour, resizes that neighbour's node in place and then
   refreshes [maxl] on the path down to it.  The address order survives:
   a carved region's base moves up but stays below its successor's, and a
   merge moves a base down only as far as its predecessor's end. *)

type tree =
  | Leaf
  | Node of {
      mutable l : tree;
      mutable base : int;
      mutable len : int;
      mutable r : tree;
      mutable h : int;
      mutable maxl : int;  (* max region length in this subtree *)
    }

let height = function Leaf -> 0 | Node n -> n.h
let maxl = function Leaf -> 0 | Node n -> n.maxl

let mk l base len r =
  Node
    {
      l;
      base;
      len;
      r;
      h = 1 + Int.max (height l) (height r);
      maxl = Int.max len (Int.max (maxl l) (maxl r));
    }

(* Standard AVL rebalancing (single/double rotations). *)
let bal l base len r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Node { l = ll; base = lb; len = llen; r = lr; _ } ->
      if height ll >= height lr then mk ll lb llen (mk lr base len r)
      else (
        match lr with
        | Node { l = lrl; base = lrb; len = lrlen; r = lrr; _ } ->
          mk (mk ll lb llen lrl) lrb lrlen (mk lrr base len r)
        | Leaf -> assert false)
    | Leaf -> assert false
  else if hr > hl + 1 then
    match r with
    | Node { l = rl; base = rb; len = rlen; r = rr; _ } ->
      if height rr >= height rl then mk (mk l base len rl) rb rlen rr
      else (
        match rl with
        | Node { l = rll; base = rlb; len = rllen; r = rlr; _ } ->
          mk (mk l base len rll) rlb rllen (mk rlr rb rlen rr)
        | Leaf -> assert false)
    | Leaf -> assert false
  else mk l base len r

let rec add t base len =
  match t with
  | Leaf -> mk Leaf base len Leaf
  | Node n ->
    if base < n.base then bal (add n.l base len) n.base n.len n.r
    else if base > n.base then bal n.l n.base n.len (add n.r base len)
    else invalid_arg "Free_store: duplicate region base"

let rec min_binding = function
  | Leaf -> invalid_arg "Free_store.min_binding: empty"
  | Node { l = Leaf; base; len; _ } -> (base, len)
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Leaf -> invalid_arg "Free_store.remove_min: empty"
  | Node { l = Leaf; r; _ } -> r
  | Node { l; base; len; r; _ } -> bal (remove_min l) base len r

let rec remove t key =
  match t with
  | Leaf -> invalid_arg "Free_store.remove: absent base"
  | Node n ->
    if key < n.base then bal (remove n.l key) n.base n.len n.r
    else if key > n.base then bal n.l n.base n.len (remove n.r key)
    else (
      match (n.l, n.r) with
      | Leaf, r -> r
      | l, Leaf -> l
      | l, r ->
        let sb, sl = min_binding r in
        bal l sb sl (remove_min r))

(* Greatest region with base < key, or [Leaf]. *)
let rec pred t key acc =
  match t with
  | Leaf -> acc
  | Node n -> if n.base < key then pred n.r key t else pred n.l key acc

(* Least region with base > key, or [Leaf]. *)
let rec succ t key acc =
  match t with
  | Leaf -> acc
  | Node n -> if n.base > key then succ n.l key t else succ n.r key acc

(* Lowest-base region with len >= size, or [Leaf]; the left-first descent
   is what makes this a faithful first fit. *)
let rec first_fit t size =
  match t with
  | Leaf -> Leaf
  | Node n ->
    if maxl n.l >= size && n.l != Leaf then first_fit n.l size
    else if n.len >= size then t
    else if maxl n.r >= size then first_fit n.r size
    else Leaf

(* Recompute [maxl] on the path from [t] down to the region at [key],
   after that region was resized in place. *)
let rec refresh t key =
  match t with
  | Leaf -> ()
  | Node n ->
    if key < n.base then refresh n.l key
    else if key > n.base then refresh n.r key;
    n.maxl <- Int.max n.len (Int.max (maxl n.l) (maxl n.r))

type t = {
  mutable tree : tree;
  mutable count : int;
  mutable sum : int;
}

let create () = { tree = Leaf; count = 0; sum = 0 }
let total t = t.sum
let largest t = maxl t.tree
let region_count t = t.count

let insert t ~base ~length =
  if length < 0 then invalid_arg "Free_store.insert: negative length";
  if length > 0 then begin
    (match (pred t.tree base Leaf, succ t.tree base Leaf) with
    | Node p, s when p.base + p.len = base -> (
      p.len <- p.len + length;
      match s with
      | Node s when base + length = s.base ->
        p.len <- p.len + s.len;
        refresh t.tree p.base;
        t.tree <- remove t.tree s.base;
        t.count <- t.count - 1
      | Node _ | Leaf -> refresh t.tree p.base)
    | _, Node s when base + length = s.base ->
      s.base <- base;
      s.len <- s.len + length;
      refresh t.tree base
    | _ ->
      t.tree <- add t.tree base length;
      t.count <- t.count + 1);
    t.sum <- t.sum + length
  end

let take_first_fit t ~size =
  if size < 0 then invalid_arg "Free_store.take_first_fit: size";
  match first_fit t.tree size with
  | Leaf -> -1
  | Node n ->
    let base = n.base in
    if n.len = size then begin
      t.tree <- remove t.tree base;
      t.count <- t.count - 1
    end
    else begin
      n.base <- base + size;
      n.len <- n.len - size;
      refresh t.tree n.base
    end;
    t.sum <- t.sum - size;
    base

let rec iter_tree f = function
  | Leaf -> ()
  | Node n ->
    iter_tree f n.l;
    f ~base:n.base ~length:n.len;
    iter_tree f n.r

let iter f t = iter_tree f t.tree

let to_list t =
  let acc = ref [] in
  iter (fun ~base ~length -> acc := (base, length) :: !acc) t;
  List.rev !acc
