(* The machine's timer heap: sleeps and port-wait deadlines.

   A process holds at most one timer, so the heap is a binary min-heap of
   processes: the key (instant clamped at 0, arm stamp) and the slot live
   on the process ([Process.tm_*]).  Equal instants leave in arming
   order.  Disarming takes the process out, so every entry is live and
   arming, disarming and firing allocate nothing.  [place] is the one
   writer of [tm_pos]. *)

type t = {
  mutable heap : Process.t array;
  mutable size : int;
  mutable arms : int;  (* arm stamps handed out *)
  mutable due : Process.t array;  (* [pop_due]'s result *)
}

let create () =
  { heap = Array.make 16 Process.none; size = 0; arms = 0;
    due = Array.make 16 Process.none }

let length t = t.size

let[@inline] before (a : Process.t) (b : Process.t) =
  a.Process.tm_key < b.Process.tm_key
  || (a.Process.tm_key = b.Process.tm_key && a.Process.tm_arm < b.Process.tm_arm)

let[@inline] place t (proc : Process.t) i =
  t.heap.(i) <- proc;
  proc.Process.tm_pos <- i

let rec sift_up t (proc : Process.t) i =
  let parent = (i - 1) / 2 in
  if i > 0 && before proc t.heap.(parent) then begin
    place t t.heap.(parent) i;
    sift_up t proc parent
  end
  else place t proc i

let rec sift_down t (proc : Process.t) i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if c < t.size && before t.heap.(c) proc then begin
    place t t.heap.(c) i;
    sift_down t proc c
  end
  else place t proc i

let disarm t (proc : Process.t) =
  let i = proc.Process.tm_pos in
  if i >= 0 then begin
    proc.Process.tm_pos <- -1;
    let n = t.size - 1 in
    t.size <- n;
    let last = t.heap.(n) in
    t.heap.(n) <- Process.none;
    if i < n then
      if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t last i
      else sift_down t last i
  end

let grow a =
  let b = Array.make (2 * Array.length a) Process.none in
  Array.blit a 0 b 0 (Array.length a);
  b

(* An instant past [max_int] wraps negative and is due at once, so it is
   keyed as instant 0. *)
let arm t (proc : Process.t) at =
  disarm t proc;
  t.arms <- t.arms + 1;
  proc.Process.tm_key <- Int.max 0 at;
  proc.Process.tm_arm <- t.arms;
  proc.Process.tm_at <- at;
  if t.size = Array.length t.heap then t.heap <- grow t.heap;
  t.size <- t.size + 1;
  sift_up t proc (t.size - 1)

let next t = if t.size = 0 then min_int else t.heap.(0).Process.tm_at

let[@inline] newer (a : Process.t) (b : Process.t) =
  a.Process.ordinal > b.Process.ordinal

(* A handful fall due at once, so they are insertion-sorted unless there
   are many. *)
let pop_due t ~horizon =
  let n = ref 0 in
  while t.size > 0 && t.heap.(0).Process.tm_key <= horizon do
    let proc = t.heap.(0) in
    disarm t proc;
    if !n = Array.length t.due then t.due <- grow t.due;
    t.due.(!n) <- proc;
    incr n
  done;
  let n = !n in
  if n > 16 then begin
    let due = Array.sub t.due 0 n in
    Array.sort (fun a b -> if newer a b then -1 else 1) due;
    Array.blit due 0 t.due 0 n
  end
  else
    for i = 1 to n - 1 do
      let proc = t.due.(i) in
      let j = ref i in
      while !j > 0 && newer proc t.due.(!j - 1) do
        t.due.(!j) <- t.due.(!j - 1);
        decr j
      done;
      t.due.(!j) <- proc
    done;
  n

let due t i = t.due.(i)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.heap.(i)
  done
