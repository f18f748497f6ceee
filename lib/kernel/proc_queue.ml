(* Process queues (paper §2, §4): the 432 queues process objects at ports,
   ready processes at a dispatching port and waiting ones at a
   communication port.  Every such queue here is this one structure, a
   doubly linked list through the processes' [q_next]/[q_prev] ({!none}
   at either end).  A process is in at most one queue — a ready level,
   one port's receivers or one port's senders — so one link pair serves
   all of them.

   The ready path runs [push] and [unlink] per dispatch, so they carry
   [@inline].  [pop] stays a call: inlined, its [unlink] grew the machine's [offer], [post]
   and [admit] and the syscall handlers they inline into by about 250
   bytes each, and the trace gate's workload then ran 2% slower and
   passed its bound less often (2-vCPU x86-64). *)

let none = Process.none

type t = {
  mutable head : Process.t;  (* [none] when empty *)
  mutable tail : Process.t;
}

let create () = { head = none; tail = none }
let[@inline] is_empty t = t.head == none

(* A process out of every queue has no link ([unlink] clears both), so
   an append leaves its [q_next] as it is. *)
let[@inline] push t (p : Process.t) =
  let prev = t.tail in
  p.q_prev <- prev;
  if prev == none then t.head <- p else prev.q_next <- p;
  t.tail <- p

let insert_by_priority t (p : Process.t) =
  let rec behind (q : Process.t) =
    if q == none || q.q_prio >= p.q_prio then q else behind q.q_prev
  in
  let prev = behind t.tail in
  let next = if prev == none then t.head else prev.q_next in
  p.q_prev <- prev;
  p.q_next <- next;
  if prev == none then t.head <- p else prev.q_next <- p;
  if next == none then t.tail <- p else next.q_prev <- p

let[@inline] unlink t (p : Process.t) =
  let prev = p.q_prev and next = p.q_next in
  if prev == none then t.head <- next else prev.q_next <- next;
  if next == none then t.tail <- prev else next.q_prev <- prev;
  p.q_prev <- none;
  p.q_next <- none

let pop t =
  let p = t.head in
  if p != none then unlink t p;
  p

(* Top-level recursion: a search builds no closure. *)
let rec first_from accept (p : Process.t) =
  if p == none || accept p then p else first_from accept p.q_next

let first t accept = first_from accept t.head

let fold f t acc =
  let rec go (p : Process.t) acc =
    if p == none then acc else go p.q_next (f p acc)
  in
  go t.head acc

let iter f t = fold (fun p () -> f p) t ()
