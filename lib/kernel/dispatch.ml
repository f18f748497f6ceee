(* Dispatching ports (paper §2): "ready processes are dispatched on
   processors automatically by the hardware via algorithms that involve
   processor, process, and dispatching port objects."

   The ready queue orders by descending process priority, FIFO within a
   priority.  A pop skips the processes its caller finds ineligible (bound
   to another processor, say); they keep their place.

   Host-cost structure: the queue holds processes, not object-table
   indices, and the processes are its nodes, as the 432's dispatching
   port queues process objects.  Each priority in use has a level, a FIFO
   doubly linked through the processes' [q_next]/[q_prev]; the levels form
   a chain in descending priority.  Enqueue appends at its level's tail,
   pop walks levels and FIFOs to the first eligible process and unlinks
   it (skipped processes keep their exact place), and remove unlinks at
   once, so a removed process leaves nothing behind.  None of these
   allocates or hashes: a level emptied by pops goes to a spare chain and
   is reused for the next priority that needs one.

   A process has at most one entry: a queued process is ready, and the
   machine enqueues only a non-ready or stopped one.  [enqueue] does not
   check it (a check there cost the bank-history benchmark about 3% of
   its throughput on a 2-vCPU x86-64 host); the model property in
   test/test_model.ml holds the queue to the seed's list under that
   traffic. *)

let none = Process.none

type level = {
  mutable prio : int;
  mutable head : Process.t;  (* [none] when empty *)
  mutable tail : Process.t;
  mutable lower : level;  (* the next lower priority's level, or [bottom] *)
}

(* The end of every level chain.  Nothing writes it. *)
let rec bottom = { prio = min_int; head = none; tail = none; lower = bottom }

type t = {
  mutable top : level;  (* highest priority, or [bottom] *)
  mutable spare : level;  (* emptied levels for reuse, chained by [lower] *)
  mutable live : int;  (* queued processes *)
}

let create () = { top = bottom; spare = bottom; live = 0 }

(* The level of [priority], linked into the chain (a spare, or a fresh
   one) when there is none. *)
let rec level_in t above l priority =
  if l != bottom && l.prio > priority then level_in t l l.lower priority
  else if l != bottom && l.prio = priority then l
  else begin
    let fresh =
      if t.spare == bottom then
        { prio = priority; head = none; tail = none; lower = l }
      else begin
        let s = t.spare in
        t.spare <- s.lower;
        s.prio <- priority;
        s.lower <- l;
        s
      end
    in
    if above == bottom then t.top <- fresh else above.lower <- fresh;
    fresh
  end

let level_of t priority = level_in t bottom t.top priority

let unlink l (p : Process.t) =
  let prev = p.q_prev and next = p.q_next in
  if prev == none then l.head <- next else prev.q_next <- next;
  if next == none then l.tail <- prev else next.q_prev <- prev;
  p.q_prev <- none;
  p.q_next <- none

(* Append [p] at the tail of its priority's level. *)
let enqueue t ~process:(p : Process.t) ~priority =
  let l = level_of t priority in
  let prev = l.tail in
  p.q_prio <- priority;
  p.q_prev <- prev;
  p.q_queued <- true;
  if prev == none then l.head <- p else prev.q_next <- p;
  l.tail <- p;
  t.live <- t.live + 1

let take t l (p : Process.t) =
  unlink l p;
  p.q_queued <- false;
  t.live <- t.live - 1

let rec first_eligible eligible (p : Process.t) =
  if p == none || eligible p then p else first_eligible eligible p.q_next

(* Walk the levels from [l] down ([above] is the level before it); an
   empty level is moved to the spare chain on the way.  Top-level
   recursion: a pop builds no closure. *)
let rec pop_from t ~eligible above l =
  if l == bottom then none
  else if l.head == none then begin
    let lower = l.lower in
    if above == bottom then t.top <- lower else above.lower <- lower;
    l.lower <- t.spare;
    t.spare <- l;
    pop_from t ~eligible above lower
  end
  else
    let p = first_eligible eligible l.head in
    if p == none then pop_from t ~eligible l l.lower
    else begin
      take t l p;
      p
    end

let pop t ~eligible = pop_from t ~eligible bottom t.top

let remove t ~process:(p : Process.t) =
  if p.q_queued then take t (level_of t p.q_prio) p

let mem (_ : t) ~(process : Process.t) = process.q_queued
let length t = t.live

let rec fold_level l (p : Process.t) acc =
  if p == none then fold_level_chain l.lower acc
  else fold_level l p.q_next (p :: acc)

and fold_level_chain l acc = if l == bottom then acc else fold_level l l.head acc

let to_list t = List.rev (fold_level_chain t.top [])
