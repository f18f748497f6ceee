(* Dispatching ports (paper §2): "ready processes are dispatched on
   processors automatically by the hardware via algorithms that involve
   processor, process, and dispatching port objects."

   The ready queue orders by descending process priority, FIFO within a
   priority.  A pop skips the processes its caller finds ineligible (bound
   to another processor, say); they keep their place.

   Host-cost structure: the queue holds processes, not object-table
   indices, and the processes are its nodes, as the 432's dispatching
   port queues process objects.  Each priority in use has a level, a
   {!Proc_queue} (the queue a port's waiters use too); the levels form a
   chain in descending priority.  Enqueue appends at its level's tail,
   pop walks levels and queues to the first eligible process and unlinks
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
  q : Proc_queue.t;
  mutable lower : level;  (* the next lower priority's level, or [bottom] *)
}

(* The end of every level chain.  Nothing writes it. *)
let rec bottom = { prio = min_int; q = Proc_queue.create (); lower = bottom }

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
        { prio = priority; q = Proc_queue.create (); lower = l }
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

let enqueue t ~process:(p : Process.t) ~priority =
  p.q_prio <- priority;
  p.q_queued <- true;
  Proc_queue.push (level_of t priority).q p;
  t.live <- t.live + 1

let take t l (p : Process.t) =
  Proc_queue.unlink l.q p;
  p.q_queued <- false;
  t.live <- t.live - 1

(* Walk the levels from [l] down ([above] is the level before it); an
   empty level is moved to the spare chain on the way.  Top-level
   recursion: a pop builds no closure. *)
let rec pop_from t ~eligible above l =
  if l == bottom then none
  else if Proc_queue.is_empty l.q then begin
    let lower = l.lower in
    if above == bottom then t.top <- lower else above.lower <- lower;
    l.lower <- t.spare;
    t.spare <- l;
    pop_from t ~eligible above lower
  end
  else
    let p = Proc_queue.first l.q eligible in
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

let to_list t =
  let rec levels l acc =
    if l == bottom then acc
    else levels l.lower (Proc_queue.fold List.cons l.q acc)
  in
  List.rev (levels t.top [])
