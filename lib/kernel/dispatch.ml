(* Dispatching ports (paper §2): "ready processes are dispatched on
   processors automatically by the hardware via algorithms that involve
   processor, process, and dispatching port objects."

   The ready queue orders by descending process priority, FIFO within a
   priority.  Stopped or otherwise non-ready processes may linger in the
   queue after state changes; the pop operation skips them (they re-enter
   explicitly when restarted).

   Host-cost structure: a pairing heap keyed by (priority desc, seq asc)
   replaces the seed's sorted list, turning O(n) enqueue into O(1) and the
   front pop into O(log n), with service order unchanged bit-for-bit.
   [remove] is lazy: instead of searching the heap it records a kill
   boundary — every entry of that process with a sequence number below the
   boundary is dead and gets discarded when it surfaces at pop.  Live
   membership and queue length are incremental counters, so the O(n)
   [List.length] per enqueue is gone too. *)

open I432_util

type entry = { process : int; priority : int; seq : int }

type t = {
  heap : entry Pqueue.t;
  counts : (int, int) Hashtbl.t;  (* live entries per process *)
  killed : (int, int) Hashtbl.t;  (* process -> kill boundary seq *)
  mutable live : int;  (* total live entries *)
  mutable seq : int;
  mutable dispatches : int;
}

let create () =
  {
    heap = Pqueue.create ();
    counts = Hashtbl.create 64;
    killed = Hashtbl.create 16;
    live = 0;
    seq = 0;
    dispatches = 0;
  }

let count t process =
  match Hashtbl.find_opt t.counts process with Some c -> c | None -> 0

let enqueue t ~process ~priority =
  let e = { process; priority; seq = t.seq } in
  t.seq <- t.seq + 1;
  Pqueue.insert t.heap ~priority ~seq:e.seq e;
  Hashtbl.replace t.counts process (count t process + 1);
  t.live <- t.live + 1

let is_dead t e =
  match Hashtbl.find_opt t.killed e.process with
  | Some boundary -> e.seq < boundary
  | None -> false

let rec restore t = function
  | [] -> ()
  | e :: stash ->
    Pqueue.insert t.heap ~priority:e.priority ~seq:e.seq e;
    restore t stash

(* Pop the first entry accepted by [eligible]; ineligible entries stay.
   Skipped entries are stashed and re-inserted under their original keys,
   which restores their exact service position.  Top-level recursion: a
   pop builds no closure. *)
let rec pop_from t ~eligible stash =
  match Pqueue.pop t.heap with
  | None ->
    restore t stash;
    None
  | Some e ->
    if is_dead t e then pop_from t ~eligible stash
    else if eligible e.process then begin
      restore t stash;
      let c = count t e.process - 1 in
      if c = 0 then Hashtbl.remove t.counts e.process
      else Hashtbl.replace t.counts e.process c;
      t.live <- t.live - 1;
      t.dispatches <- t.dispatches + 1;
      Some e.process
    end
    else pop_from t ~eligible (e :: stash)

let pop t ~eligible = pop_from t ~eligible []

let remove t ~process =
  (match Hashtbl.find_opt t.counts process with
  | Some c ->
    t.live <- t.live - c;
    Hashtbl.remove t.counts process
  | None -> ());
  (* Entries already in the heap all carry seq < t.seq; anything the
     process enqueues later carries seq >= t.seq and survives. *)
  Hashtbl.replace t.killed process t.seq

let mem t ~process = count t process > 0
let length t = t.live
let dispatches_of t = t.dispatches
