(* Per-channel ARQ state (DESIGN.md §9).

   Unacked: a ring of slots indexed by sequence number, covering
   [lo, hi) — from the oldest frame that may still be unacked to one past
   the newest.  A channel numbers frames as it drains them, so adds only
   ever append at [hi]; acks empty a slot and move [lo] past the empty
   ones.  The ring doubles when a stuck old frame stretches the span past
   its size.  [bound] is a lower bound on every deadline: an add lowers
   it, an ack leaves it (stale but still a lower bound), and a scan sets
   it exactly again.  So a round with nothing due compares two ints.

   Seen: a low watermark plus a sparse set above it.  In-order first
   receipts move the watermark and never touch the set. *)

module Unacked = struct
  type 'a pending = {
    payload : 'a;
    mutable deadline : int;
    mutable tries : int;
  }

  type 'a t = {
    mutable slots : 'a pending option array;
    mutable lo : int;
    mutable hi : int;
    mutable count : int;
    mutable bound : int;
  }

  let create () =
    { slots = Array.make 16 None; lo = 0; hi = 0; count = 0; bound = max_int }

  let length t = t.count
  let next_due t = t.bound
  let[@inline] slot t seq = seq land (Array.length t.slots - 1)

  (* Double the ring until it spans [span] sequence numbers from [lo],
     moving the live slots [lo, hi) to their new places. *)
  let grow t ~span =
    let old = t.slots in
    let size = ref (Array.length old) in
    while !size < span do
      size := 2 * !size
    done;
    let slots = Array.make !size None in
    for seq = t.lo to t.hi - 1 do
      slots.(seq land (!size - 1)) <- old.(seq land (Array.length old - 1))
    done;
    t.slots <- slots

  let add t ~seq payload ~deadline =
    if t.count = 0 then t.lo <- seq
    else if seq < t.hi then invalid_arg "Arq.Unacked.add: seq not increasing";
    let span = seq + 1 - t.lo in
    if span > Array.length t.slots then grow t ~span;
    t.hi <- seq + 1;
    t.slots.(slot t seq) <- Some { payload; deadline; tries = 0 };
    t.count <- t.count + 1;
    if deadline < t.bound then t.bound <- deadline

  (* Move [lo] past emptied slots; an empty window forgets its bound. *)
  let settle t =
    while t.lo < t.hi && Option.is_none t.slots.(slot t t.lo) do
      t.lo <- t.lo + 1
    done;
    if t.count = 0 then t.bound <- max_int

  let remove t seq =
    t.slots.(slot t seq) <- None;
    t.count <- t.count - 1

  let ack t seq =
    if seq >= t.lo && seq < t.hi && Option.is_some t.slots.(slot t seq) then begin
      remove t seq;
      settle t;
      true
    end
    else false

  let retransmit_due t ~horizon f =
    if horizon >= t.bound then begin
      let bound = ref max_int in
      for seq = t.lo to t.hi - 1 do
        match t.slots.(slot t seq) with
        | None -> ()
        | Some p ->
          if p.deadline > horizon || f seq p then
            bound := min !bound p.deadline
          else remove t seq
      done;
      t.bound <- !bound;
      settle t
    end

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) None;
    t.lo <- t.hi;
    t.count <- 0;
    t.bound <- max_int
end

module Seen = struct
  type t = { mutable lo : int; above : (int, unit) Hashtbl.t }

  let create () = { lo = 0; above = Hashtbl.create 16 }

  let first_receipt t seq =
    if seq < t.lo then false
    else if seq = t.lo then begin
      t.lo <- seq + 1;
      while Hashtbl.length t.above > 0 && Hashtbl.mem t.above t.lo do
        Hashtbl.remove t.above t.lo;
        t.lo <- t.lo + 1
      done;
      true
    end
    else if Hashtbl.mem t.above seq then false
    else begin
      Hashtbl.replace t.above seq ();
      true
    end
end
