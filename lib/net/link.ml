(* A point-to-point link between two nodes.

   Virtual-time transmission model: a frame departing at [d] with size [s]
   arrives at [d + s * ns_per_byte + latency_ns].  Each direction is a
   serial line — a frame cannot start transmitting before the previous one
   in the same direction finished — so [next_free] per direction carries
   the serialization delay, which is what makes bandwidth observable.

   Fault state is pure data interpreted at transmit time: pending
   drop/duplicate/reorder counters consumed by the next frames crossing
   the link, and one partition window during which every frame is lost.
   All of it is armed from an {!I432_fi.Fi.link_plan}, so a faulted run
   replays bit-for-bit from its seed. *)

module Fi = I432_fi.Fi

type t = {
  id : int;
  node_a : int;
  node_b : int;
  latency_ns : int;
  ns_per_byte : int;
  mutable next_free_ab : int;  (* serialization horizon, a->b direction *)
  mutable next_free_ba : int;
  (* fault state *)
  mutable part_from : int;  (* partition window [part_from, part_until) *)
  mutable part_until : int;
  mutable pending_drop : int;
  mutable pending_dup : int;
  mutable pending_reorder : int;
  (* counters *)
  mutable tx : int;
  mutable rx : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

let make ~id ~node_a ~node_b ~latency_ns ~ns_per_byte =
  if latency_ns < 0 || ns_per_byte < 0 then invalid_arg "Link.make: negative";
  {
    id;
    node_a;
    node_b;
    latency_ns;
    ns_per_byte;
    next_free_ab = 0;
    next_free_ba = 0;
    part_from = 0;
    part_until = 0;
    pending_drop = 0;
    pending_dup = 0;
    pending_reorder = 0;
    tx = 0;
    rx = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
  }

let connects t a b = (t.node_a = a && t.node_b = b) || (t.node_a = b && t.node_b = a)
let partitioned_at t ns = ns >= t.part_from && ns < t.part_until

(* Arm one fault act.  Overlapping partitions merge into one window whose
   start is the earliest [at] seen and whose end is the latest deadline. *)
let apply t ~at = function
  | Fi.L_drop n -> t.pending_drop <- t.pending_drop + n
  | Fi.L_dup n -> t.pending_dup <- t.pending_dup + n
  | Fi.L_reorder n -> t.pending_reorder <- t.pending_reorder + n
  | Fi.L_partition dur ->
    if t.part_until <= t.part_from then t.part_from <- at
    else t.part_from <- min t.part_from at;
    t.part_until <- max t.part_until (at + dur)

(* Transmit a frame of [size_bytes] from node [src] no earlier than [now].
   Returns the departure instant and the arrival instants (empty = lost;
   two = duplicated; a reordered frame is held back three extra latencies,
   so a later frame can overtake it). *)
let transmit t ~now ~src ~size_bytes =
  let serialize_ns = size_bytes * t.ns_per_byte in
  let depart =
    if src = t.node_a then begin
      let depart = max now t.next_free_ab in
      t.next_free_ab <- depart + serialize_ns;
      depart
    end
    else begin
      let depart = max now t.next_free_ba in
      t.next_free_ba <- depart + serialize_ns;
      depart
    end
  in
  let arrival = depart + serialize_ns + t.latency_ns in
  if partitioned_at t depart then begin
    t.dropped <- t.dropped + 1;
    (depart, [])
  end
  else if t.pending_drop > 0 then begin
    t.pending_drop <- t.pending_drop - 1;
    t.dropped <- t.dropped + 1;
    (depart, [])
  end
  else if t.pending_dup > 0 then begin
    t.pending_dup <- t.pending_dup - 1;
    t.duplicated <- t.duplicated + 1;
    t.tx <- t.tx + 1;
    (depart, [ arrival; arrival + t.latency_ns ])
  end
  else if t.pending_reorder > 0 then begin
    t.pending_reorder <- t.pending_reorder - 1;
    t.reordered <- t.reordered + 1;
    t.tx <- t.tx + 1;
    (depart, [ arrival + (3 * t.latency_ns) ])
  end
  else begin
    t.tx <- t.tx + 1;
    (depart, [ arrival ])
  end

let note_rx t = t.rx <- t.rx + 1

let to_string t =
  Printf.sprintf
    "link %d: node%d <-> node%d latency=%dns %dns/B tx=%d rx=%d drop=%d dup=%d \
     reorder=%d"
    t.id t.node_a t.node_b t.latency_ns t.ns_per_byte t.tx t.rx t.dropped
    t.duplicated t.reordered
