(* The kernel event tracer.

   Domain safety: a tracer is per-machine instance state — rings, drop
   counters, and the interning memos are all fields of [t].  The one
   module global, the detail-renderer table, is written only at module
   initialisation and read-only after.  The parallel cluster engine
   therefore needs no locking here: each node's tracer is touched only by
   the one domain stepping that node during a round slice (see
   Machine.run's stepper assertion), and by the coordinator between
   slices.

   One bounded ring of fixed-shape event records per processor (plus one
   for boot-time/kernel events emitted outside the run loop), so tracing a
   long run costs constant memory: when a ring fills, the oldest event on
   that processor is overwritten, and the ring's count of events ever
   emitted to it, less the events it holds, is its drop count.

   Each ring is one flat, preallocated [int array] holding eight ints per
   event (seq, ts, cpu, a, b, kind code, interned name id, interned detail
   id) rather than a ring of {!Event.t} records: the emit path is the
   kernel's hottest seam and must stay within the bench's < 5% overhead
   budget, which leaves no room for a record plus an option box per event.
   Packing an event into eight adjacent ints makes emission eight
   immediate stores into a single cache line — no allocation, no
   {!caml_modify} write barriers, and no scatter across per-field arrays
   whose lines the kernel's own working set would keep evicting.  An
   event carries no strings: callers intern a name or detail once with
   {!string_id} (a process's name at spawn, a pump's name at boot) and
   emit the id.  A detail that would be formatted per event (a deschedule's
   op, "delay(123456ns)") is not interned at all: its kind has a renderer,
   and the event stores a code and two int arguments that the renderer
   turns into text when the event is read.  {!Event.t} records are
   materialized only when a reader asks for them, merged from the rings
   in seq order, and so is the seed's unstructured text: a reader renders
   it from the retained events with {!Event.legacy_line}, so the rings are
   the only copy of a trace. *)

type level = Off | Events

(* Field offsets within a slot. *)
let fields = 8

type ring = {
  r_data : int array;  (* capacity * [fields]: seq ts cpu a b kind name detail *)
  r_cap : int;  (* slots; cached so the emit path never divides *)
  mutable r_next : int;  (* slot the next event goes to *)
  mutable r_count : int;  (* events ever emitted to this ring *)
}

let ring_create capacity =
  {
    r_data = Array.make (capacity * fields) 0;
    r_cap = capacity;
    r_next = 0;
    r_count = 0;
  }

(* Events held, and the slot of the oldest: once the ring has wrapped,
   the next slot to be written holds the oldest event. *)
let ring_len r = Int.min r.r_count r.r_cap
let ring_head r = if r.r_count < r.r_cap then 0 else r.r_next

(* The intern pool.  Id 0 is always "".  [memo_s]/[memo_id] form a small
   associative cache of recently interned strings; the hot path scans it
   with physical comparisons ([==]) and falls back to the hashtable (a
   content hash) only on a miss.  Eight entries cover the working set of
   a trace — the names of the processes currently bouncing between the
   processors plus the handful of domain and frame-kind names — so the
   fallback is rare even when consecutive events alternate names. *)
let memo_slots = 8

type interns = {
  ids : (string, int) Hashtbl.t;
  mutable pool : string array;  (* id -> string *)
  mutable used : int;
  memo_s : string array;
  memo_id : int array;
  mutable memo_next : int;  (* round-robin replacement cursor *)
}

type t = {
  level : level;
  rings : ring array;  (* index cpu+1; slot 0 = boot *)
  strings : interns;
  mutable emitted : int;  (* total events ever emitted (= next seq) *)
}

let interns_create () =
  let ids = Hashtbl.create 64 in
  Hashtbl.add ids "" 0;
  {
    ids;
    pool = Array.make 64 "";
    used = 1;
    (* Every memo slot maps "" -> 0, which is correct, so lookups may
       return any slot without an emptiness check. *)
    memo_s = Array.make memo_slots "";
    memo_id = Array.make memo_slots 0;
    memo_next = 0;
  }

let intern_slow st s =
  let id =
    match Hashtbl.find_opt st.ids s with
    | Some id -> id
    | None ->
      let id = st.used in
      if id = Array.length st.pool then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit st.pool 0 bigger 0 id;
        st.pool <- bigger
      end;
      st.pool.(id) <- s;
      st.used <- id + 1;
      Hashtbl.add st.ids s id;
      id
  in
  st.memo_s.(st.memo_next) <- s;
  st.memo_id.(st.memo_next) <- id;
  st.memo_next <- (st.memo_next + 1) mod memo_slots;
  id

(* Unrolled 8-way scan: a handful of physical compares with no loop
   counter, falling through to the hashtable. *)
let intern st s =
  let m = st.memo_s in
  if Array.unsafe_get m 0 == s then Array.unsafe_get st.memo_id 0
  else if Array.unsafe_get m 1 == s then Array.unsafe_get st.memo_id 1
  else if Array.unsafe_get m 2 == s then Array.unsafe_get st.memo_id 2
  else if Array.unsafe_get m 3 == s then Array.unsafe_get st.memo_id 3
  else if Array.unsafe_get m 4 == s then Array.unsafe_get st.memo_id 4
  else if Array.unsafe_get m 5 == s then Array.unsafe_get st.memo_id 5
  else if Array.unsafe_get m 6 == s then Array.unsafe_get st.memo_id 6
  else if Array.unsafe_get m 7 == s then Array.unsafe_get st.memo_id 7
  else intern_slow st s

(* Detail renderers, by kind code.  An event of a kind with a renderer
   stores a code in its detail slot and the code's arguments in [a] and
   [b]; reading it renders the three into the detail text, and the event
   reads a=0 b=0 because its ints belong to the detail.  Obs sits below
   the layers that define such codes, so each registers its renderer at
   its own module initialisation (the kernel's deschedule op, in
   Machine). *)
type renderer = detail:int -> a:int -> b:int -> string

let renderers : renderer option array = Array.make Event.kind_count None
let set_renderer kind render =
  renderers.(Event.kind_to_int kind) <- Some render

(* Offset of the [i]th oldest event in [r]. *)
let slot_base r i = (ring_head r + i) mod r.r_cap * fields

let ring_event t r i =
  let base = slot_base r i in
  let d = r.r_data in
  let code = d.(base + 5) and detail = d.(base + 7) in
  let a = d.(base + 3) and b = d.(base + 4) in
  let detail, a, b =
    match renderers.(code) with
    | None -> (t.strings.pool.(detail), a, b)
    | Some render -> (render ~detail ~a ~b, 0, 0)
  in
  {
    Event.seq = d.(base);
    ts_ns = d.(base + 1);
    cpu = d.(base + 2);
    a;
    b;
    kind = Event.kind_of_int code;
    name = t.strings.pool.(d.(base + 6));
    detail;
  }

let default_capacity = 16_384

let create ?(capacity = default_capacity) ~level ~processors () =
  if processors < 0 then invalid_arg "Tracer.create: processors";
  if capacity <= 0 then invalid_arg "Tracer.create: capacity";
  (* An Off tracer never stores an event, so its rings are empty
     placeholders over the shared empty array: the default configuration
     pays no ring memory.  Nothing reads a slot of an empty ring. *)
  let capacity = if level = Off then 0 else capacity in
  {
    level;
    rings = Array.init (processors + 1) (fun _ -> ring_create capacity);
    strings = interns_create ();
    emitted = 0;
  }

let level t = t.level

(* Pattern matches, not [=]/[<>]: polymorphic compare on the level is a C
   call, which the per-event budget cannot afford. *)
let enabled t = match t.level with Off -> false | Events -> true

let string_id t s =
  match t.level with Off -> 0 | Events -> intern t.strings s

(* The one emit path: level check, slot accounting, eight immediate
   stores.  No optional arguments and no strings — callers pass
   ids from [string_id], interned once where the string is fixed. *)
let emit t kind ~cpu ~ts_ns ~name_id ~detail_id ~a ~b =
  match t.level with
  | Off -> ()
  | Events ->
    let seq = t.emitted in
    t.emitted <- seq + 1;
    let rings = t.rings in
    let i = cpu + 1 in
    let r =
      Array.unsafe_get rings (if i < 0 || i >= Array.length rings then 0 else i)
    in
    let s = r.r_next in
    r.r_next <- (if s + 1 = r.r_cap then 0 else s + 1);
    r.r_count <- r.r_count + 1;
    (* [base .. base+7] lies within the ring by construction. *)
    let d = r.r_data and base = s * fields in
    Array.unsafe_set d base seq;
    Array.unsafe_set d (base + 1) ts_ns;
    Array.unsafe_set d (base + 2) cpu;
    Array.unsafe_set d (base + 3) a;
    Array.unsafe_set d (base + 4) b;
    Array.unsafe_set d (base + 5) (Event.kind_to_int kind);
    Array.unsafe_set d (base + 6) name_id;
    Array.unsafe_set d (base + 7) detail_id

(* All retained events in emission order.  A ring only appends and
   overflow drops its oldest, so each ring is already in seq order and
   the rings are merged, not sorted: the list is built from its end,
   each step taking the ring whose newest unread event has the highest
   seq.  A step scans the rings, one per processor plus the boot ring. *)
let events t =
  let rings = t.rings in
  let next = Array.map (fun r -> ring_len r - 1) rings in
  let rec merge acc =
    let best = ref (-1) and best_seq = ref (-1) in
    for k = 0 to Array.length rings - 1 do
      let i = next.(k) in
      if i >= 0 then begin
        let r = rings.(k) in
        let seq = r.r_data.(slot_base r i) in
        if seq > !best_seq then begin
          best := k;
          best_seq := seq
        end
      end
    done;
    let k = !best in
    if k < 0 then acc
    else begin
      let i = next.(k) in
      next.(k) <- i - 1;
      merge (ring_event t rings.(k) i :: acc)
    end
  in
  merge []

let retained t = Array.fold_left (fun acc r -> acc + ring_len r) 0 t.rings
let emitted t = t.emitted
let ring_dropped r = r.r_count - ring_len r
let dropped t = Array.fold_left (fun acc r -> acc + ring_dropped r) 0 t.rings

let dropped_on t ~cpu =
  let i = cpu + 1 in
  if i < 0 || i >= Array.length t.rings then 0 else ring_dropped t.rings.(i)
