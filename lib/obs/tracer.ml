(* The kernel event tracer.

   Domain safety: a tracer is per-machine instance state — its ring, its
   emitted count and the interning memos are all fields of [t].  The one
   module global, the detail-renderer table, is written only at module
   initialisation and read-only after.  The parallel cluster engine
   therefore needs no locking here: each node's tracer is touched only by
   the one domain stepping that node during a round slice (see
   Machine.run's stepper assertion), and by the coordinator between
   slices.

   One bounded ring of fixed-shape event records per machine, so tracing
   a long run costs constant memory: when the ring fills, the oldest
   event is overwritten.  A machine is stepped from one domain, so its
   processors share the ring and their events land in emission order.
   The ring keeps one count, the events ever emitted: the events it holds
   are the last [min emitted capacity], the rest were dropped, and the
   [i]th retained event's seq is its position, [emitted - retained + i],
   so no slot stores it.

   The ring is one flat, preallocated [int array] holding seven ints per
   event (ts, cpu, a, b, kind code, interned name id, interned detail
   id) rather than a ring of {!Event.t} records: the emit path is the
   kernel's hottest seam and must stay within the bench's < 5% overhead
   budget, which leaves no room for a record plus an option box per event.
   Packing an event into seven adjacent ints makes emission seven
   immediate stores into a single cache line — no allocation, no
   {!caml_modify} write barriers, and no scatter across per-field arrays
   whose lines the kernel's own working set would keep evicting.  An
   event carries no strings: callers intern a name or detail once with
   {!string_id} (a process's name at spawn, a pump's name at boot) and
   emit the id.  A detail that would be formatted per event (a deschedule's
   op, "delay(123456ns)") is not interned at all: its kind has a renderer,
   and the event stores a code and two int arguments that the renderer
   turns into text when the event is read.  {!Event.t} records are
   materialized only when a reader asks for them, and so is the seed's
   unstructured text: a reader renders it from the retained events with
   {!Event.legacy_line}, so the ring is the only copy of a trace. *)

type level = Off | Events

(* Ints per slot: ts cpu a b kind name detail. *)
let fields = 7

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
  data : int array;  (* capacity * [fields] *)
  capacity : int;  (* slots; cached so the emit path never divides *)
  mutable next : int;  (* slot the next event goes to *)
  mutable emitted : int;  (* events ever emitted (= next seq) *)
  strings : interns;
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

(* The event with seq [seq], held in slot [s]. *)
let slot_event t ~seq s =
  let d = t.data and base = s * fields in
  let code = d.(base + 4) and detail = d.(base + 6) in
  let a = d.(base + 2) and b = d.(base + 3) in
  let detail, a, b =
    match renderers.(code) with
    | None -> (t.strings.pool.(detail), a, b)
    | Some render -> (render ~detail ~a ~b, 0, 0)
  in
  {
    Event.seq;
    ts_ns = d.(base);
    cpu = d.(base + 1);
    a;
    b;
    kind = Event.kind_of_int code;
    name = t.strings.pool.(d.(base + 5));
    detail;
  }

let default_capacity = 32_768

let create ?(capacity = default_capacity) ~level () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity";
  (* An Off tracer never stores an event, so its ring is the shared empty
     array: the default configuration pays no ring memory. *)
  let capacity = match level with Off -> 0 | Events -> capacity in
  {
    level;
    data = Array.make (capacity * fields) 0;
    capacity;
    next = 0;
    emitted = 0;
    strings = interns_create ();
  }

let level t = t.level

(* Pattern matches, not [=]/[<>]: polymorphic compare on the level is a C
   call, which the per-event budget cannot afford. *)
let enabled t = match t.level with Off -> false | Events -> true

let string_id t s =
  match t.level with Off -> 0 | Events -> intern t.strings s

(* The one emit path: level check, slot accounting, seven immediate
   stores.  No optional arguments and no strings — callers pass
   ids from [string_id], interned once where the string is fixed. *)
let emit t kind ~cpu ~ts_ns ~name_id ~detail_id ~a ~b =
  match t.level with
  | Off -> ()
  | Events ->
    let s = t.next in
    t.next <- (if s + 1 = t.capacity then 0 else s + 1);
    t.emitted <- t.emitted + 1;
    (* [base .. base+6] lies within the ring by construction. *)
    let d = t.data and base = s * fields in
    Array.unsafe_set d base ts_ns;
    Array.unsafe_set d (base + 1) cpu;
    Array.unsafe_set d (base + 2) a;
    Array.unsafe_set d (base + 3) b;
    Array.unsafe_set d (base + 4) (Event.kind_to_int kind);
    Array.unsafe_set d (base + 5) name_id;
    Array.unsafe_set d (base + 6) detail_id

let retained t = Int.min t.emitted t.capacity
let emitted t = t.emitted
let dropped t = t.emitted - retained t

(* All retained events in emission order, built from the newest back.
   Once the ring has wrapped, the next slot to be written holds the
   oldest event. *)
let events t =
  let len = retained t in
  let oldest = if t.emitted < t.capacity then 0 else t.next in
  let first_seq = t.emitted - len in
  let rec walk i acc =
    if i < 0 then acc
    else
      walk (i - 1)
        (slot_event t ~seq:(first_seq + i) ((oldest + i) mod t.capacity)
        :: acc)
  in
  walk (len - 1) []
