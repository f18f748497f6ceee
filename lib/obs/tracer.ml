(* The kernel event tracer.

   Domain safety: a tracer is per-machine instance state — its ring, its
   emitted count and the interning memos are all fields of [t], and the
   module has no mutable global.  The parallel cluster engine therefore
   needs no locking here: each node's tracer is touched only by
   the one domain stepping that node during a round slice (see
   Machine.run's stepper assertion), and by the coordinator between
   slices.

   One bounded ring of fixed-shape event slots per machine, so tracing
   a long run costs constant memory: when the ring fills, the oldest
   event is overwritten.  A machine is stepped from one domain, so its
   processors share the ring and their events land in emission order.
   The ring keeps one count, the events ever emitted: the events it holds
   are the last [min emitted capacity], the rest were dropped, and the
   [i]th retained event's seq is its position, [emitted - retained + i],
   so no slot stores it.

   The ring is one flat, preallocated [int array] holding four ints per
   event — ts, a, b and one meta word packing the kind code, [cpu + 1],
   the interned name id and the detail id — rather than a ring of
   {!Event.t} records: the emit path is the kernel's hottest seam, and a
   record plus an option box per event would cost allocation and
   {!caml_modify} write barriers on every one.  Emission is four
   immediate stores into four adjacent words.  No field is range-checked at
   emit time; each is checked once where its value is made: an id when
   the intern pool issues it ({!fits_id}), a processor id when a traced
   machine is created ({!max_cpus}).  An event carries no strings:
   callers intern a name or detail once with {!string_id} (a process's
   name at spawn, a pump's name at boot) and emit the id.

   Readers stream.  {!fold} walks the retained slots in seq order,
   tests each slot's kind code against an optional filter before
   anything is built, and hands the caller a seq; an {!Event.t} record
   exists only when the caller asks {!event} for one.  {!events} and
   {!to_list} build lists on the same walk, and the seed's unstructured
   text is rendered from retained events with {!Event.legacy_line}, so
   the ring is the only copy of a trace. *)

type level = Off | Events

(* Ints per slot: ts, a, b, meta. *)
let fields = 4

(* The meta word, low bits first: kind code, [cpu + 1], name id, detail
   id — 6 + 9 + 24 + 24 = 63 bits, every bit of an OCaml int.  The
   detail field is the top one, so [lsr] extracts it unmasked. *)
let kind_bits = 6
let cpu_bits = 9
let id_bits = 24
let cpu_shift = kind_bits
let name_shift = cpu_shift + cpu_bits
let detail_shift = name_shift + id_bits
let kind_mask = (1 lsl kind_bits) - 1
let cpu_mask = (1 lsl cpu_bits) - 1
let id_mask = (1 lsl id_bits) - 1
let () =
  assert (detail_shift + id_bits = Sys.int_size);
  assert (Event.kind_count <= 1 lsl kind_bits)

(* Processors 0 .. max_cpus - 1 fit beside -1, stored as [cpu + 1]. *)
let max_cpus = cpu_mask
let max_ids = 1 lsl id_bits

(* The one check of both 24-bit fields, made as the intern pool issues
   an id. *)
let fits_id id =
  if id < 0 || id > id_mask then
    invalid_arg
      (Printf.sprintf "Tracer.fits_id: %d past the %d-bit id field" id
         id_bits)
  else id

(* The meta word's fields.  Every reader decodes through these. *)
let[@inline] meta_code meta = meta land kind_mask
let[@inline] meta_cpu meta = ((meta lsr cpu_shift) land cpu_mask) - 1
let[@inline] meta_name_id meta = (meta lsr name_shift) land id_mask
let[@inline] meta_detail_id meta = meta lsr detail_shift

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
  mutable pool : string array;  (* id -> string; [Hashtbl.length ids] used *)
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
      let id = fits_id (Hashtbl.length st.ids) in
      if id = Array.length st.pool then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit st.pool 0 bigger 0 id;
        st.pool <- bigger
      end;
      st.pool.(id) <- s;
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

(* The one emit path: level check, slot accounting, four immediate
   stores.  No optional arguments, no strings and no range checks —
   callers pass ids from [string_id], checked where they were made, and a
   cpu below a traced machine's [max_cpus]. *)
let emit t kind ~cpu ~ts_ns ~name_id ~detail_id ~a ~b =
  match t.level with
  | Off -> ()
  | Events ->
    let s = t.next in
    t.next <- (if s + 1 = t.capacity then 0 else s + 1);
    t.emitted <- t.emitted + 1;
    (* [base .. base+3] lies within the ring by construction. *)
    let d = t.data and base = s * fields in
    Array.unsafe_set d base ts_ns;
    Array.unsafe_set d (base + 1) a;
    Array.unsafe_set d (base + 2) b;
    Array.unsafe_set d (base + 3)
      (Event.kind_to_int kind
      lor ((cpu + 1) lsl cpu_shift)
      lor (name_id lsl name_shift)
      lor (detail_id lsl detail_shift))

let retained t = Int.min t.emitted t.capacity
let emitted t = t.emitted
let dropped t = t.emitted - retained t

(* Once the ring has wrapped, the next slot to be written holds the
   oldest event, and [next = emitted mod capacity]: the event with seq
   [seq] always lives in slot [seq mod capacity]. *)
let slot_base t seq =
  if seq < t.emitted - retained t || seq >= t.emitted then
    invalid_arg (Printf.sprintf "Tracer: seq %d is not retained" seq);
  seq mod t.capacity * fields

type slot = {
  ts_ns : int;
  cpu : int;
  code : int;
  name_id : int;
  detail_id : int;
  a : int;
  b : int;
}

let slot t seq =
  let d = t.data and base = slot_base t seq in
  let meta = d.(base + 3) in
  {
    ts_ns = d.(base);
    cpu = meta_cpu meta;
    code = meta_code meta;
    name_id = meta_name_id meta;
    detail_id = meta_detail_id meta;
    a = d.(base + 1);
    b = d.(base + 2);
  }

let event t seq =
  let d = t.data and base = slot_base t seq in
  let meta = d.(base + 3) in
  let pool = t.strings.pool in
  {
    Event.seq;
    ts_ns = d.(base);
    cpu = meta_cpu meta;
    kind = Event.kind_of_int (meta_code meta);
    name = pool.(meta_name_id meta);
    detail = pool.(meta_detail_id meta);
    a = d.(base + 1);
    b = d.(base + 2);
  }

let kinds keep =
  Array.init Event.kind_count (fun i -> keep (Event.kind_of_int i))
let every_kind = kinds (fun _ -> true)

let filter = function
  | None -> every_kind
  | Some keep when Array.length keep = Event.kind_count -> keep
  | Some _ -> invalid_arg "Tracer: a kind filter has one entry per kind"

(* The one reader's step: the first seq in [seq, stop) whose slot's kind
   [keep] admits, or [stop].  Only the meta word is read. *)
let rec next_kept t keep seq stop =
  if seq >= stop then stop
  else if keep.(meta_code t.data.((seq mod t.capacity * fields) + 3))
  then seq
  else next_kept t keep (seq + 1) stop

let fold ?kinds t ~init f =
  let keep = filter kinds and stop = t.emitted in
  let rec go acc seq =
    let seq = next_kept t keep seq stop in
    if seq = stop then acc else go (f acc seq) (seq + 1)
  in
  go init (stop - retained t)

let iter ?kinds t f = fold ?kinds t ~init:() (fun () seq -> f seq)

let to_list ?kinds t f =
  List.rev (fold ?kinds t ~init:[] (fun acc seq -> f seq :: acc))

let events t = to_list t (event t)
