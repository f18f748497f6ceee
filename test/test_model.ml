(* Model-based qcheck tests for the O(log n) hot-path structures.

   Each property drives the live implementation and an inline reference
   model (the seed's O(n) sorted-list algorithm) with the same random op
   script and demands observational equality at every step.  This is the
   evidence that the intrusive ready queue under Dispatch, the port
   queues, the fit trees under Sro, the single-load memory words, the
   per-process timer heap and the unboxed Prng changed host cost only —
   service order, placement, wake order, draws and statistics are
   bit-identical, which is what keeps every E1-E11 virtual-time number
   unchanged. *)

open I432
open I432_util
module K = I432_kernel

(* ------------------------------------------------------------------ *)
(* Pqueue vs a sorted-list priority queue                              *)
(* ------------------------------------------------------------------ *)

let prop_pqueue_matches_sorted_list =
  QCheck2.Test.make ~name:"pqueue = sorted list (priority desc, seq asc)"
    ~count:300
    QCheck2.Gen.(list (pair bool (int_range 0 7)))
    (fun script ->
      let q = Pqueue.create () in
      let model = ref [] in  (* (prio, seq, v) in service order *)
      let seq = ref 0 in
      let insert_model prio v =
        let rec go = function
          | [] -> [ (prio, !seq, v) ]
          | ((p, s, _) as x) :: rest ->
            if prio > p || (prio = p && !seq < s) then (prio, !seq, v) :: x :: rest
            else x :: go rest
        in
        model := go !model
      in
      List.for_all
        (fun (is_insert, prio) ->
          if is_insert then begin
            Pqueue.insert q ~priority:prio ~seq:!seq !seq;
            insert_model prio !seq;
            incr seq;
            Pqueue.size q = List.length !model
          end
          else
            let expected =
              match !model with
              | [] -> None
              | (_, _, v) :: rest ->
                model := rest;
                Some v
            in
            Pqueue.pop q = expected)
        script
      && Pqueue.to_sorted_list q = List.map (fun (_, _, v) -> v) !model)

(* ------------------------------------------------------------------ *)
(* Dispatch vs the seed's sorted-list ready queue                      *)
(* ------------------------------------------------------------------ *)

module Model_dispatch = struct
  type entry = { process : int; priority : int; seq : int }
  type t = { mutable ready : entry list; mutable seq : int }

  let create () = { ready = []; seq = 0 }

  let enqueue t ~process ~priority =
    let e = { process; priority; seq = t.seq } in
    t.seq <- t.seq + 1;
    let rec go = function
      | [] -> [ e ]
      | x :: rest ->
        if e.priority > x.priority then e :: x :: rest else x :: go rest
    in
    t.ready <- go t.ready

  let pop t ~eligible =
    let rec go acc = function
      | [] -> None
      | e :: rest ->
        if eligible e.process then begin
          t.ready <- List.rev_append acc rest;
          Some e.process
        end
        else go (e :: acc) rest
    in
    go [] t.ready

  let remove t ~process =
    t.ready <- List.filter (fun e -> e.process <> process) t.ready

  let mem t ~process = List.exists (fun e -> e.process = process) t.ready
  let length t = List.length t.ready
end

type dispatch_op =
  | D_enq of int * int
  | D_pop of int
  | D_rem of int
  | D_requeue of int * int  (* remove, then enqueue: a re-enqueue after remove *)
  | D_reprio of int * int  (* [Machine.set_priority]: the same, if queued *)

let dispatch_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun p prio -> D_enq (p, prio)) (int_range 0 7) (int_range 0 5);
        map (fun k -> D_pop k) (int_range 0 4);
        map (fun p -> D_rem p) (int_range 0 7);
        map2 (fun p prio -> D_requeue (p, prio)) (int_range 0 7) (int_range 0 5);
        map2 (fun p prio -> D_reprio (p, prio)) (int_range 0 7) (int_range 0 5);
      ])

(* The queue holds processes; process [i] has object-table index [i]. *)
let dispatch_procs () =
  Array.init 8 (fun index ->
      K.Process.create ~index ~ordinal:index ~name:"p" ~daemon:false
        ~priority:0 ~system_level:4 ignore)

(* A removed process keeps no queue state: no entry, no link, no key, and
   no place in the queue's walk. *)
let left_nothing d (p : K.Process.t) =
  (not (K.Dispatch.mem d ~process:p))
  && p.K.Process.q_count = 0
  && p.K.Process.q_next == K.Process.none
  && p.K.Process.q_prev == K.Process.none
  && p.K.Process.q_more = []
  && not (List.memq p (K.Dispatch.to_list d))

(* The model's processes in the order of their first entries: the order
   the live queue links them in. *)
let first_entries (m : Model_dispatch.t) =
  List.fold_left
    (fun acc (e : Model_dispatch.entry) ->
      if List.mem e.process acc then acc else e.process :: acc)
    [] m.ready
  |> List.rev

let prop_dispatch_matches_model =
  QCheck2.Test.make ~name:"dispatch = seed sorted-list ready queue" ~count:300
    QCheck2.Gen.(list dispatch_op_gen)
    (fun script ->
      let d = K.Dispatch.create () in
      let procs = dispatch_procs () in
      let m = Model_dispatch.create () in
      let remove process =
        K.Dispatch.remove d ~process:procs.(process);
        Model_dispatch.remove m ~process;
        left_nothing d procs.(process)
      in
      let enqueue process priority =
        K.Dispatch.enqueue d ~process:procs.(process) ~priority;
        Model_dispatch.enqueue m ~process ~priority
      in
      List.for_all
        (fun op ->
          (match op with
          | D_enq (process, priority) ->
            enqueue process priority;
            true
          | D_pop k ->
            (* k = 4 accepts everyone; otherwise processes congruent to k
               mod 4 are ineligible and must keep their position. *)
            let eligible p = k = 4 || p mod 4 <> k in
            let got =
              K.Dispatch.pop d ~eligible:(fun p -> eligible p.K.Process.index)
            in
            (if got == K.Process.none then None else Some got.K.Process.index)
            = Model_dispatch.pop m ~eligible
          | D_rem process -> remove process
          | D_requeue (process, priority) ->
            let clean = remove process in
            enqueue process priority;
            clean
          | D_reprio (process, priority) ->
            (not (Model_dispatch.mem m ~process))
            ||
            let clean = remove process in
            enqueue process priority;
            clean)
          && K.Dispatch.length d = Model_dispatch.length m
          && List.map (fun p -> p.K.Process.index) (K.Dispatch.to_list d)
             = first_entries m
          && List.for_all
               (fun p ->
                 K.Dispatch.mem d ~process:procs.(p)
                 = Model_dispatch.mem m ~process:p)
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        script)

(* ------------------------------------------------------------------ *)
(* Port queues vs the seed's service-ordered message list              *)
(* ------------------------------------------------------------------ *)

let prop_port_matches_model =
  QCheck2.Test.make ~name:"port queue = seed service-ordered list (both disciplines)"
    ~count:300
    QCheck2.Gen.(pair bool (list (pair bool (int_range 0 5))))
    (fun (priority_discipline, script) ->
      let discipline = if priority_discipline then K.Port.Priority else K.Port.Fifo in
      let p = K.Port.make ~self:0 ~capacity:8 ~discipline in
      (* Model: list of (prio, seq, msg_index) in service order. *)
      let model = ref [] in
      let seq = ref 0 in
      let insert_model prio v =
        match discipline with
        | K.Port.Fifo -> model := !model @ [ (prio, !seq, v) ]
        | K.Port.Priority ->
          let rec go = function
            | [] -> [ (prio, !seq, v) ]
            | ((mp, ms, _) as x) :: rest ->
              if prio > mp || (prio = mp && !seq < ms) then
                (prio, !seq, v) :: x :: rest
              else x :: go rest
          in
          model := go !model
      in
      let counter = ref 0 in
      List.for_all
        (fun (is_send, prio) ->
          (if is_send then begin
             if K.Port.is_full p then List.length !model = 8
             else begin
               let i = !counter in
               incr counter;
               K.Port.enqueue p ~msg:(Access.make ~index:i ~rights:Rights.full)
                 ~priority:prio ~now:0;
               insert_model prio i;
               incr seq;
               true
             end
           end
           else
             let got = Option.map Access.index (K.Port.dequeue p ~now:0) in
             let expected =
               match !model with
               | [] -> None
               | (_, _, v) :: rest ->
                 model := rest;
                 Some v
             in
             got = expected)
          && K.Port.queue_length p = List.length !model
          && K.Port.is_empty p = (!model = []))
        script)

(* ------------------------------------------------------------------ *)
(* Free_store vs the seed's first-fit region list                      *)
(* ------------------------------------------------------------------ *)

module Model_free_store = struct
  type region = { base : int; length : int }

  type t = { mutable free_regions : region list }

  let create length = { free_regions = [ { base = 0; length } ] }

  let take t size =
    let rec go acc = function
      | [] -> None
      | r :: rest when r.length >= size ->
        let remainder =
          if r.length = size then rest
          else { base = r.base + size; length = r.length - size } :: rest
        in
        t.free_regions <- List.rev_append acc remainder;
        Some r.base
      | r :: rest -> go (r :: acc) rest
    in
    go [] t.free_regions

  let give t ~base ~length =
    if length = 0 then ()
    else begin
      let rec insert = function
        | [] -> [ { base; length } ]
        | r :: rest ->
          if base + length < r.base then { base; length } :: r :: rest
          else if base + length = r.base then
            { base; length = length + r.length } :: rest
          else if r.base + r.length = base then
            insert_after { base = r.base; length = r.length + length } rest
          else r :: insert rest
      and insert_after grown = function
        | r :: rest when grown.base + grown.length = r.base ->
          { grown with length = grown.length + r.length } :: rest
        | rest -> grown :: rest
      in
      t.free_regions <- insert t.free_regions
    end

  let to_list t = List.map (fun r -> (r.base, r.length)) t.free_regions
  let total t = List.fold_left (fun a r -> a + r.length) 0 t.free_regions
  let largest t = List.fold_left (fun a r -> max a r.length) 0 t.free_regions
end

(* [F_exact i] carves exactly the length of the model's [i]-th free
   region (an exact fit when no lower region is as long); [F_triple s]
   carves three [s]-byte blocks, frees the outer two and then the middle
   one, which coalesces on both sides when the three were adjacent. *)
type store_op = F_alloc of int | F_free of int | F_exact of int | F_triple of int

let store_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> F_alloc s) (int_range 1 96);
        map (fun i -> F_free i) (int_range 0 200);
        map (fun i -> F_exact i) (int_range 0 200);
        map (fun s -> F_triple s) (int_range 1 64);
      ])

let prop_free_store_matches_model =
  QCheck2.Test.make
    ~name:"fit-tree free store = seed first-fit region list" ~count:200
    QCheck2.Gen.(list_size (int_range 1 80) store_op_gen)
    (fun script ->
      let heap = 2048 in
      let fs = Free_store.create () in
      Free_store.insert fs ~base:0 ~length:heap;
      let m = Model_free_store.create heap in
      let live = ref [] in  (* (base, size) of outstanding carves *)
      let same () =
        Free_store.to_list fs = Model_free_store.to_list m
        && Free_store.total fs = Model_free_store.total m
        && Free_store.largest fs = Model_free_store.largest m
        && Free_store.region_count fs = List.length (Model_free_store.to_list m)
      in
      (* Identical placement decisions, not just identical success. *)
      let alloc size =
        let got = Free_store.take_first_fit fs ~size in
        let expected = Model_free_store.take m size in
        let agree =
          match expected with Some base -> got = base | None -> got = -1
        in
        (agree && same (), expected)
      in
      let free (base, size) =
        Free_store.insert fs ~base ~length:size;
        Model_free_store.give m ~base ~length:size;
        same ()
      in
      List.for_all
        (fun op ->
          match op with
          | F_alloc size -> (
            match alloc size with
            | ok, Some base ->
              live := (base, size) :: !live;
              ok
            | ok, None -> ok)
          | F_exact i -> (
            match Model_free_store.to_list m with
            | [] -> true
            | regions -> (
              let size = snd (List.nth regions (i mod List.length regions)) in
              match alloc size with
              | ok, Some base ->
                live := (base, size) :: !live;
                ok
              | ok, None -> ok))
          | F_triple size -> (
            let first = alloc size in
            let middle = alloc size in
            let last = alloc size in
            match (first, middle, last) with
            | (a, Some x), (b, Some y), (c, Some z) ->
              a && b && c
              && free (x, size)
              && free (z, size)
              && free (y, size)
            | (a, x), (b, y), (c, z) ->
              (* Out of room part way: keep what was carved. *)
              List.iter
                (function Some base -> live := (base, size) :: !live | None -> ())
                [ x; y; z ];
              a && b && c)
          | F_free i -> (
            match !live with
            | [] -> true
            | _ ->
              let n = List.length !live in
              let block = List.nth !live (i mod n) in
              live := List.filteri (fun j _ -> j <> i mod n) !live;
              free block))
        script)

(* ------------------------------------------------------------------ *)
(* SRO end-to-end: coalescing + E2's size-independence invariant       *)
(* ------------------------------------------------------------------ *)

(* Random alloc/release scripts against a real SRO: exhaustion must depend
   only on whether a large-enough region exists (size-independence of the
   fit), releasing everything must coalesce back to one region, and the
   byte accounting must balance throughout. *)
let prop_sro_coalescing_and_fit =
  QCheck2.Test.make ~name:"SRO free store: coalescing + size-independent fit"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) (pair bool (int_range 1 128)))
    (fun script ->
      let table = Object_table.create () in
      let total = 4096 in
      let sro = Sro.create table ~level:0 ~base:0 ~length:total in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc then (
            match
              Sro.allocate table sro ~data_length:size ~access_length:0
                ~otype:Obj_type.Generic
            with
            | a -> live := (a, size) :: !live
            | exception Fault.Fault (Fault.Storage_exhausted _) ->
              (* Exhaustion is legitimate only when no region fits. *)
              if Sro.largest_free table sro >= size then ok := false)
          else
            match !live with
            | [] -> ()
            | (a, _) :: rest ->
              Sro.release_by_access table sro ~index:(Access.index a);
              live := rest)
        script;
      let live_bytes = List.fold_left (fun acc (_, s) -> acc + s) 0 !live in
      ok := !ok && Sro.free_bytes table sro = total - live_bytes;
      (* Release everything: the store must coalesce to one full region. *)
      List.iter
        (fun (a, _) -> Sro.release_by_access table sro ~index:(Access.index a))
        !live;
      !ok
      && Sro.free_bytes table sro = total
      && Sro.region_count table sro = 1
      && Sro.largest_free table sro = total
      && Sro.live_objects table sro = 0)

(* ------------------------------------------------------------------ *)
(* SRO live lists vs a list model of SROs and the descriptor pool      *)
(* ------------------------------------------------------------------ *)

(* Each model SRO keeps its live objects newest first, and one LIFO pool
   predicts every descriptor index the table hands out.  Allocating,
   releasing, carving a child and destroying a subtree must agree with the
   model at every step: each SRO's live list (order included), its count,
   every listed object naming the SRO as its owner, the count [destroy]
   returns, and — because the prediction is checked on every allocation —
   the newest-first order in which [destroy] recycles indices. *)
module Model_sro = struct
  type t = {
    access : Access.t;
    mutable objects : int list;  (* newest first *)
    mutable children : t list;  (* newest first *)
    mutable alive : bool;
  }

  let make access = { access; objects = []; children = []; alive = true }

  let rec live_sros m =
    if m.alive then m :: List.concat_map live_sros m.children else []
end

type sro_op =
  | Sro_alloc of int * int  (* pick an SRO, data length *)
  | Sro_release of int  (* pick a live object *)
  | Sro_child of int
  | Sro_destroy of int  (* pick a live non-root SRO *)

let sro_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun p n -> Sro_alloc (p, n)) nat (int_range 0 24));
        (3, map (fun p -> Sro_release p) nat);
        (1, map (fun p -> Sro_child p) nat);
        (1, map (fun p -> Sro_destroy p) nat);
      ])

let prop_sro_live_lists_match_model =
  QCheck2.Test.make ~name:"SRO live lists + destroy recycling = list model"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 120) sro_op_gen)
    (fun script ->
      let table = Object_table.create ~initial_capacity:4 () in
      let root = Model_sro.make (Sro.create table ~level:0 ~base:0 ~length:(1 lsl 16)) in
      (* The descriptor pool: LIFO reuse, then the high-water mark. *)
      let pool = ref [] and next = ref 1 in
      let take () =
        match !pool with
        | i :: rest ->
          pool := rest;
          i
        | [] ->
          incr next;
          !next - 1
      in
      let give i = pool := i :: !pool in
      let rec destroy_model (m : Model_sro.t) =
        let from_children =
          List.fold_left
            (fun acc (c : Model_sro.t) -> if c.alive then acc + destroy_model c else acc)
            0 m.children
        in
        List.iter give m.objects;
        give (Access.index m.access);
        m.alive <- false;
        List.length m.objects + from_children
      in
      let nth l p = List.nth l (p mod List.length l) in
      (* The list as the descriptors link it, from the model's newest. *)
      let rec linked prev index =
        if index < 0 then []
        else
          let e = Object_table.lookup table index in
          if e.Object_table.sro_prev <> prev then [ -2 ]
          else index :: linked index e.Object_table.sro_next
      in
      let agrees () =
        List.for_all
          (fun (m : Model_sro.t) ->
            let self = Access.index m.access in
            linked (-1) (match m.objects with i :: _ -> i | [] -> -1) = m.objects
            && Sro.live_objects table m.access = List.length m.objects
            && List.for_all
                 (fun i -> (Object_table.lookup table i).Object_table.sro = self)
                 m.objects)
          (Model_sro.live_sros root)
      in
      List.for_all
        (fun op ->
          let sros = Model_sro.live_sros root in
          let step_ok =
            match op with
            | Sro_alloc (p, n) ->
              let m = nth sros p in
              (match
                 Sro.allocate table m.access ~data_length:n ~access_length:0
                   ~otype:Obj_type.Generic
               with
               | a ->
                 m.objects <- Access.index a :: m.objects;
                 Access.index a = take ()
               | exception Fault.Fault (Fault.Storage_exhausted _) -> true)
            | Sro_release p -> (
              match List.filter (fun (m : Model_sro.t) -> m.objects <> []) sros with
              | [] -> true
              | owners ->
                let m = nth owners p in
                let i = nth m.objects p in
                Sro.release_by_access table m.access ~index:i;
                m.objects <- List.filter (( <> ) i) m.objects;
                give i;
                true)
            | Sro_child p -> (
              let m = nth sros p in
              match Sro.create_child table m.access ~level:1 ~bytes:1024 with
              | c ->
                m.children <- Model_sro.make c :: m.children;
                Access.index c = take ()
              | exception Fault.Fault (Fault.Storage_exhausted _) -> true)
            | Sro_destroy p -> (
              match List.tl sros with
              | [] -> true
              | victims ->
                let m = nth victims p in
                let n = Sro.destroy table m.access in
                n = destroy_model m)
          in
          step_ok && agrees ())
        script)

(* ------------------------------------------------------------------ *)
(* Memory words vs the seed's byte-wise formula                        *)
(* ------------------------------------------------------------------ *)

(* The seed's word access, one byte at a time. *)
let seed_read_i32 bytes addr =
  let b i = Char.code (Bytes.get bytes (addr + i)) in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

let seed_write_i32 bytes addr v =
  for i = 0 to 3 do
    Bytes.set bytes (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let memory_size = 64

(* Values near the edges of 32 bits: negatives, 2^31, 2^32 and beyond. *)
let word_gen =
  QCheck2.Gen.(
    oneof
      [
        int;
        map2 ( + )
          (oneofl
             [ 0; -1; 1 lsl 31; -(1 lsl 31); 1 lsl 32; -(1 lsl 32);
               (1 lsl 32) + (1 lsl 31); max_int; min_int ])
          (int_range (-3) 3);
      ])

(* Every alignment, and the top of memory: a word at [memory_size - 3]
   or above, or below 0, must fault. *)
let addr_gen = QCheck2.Gen.int_range (-2) (memory_size + 1)

let prop_memory_word_matches_seed =
  QCheck2.Test.make ~name:"memory word = seed byte-wise formula" ~count:300
    QCheck2.Gen.(
      pair (string_size (return memory_size))
        (list (pair (option word_gen) addr_gen)))
    (fun (image, script) ->
      let m = Memory.create ~size_bytes:memory_size in
      Memory.blit_from_bytes m ~src:(Bytes.of_string image) ~dst_addr:0;
      let model = Bytes.of_string image in
      let in_bounds addr = addr >= 0 && addr + 4 <= memory_size in
      List.for_all
        (fun (write, addr) ->
          let reads = Memory.read_count m and writes = Memory.write_count m in
          let faulted f =
            match f () with
            | () -> false
            | exception Fault.Fault (Fault.Bounds _) -> true
          in
          match write with
          | Some v ->
            if in_bounds addr then begin
              Memory.write_i32 m addr v;
              seed_write_i32 model addr v;
              Memory.write_count m = writes + 1
            end
            else
              faulted (fun () -> Memory.write_i32 m addr v)
              && Memory.write_count m = writes
          | None ->
            if in_bounds addr then
              Memory.read_i32 m addr = seed_read_i32 model addr
              && Memory.read_count m = reads + 1
            else
              faulted (fun () -> ignore (Memory.read_i32 m addr))
              && Memory.read_count m = reads)
        script
      && Memory.blit_to_bytes m ~src_addr:0 ~len:memory_size = model)

(* ------------------------------------------------------------------ *)
(* Timers vs the seed's stale-stamp pairing heap                       *)
(* ------------------------------------------------------------------ *)

(* The seed's timer heap: a pairing heap of (process, instant, arm stamp)
   entries keyed (-max 0 instant, stamp).  An entry is live while its
   process's stamp is its own; re-arming and disarming leave stale entries
   behind, dropped when they reach the front. *)
module Model_timers = struct
  type entry = { proc : K.Process.t; at : int; arm : int }

  type t = {
    heap : entry Pqueue.t;
    mutable arms : int;
    stamps : (int, int) Hashtbl.t;  (* ordinal -> live stamp *)
  }

  let create () = { heap = Pqueue.create (); arms = 0; stamps = Hashtbl.create 8 }

  let live t e =
    Hashtbl.find_opt t.stamps e.proc.K.Process.ordinal = Some e.arm

  let arm t (proc : K.Process.t) at =
    t.arms <- t.arms + 1;
    Hashtbl.replace t.stamps proc.K.Process.ordinal t.arms;
    Pqueue.insert t.heap ~priority:(-max 0 at) ~seq:t.arms
      { proc; at; arm = t.arms }

  let disarm t (proc : K.Process.t) =
    Hashtbl.replace t.stamps proc.K.Process.ordinal 0

  (* Due ordinals, newest first. *)
  let pop_due t ~horizon =
    let rec go acc =
      if Pqueue.front_priority t.heap ~empty:min_int < -horizon then acc
      else
        match Pqueue.pop t.heap with
        | None -> acc
        | Some e -> go (if live t e then e.proc.K.Process.ordinal :: acc else acc)
    in
    List.sort (fun a b -> Int.compare b a) (go [])

  let rec next t =
    match Pqueue.peek t.heap with
    | None -> min_int
    | Some e when live t e -> e.at
    | Some _ ->
      ignore (Pqueue.pop t.heap);
      next t

  (* (live entries, earliest live instant). *)
  let progress t =
    let n = ref 0 and first = ref max_int in
    Pqueue.iter
      (fun e ->
        if live t e then begin
          incr n;
          first := min !first e.at
        end)
      t.heap;
    (!n, !first)
end

type timer_op = T_arm of int * int | T_disarm of int | T_fire of int

let timer_processes = 6

let timer_op_gen =
  QCheck2.Gen.(
    let proc = int_range 0 (timer_processes - 1) in
    frequency
      [
        (* Negative instants stand for wrapped ones: keyed as 0. *)
        (4, map2 (fun p at -> T_arm (p, at)) proc (int_range (-20) 200));
        (2, map (fun p -> T_disarm p) proc);
        (3, map (fun h -> T_fire h) (int_range 0 220));
      ])

let prop_timers_match_model =
  QCheck2.Test.make ~name:"timer heap = seed stale-stamp pairing heap"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 120) timer_op_gen)
    (fun script ->
      let procs =
        Array.init timer_processes (fun i ->
            K.Process.create ~index:i ~ordinal:i ~name:"timer" ~daemon:false
              ~priority:0 ~system_level:4 ignore)
      in
      let t = K.Timers.create () and m = Model_timers.create () in
      List.for_all
        (fun op ->
          let due_agree =
            match op with
            | T_arm (p, at) ->
              K.Timers.arm t procs.(p) at;
              Model_timers.arm m procs.(p) at;
              true
            | T_disarm p ->
              K.Timers.disarm t procs.(p);
              Model_timers.disarm m procs.(p);
              true
            | T_fire horizon ->
              let n = K.Timers.pop_due t ~horizon in
              let got =
                List.init n (fun i -> (K.Timers.due t i).K.Process.ordinal)
              in
              got = Model_timers.pop_due m ~horizon
          in
          let first = ref max_int in
          K.Timers.iter
            (fun proc -> first := min !first proc.K.Process.tm_at)
            t;
          due_agree
          && K.Timers.next t = Model_timers.next m
          && (K.Timers.length t, !first) = Model_timers.progress m)
        script)

(* ------------------------------------------------------------------ *)
(* Prng vs the seed's record-based splitmix64                          *)
(* ------------------------------------------------------------------ *)

module Seed_prng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }
  let golden = 0x9E3779B97F4A7C15L

  let next_int64 t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
    r mod bound

  let float t =
    let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
    float_of_int bits /. 9007199254740992.0

  let exponential t ~mean =
    let u = float t in
    let u = if u <= 0.0 then 1e-12 else u in
    -.mean *. log u
end

(* 10,000 draws per seed, cycling through every kind of draw; floats are
   compared bit for bit. *)
let prop_prng_matches_seed =
  QCheck2.Test.make ~name:"prng draws = seed record-based splitmix64" ~count:20
    QCheck2.Gen.(oneof [ int; oneofl [ 0; 1; -1; max_int; min_int ] ])
    (fun seed ->
      let a = Prng.create ~seed and b = Seed_prng.create ~seed in
      let bits = Int64.bits_of_float in
      let rec go i =
        i = 10_000
        ||
        let same =
          match i mod 4 with
          | 0 -> Prng.next_int64 a = Seed_prng.next_int64 b
          | 1 ->
            let bound = if i mod 8 = 1 then max_int else 1 + (i * 7919 mod 1000) in
            Prng.int a bound = Seed_prng.int b bound
          | 2 -> bits (Prng.float a) = bits (Seed_prng.float b)
          | _ ->
            let mean = float_of_int (1 + i) in
            bits (Prng.exponential a ~mean) = bits (Seed_prng.exponential b ~mean)
        in
        same && go (i + 1)
      in
      go 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pqueue_matches_sorted_list;
    QCheck_alcotest.to_alcotest prop_dispatch_matches_model;
    QCheck_alcotest.to_alcotest prop_port_matches_model;
    QCheck_alcotest.to_alcotest prop_free_store_matches_model;
    QCheck_alcotest.to_alcotest prop_sro_coalescing_and_fit;
    QCheck_alcotest.to_alcotest prop_sro_live_lists_match_model;
    QCheck_alcotest.to_alcotest prop_memory_word_matches_seed;
    QCheck_alcotest.to_alcotest prop_timers_match_model;
    QCheck_alcotest.to_alcotest prop_prng_matches_seed;
  ]
