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
  && (not p.K.Process.q_queued)
  && p.K.Process.q_next == K.Process.none
  && p.K.Process.q_prev == K.Process.none
  && not (List.memq p (K.Dispatch.to_list d))

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
          | D_enq (process, _) when Model_dispatch.mem m ~process ->
            (* The machine never enqueues a queued process: a process has
               one entry. *)
            true
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
             = List.map (fun (e : Model_dispatch.entry) -> e.process) m.ready
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
(* Port waiters vs the seed's lists                                    *)
(* ------------------------------------------------------------------ *)

(* The seed parked receivers in a FIFO list and senders as records of
   (process, message, priority, seq) in a FIFO queue (Fifo port) or a
   heap keyed by (priority desc, seq asc) (Priority port); a timeout
   removed its entry and kept everyone else's order. *)
type waiter_op =
  | W_receive of int  (* park process [i] as a receiver, if it is free *)
  | W_send of int * int  (* park process [i] as a sender at a priority *)
  | W_pop_receiver
  | W_pop_sender
  | W_expire of int  (* time process [i] out of whichever queue holds it *)
  | W_reprio of int * int  (* [Machine.set_priority] on process [i] *)

let waiter_op_gen =
  QCheck2.Gen.(
    let proc = int_range 0 7 and prio = int_range 0 3 in
    oneof
      [
        map (fun i -> W_receive i) proc;
        map2 (fun i p -> W_send (i, p)) proc prio;
        return W_pop_receiver;
        return W_pop_sender;
        map (fun i -> W_expire i) proc;
        map2 (fun i p -> W_reprio (i, p)) proc prio;
      ])

let prop_port_waiters_match_model =
  QCheck2.Test.make ~name:"port waiters = seed lists (both disciplines)"
    ~count:500
    QCheck2.Gen.(pair bool (list waiter_op_gen))
    (fun (priority_discipline, script) ->
      let discipline =
        if priority_discipline then K.Port.Priority else K.Port.Fifo
      in
      let port = K.Port.make ~self:0 ~capacity:1 ~discipline in
      let procs = dispatch_procs () in
      let receivers = ref [] in  (* process indices, service order *)
      let senders = ref [] in  (* (index, msg, priority, seq), service order *)
      let seq = ref 0 in
      let parked i =
        List.mem i !receivers || List.exists (fun (j, _, _, _) -> j = i) !senders
      in
      let park_model ((_, _, prio, s) as w) =
        let rec go = function
          | [] -> [ w ]
          | ((_, _, p, q) as x) :: rest ->
            if prio > p || (prio = p && s < q) then w :: x :: rest
            else x :: go rest
        in
        senders :=
          match discipline with
          | K.Port.Fifo -> !senders @ [ w ]
          | K.Port.Priority -> go !senders
      in
      let indices q =
        List.rev (K.Proc_queue.fold (fun p acc -> p.K.Process.index :: acc) q [])
      in
      let sender_view q =
        List.rev
          (K.Proc_queue.fold
             (fun p acc ->
               (p.K.Process.index, Access.index p.K.Process.q_msg,
                p.K.Process.q_prio)
               :: acc)
             q [])
      in
      let unlinked (p : K.Process.t) =
        p.K.Process.q_next == K.Process.none
        && p.K.Process.q_prev == K.Process.none
      in
      let popped got model =
        match model with
        | [] -> got == K.Process.none
        | _ -> got != K.Process.none && unlinked got
      in
      List.for_all
        (fun op ->
          (match op with
          | W_receive i ->
            if not (parked i) then begin
              K.Proc_queue.push port.K.Port.receivers procs.(i);
              receivers := !receivers @ [ i ]
            end;
            true
          | W_send (i, priority) ->
            if not (parked i) then begin
              let msg = 100 + !seq in
              procs.(i).K.Process.priority <- priority;
              K.Port.park_sender port procs.(i)
                ~msg:(Access.make ~index:msg ~rights:Rights.full);
              park_model (i, msg, priority, !seq);
              incr seq
            end;
            true
          | W_pop_receiver ->
            let got = K.Proc_queue.pop port.K.Port.receivers in
            let ok = popped got !receivers in
            (match !receivers with
            | [] -> ok
            | i :: rest ->
              receivers := rest;
              ok && got.K.Process.index = i)
          | W_pop_sender ->
            let got = K.Proc_queue.pop port.K.Port.senders in
            let ok = popped got !senders in
            (match !senders with
            | [] -> ok
            | (i, msg, prio, _) :: rest ->
              senders := rest;
              ok && got.K.Process.index = i
              && Access.index got.K.Process.q_msg = msg
              && got.K.Process.q_prio = prio)
          | W_expire i ->
            if List.mem i !receivers then begin
              K.Proc_queue.unlink port.K.Port.receivers procs.(i);
              receivers := List.filter (( <> ) i) !receivers
            end
            else if parked i then begin
              K.Proc_queue.unlink port.K.Port.senders procs.(i);
              senders := List.filter (fun (j, _, _, _) -> j <> i) !senders
            end;
            unlinked procs.(i)
          | W_reprio (i, priority) ->
            (* A parked sender keeps the priority it parked at. *)
            procs.(i).K.Process.priority <- priority;
            true)
          && indices port.K.Port.receivers = !receivers
          && sender_view port.K.Port.senders
             = List.map (fun (i, msg, prio, _) -> (i, msg, prio)) !senders
          && List.for_all
               (fun (p : K.Process.t) ->
                 parked p.K.Process.index || unlinked p)
               (Array.to_list procs))
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
          if Object_table.sro_prev table e <> prev then [ -2 ]
          else index :: linked index (Object_table.sro_next table e)
      in
      (* The level-0 root is a global heap: it links nothing, and its
         objects' links read vacant. *)
      let unlinked i =
        let e = Object_table.lookup table i in
        Object_table.sro_prev table e = -1 && Object_table.sro_next table e = -1
      in
      let agrees () =
        List.for_all
          (fun (m : Model_sro.t) ->
            let self = Access.index m.access in
            (if Sro.level table m.access = 0 then List.for_all unlinked m.objects
             else
               linked (-1) (match m.objects with i :: _ -> i | [] -> -1)
               = m.objects)
            && Sro.live_objects table m.access = List.length m.objects
            && List.for_all
                 (fun i -> Object_table.sro table (Object_table.lookup table i) = self)
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
(* Paged memory vs the seed's flat zero-filled bytes                   *)
(* ------------------------------------------------------------------ *)

(* The seed's memory was one zero-filled [Bytes] of the configured size;
   the live one is a table of 4 KiB pages that starts as one shared zero
   page.  Three pages and a partial fourth, so accesses cross page
   boundaries and run into a last page the size cuts short. *)
let page_size = 4096
let paged_size = (3 * page_size) + 100

type mem_op =
  | Read_u8 of int
  | Write_u8 of int * int
  | Read_u16 of int
  | Write_u16 of int * int
  | Read_i32 of int
  | Write_i32 of int * int
  | Blit_in of int * string
  | Blit_out of int * int
  | Fill of int * int * char

(* Addresses at and around every page boundary, at the memory's last
   bytes and past them, below 0, and anywhere. *)
let paged_addr_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun k d -> (k * page_size) + d)
          (int_range 0 3) (int_range (-4) 4);
        map (fun d -> paged_size + d) (int_range (-6) 2);
        int_range (-2) (-1);
        int_range 0 (paged_size - 1);
      ])

(* Short runs, and runs that span a page or more. *)
let paged_len_gen =
  QCheck2.Gen.(oneof [ int_range (-1) 9; int_range 0 (page_size + 200) ])

let mem_op_gen =
  let open QCheck2.Gen in
  let a = paged_addr_gen in
  oneof
    [
      map (fun x -> Read_u8 x) a;
      map2 (fun x v -> Write_u8 (x, v)) a int;
      map (fun x -> Read_u16 x) a;
      map2 (fun x v -> Write_u16 (x, v)) a int;
      map (fun x -> Read_i32 x) a;
      map2 (fun x v -> Write_i32 (x, v)) a word_gen;
      map2
        (fun x n ->
          Blit_in (x, String.init (max n 0) (fun i -> Char.chr (i land 0xff))))
        a paged_len_gen;
      map2 (fun x n -> Blit_out (x, n)) a paged_len_gen;
      map3
        (fun x n b -> Fill (x, n, b))
        a paged_len_gen
        (oneof [ return '\000'; char ]);
    ]

let prop_memory_pages_match_flat =
  QCheck2.Test.make ~name:"paged memory = seed flat zero-filled bytes"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) mem_op_gen)
    (fun script ->
      let m = Memory.create ~size_bytes:paged_size in
      let model = Bytes.make paged_size '\000' in
      (* Pages written by anything but a zero fill. *)
      let written =
        Array.make ((paged_size + page_size - 1) / page_size) false
      in
      let touch addr len =
        if len > 0 then
          for p = addr / page_size to (addr + len - 1) / page_size do
            written.(p) <- true
          done
      in
      let in_bounds addr len =
        addr >= 0 && len >= 0 && addr + len <= paged_size
      in
      (* The seed's fault for an access past the flat bytes. *)
      let seed_fault addr =
        Fault.Bounds { part = "physical"; offset = addr; length = paged_size }
      in
      let step op =
        let reads = Memory.read_count m and writes = Memory.write_count m in
        (* Run an access, check its fault or its counter, and (in bounds)
           what it returns against the model. *)
        let access ~addr ~len ~write f model_f =
          let counted () =
            if write then
              Memory.write_count m = writes + 1 && Memory.read_count m = reads
            else
              Memory.read_count m = reads + 1 && Memory.write_count m = writes
          in
          if in_bounds addr len then f () = model_f () && counted ()
          else
            match f () with
            | _ -> false
            | exception Fault.Fault cause ->
              cause = seed_fault addr
              && Memory.read_count m = reads
              && Memory.write_count m = writes
        in
        let byte a = Char.code (Bytes.get model a) in
        match op with
        | Read_u8 a ->
          access ~addr:a ~len:1 ~write:false
            (fun () -> Memory.read_u8 m a)
            (fun () -> byte a)
        | Write_u8 (a, v) ->
          access ~addr:a ~len:1 ~write:true
            (fun () -> Memory.write_u8 m a v)
            (fun () ->
              touch a 1;
              Bytes.set model a (Char.chr (v land 0xff)))
        | Read_u16 a ->
          access ~addr:a ~len:2 ~write:false
            (fun () -> Memory.read_u16 m a)
            (fun () -> byte a lor (byte (a + 1) lsl 8))
        | Write_u16 (a, v) ->
          access ~addr:a ~len:2 ~write:true
            (fun () -> Memory.write_u16 m a v)
            (fun () ->
              touch a 2;
              Bytes.set model a (Char.chr (v land 0xff));
              Bytes.set model (a + 1) (Char.chr ((v lsr 8) land 0xff)))
        | Read_i32 a ->
          access ~addr:a ~len:4 ~write:false
            (fun () -> Memory.read_i32 m a)
            (fun () -> seed_read_i32 model a)
        | Write_i32 (a, v) ->
          access ~addr:a ~len:4 ~write:true
            (fun () -> Memory.write_i32 m a v)
            (fun () ->
              touch a 4;
              seed_write_i32 model a v)
        | Blit_in (a, src) ->
          let len = String.length src in
          access ~addr:a ~len ~write:true
            (fun () ->
              Memory.blit_from_bytes m ~src:(Bytes.of_string src) ~dst_addr:a)
            (fun () ->
              touch a len;
              Bytes.blit_string src 0 model a len)
        | Blit_out (a, len) ->
          access ~addr:a ~len ~write:false
            (fun () ->
              Bytes.to_string (Memory.blit_to_bytes m ~src_addr:a ~len))
            (fun () -> Bytes.sub_string model a len)
        | Fill (a, len, b) ->
          access ~addr:a ~len ~write:true
            (fun () -> Memory.fill m ~addr:a ~len ~byte:b)
            (fun () ->
              if b <> '\000' then touch a len;
              Bytes.fill model a len b)
      in
      let resident () =
        Array.fold_left (fun n w -> if w then n + page_size else n) 0 written
      in
      Memory.resident_bytes m = 0
      && List.for_all
           (fun op -> step op && Memory.resident_bytes m = resident ())
           script
      && Memory.blit_to_bytes m ~src_addr:0 ~len:paged_size = model)

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

(* ------------------------------------------------------------------ *)
(* Object table columns vs the seed's table of descriptor records      *)
(* ------------------------------------------------------------------ *)

(* The seed's table: one mutable record per descriptor, [vacant] in every
   free slot, an [int list] free list, and an array doubled to grow. *)
module Seed_table = struct
  type entry = {
    mutable valid : bool;
    mutable otype : Obj_type.t;
    mutable base : int;
    mutable data_length : int;
    mutable access_part : Access.t option array;
    mutable level : int;
    mutable color : Object_table.color;
    mutable sro : int;
    mutable swapped_out : bool;
    mutable dirty : bool;
    mutable payload : Object_table.payload option;
    mutable sro_prev : int;
    mutable sro_next : int;
  }

  type t = {
    mutable entries : entry array;
    mutable free : int list;
    mutable next : int;
    mutable live : int;
    mutable shades : int;
  }

  let vacant =
    {
      valid = false;
      otype = Obj_type.Generic;
      base = 0;
      data_length = 0;
      access_part = [||];
      level = 0;
      color = Object_table.White;
      sro = -1;
      swapped_out = false;
      dirty = false;
      payload = None;
      sro_prev = -1;
      sro_next = -1;
    }

  let create initial_capacity =
    {
      entries = Array.make initial_capacity vacant;
      free = [];
      next = 0;
      live = 0;
      shades = 0;
    }

  let is_valid t i = i >= 0 && i < Array.length t.entries && t.entries.(i).valid

  let lookup t i =
    if is_valid t i then t.entries.(i)
    else Fault.raise_fault (Fault.Invalid_descriptor i)

  let allocate t ~otype ~base ~data_length ~access_length ~level ~sro =
    if data_length < 0 || data_length > 0x10000 then
      invalid_arg "Object_table: data part exceeds 64K";
    if access_length < 0 || access_length > Object_table.max_access_length
    then invalid_arg "Object_table: access part too large";
    let index =
      match t.free with
      | i :: rest ->
        t.free <- rest;
        i
      | [] ->
        if t.next >= Array.length t.entries then begin
          let n = Array.length t.entries in
          let bigger = Array.make (2 * n) vacant in
          Array.blit t.entries 0 bigger 0 n;
          t.entries <- bigger
        end;
        t.next <- t.next + 1;
        t.next - 1
    in
    t.entries.(index) <-
      {
        vacant with
        valid = true;
        otype;
        base;
        data_length;
        access_part =
          (if access_length = 0 then [||] else Array.make access_length None);
        level;
        color = Object_table.Gray;
        sro;
      };
    t.live <- t.live + 1;
    index

  let free t i =
    let e = lookup t i in
    e.valid <- false;
    t.entries.(i) <- vacant;
    t.free <- i :: t.free;
    t.live <- t.live - 1

  let shade t i =
    if is_valid t i && t.entries.(i).color = Object_table.White then begin
      t.entries.(i).color <- Object_table.Gray;
      t.shades <- t.shades + 1
    end

  let valid_indices t =
    List.filter (is_valid t) (List.init (Array.length t.entries) Fun.id)
end

type Object_table.payload += Model_payload of int

type table_op =
  | T_alloc of Obj_type.t * int * int * int * int * int
      (** otype, data length, access length, level, base, sro *)
  | T_free of int
  | T_shade of int
  | T_color of int * Object_table.color
  | T_swapped of int * bool
  | T_dirty of int * bool
  | T_base of int * int
  | T_length of int * int
  | T_otype of int * Obj_type.t
  | T_level of int * int
  | T_payload of int * int option
  | T_links of int * int * int
  | T_store of int * int * int  (** index, slot, stored index *)

let otype_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          oneofl
            Obj_type.
              [
                Generic; Processor; Process; Port; Dispatching_port;
                Storage_resource; Domain; Context; Type_definition;
              ] );
        (2, map (fun id -> Obj_type.Custom id) (int_range 0 1000));
        (* Up to the largest id a descriptor holds, 2^34 - 10. *)
        (2, map (fun id -> Obj_type.Custom id) (int_range 0 ((1 lsl 34) - 10)));
      ])

let alloc_op_gen =
  QCheck2.Gen.(
    map
      (fun (otype, (len, alen), (level, base, sro)) ->
        T_alloc (otype, len, alen, level, base, sro))
      (triple otype_gen
         (pair
            (frequency
               [ (8, int_range 0 64); (1, oneofl [ 0x10000; 0x10001; -1 ]) ])
            (frequency [ (3, return 0); (2, int_range 1 6) ]))
         (triple
            (oneof [ int_range 0 9; int_range 0 ((1 lsl 24) - 1) ])
            (int_range 0 (1 lsl 40))
            (int_range (-1) 40))))

let table_op_gen =
  QCheck2.Gen.(
    let index = int_range (-1) 40 in
    frequency
      [
        (8, alloc_op_gen);
        (3, map (fun i -> T_free i) index);
        (2, map (fun i -> T_shade i) index);
        ( 2,
          map2
            (fun i c -> T_color (i, c))
            index
            (oneofl Object_table.[ White; Gray; Black ]) );
        (2, map2 (fun i b -> T_swapped (i, b)) index bool);
        (2, map2 (fun i b -> T_dirty (i, b)) index bool);
        (1, map2 (fun i b -> T_base (i, b)) index (int_range 0 (1 lsl 40)));
        (1, map2 (fun i l -> T_length (i, l)) index (int_range 0 0x10000));
        (1, map2 (fun i o -> T_otype (i, o)) index otype_gen);
        (1, map2 (fun i l -> T_level (i, l)) index (int_range 0 ((1 lsl 24) - 1)));
        (2, map2 (fun i p -> T_payload (i, p)) index (opt nat));
        (2, map3 (fun i p n -> T_links (i, p, n)) index index index);
        (2, map3 (fun i s j -> T_store (i, s, j)) index (int_range 0 6) index);
      ])

(* An outcome either side can produce: a value, a fault or an invalid
   argument, compared as text. *)
let outcome f =
  match f () with
  | () -> "ok"
  | exception Fault.Fault cause -> "fault: " ^ Fault.to_string cause
  | exception Invalid_argument msg -> "invalid: " ^ msg

let apply_table_op t (m : Seed_table.t) op =
  let both f g = (outcome f, outcome g) in
  let set i col seed =
    both
      (fun () -> col (Object_table.lookup t i))
      (fun () -> seed (Seed_table.lookup m i))
  in
  match op with
  | T_alloc (otype, data_length, access_length, level, base, sro) ->
    let i = ref (-1) and j = ref (-2) in
    let r =
      both
        (fun () ->
          i :=
            Object_table.allocate_entry t ~otype ~base ~data_length
              ~access_length ~level ~sro)
        (fun () ->
          j :=
            Seed_table.allocate m ~otype ~base ~data_length ~access_length
              ~level ~sro)
    in
    (r, !i = !j || fst r <> "ok")
  | T_free i ->
    (both (fun () -> Object_table.free_entry t i) (fun () -> Seed_table.free m i), true)
  | T_shade i ->
    (both (fun () -> Object_table.shade t i) (fun () -> Seed_table.shade m i), true)
  | T_color (i, c) ->
    (set i (fun i -> Object_table.set_color t i c) (fun e -> e.color <- c), true)
  | T_swapped (i, b) ->
    ( set i (fun i -> Object_table.set_swapped_out t i b) (fun e -> e.swapped_out <- b),
      true )
  | T_dirty (i, b) ->
    (set i (fun i -> Object_table.set_dirty t i b) (fun e -> e.dirty <- b), true)
  | T_base (i, b) ->
    (set i (fun i -> Object_table.set_base t i b) (fun e -> e.base <- b), true)
  | T_length (i, l) ->
    ( set i (fun i -> Object_table.set_data_length t i l) (fun e -> e.data_length <- l),
      true )
  | T_otype (i, o) ->
    (set i (fun i -> Object_table.set_otype t i o) (fun e -> e.otype <- o), true)
  | T_level (i, l) ->
    (set i (fun i -> Object_table.set_level t i l) (fun e -> e.level <- l), true)
  | T_payload (i, p) ->
    let p = Option.map (fun n -> Model_payload n) p in
    (set i (fun i -> Object_table.set_payload t i p) (fun e -> e.payload <- p), true)
  | T_links (i, prev, next) ->
    ( set i
        (fun i ->
          Object_table.set_sro_prev t i prev;
          Object_table.set_sro_next t i next)
        (fun e ->
          e.sro_prev <- prev;
          e.sro_next <- next),
      true )
  | T_store (i, slot, j) ->
    let store part =
      if slot < Array.length part then
        part.(slot) <- Some (Access.make ~index:j ~rights:Rights.read_only)
    in
    if j < 0 then (("skip", "skip"), true)
    else
      ( set i
          (fun i -> store (Object_table.access_part t i))
          (fun e -> store e.access_part),
        true )

(* Every field of every index the tables ever handed out, validity and
   the lookup fault past them, the counts and the walk order. *)
let same_tables t (m : Seed_table.t) =
  let fields_agree i =
    let e = m.entries.(i) in
    Object_table.is_valid t i = e.valid
    && Obj_type.equal (Object_table.otype t i) e.otype
    && Object_table.has_otype t i e.otype
    && Object_table.base t i = e.base
    && Object_table.data_length t i = e.data_length
    && Object_table.access_part t i = e.access_part
    && Object_table.level t i = e.level
    && Object_table.color t i = e.color
    && Object_table.sro t i = e.sro
    && Object_table.swapped_out t i = e.swapped_out
    && Object_table.dirty t i = e.dirty
    && Object_table.payload t i = e.payload
    && Object_table.sro_prev t i = e.sro_prev
    && Object_table.sro_next t i = e.sro_next
  in
  let lookups_agree i =
    outcome (fun () -> ignore (Object_table.lookup t i))
    = outcome (fun () -> ignore (Seed_table.lookup m i))
  in
  let walk = ref [] in
  Object_table.iter_valid (fun i -> walk := i :: !walk) t;
  let capacity = Array.length m.entries in
  Object_table.count_valid t = m.live
  && Object_table.capacity t = capacity
  && Object_table.barrier_shades t = m.shades
  && List.rev !walk = Seed_table.valid_indices m
  && List.for_all fields_agree (List.init m.next Fun.id)
  && List.for_all lookups_agree (List.init (capacity + 2) (fun i -> i - 1))

let print_table_op op =
  let b = string_of_bool and i = string_of_int in
  let c = function
    | Object_table.White -> "white"
    | Object_table.Gray -> "gray"
    | Object_table.Black -> "black"
  in
  match op with
  | T_alloc (o, len, alen, level, base, sro) ->
    Printf.sprintf "alloc %s len=%d alen=%d level=%d base=%d sro=%d"
      (Obj_type.to_string o) len alen level base sro
  | T_free n -> "free " ^ i n
  | T_shade n -> "shade " ^ i n
  | T_color (n, col) -> Printf.sprintf "color %d %s" n (c col)
  | T_swapped (n, v) -> Printf.sprintf "swapped %d %s" n (b v)
  | T_dirty (n, v) -> Printf.sprintf "dirty %d %s" n (b v)
  | T_base (n, v) -> Printf.sprintf "base %d %d" n v
  | T_length (n, v) -> Printf.sprintf "length %d %d" n v
  | T_otype (n, o) -> Printf.sprintf "otype %d %s" n (Obj_type.to_string o)
  | T_level (n, v) -> Printf.sprintf "level %d %d" n v
  | T_payload (n, p) ->
    Printf.sprintf "payload %d %s" n
      (match p with None -> "none" | Some v -> i v)
  | T_links (n, p, q) -> Printf.sprintf "links %d %d %d" n p q
  | T_store (n, s, j) -> Printf.sprintf "store %d[%d] <- %d" n s j

let prop_table_columns_match_records =
  QCheck2.Test.make ~name:"object table columns = seed descriptor records"
    ~count:500
    ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
    QCheck2.Gen.(list_size (int_range 1 150) table_op_gen)
    (fun script ->
      let t = Object_table.create ~initial_capacity:4 () in
      let m = Seed_table.create 4 in
      List.for_all
        (fun op ->
          let (col, seed), same_index = apply_table_op t m op in
          col = seed && same_index && same_tables t m)
        script)

(* Two tables share the sparse columns' vacant chunks (the links, the
   access parts and the payloads), so a write that reached a shared
   chunk in place would show in the other table's rows, and in this
   table's other chunks.  One script drives both, each op on one of
   them; [fill] allocates plain objects past the first chunk, so later
   ops also reach a second chunk, vacant or owned. *)
type two_op = On of bool * table_op | Fill of bool * int

let two_op_gen =
  QCheck2.Gen.(
    let index = oneof [ int_range (-1) 40; int_range 1020 1100 ] in
    let op =
      frequency
        [
          (6, alloc_op_gen);
          (3, map (fun i -> T_free i) index);
          (3, map2 (fun i p -> T_payload (i, p)) index (opt nat));
          (3, map3 (fun i p n -> T_links (i, p, n)) index index index);
          (3, map3 (fun i s j -> T_store (i, s, j)) index (int_range 0 6) index);
        ]
    in
    frequency
      [
        (40, map2 (fun b op -> On (b, op)) bool op);
        (1, map2 (fun b n -> Fill (b, n)) bool (int_range 1000 1100));
      ])

let print_two_op = function
  | On (b, op) -> Printf.sprintf "%s: %s" (if b then "a" else "b") (print_table_op op)
  | Fill (b, n) -> Printf.sprintf "%s: fill %d" (if b then "a" else "b") n

let prop_two_tables_match_records =
  QCheck2.Test.make ~name:"two object tables = their own records" ~count:100
    ~print:(fun ops -> String.concat "; " (List.map print_two_op ops))
    QCheck2.Gen.(list_size (int_range 1 80) two_op_gen)
    (fun script ->
      let fresh () = (Object_table.create ~initial_capacity:4 (), Seed_table.create 4) in
      let a = fresh () and b = fresh () in
      let fill t m n =
        List.for_all
          (fun _ ->
            Object_table.allocate_entry t ~otype:Obj_type.Generic ~base:0
              ~data_length:16 ~access_length:0 ~level:0 ~sro:0
            = Seed_table.allocate m ~otype:Obj_type.Generic ~base:0
                ~data_length:16 ~access_length:0 ~level:0 ~sro:0)
          (List.init n Fun.id)
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | On (on_a, op) ->
              let t, m = if on_a then a else b in
              let (col, seed), same_index = apply_table_op t m op in
              col = seed && same_index
            | Fill (on_a, n) ->
              let t, m = if on_a then a else b in
              fill t m n
          in
          step_ok && same_tables (fst a) (snd a) && same_tables (fst b) (snd b))
        script)

(* ------------------------------------------------------------------ *)
(* The one-word access descriptor vs the seed's record                 *)
(* ------------------------------------------------------------------ *)

module Seed_access = struct
  type t = { index : int; rights : Rights.t }

  let make ~index ~rights =
    if index < 0 then invalid_arg "Access.make: negative index";
    { index; rights }

  let restrict t rights = { t with rights = Rights.restrict t.rights rights }
  let read_only t = restrict t Rights.read_only

  let without_type_right t bit =
    { t with rights = Rights.remove_type_right t.rights bit }

  let equal a b = a.index = b.index && Rights.equal a.rights b.rights

  let to_string t =
    Printf.sprintf "#%d[%s]" t.index (Rights.to_string t.rights)
end

let prop_access_word_matches_record =
  let index =
    QCheck2.Gen.(
      oneof
        [
          int_range 0 1000;
          int_range 0 Access.max_index;
          map (fun d -> Access.max_index - d) (int_range 0 1000);
        ])
  in
  let rights = QCheck2.Gen.oneofl (List.init 32 Rights.of_bits) in
  QCheck2.Test.make ~name:"access word = seed access record" ~count:1000
    QCheck2.Gen.(
      pair (triple index rights rights)
        (triple index rights (oneofl [ 0; 1; 2; 4; 7; 8; -1 ])))
    (fun ((i, r, r'), (j, s, bit)) ->
      let a = Access.make ~index:i ~rights:r
      and sa = Seed_access.make ~index:i ~rights:r
      and b = Access.make ~index:j ~rights:s
      and sb = Seed_access.make ~index:j ~rights:s in
      let agree x (sx : Seed_access.t) =
        Access.index x = sx.Seed_access.index
        && Access.rights x = sx.Seed_access.rights
        && Access.to_string x = Seed_access.to_string sx
      in
      let sign n = compare n 0 in
      (* Same index, other rights: the order falls to the rights bits. *)
      let c = Access.make ~index:i ~rights:s
      and sc = Seed_access.make ~index:i ~rights:s in
      agree a sa && agree b sb
      && agree (Access.restrict a r') (Seed_access.restrict sa r')
      && agree (Access.read_only a) (Seed_access.read_only sa)
      && agree (Access.without_type_right a bit)
           (Seed_access.without_type_right sa bit)
      && Access.equal a b = Seed_access.equal sa sb
      && Access.equal a c = Seed_access.equal sa sc
      && sign (compare a b) = sign (compare sa sb)
      && sign (compare a c) = sign (compare sa sc)
      && Rights.of_bits (Rights.to_bits r) = r)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pqueue_matches_sorted_list;
    QCheck_alcotest.to_alcotest prop_dispatch_matches_model;
    QCheck_alcotest.to_alcotest prop_port_matches_model;
    QCheck_alcotest.to_alcotest prop_port_waiters_match_model;
    QCheck_alcotest.to_alcotest prop_free_store_matches_model;
    QCheck_alcotest.to_alcotest prop_sro_coalescing_and_fit;
    QCheck_alcotest.to_alcotest prop_sro_live_lists_match_model;
    QCheck_alcotest.to_alcotest prop_memory_word_matches_seed;
    QCheck_alcotest.to_alcotest prop_timers_match_model;
    QCheck_alcotest.to_alcotest prop_prng_matches_seed;
    QCheck_alcotest.to_alcotest prop_memory_pages_match_flat;
    QCheck_alcotest.to_alcotest prop_table_columns_match_records;
    QCheck_alcotest.to_alcotest prop_two_tables_match_records;
    QCheck_alcotest.to_alcotest prop_access_word_matches_record;
  ]
