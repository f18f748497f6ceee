(* Frozen copies of the seed's O(n) list-based hot-path structures, kept
   only as the "before" side of the depth-sweep micro-bench (BENCH_micro
   deltas).  Do not use these in the simulator: the live implementations
   are Dispatch/Port/Sro on I432_util.{Pqueue,Ring_buffer,Free_store}.

   Each module replicates the seed algorithm exactly, including its
   incidental costs (e.g. the List.length executed on every dispatch
   enqueue for max_ready tracking), so the deltas measure what actually
   changed. *)

module List_dispatch = struct
  type entry = { process : int; priority : int; seq : int }

  type t = {
    mutable ready : entry list;  (* in service order *)
    mutable seq : int;
    mutable max_ready : int;
  }

  let create () = { ready = []; seq = 0; max_ready = 0 }

  let enqueue t ~process ~priority =
    let e = { process; priority; seq = t.seq } in
    t.seq <- t.seq + 1;
    let rec go = function
      | [] -> [ e ]
      | x :: rest ->
        if e.priority > x.priority then e :: x :: rest else x :: go rest
    in
    t.ready <- go t.ready;
    let n = List.length t.ready in
    if n > t.max_ready then t.max_ready <- n

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
end

module List_port = struct
  (* Seed insert_message under the Priority discipline: sorted insert by
     (priority desc, seq asc); dequeue takes the head. *)
  type qm = { prio : int; qseq : int }

  type t = {
    mutable queue : qm list;
    mutable seq : int;
    mutable max_depth : int;
  }

  let create () = { queue = []; seq = 0; max_depth = 0 }

  let enqueue t ~priority =
    let qm = { prio = priority; qseq = t.seq } in
    t.seq <- t.seq + 1;
    let rec go = function
      | [] -> [ qm ]
      | x :: rest ->
        if qm.prio > x.prio || (qm.prio = x.prio && qm.qseq < x.qseq) then
          qm :: x :: rest
        else x :: go rest
    in
    t.queue <- go t.queue;
    let d = List.length t.queue in
    if d > t.max_depth then t.max_depth <- d

  let dequeue t =
    match t.queue with
    | [] -> None
    | qm :: rest ->
      t.queue <- rest;
      Some qm.prio
end

module List_free_store = struct
  (* Seed SRO free store: first-fit scan of a base-sorted region list,
     coalescing insert on free. *)
  type region = { base : int; length : int }

  type t = { mutable free_regions : region list }

  let create () = { free_regions = [] }

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
end

(* The seed's swapping memory manager (LRU), frozen exactly as it stood
   before the vm tier replaced it: an O(n) resident list scanned on
   every touch, rebuilt on every free, folded over on every victim
   pick, with a private hashtable for swapped-out images.  Kept as the
   "before" side of the swap-path overhead gate (Swap_overhead), the
   same role the seed lists above play for the depth sweep.  Do not use
   this in the simulator. *)
module Seed_swapping = struct
  open I432
  module K = I432_kernel

  let swap_in_ns = 400_000
  let swap_out_ns = 400_000

  type resident = {
    index : int;
    mutable last_touch : int;  (* virtual ns, for LRU *)
    arrival : int;  (* monotonic, for FIFO tie-break *)
  }

  type t = {
    machine : K.Machine.t;
    heap : Access.t;
    mutable residents : resident list;
    backing : (int, Bytes.t) Hashtbl.t;  (* swapped-out segment images *)
    mutable arrivals : int;
    mutable allocations : int;
    mutable frees : int;
    mutable swap_ins : int;
    mutable swap_outs : int;
    mutable alloc_faults : int;
  }

  let create machine ~heap_bytes =
    let heap = K.Machine.create_local_sro machine ~level:0 ~bytes:heap_bytes in
    {
      machine;
      heap;
      residents = [];
      backing = Hashtbl.create 64;
      arrivals = 0;
      allocations = 0;
      frees = 0;
      swap_ins = 0;
      swap_outs = 0;
      alloc_faults = 0;
    }

  let swap_outs t = t.swap_outs

  let note_resident t index =
    t.arrivals <- t.arrivals + 1;
    t.residents <-
      { index; last_touch = K.Machine.now t.machine; arrival = t.arrivals }
      :: t.residents

  let pick_victim t ~avoid =
    let table = K.Machine.table t.machine in
    let candidates =
      List.filter
        (fun r ->
          r.index <> avoid
          && Object_table.is_valid table r.index
          && (not (Object_table.swapped_out table r.index))
          && (not (Obj_type.is_system (Object_table.otype table r.index)))
          && Object_table.data_length table r.index > 0)
        t.residents
    in
    match candidates with
    | [] -> None
    | first :: rest ->
      let better a b =
        if (a.last_touch, a.arrival) <= (b.last_touch, b.arrival) then a
        else b
      in
      Some (List.fold_left better first rest)

  let swap_out t victim =
    let table = K.Machine.table t.machine in
    let memory = K.Machine.memory t.machine in
    let e = Object_table.lookup table victim.index in
    let base = Object_table.base table e
    and len = Object_table.data_length table e in
    let image = Memory.blit_to_bytes memory ~src_addr:base ~len in
    Hashtbl.replace t.backing victim.index image;
    (match Sro.state_of_object table ~index:victim.index with
    | Some s ->
      Sro.donate table ~sro_state:s ~base ~length:len
    | None -> ());
    Object_table.set_swapped_out table e true;
    t.residents <- List.filter (fun r -> r.index <> victim.index) t.residents;
    K.Machine.charge t.machine swap_out_ns;
    t.swap_outs <- t.swap_outs + 1

  let rec make_room t ~sro_state ~size ~avoid =
    let table = K.Machine.table t.machine in
    match Sro.carve table ~sro_state ~size with
    | Some base -> Some base
    | None -> (
      match pick_victim t ~avoid with
      | None -> None
      | Some victim ->
        swap_out t victim;
        make_room t ~sro_state ~size ~avoid)

  let swap_in t index =
    let table = K.Machine.table t.machine in
    let memory = K.Machine.memory t.machine in
    let e = Object_table.lookup table index in
    if Object_table.swapped_out table e then begin
      let size = Object_table.data_length table e in
      match Sro.state_of_object table ~index with
      | None -> Fault.raise_fault Fault.Sro_destroyed
      | Some s -> (
        match make_room t ~sro_state:s ~size ~avoid:index with
        | None ->
          Fault.raise_fault
            (Fault.Storage_exhausted { requested = size; available = 0 })
        | Some base ->
          (match Hashtbl.find_opt t.backing index with
          | Some image ->
            Memory.blit_from_bytes memory ~src:image ~dst_addr:base
          | None -> Memory.fill memory ~addr:base ~len:size ~byte:'\000');
          Hashtbl.remove t.backing index;
          Object_table.set_base table e base;
          Object_table.set_swapped_out table e false;
          note_resident t index;
          K.Machine.charge t.machine swap_in_ns;
          t.swap_ins <- t.swap_ins + 1)
    end

  let allocate t ~data_length ~access_length ~otype =
    match
      K.Machine.allocate t.machine t.heap ~data_length ~access_length ~otype
    with
    | a ->
      t.allocations <- t.allocations + 1;
      note_resident t (Access.index a);
      a
    | exception Fault.Fault (Fault.Storage_exhausted _) -> (
      t.alloc_faults <- t.alloc_faults + 1;
      let table = K.Machine.table t.machine in
      let s = Sro.state_of table t.heap in
      match make_room t ~sro_state:s ~size:data_length ~avoid:(-1) with
      | None ->
        Fault.raise_fault
          (Fault.Storage_exhausted { requested = data_length; available = 0 })
      | Some base ->
        Sro.donate table ~sro_state:s ~base ~length:data_length;
        let a =
          K.Machine.allocate t.machine t.heap ~data_length ~access_length
            ~otype
        in
        t.allocations <- t.allocations + 1;
        note_resident t (Access.index a);
        a)

  let free t access =
    let table = K.Machine.table t.machine in
    let e = Object_table.lookup_access table access in
    Hashtbl.remove t.backing e;
    t.residents <- List.filter (fun r -> r.index <> e) t.residents;
    if Object_table.swapped_out table e then begin
      Object_table.set_data_length table e 0;
      Object_table.set_swapped_out table e false
    end;
    (match Sro.state_of_object table ~index:e with
    | Some s ->
      Sro.release table ~sro_state:s ~index:e;
      t.frees <- t.frees + 1
    | None -> ())

  let touch t access =
    let table = K.Machine.table t.machine in
    let e = Object_table.lookup_access table access in
    if Object_table.swapped_out table e then swap_in t e;
    List.iter
      (fun r ->
        if r.index = e then
          r.last_touch <- K.Machine.now t.machine)
      t.residents
end
