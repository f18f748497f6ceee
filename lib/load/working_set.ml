(* The multiuser swap working set: one boot, one touch loop and one set
   of tallies for every caller (DESIGN.md §14). *)

module K = I432_kernel
module System = Imax.System
module St = I432_store.Store

let heap_bytes ~ram_bytes = ram_bytes + max ram_bytes (1 lsl 16)

type t = {
  sys : System.t;
  store : St.t;
  mutable touches : int;
  mutable corrupt : int;
  mutable completed : int;
}

let boot ~config ~journal ~sync_every ~ram_bytes ~objects ~object_bytes ~seed
    ~users =
  St.fresh_path journal;
  let store =
    St.open_ ~sync_every ~compact_interval_ns:1_000_000
      ~min_garbage_bytes:(max 4096 (ram_bytes / 2))
      journal
  in
  let heap_bytes = heap_bytes ~ram_bytes in
  let sys =
    System.boot
      ~config:
        {
          config with
          System.heap_bytes;
          memory_bytes = max (1 lsl 22) ((2 * heap_bytes) + (1 lsl 20));
          swap_ram_bytes = Some ram_bytes;
          swap_device = Some (I432_store.Swap_store.device store);
        }
      ()
  in
  let m = System.machine sys in
  St.attach store m;
  (* The envelope holds while the population is written, so most of it
     is on the swap device before the users start. *)
  let objs =
    Array.init objects (fun i ->
        let o =
          System.mm_allocate sys ~data_length:object_bytes ~access_length:0
            ~otype:I432.Obj_type.Generic
        in
        K.Machine.write_word m o ~offset:0 (i + 1);
        o)
  in
  let t = { sys; store; touches = 0; corrupt = 0; completed = 0 } in
  let touch prng =
    let i = I432_util.Prng.int prng objects in
    (* Fault-and-retry: a preemption between the touch and the read can
       let another user's fault-in evict the object again. *)
    let rec read_back () =
      System.mm_touch sys objs.(i);
      match K.Machine.read_word m objs.(i) ~offset:0 with
      | v -> v
      | exception I432.Fault.Fault (I432.Fault.Segment_swapped_out _) ->
        read_back ()
    in
    if read_back () <> i + 1 then t.corrupt <- t.corrupt + 1;
    t.touches <- t.touches + 1
  in
  List.iter
    (fun (id, requests) ->
      let prng = I432_util.Prng.create ~seed:(seed + (id * 7919)) in
      ignore
        (K.Machine.spawn m ~name:(Printf.sprintf "user%d" id) (fun () ->
             List.iter
               (fun (at_ns, touches, units) ->
                 let lag = at_ns - K.Machine.now m in
                 if lag > 0 then K.Machine.delay m ~ns:lag;
                 for _ = 1 to touches do
                   touch prng
                 done;
                 K.Machine.compute m units;
                 t.completed <- t.completed + 1)
               requests)))
    users;
  t

let machine t = System.machine t.sys
let store t = t.store

type tally = {
  touches : int;
  corrupt : int;
  completed : int;
  faults : int;
  swap_ins : int;
  swap_outs : int;
  pressure : int;
  resident : (int * int) option;
  device : (string * I432_vm.Swap_device.stats) option;
}

let tally (t : t) =
  let st = System.mm_stats t.sys in
  let dev d = (I432_vm.Swap_device.name d, I432_vm.Swap_device.stats d) in
  {
    touches = t.touches;
    corrupt = t.corrupt;
    completed = t.completed;
    faults = I432_obs.Metrics.count (K.Machine.metrics (machine t)) "swap.faults";
    swap_ins = st.Imax.Memory_manager.swap_ins;
    swap_outs = st.swap_outs;
    pressure = st.alloc_faults;
    resident =
      (match (System.mm_resident_count t.sys, System.mm_resident_bytes t.sys) with
      | Some n, Some b -> Some (n, b)
      | _ -> None);
    device = Option.map dev (System.mm_device t.sys);
  }
