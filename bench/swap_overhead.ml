(* Host wall-clock cost of the vm-tier swapping manager against the
   seed swapping manager it replaced, with no swap device attached: the
   canonical producer/consumer workload (the same shape Trace_overhead
   and Fi_overhead time) with every message object routed through the
   manager — allocate at the producer, touch at the consumer, free
   after the fold — once on Baselines.Seed_swapping (the frozen O(n)
   resident list) and once on the live Memory_manager.Swapping with its
   embedded in-memory device and no envelope.  Nothing is ever evicted,
   so what the ratio measures is pure bookkeeping: the resident-set
   controller, the device seam, and the dormant observability branches
   against the seed's list scans.  The bound below holds the vm tier
   under 1% over the seed — the new subsystem must not tax a system
   that never configures a device — and in practice the ratio runs
   negative: the seed scanned the resident list on every touch and
   rebuilt it on every free, the controller does neither.

   Virtual time is identical in both runs by construction (the managers
   charge identically, and with no pressure neither charges at all), so
   only host time is compared, with the same paired-ratio discipline as
   Trace_overhead. *)

module K = I432_kernel
module MM = Imax.Memory_manager

let trials = 31
let batch = 1
let payload_words = 4  (* per-message job record, like the spooler's *)

(* Both managers behind one closure record, so the workload body (and
   its call overhead) is identical on the two sides. *)
type mm_ops = {
  op_alloc : data_length:int -> I432.Access.t;
  op_touch : I432.Access.t -> unit;
  op_free : I432.Access.t -> unit;
  op_swap_outs : unit -> int;
}

let vm_ops machine ~heap_bytes =
  let mm = MM.Swapping.create machine ~heap_bytes in
  {
    op_alloc =
      (fun ~data_length ->
        MM.Swapping.allocate mm ~data_length ~access_length:0
          ~otype:I432.Obj_type.Generic);
    op_touch = (fun a -> MM.Swapping.touch mm a);
    op_free = (fun a -> MM.Swapping.free mm a);
    op_swap_outs = (fun () -> (MM.Swapping.stats mm).MM.swap_outs);
  }

let seed_ops machine ~heap_bytes =
  let mm = Baselines.Seed_swapping.create machine ~heap_bytes in
  {
    op_alloc =
      (fun ~data_length ->
        Baselines.Seed_swapping.allocate mm ~data_length ~access_length:0
          ~otype:I432.Obj_type.Generic);
    op_touch = (fun a -> Baselines.Seed_swapping.touch mm a);
    op_free = (fun a -> Baselines.Seed_swapping.free mm a);
    op_swap_outs = (fun () -> Baselines.Seed_swapping.swap_outs mm);
  }

(* Producer/consumer ring plus a yielding mixer, as in Trace_overhead:
   every hot kernel seam fires tens of thousands of times per run, and
   every message's object runs the full mm life cycle — one allocate,
   one touch, one free per message — while the consumer also touches
   one object of a [standing]-entry working set per message, the way a
   request touches its session state.  The standing set is what makes
   the comparison mean something: a system runs the swapping manager
   because it holds a non-trivial resident population, and that
   population is exactly what the seed's O(n) list scans are priced
   by.  The 1 MB heap holds everything with room to spare: no eviction
   ever fires, which the swap_outs assertion checks. *)
let standing = 256

let workload ~mk_ops ~messages () =
  let config =
    {
      K.Machine.default_config with
      K.Machine.processors = 2;
      trace_level = I432_obs.Tracer.Off;
    }
  in
  let m = K.Machine.create ~config () in
  let ops = mk_ops m ~heap_bytes:(1 lsl 20) in
  let state =
    Array.init standing (fun i ->
        let o = ops.op_alloc ~data_length:16 in
        K.Machine.write_word m o ~offset:0 i;
        o)
  in
  let port = K.Machine.create_port m ~capacity:16 ~discipline:K.Port.Fifo () in
  ignore
    (K.Machine.spawn m ~name:"producer" (fun () ->
         for i = 1 to messages do
           let o = ops.op_alloc ~data_length:16 in
           for w = 0 to payload_words - 1 do
             K.Machine.write_word m o ~offset:w (i + w)
           done;
           K.Machine.send m ~port ~msg:o
         done));
  ignore
    (K.Machine.spawn m ~name:"consumer" (fun () ->
         let sum = ref 0 in
         for i = 1 to messages do
           let msg = K.Machine.receive m ~port in
           ops.op_touch msg;
           for w = 0 to payload_words - 1 do
             sum := !sum + K.Machine.read_word m msg ~offset:w
           done;
           let s = state.(i mod standing) in
           ops.op_touch s;
           sum := !sum + K.Machine.read_word m s ~offset:0;
           ops.op_free msg
         done;
         Sys.opaque_identity !sum |> ignore));
  ignore
    (K.Machine.spawn m ~name:"mixer" (fun () ->
         for _ = 1 to messages / 10 do
           K.Machine.compute m 3;
           K.Machine.yield m
         done));
  ignore (K.Machine.run m);
  if ops.op_swap_outs () <> 0 then
    failwith "swap_overhead: the no-pressure workload evicted something"

let measure ~smoke =
  let messages = if smoke then 2_000 else 10_000 in
  Reading.int "messages" "messages" messages
  :: Paired.overhead_readings ~base:"seed_ns" ~test:"vm_ns"
       ~bound:(Reading.Below 1.0)
       (Paired.measure ~trials ~batch
          ~base:(workload ~mk_ops:seed_ops ~messages)
          ~test:(workload ~mk_ops:vm_ops ~messages))
