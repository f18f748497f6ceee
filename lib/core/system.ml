(* System configuration and boot (paper §3, §6).

   "support for a minimum range of application, configurability are the most
   important iMAX goals ...  iMAX uses two complementary approaches:
   selection of needed packages and alternate implementations of standard
   specifications."

   A configuration selects: the number of processors, which memory-manager
   implementation satisfies the common specification (§6.2), which
   scheduling policy is layered on the basic process manager (§6.1), and
   whether the garbage-collector daemon runs (§8.1).  Boot instantiates
   exactly the selected packages — there is no central registry of optional
   services. *)

module K = I432_kernel

type memory_choice =
  | Non_swapping
  | Swapping_lru
  | Swapping_fifo
  | Swapping_clock
  | Swapping_level

let memory_choices =
  [ Non_swapping; Swapping_lru; Swapping_fifo; Swapping_clock; Swapping_level ]

(* The victim policy a choice selects; None is the non-swapping release. *)
let memory_policy = function
  | Non_swapping -> None
  | Swapping_lru -> Some I432_vm.Policy.Lru
  | Swapping_fifo -> Some I432_vm.Policy.Fifo
  | Swapping_clock -> Some I432_vm.Policy.Clock
  | Swapping_level -> Some I432_vm.Policy.Level_aware

type config = {
  processors : int;
  memory_bytes : int;
  heap_bytes : int;  (* managed heap carved for the memory manager *)
  memory_manager : memory_choice;
  swap_ram_bytes : int option;  (* resident-set envelope for swapping mms *)
  swap_device : I432_vm.Swap_device.t option;  (* attach = observe *)
  scheduling : Scheduler.policy;
  run_gc_daemon : bool;
  gc_config : I432_gc.Collector.config;
  bus_alpha_per_mille : int;
  timings : I432.Timings.t;
  trace_level : I432_obs.Tracer.level;
}

let default_config =
  {
    processors = 1;
    memory_bytes = 1 lsl 22;
    heap_bytes = 1 lsl 20;
    memory_manager = Non_swapping;
    swap_ram_bytes = None;
    swap_device = None;
    scheduling = Scheduler.Null;
    run_gc_daemon = false;
    gc_config = I432_gc.Collector.default_config;
    bus_alpha_per_mille = 20;
    timings = I432.Timings.default;
    trace_level = I432_obs.Tracer.Off;
  }

(* A booted system: the machine plus the packages the configuration
   selected.  The memory manager is a first-class module packaged with its
   state — the "package as type" extension of §6.3. *)

type packed_mm = Packed : (module Memory_manager.S with type t = 'a) * 'a -> packed_mm

type t = {
  machine : K.Machine.t;
  process_manager : Process_manager.t;
  scheduler : Scheduler.t;
  memory : packed_mm;
  swapping : Memory_manager.Swapping.t option;
  collector : I432_gc.Collector.t option;
  config : config;
}

let boot ?(config = default_config) () =
  let machine =
    K.Machine.create
      ~config:
        {
          K.Machine.default_config with
          K.Machine.processors = config.processors;
          memory_bytes = config.memory_bytes;
          timings = config.timings;
          bus_alpha_per_mille = config.bus_alpha_per_mille;
          global_heap_bytes = config.memory_bytes - 4096;
          trace_level = config.trace_level;
        }
      ()
  in
  let process_manager = Process_manager.create machine in
  let scheduler = Scheduler.create machine process_manager config.scheduling in
  (match config.scheduling with
  | Scheduler.Fair_share -> ignore (Scheduler.spawn_daemon scheduler)
  | Scheduler.Null | Scheduler.Round_robin -> ());
  let memory, swapping =
    match memory_policy config.memory_manager with
    | None ->
      let mm =
        Memory_manager.Nonswapping.create machine ~heap_bytes:config.heap_bytes
      in
      (Packed ((module Memory_manager.Nonswapping), mm), None)
    | Some policy ->
      let mm =
        Memory_manager.Swapping.create_with ~policy
          ?ram_bytes:config.swap_ram_bytes ?device:config.swap_device machine
          ~heap_bytes:config.heap_bytes
      in
      (Packed ((module Memory_manager.Swapping), mm), Some mm)
  in
  let collector =
    if config.run_gc_daemon then begin
      let c = I432_gc.Collector.create ~config:config.gc_config machine in
      ignore (I432_gc.Collector.spawn_daemon c);
      (* A configured collector doubles as the kernel's reclaim hook: a
         bounded allocation retry (Machine.allocate_retry) runs a
         synchronous collection cycle between attempts. *)
      K.Machine.set_reclaim_hook machine
        (Some (fun () -> I432_gc.Collector.cycle c));
      Some c
    end
    else None
  in
  { machine; process_manager; scheduler; memory; swapping; collector; config }

let machine t = t.machine
let process_manager t = t.process_manager
let scheduler t = t.scheduler
let collector t = t.collector

(* Allocate through whichever memory-manager implementation was selected;
   callers cannot tell which is running (§6.2). *)
let mm_allocate t ~data_length ~access_length ~otype =
  let (Packed ((module M), mm)) = t.memory in
  M.allocate mm ~data_length ~access_length ~otype

let mm_free t access =
  let (Packed ((module M), mm)) = t.memory in
  M.free mm access

let mm_touch t access =
  let (Packed ((module M), mm)) = t.memory in
  M.touch mm access

let mm_stats t =
  let (Packed ((module M), mm)) = t.memory in
  M.stats mm

let mm_name t =
  let (Packed ((module M), mm)) = t.memory in
  M.name mm

(* The swapping management interface, when a swapping implementation was
   selected (None under Non_swapping). *)

let mm_resident_bytes t =
  Option.map Memory_manager.Swapping.resident_bytes t.swapping

let mm_resident_count t =
  Option.map Memory_manager.Swapping.resident_count t.swapping

let mm_device t = Option.map Memory_manager.Swapping.device t.swapping

let memory_choice_to_string c =
  Memory_manager.implementation_name (memory_policy c)

(* Run to completion and report. *)
let run ?max_ns ?max_steps t = K.Machine.run ?max_ns ?max_steps t.machine
