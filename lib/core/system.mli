(** System configuration and boot (paper §3, §6).

    A configuration selects the processor count, which memory-manager
    implementation satisfies the common specification, which scheduling
    policy layers on the basic process manager, and whether the collector
    daemon runs.  Boot instantiates exactly the selected packages. *)

open I432
module K := I432_kernel

type memory_choice =
  | Non_swapping
  | Swapping_lru
  | Swapping_fifo
  | Swapping_clock
  | Swapping_level

(** Every choice, in the order above. *)
val memory_choices : memory_choice list

(** The victim policy a choice selects, [None] for [Non_swapping]. *)
val memory_policy : memory_choice -> I432_vm.Policy.t option

type config = {
  processors : int;
  memory_bytes : int;
  heap_bytes : int;  (** heap carved for the selected memory manager *)
  memory_manager : memory_choice;
  swap_ram_bytes : int option;
      (** resident-set RAM envelope for the swapping managers; [None]
          (the default) means pressure-driven eviction only *)
  swap_device : I432_vm.Swap_device.t option;
      (** swap device for the swapping managers; attaching one turns on
          the swap.* counters and Swap_* events (default [None]: a
          private in-memory device, unobserved) *)
  scheduling : Scheduler.policy;
  run_gc_daemon : bool;
  gc_config : I432_gc.Collector.config;
  bus_alpha_per_mille : int;
  timings : Timings.t;
  trace_level : I432_obs.Tracer.level;
}

val default_config : config

type t

val boot : ?config:config -> unit -> t
val machine : t -> K.Machine.t
val process_manager : t -> Process_manager.t
val scheduler : t -> Scheduler.t
val collector : t -> I432_gc.Collector.t option

(** {1 The selected memory manager, behind the common interface} *)

val mm_allocate :
  t -> data_length:int -> access_length:int -> otype:Obj_type.t -> Access.t

val mm_free : t -> Access.t -> unit
val mm_touch : t -> Access.t -> unit
val mm_stats : t -> Memory_manager.stats
val mm_name : t -> string

(** {1 The swapping management interface}

    [None] when the selected implementation does not swap. *)

val mm_resident_bytes : t -> int option
val mm_resident_count : t -> int option
val mm_device : t -> I432_vm.Swap_device.t option

(** [mm_name] of a system booted with this choice. *)
val memory_choice_to_string : memory_choice -> string

(** Run the machine to completion (or a bound). *)
val run : ?max_ns:int -> ?max_steps:int -> t -> K.Machine.run_report
