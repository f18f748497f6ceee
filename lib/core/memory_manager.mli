(** Memory management via alternate implementations of one specification
    (paper §6.2).

    The common interface is the module type {!S}; the system is configured
    by selecting one implementation (see {!System}).  It covers the three
    allocation mechanisms of §5 — stack (per-level local heaps), global
    heap, and local heap — plus explicit release and the presence [touch]
    the swapping implementation needs. *)

open I432
module K := I432_kernel
module Vm := I432_vm

type stats = {
  mutable allocations : int;
  mutable frees : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable alloc_faults : int;  (** storage exhausted on first attempt *)
}

module type S = sig
  type t

  (** ["non-swapping"], or ["swapping/<policy>"]. *)
  val name : t -> string

  val create : K.Machine.t -> heap_bytes:int -> t

  val allocate :
    t -> data_length:int -> access_length:int -> otype:Obj_type.t -> Access.t

  val allocate_local :
    t ->
    level:int ->
    data_length:int ->
    access_length:int ->
    otype:Obj_type.t ->
    Access.t

  val free : t -> Access.t -> unit

  (** Bring the segment in (swapping) or just validate (non-swapping). *)
  val touch : t -> Access.t -> unit

  (** The per-implementation management interface the paper allows. *)
  val stats : t -> stats
end

(** The name of the implementation a victim policy selects, [None]
    selecting the non-swapping one; a manager's {!S.name} is this of its
    policy. *)
val implementation_name : Vm.Policy.t option -> string

(** The paper's first release: no swapping; exhaustion faults. *)
module Nonswapping : S

(** The second release: segments move to a swap device under pressure
    and return on [touch]; direct access to an absent segment faults with
    [Segment_swapped_out].  Every transfer to or from the device charges
    400 us. *)
module Swapping : sig
  include S

  (** The additional management interface (§6.2).  [create_with]
      configures what [create] defaults: the victim [policy] (default
      [Lru], realized by {!I432_vm.Resident_set}), a resident-set RAM
      envelope in bytes (evictions keep the sum of resident segment bytes
      at or under it), and the swap [device] absent segments live on.

      Attaching a device is the observability switch, mirroring
      [Store.attach]: only then are the [swap.ins]/[swap.outs]/
      [swap.faults]/[swap.bytes_in]/[swap.bytes_out] counters created and
      the [Swap_out] (named by the policy)/[Swap_in]/[Swap_fault] events
      emitted.  [create] (no device, no envelope) embeds a private
      in-memory device and stays byte-identical to the pre-vm-tier
      manager. *)
  val create_with :
    ?policy:Vm.Policy.t ->
    ?ram_bytes:int ->
    ?device:Vm.Swap_device.t ->
    K.Machine.t ->
    heap_bytes:int ->
    t

  val device : t -> Vm.Swap_device.t
  val resident_bytes : t -> int
  val resident_count : t -> int
end
