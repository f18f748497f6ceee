(* Memory management via alternate implementations (paper §6.2).

   "Virtually all processes make use of memory management facilities via a
   standard interface that permits allocation of new objects.  Few processes
   depend upon whether the underlying implementation includes swapping or
   not.  A single Ada specification defines the common interface. ...  Both
   a swapping and a non-swapping implementation meet this specification but
   are optimized internally to the level of function they provide.  Each may
   provide an additional management interface."

   The common interface is the module type S below; the system is configured
   by picking one first-class module (see {!System}).  The interface covers
   the three allocation mechanisms of §5: stack allocation (per-call local
   heaps), global heap allocation, and local heap allocation.

   The swapping implementation is built on the virtual-memory tier
   (lib/vm): a {!I432_vm.Resident_set} controller owns victim selection
   (by the {!I432_vm.Policy.t} value the manager was created with) and the
   optional RAM envelope, and a {!I432_vm.Swap_device} holds the
   evicted segment images.  With no device configured the manager embeds
   an in-memory device and emits no events and no counters — exactly the
   original behavior, byte for byte.  Attaching a device (the explicit
   act, mirroring Store.attach) turns on the swap.* counters and the
   Swap_out/Swap_in/Swap_fault events. *)

open I432
module K = I432_kernel
module Obs = I432_obs
module Vm = I432_vm

type stats = {
  mutable allocations : int;
  mutable frees : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable alloc_faults : int;  (* storage exhausted on first attempt *)
}

let fresh_stats () =
  { allocations = 0; frees = 0; swap_ins = 0; swap_outs = 0; alloc_faults = 0 }

module type S = sig
  type t

  val name : t -> string
  val create : K.Machine.t -> heap_bytes:int -> t

  (** Global heap allocation: the object lives at level 0 until
      unreachable. *)
  val allocate :
    t -> data_length:int -> access_length:int -> otype:Obj_type.t -> Access.t

  (** Local heap allocation at a lifetime level (a new SRO per level). *)
  val allocate_local :
    t ->
    level:int ->
    data_length:int ->
    access_length:int ->
    otype:Obj_type.t ->
    Access.t

  (** Explicit release (garbage collection frees the rest). *)
  val free : t -> Access.t -> unit

  (** Touch an object before direct data access: the swapping implementation
      brings the segment in; the non-swapping one checks validity only. *)
  val touch : t -> Access.t -> unit

  (** The common interface ends here; [stats] is the per-implementation
      management interface the paper allows. *)
  val stats : t -> stats
end

(* Shared plumbing: implementation names, per-level local SROs and
   descriptor release. *)

let implementation_name = function
  | None -> "non-swapping"
  | Some p -> "swapping/" ^ Vm.Policy.to_string p

let local_sro machine locals ~level =
  match List.assoc_opt level !locals with
  | Some sro when Sro.is_live (K.Machine.table machine) sro -> sro
  | Some _ | None ->
    let sro = K.Machine.create_local_sro machine ~level ~bytes:(64 * 1024) in
    locals := (level, sro) :: List.remove_assoc level !locals;
    sro

let release_to_owner table index st =
  match Sro.state_of_object table ~index with
  | Some s ->
    Sro.release table ~sro_state:s ~index;
    st.frees <- st.frees + 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Non-swapping implementation (the paper's first release)             *)
(* ------------------------------------------------------------------ *)

module Nonswapping : S = struct
  type t = {
    machine : K.Machine.t;
    heap : Access.t;  (* level-0 SRO *)
    locals : (int * Access.t) list ref;  (* level -> SRO *)
    st : stats;
  }

  let name _ = implementation_name None

  let create machine ~heap_bytes =
    let heap = K.Machine.create_local_sro machine ~level:0 ~bytes:heap_bytes in
    { machine; heap; locals = ref []; st = fresh_stats () }

  let allocate t ~data_length ~access_length ~otype =
    match
      K.Machine.allocate t.machine t.heap ~data_length ~access_length ~otype
    with
    | a ->
      t.st.allocations <- t.st.allocations + 1;
      a
    | exception Fault.Fault (Fault.Storage_exhausted _ as cause) ->
      t.st.alloc_faults <- t.st.alloc_faults + 1;
      Fault.raise_fault cause

  let allocate_local t ~level ~data_length ~access_length ~otype =
    let sro = local_sro t.machine t.locals ~level in
    let a = K.Machine.allocate t.machine sro ~data_length ~access_length ~otype in
    t.st.allocations <- t.st.allocations + 1;
    a

  let free t access =
    release_to_owner (K.Machine.table t.machine) (Access.index access) t.st

  let touch t access =
    (* Validity check only: a non-swapping system never has absent
       segments. *)
    ignore (Object_table.entry_of_access (K.Machine.table t.machine) access)

  let stats t = t.st
end

(* ------------------------------------------------------------------ *)
(* Swapping implementation (the paper's second release)                *)
(* ------------------------------------------------------------------ *)

(* Every transfer to or from the swap device costs ~0.4 ms: a fast
   backing store. *)
let swap_in_ns = 400_000
let swap_out_ns = 400_000

module Swapping = struct
  (* swap.* counters, created only when a device is attached. *)
  type observed = {
    o_ins : Obs.Metrics.counter;
    o_outs : Obs.Metrics.counter;
    o_clean : Obs.Metrics.counter Lazy.t;
        (* registered at the first clean eviction, so a run without one
           dumps the same counters as before *)
    o_faults : Obs.Metrics.counter;
    o_bytes_in : Obs.Metrics.counter;
    o_bytes_out : Obs.Metrics.counter;
    o_policy_id : int;  (* the tracer's ids for the policy and device names *)
    o_device_id : int;
  }

  type t = {
    machine : K.Machine.t;
    heap : Access.t;
    locals : (int * Access.t) list ref;
    rset : Vm.Resident_set.t;
    dev : Vm.Swap_device.t;
    pol : Vm.Policy.t;
    obs : observed option;
    st : stats;
  }

  let name t = implementation_name (Some t.pol)

  let create_with ?(policy = Vm.Policy.Lru) ?ram_bytes ?device machine
      ~heap_bytes =
    let dev, obs =
      match device with
      | Some d ->
        let metrics = K.Machine.metrics machine in
        let c = Obs.Metrics.counter metrics in
        ( d,
          Some
            {
              o_ins = c "swap.ins";
              o_outs = c "swap.outs";
              o_clean = lazy (c "swap.clean_evictions");
              o_faults = c "swap.faults";
              o_bytes_in = c "swap.bytes_in";
              o_bytes_out = c "swap.bytes_out";
              o_policy_id =
                K.Machine.string_id machine (Vm.Policy.to_string policy);
              o_device_id =
                K.Machine.string_id machine (Vm.Swap_device.name d);
            } )
      | None -> (Vm.Swap_device.in_memory (), None)
    in
    let heap = K.Machine.create_local_sro machine ~level:0 ~bytes:heap_bytes in
    {
      machine;
      heap;
      locals = ref [];
      rset = Vm.Resident_set.create ~policy ?ram_bytes ();
      dev;
      pol = policy;
      obs;
      st = fresh_stats ();
    }

  let create machine ~heap_bytes = create_with machine ~heap_bytes

  let device t = t.dev
  let resident_bytes t = Vm.Resident_set.resident_bytes t.rset
  let resident_count t = Vm.Resident_set.count t.rset

  let note_resident t index =
    let table = K.Machine.table t.machine in
    let e = Object_table.lookup table index in
    Vm.Resident_set.insert t.rset ~index ~bytes:e.Object_table.data_length
      ~level:e.Object_table.level
      ~now:(K.Machine.now t.machine)

  (* A victim must be resident, valid, non-system, and non-empty — the
     same candidate filter the original linear scan applied. *)
  let evictable t index =
    let table = K.Machine.table t.machine in
    Object_table.is_valid table index
    &&
    let e = Object_table.lookup table index in
    (not e.Object_table.swapped_out)
    && (not (Obj_type.is_system e.Object_table.otype))
    && e.Object_table.data_length > 0

  let pick_victim t ~avoid =
    Vm.Resident_set.pick t.rset ~avoid ~evictable:(evictable t)

  (* Swap one segment out: save its data image on the device, mark the
     descriptor absent, and return its frame to the owning SRO's free
     store.

     A clean victim — not written since its last device transfer, with
     its image still retained on the device — skips the write and its
     charge entirely: the retained image is already current.  Only an
     attached device retains images across swap-in (see [swap_in]), so
     the embedded manager never takes this path and stays byte-identical
     to the pre-dirty-bit behavior. *)
  let swap_out t index =
    let table = K.Machine.table t.machine in
    let memory = K.Machine.memory t.machine in
    let e = Object_table.lookup table index in
    let clean =
      (not e.Object_table.dirty) && Vm.Swap_device.mem t.dev ~index
    in
    if not clean then begin
      let image =
        Memory.blit_to_bytes memory ~src_addr:e.Object_table.base
          ~len:e.Object_table.data_length
      in
      Vm.Swap_device.write t.dev ~index ~now_ns:(K.Machine.now t.machine) image
    end;
    (match Sro.state_of_object table ~index with
    | Some s ->
      Sro.donate table ~sro_state:s ~base:e.Object_table.base
        ~length:e.Object_table.data_length
    | None -> ());
    e.Object_table.swapped_out <- true;
    e.Object_table.dirty <- false;
    Vm.Resident_set.remove t.rset ~index;
    if not clean then K.Machine.charge t.machine swap_out_ns;
    t.st.swap_outs <- t.st.swap_outs + 1;
    match t.obs with
    | Some o ->
      Obs.Metrics.incr o.o_outs;
      if clean then Obs.Metrics.incr (Lazy.force o.o_clean)
      else Obs.Metrics.add o.o_bytes_out e.Object_table.data_length;
      K.Machine.emit t.machine Obs.Event.Swap_out ~name_id:o.o_policy_id
        ~detail_id:0 ~a:index ~b:e.Object_table.data_length
    | None -> ()

  (* Evict until [sro_state] can supply [size] bytes, or no victims remain. *)
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

  (* The RAM envelope: after a segment becomes resident, evict until the
     resident set fits again.  Without [ram_bytes] this is free —
     [over_envelope] is constantly false — which is what keeps the
     no-envelope manager's eviction schedule (and therefore every
     pre-existing trace) unchanged. *)
  let rec enforce_envelope t ~avoid =
    if Vm.Resident_set.over_envelope t.rset ~extra:0 then
      match pick_victim t ~avoid with
      | None -> ()  (* nothing evictable; the heap SRO still bounds us *)
      | Some victim ->
        swap_out t victim;
        enforce_envelope t ~avoid

  (* Bring a swapped-out segment back, evicting residents as needed. *)
  let swap_in t index =
    let table = K.Machine.table t.machine in
    let memory = K.Machine.memory t.machine in
    let e = Object_table.lookup table index in
    if e.Object_table.swapped_out then begin
      let size = e.Object_table.data_length in
      match Sro.state_of_object table ~index with
      | None -> Fault.raise_fault Fault.Sro_destroyed
      | Some s -> (
        match make_room t ~sro_state:s ~size ~avoid:index with
        | None ->
          Fault.raise_fault
            (Fault.Storage_exhausted { requested = size; available = 0 })
        | Some base ->
          (match Vm.Swap_device.read t.dev ~index with
          | Some image ->
            Memory.blit_from_bytes memory ~src:image ~dst_addr:base
          | None -> Memory.fill memory ~addr:base ~len:size ~byte:'\000');
          (* An attached device retains the image so an unmodified
             segment can be re-evicted without a write; the embedded
             device keeps the original drop-on-swap-in lifetime. *)
          if t.obs = None then
            Vm.Swap_device.drop t.dev ~index ~now_ns:(K.Machine.now t.machine);
          e.Object_table.base <- base;
          e.Object_table.swapped_out <- false;
          e.Object_table.dirty <- false;
          note_resident t index;
          K.Machine.charge t.machine swap_in_ns;
          t.st.swap_ins <- t.st.swap_ins + 1;
          (match t.obs with
          | Some o ->
            Obs.Metrics.incr o.o_ins;
            Obs.Metrics.add o.o_bytes_in size;
            K.Machine.emit t.machine Obs.Event.Swap_in ~name_id:o.o_device_id
              ~detail_id:0 ~a:index ~b:size
          | None -> ());
          enforce_envelope t ~avoid:index)
    end

  (* A recycled descriptor index must not inherit a stale retained image:
     the object that owned the index before may have been reclaimed by GC
     sweep or SRO destruction, which bypass [free].  Checked on every
     allocation because those are exactly the points where an index comes
     back into use as a potential victim. *)
  let invalidate_stale_image t index =
    if t.obs <> None && Vm.Swap_device.mem t.dev ~index then
      Vm.Swap_device.drop t.dev ~index ~now_ns:(K.Machine.now t.machine)

  let allocate_with_pressure t sro ~data_length ~access_length ~otype =
    match
      K.Machine.allocate t.machine sro ~data_length ~access_length ~otype
    with
    | a ->
      t.st.allocations <- t.st.allocations + 1;
      invalidate_stale_image t (Access.index a);
      note_resident t (Access.index a);
      enforce_envelope t ~avoid:(Access.index a);
      a
    | exception Fault.Fault (Fault.Storage_exhausted _) -> (
      t.st.alloc_faults <- t.st.alloc_faults + 1;
      let table = K.Machine.table t.machine in
      let s = Sro.state_of table sro in
      match make_room t ~sro_state:s ~size:data_length ~avoid:(-1) with
      | None ->
        Fault.raise_fault
          (Fault.Storage_exhausted { requested = data_length; available = 0 })
      | Some base ->
        (* Return the carved frame and let the allocator place the new
           object there. *)
        Sro.donate table ~sro_state:s ~base ~length:data_length;
        let a =
          K.Machine.allocate t.machine sro ~data_length ~access_length ~otype
        in
        t.st.allocations <- t.st.allocations + 1;
        invalidate_stale_image t (Access.index a);
        note_resident t (Access.index a);
        enforce_envelope t ~avoid:(Access.index a);
        a)

  let allocate t ~data_length ~access_length ~otype =
    allocate_with_pressure t t.heap ~data_length ~access_length ~otype

  let allocate_local t ~level ~data_length ~access_length ~otype =
    let sro = local_sro t.machine t.locals ~level in
    allocate_with_pressure t sro ~data_length ~access_length ~otype

  let free t access =
    let table = K.Machine.table t.machine in
    let e = Object_table.entry_of_access table access in
    Vm.Resident_set.remove t.rset ~index:e.Object_table.index;
    if e.Object_table.swapped_out then begin
      (* The segment is absent, so its image is on the device; release
         the image, and with no physical frame to return, make the
         release a descriptor-only operation. *)
      Vm.Swap_device.drop t.dev ~index:e.Object_table.index
        ~now_ns:(K.Machine.now t.machine);
      e.Object_table.data_length <- 0;
      e.Object_table.swapped_out <- false
    end
    else
      (* Resident, but an attached device may still retain the image
         kept across swap-in; the index is about to be recycled, so the
         image must not outlive the object. *)
      invalidate_stale_image t e.Object_table.index;
    release_to_owner table e.Object_table.index t.st

  let touch t access =
    let table = K.Machine.table t.machine in
    let e = Object_table.entry_of_access table access in
    if e.Object_table.swapped_out then begin
      (match t.obs with
      | Some o ->
        Obs.Metrics.incr o.o_faults;
        K.Machine.emit t.machine Obs.Event.Swap_fault ~name_id:0 ~detail_id:0
          ~a:e.Object_table.index ~b:e.Object_table.data_length
      | None -> ());
      swap_in t e.Object_table.index
    end;
    Vm.Resident_set.touch t.rset ~index:e.Object_table.index
      ~now:(K.Machine.now t.machine)

  let stats t = t.st
end
