(** The multiuser swap working set (DESIGN.md §14): a population far
    larger than its RAM envelope, on a swapping memory manager with a
    store-backed swap device, and users who touch random objects and
    verify each one's payload.  [imax_ctl swap] and the macro bench's
    swap sweep both boot, drive and tally it here. *)

(** The heap around a RAM envelope: [ram_bytes + max ram_bytes 64 KiB]. *)
val heap_bytes : ram_bytes:int -> int

type t

(** Open a fresh store at [journal] (fsync every [sync_every] appends),
    boot [config] on it with [heap_bytes], [memory_bytes = max 4 MiB
    (2 * heap + 1 MiB)], [swap_ram_bytes] and [swap_device] set (the
    caller chooses every other field), and write [objects] objects of
    [object_bytes] bytes, object [i] holding [i + 1].  Each [(id,
    requests)] of [users] spawns ["user<id>"] with a PRNG seeded [seed +
    id * 7919]; for each request [(at_ns, touches, units)] it waits for
    [at_ns], reads back [touches] objects it draws (retrying one evicted
    again before the read), then computes [units]. *)
val boot :
  config:Imax.System.config ->
  journal:string ->
  sync_every:int ->
  ram_bytes:int ->
  objects:int ->
  object_bytes:int ->
  seed:int ->
  users:(int * (int * int * int) list) list ->
  t

val machine : t -> I432_kernel.Machine.t
val store : t -> I432_store.Store.t

type tally = {
  touches : int;  (** payload reads *)
  corrupt : int;  (** payload reads that came back wrong *)
  completed : int;  (** requests served *)
  faults : int;  (** the [swap.faults] counter *)
  swap_ins : int;
  swap_outs : int;
  pressure : int;  (** allocations that first found storage exhausted *)
  resident : (int * int) option;  (** resident objects and bytes *)
  device : (string * I432_vm.Swap_device.stats) option;  (** name, traffic *)
}

(** The run's tallies as they stand now. *)
val tally : t -> tally
