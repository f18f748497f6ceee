(** Device-independent I/O (paper §6.3).

    Each device instance is its own package — here a first-class module —
    created dynamically, with no central device table.  Class-dependent
    interfaces (block devices, tapes) include the common interface as a
    subset, so any device can be used through the device-independent view. *)

open I432
module K := I432_kernel

exception Device_error of string

(** The device-independent subset every device provides. *)
module type DEVICE = sig
  val name : string
  val kind : string
  val write : string -> unit
  val read : unit -> string option
  val close : unit -> unit
  val is_open : unit -> bool
end

module type BLOCK_DEVICE = sig
  include DEVICE

  val block_size : int
  val read_block : int -> Bytes.t
  val write_block : int -> Bytes.t -> unit
  val block_count : unit -> int
end

module type TAPE_DEVICE = sig
  include DEVICE

  val rewind : unit -> unit
  val position : unit -> int
  val at_end : unit -> bool
end

type device = (module DEVICE)
type block_device = (module BLOCK_DEVICE)
type tape_device = (module TAPE_DEVICE)

val make_terminal : name:string -> unit -> device

(** A terminal plus [feed] (inject input lines) and [drain] (collect
    output) hooks for tests and demos. *)
val make_loopback_terminal :
  name:string -> unit -> device * (string list -> unit) * (unit -> string list)

val make_disk : name:string -> blocks:int -> block_size:int -> unit -> block_device
val make_tape : name:string -> capacity:int -> unit -> tape_device

(** {1 The tape-drive type manager (paper §8.2)}

    Each drive is a sealed [tape_drive] object; clients hold the only
    access descriptor.  The farm registers a destruction filter so drives
    lost by careless clients return to the pool after collection. *)

type tape_farm

val create_tape_farm : K.Machine.t -> drives:int -> tape_farm

(** Hand a drive capability to a client ([None] when the pool is empty);
    the farm deliberately forgets it. *)
val acquire_drive : tape_farm -> Access.t option

(** Resolve a drive capability; only instances sealed by this farm are
    accepted. *)
val device_of : tape_farm -> Access.t -> tape_device

val release_drive : tape_farm -> Access.t -> unit

(** Drain the destruction filter, rewinding and pooling each recovered
    drive.  Must run inside a process body. *)
val recover_lost_drives : tape_farm -> int

val free_drive_count : tape_farm -> int
val farm_typedef : tape_farm -> Access.t
