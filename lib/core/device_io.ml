(* Device-independent I/O (paper §6.3).

   "A single specification is defined for device independent input and
   another for device independent output.  Each instance of an I/O device
   may have a distinct implementation. ...  it avoids any centralized I/O
   control or interface.  Any user can create a new device implementation
   which will behave identically to existing ones without in any way
   altering system code, say to update a master I/O device list."

   The paper's Ada extension "raising packages to the status of types" maps
   directly to OCaml first-class modules: a device instance is a value of
   type [(module DEVICE)], created dynamically, with no central registry.

   "We actually go one step further ... by requiring only that a device
   implementation provide the common device independent interface as a
   subset": class-dependent interfaces (BLOCK_DEVICE, TAPE_DEVICE) include
   DEVICE, and instances are downcast by the holder, never by a central
   controller. *)

open I432
module K = I432_kernel

exception Device_error of string

(* The device-independent interface: every device provides at least this. *)
module type DEVICE = sig
  val name : string
  val kind : string

  (** Device-independent output: write a line/record. *)
  val write : string -> unit

  (** Device-independent input: read the next record; [None] at end. *)
  val read : unit -> string option

  val close : unit -> unit
  val is_open : unit -> bool
end

(* Class-dependent but device-independent: block devices. *)
module type BLOCK_DEVICE = sig
  include DEVICE

  val block_size : int
  val read_block : int -> Bytes.t
  val write_block : int -> Bytes.t -> unit
  val block_count : unit -> int
end

(* Class-dependent but device-independent: tapes, with their
   device-specific operations beyond the common subset. *)
module type TAPE_DEVICE = sig
  include DEVICE

  val rewind : unit -> unit
  val position : unit -> int
  val at_end : unit -> bool
end

type device = (module DEVICE)
type block_device = (module BLOCK_DEVICE)
type tape_device = (module TAPE_DEVICE)

(* A device instance is also a 432 object, so possession of the capability
   is what authorizes use.  Each maker seals its instances with its own
   type-definition object — that is how the tape farm experiment recovers
   lost drives through the destruction filter. *)

(* ---------------- Terminal (record-oriented) ---------------- *)

let make_terminal ~name:dev_name () : device =
  let module T = struct
    let name = dev_name
    let kind = "terminal"
    let opened = ref true
    let output : string list ref = ref []
    let input : string list ref = ref []

    let check () = if not !opened then raise (Device_error (dev_name ^ ": closed"))

    let write s =
      check ();
      output := s :: !output

    let read () =
      check ();
      match !input with
      | [] -> None
      | x :: rest ->
        input := rest;
        Some x

    let close () = opened := false
    let is_open () = !opened
  end in
  (module T)

(* Test/demo hook: terminals are loopback devices; feed and drain them. *)
let make_loopback_terminal ~name:dev_name () =
  let output : string list ref = ref [] in
  let input : string list ref = ref [] in
  let module T = struct
    let name = dev_name
    let kind = "terminal"
    let opened = ref true
    let check () = if not !opened then raise (Device_error (dev_name ^ ": closed"))

    let write s =
      check ();
      output := s :: !output

    let read () =
      check ();
      match !input with
      | [] -> None
      | x :: rest ->
        input := rest;
        Some x

    let close () = opened := false
    let is_open () = !opened
  end in
  let feed lines = input := !input @ lines in
  let drain () =
    let lines = List.rev !output in
    output := [];
    lines
  in
  ((module T : DEVICE), feed, drain)

(* ---------------- Disk (block device) ---------------- *)

let make_disk ~name:dev_name ~blocks ~block_size:bs () : block_device =
  let module D = struct
    let name = dev_name
    let kind = "disk"
    let block_size = bs
    let store = Array.init blocks (fun _ -> Bytes.make bs '\000')
    let opened = ref true
    let check () = if not !opened then raise (Device_error (dev_name ^ ": closed"))

    let check_block i =
      if i < 0 || i >= blocks then
        raise (Device_error (Printf.sprintf "%s: block %d out of range" dev_name i))

    let read_block i =
      check ();
      check_block i;
      Bytes.copy store.(i)

    let write_block i b =
      check ();
      check_block i;
      if Bytes.length b <> bs then
        raise (Device_error (dev_name ^ ": bad block size"));
      store.(i) <- Bytes.copy b

    let block_count () = blocks

    (* The device-independent subset: record I/O over block 0 cursor. *)
    let cursor = ref 0

    let write s =
      check ();
      let b = Bytes.make bs '\000' in
      Bytes.blit_string s 0 b 0 (min (String.length s) bs);
      check_block !cursor;
      store.(!cursor) <- b;
      incr cursor

    let read () =
      check ();
      if !cursor >= blocks then None
      else begin
        let b = store.(!cursor) in
        incr cursor;
        let len =
          match Bytes.index_opt b '\000' with
          | Some i -> i
          | None -> Bytes.length b
        in
        Some (Bytes.sub_string b 0 len)
      end

    let close () = opened := false
    let is_open () = !opened
  end in
  (module D)

(* ---------------- Tape drive ---------------- *)

(* Tape drives are the paper's lost-object example (§8.2): "an
   implementation of a tape drive in which each drive is represented by an
   object of type tape_drive".  The farm below is the type manager. *)

let make_tape ~name:dev_name ~capacity () : tape_device =
  let module T = struct
    let name = dev_name
    let kind = "tape"
    let records : string array = Array.make capacity ""
    let used = ref 0
    let pos = ref 0
    let opened = ref true
    let check () = if not !opened then raise (Device_error (dev_name ^ ": closed"))

    let write s =
      check ();
      if !used >= capacity then raise (Device_error (dev_name ^ ": tape full"));
      records.(!used) <- s;
      incr used;
      pos := !used

    let read () =
      check ();
      if !pos >= !used then None
      else begin
        let r = records.(!pos) in
        incr pos;
        Some r
      end

    let rewind () =
      check ();
      pos := 0

    let position () = !pos
    let at_end () = !pos >= !used
    let close () = opened := false
    let is_open () = !opened
  end in
  (module T)

(* ---------------- The tape-drive type manager ---------------- *)

type tape_farm = {
  machine : K.Machine.t;
  typedef : Access.t;  (* tape_drive type definition *)
  filter_port : Access.t;  (* destruction filter for lost drives *)
  mutable pool : (int * tape_device) list;  (* object index -> device *)
  mutable free_drives : Access.t list;
  mutable issued : int;
  total : int;
}

(* Create a farm of [drives] physical tape drives, each represented by a
   sealed tape_drive object.  The farm registers a destruction filter so
   drives lost by careless clients return to the pool instead of vanishing
   with the garbage. *)
let create_tape_farm machine ~drives =
  let table = K.Machine.table machine in
  let sro = K.Machine.global_sro machine in
  let typedef = Type_def.create table sro ~name:"tape_drive" in
  let filter_port =
    K.Machine.create_port machine ~capacity:(max 4 drives) ~discipline:K.Port.Fifo ()
  in
  I432_gc.Destruction_filter.register table ~typedef ~port:filter_port;
  let farm =
    {
      machine;
      typedef;
      filter_port;
      pool = [];
      free_drives = [];
      issued = 0;
      total = drives;
    }
  in
  for i = 0 to drives - 1 do
    let dev = make_tape ~name:(Printf.sprintf "tape%d" i) ~capacity:4096 () in
    let handle =
      Type_def.create_instance table typedef sro ~data_length:16
        ~access_length:0
    in
    farm.pool <- (Access.index handle, dev) :: farm.pool;
    farm.free_drives <- handle :: farm.free_drives;
    (* Pooled drives are reachable from the farm's domain: root them. *)
    K.Machine.add_root machine handle
  done;
  farm

(* Issue a drive capability to a client.  The client holds the only access
   descriptor; the farm deliberately forgets it (no central table of issued
   drives — §7.1), which is what makes loss possible. *)
let acquire_drive farm =
  match farm.free_drives with
  | [] -> None
  | handle :: rest ->
    farm.free_drives <- rest;
    farm.issued <- farm.issued + 1;
    (* The client now holds the only access: the farm forgets it. *)
    K.Machine.remove_root farm.machine handle;
    Some handle

(* Resolve a drive capability to its device implementation; only instances
   sealed by this farm's type definition are accepted. *)
let device_of farm handle =
  let table = K.Machine.table farm.machine in
  Type_def.check_instance table farm.typedef handle;
  match List.assoc_opt (Access.index handle) farm.pool with
  | Some dev -> dev
  | None -> raise (Device_error "unknown tape drive")

(* Orderly return of a drive. *)
let release_drive farm handle =
  let table = K.Machine.table farm.machine in
  Type_def.check_instance table farm.typedef handle;
  let (module T) = device_of farm handle in
  T.rewind ();
  farm.free_drives <- handle :: farm.free_drives;
  K.Machine.add_root farm.machine handle

(* Drain the destruction filter: every corpse is a drive some client lost.
   Rewind it and return it to the pool.  Must run inside a process body.
   Returns the number recovered. *)
let recover_lost_drives farm =
  let corpses =
    I432_gc.Destruction_filter.drain farm.machine ~port:farm.filter_port
      ~finalize:(fun corpse ->
        let (module T) = device_of farm corpse in
        T.rewind ();
        farm.free_drives <- corpse :: farm.free_drives;
        K.Machine.add_root farm.machine corpse)
  in
  List.length corpses

let free_drive_count farm = List.length farm.free_drives
let farm_typedef farm = farm.typedef
