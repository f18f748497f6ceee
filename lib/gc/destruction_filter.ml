(* Destruction filters (paper §8.2).

   "A type manager can specify to the system via a type definition object
   that it wishes to have an opportunity to see any of its objects as they
   become garbage.  The garbage collector will manufacture an access
   descriptor for such objects and send them to a port defined by the type
   manager."

   For user-defined types the registration lives on the type-definition
   object (Type_def.set_filter_port); this module adds the convenience
   wrapper and the special case the paper mentions for the first release:
   recovering lost *process* objects, which have a hardware type rather than
   a type-definition object. *)

open I432

(* Process objects have no type-definition object to hang a filter on; the
   basic process manager registers its recovery port on the machine's
   object table.  Per-table (not a module global) so cluster nodes stepped
   on different OCaml domains never share the registration — and so two
   machines in one process cannot clobber each other's recovery port. *)
let register_process_filter table port_access =
  Object_table.set_process_filter_port table (Some (Access.index port_access))

let clear_process_filter table = Object_table.set_process_filter_port table None
let process_filter_port table = Object_table.process_filter_port table

(* Register a filter for a user-defined type: garbage of that type will be
   sent to [port] instead of being freed. *)
let register table ~typedef ~port =
  Type_def.set_filter_port table typedef ~port_index:(Access.index port)

(* A type manager drains its filter port, disassembles each corpse, and
   frees the storage.  Returns the corpses drained this call. *)
let drain machine ~port ~finalize =
  let rec go acc =
    match I432_kernel.Machine.cond_receive machine ~port with
    | Some corpse ->
      finalize corpse;
      go (corpse :: acc)
    | None -> List.rev acc
  in
  go []
