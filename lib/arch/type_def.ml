(* Type-definition objects: the 432's user-defined type facility (paper
   §7.2).  A type manager creates a type-definition object; objects sealed
   with it carry a hardware-checked Custom type "no matter what path [they]
   follow within the 432".  The type-definition object also records the
   type's destruction filter port (paper §8.2), which the garbage collector
   consults when an object of the type becomes garbage.

   Type rights on a type-definition access:
     t1 = may seal objects to this type (create right)
     t2 = may amplify rights on objects of this type (type-manager right)
*)

type state = {
  id : int;
  name : string;
  mutable filter_port : int option;  (* object index of the filter port *)
  mutable sealed_count : int;
}

type Object_table.payload += Typedef_state of state

let state_of table access =
  Segment.check_type table access Obj_type.Type_definition;
  match Object_table.payload table (Object_table.lookup_access table access) with
  | Some (Typedef_state s) -> s
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "type-definition object has no state")

(* Create a new type; the returned full-rights access is the type manager's
   privilege and should be confined to the managing package.  Type ids are
   drawn from the table's own counter — per machine, never shared across
   OCaml domains — so type identity is local to a machine; an id carried
   across the wire stays a seal the destination cannot forge or amplify,
   but it does not resolve to the destination's type managers. *)
let create table sro_access ~name =
  let access =
    Sro.allocate table sro_access ~data_length:0 ~access_length:4
      ~otype:Obj_type.Type_definition
  in
  let id = Object_table.fresh_typedef_id table in
  Object_table.set_payload table
    (Object_table.lookup_access table access)
    (Some (Typedef_state { id; name; filter_port = None; sealed_count = 0 }));
  access

let id table access = (state_of table access).id
let name table access = (state_of table access).name

(* Seal a generic object so the hardware thereafter recognizes it as an
   instance of this type.  Requires the create right (t1). *)
let seal table typedef ~target =
  if not (Rights.has_type_right (Access.rights typedef) Rights.t1) then
    Fault.raise_fault
      (Fault.Rights_violation
         { needed = "seal (t1)"; held = Access.rights typedef });
  let s = state_of table typedef in
  let target = Object_table.lookup_access table target in
  if not (Object_table.has_otype table target Obj_type.Generic) then
    Fault.raise_fault
      (Fault.Type_mismatch
         { expected = Obj_type.Generic; actual = Object_table.otype table target });
  Object_table.set_otype table target (Obj_type.Custom s.id);
  s.sealed_count <- s.sealed_count + 1

(* Allocate-and-seal in one step, the common idiom of a type manager. *)
let create_instance table typedef sro_access ~data_length ~access_length =
  let instance =
    Sro.allocate table sro_access ~data_length ~access_length
      ~otype:Obj_type.Generic
  in
  seal table typedef ~target:instance;
  instance

(* Check that [access] designates an instance of this type. *)
let check_instance table typedef access =
  let s = state_of table typedef in
  Segment.check_type table access (Obj_type.Custom s.id)

let is_instance table typedef access =
  match check_instance table typedef access with
  | () -> true
  | exception Fault.Fault _ -> false

(* Rights amplification: only the type manager (t2 on the type definition)
   can raise the rights on an instance of its type.  This is how a package
   turns the weak descriptor a client presents back into a working one. *)
let amplify table typedef instance ~rights =
  if not (Rights.has_type_right (Access.rights typedef) Rights.t2) then
    Fault.raise_fault
      (Fault.Rights_violation
         { needed = "amplify (t2)"; held = Access.rights typedef });
  check_instance table typedef instance;
  Access.make ~index:(Access.index instance) ~rights

let sealed_count table access = (state_of table access).sealed_count

(* Destruction-filter plumbing (paper §8.2): the garbage collector looks the
   filter port up by the Custom id of the dying object. *)

let set_filter_port table typedef ~port_index =
  let s = state_of table typedef in
  s.filter_port <- Some port_index

let clear_filter_port table typedef =
  let s = state_of table typedef in
  s.filter_port <- None

let filter_port table typedef = (state_of table typedef).filter_port

(* Find the filter port registered for a Custom type id, scanning the table
   for its type-definition object.  Used by the collector's sweep. *)
let filter_port_for_id table ~id =
  let found = ref None in
  Object_table.iter_valid
    (fun i ->
      match Object_table.payload table i with
      | Some (Typedef_state s) when s.id = id ->
        (match s.filter_port with Some p -> found := Some p | None -> ())
      | Some _ | None -> ())
    table;
  !found
