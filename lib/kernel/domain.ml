(* Domain objects (paper §2): "the 432 supports small protection domains
   with domain objects.  These correspond to the package construct in Ada
   ... a structure for grouping and restricting accesses to the
   implementation of a module.  The 432 subprogram call instruction performs
   the dynamic transition between domains."

   A domain's access part holds the capabilities that constitute the
   package's private environment; the entry points are OCaml closures that
   run with virtual-time accounting for the ~65 us domain switch. *)

open I432

type t = {
  self : int;
  domain_name : string;
  mutable calls : int;
  mutable returns : int;
  mutable max_depth : int;
  mutable depth : int;
}

type Object_table.payload += Domain_state of t

let state_of table access =
  Segment.check_type table access Obj_type.Domain;
  match Object_table.payload table (Object_table.lookup_access table access) with
  | Some (Domain_state d) -> d
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "domain object has no domain state")

let create table sro_access ~name =
  let access =
    Sro.allocate table sro_access ~data_length:0 ~access_length:16
      ~otype:Obj_type.Domain
  in
  let self = Object_table.lookup_access table access in
  Object_table.set_payload table self
    (Some
       (Domain_state
          { self; domain_name = name; calls = 0; returns = 0; max_depth = 0;
            depth = 0 }));
  access

let name table access = (state_of table access).domain_name
let calls table access = (state_of table access).calls

(* Store a private capability into the domain's environment. *)
let set_private table access ~slot capability =
  Segment.store_access table access ~slot (Some capability)

let get_private table access ~slot = Segment.load_access table access ~slot
