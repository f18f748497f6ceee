(* Context objects (paper §2, §5).

   "The 432 subprogram call instruction performs the dynamic transition
   between domains, providing the proper addressing environment for any
   invoked subprogram via a context object."  And: "Each context object
   (i.e., activation record) within a process has a level one greater than
   that of its caller."

   A context is a real 432 object holding the activation's capability
   locals in its access part.  Its lifetime level equals its dynamic depth,
   so the hardware level rule stops any capability for a deeper (shorter
   lived) object from escaping into a shallower one — the mechanism that
   makes local heaps safe. *)

open I432

type t = {
  self : int;
  depth : int;  (* dynamic call depth = lifetime level *)
  caller : int option;  (* object index of the caller's context *)
  mutable live : bool;
}

type Object_table.payload += Context_state of t

let state_of table access =
  Segment.check_type table access Obj_type.Context;
  match Object_table.payload table (Object_table.lookup_access table access) with
  | Some (Context_state c) -> c
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "context object has no context state")

(* Create an activation record at [depth]; its descriptor's level is the
   depth, which is what the store-access level check consults. *)
let create table sro_access ~depth ~caller ~slots =
  let access =
    Sro.allocate table sro_access ~data_length:0 ~access_length:slots
      ~otype:Obj_type.Context
  in
  let self = Object_table.lookup_access table access in
  Object_table.set_level table self depth;
  Object_table.set_payload table self
    (Some (Context_state { self; depth; caller; live = true }));
  access

let depth table access = (state_of table access).depth
let caller table access = (state_of table access).caller

(* Capability locals: ordinary checked access-part stores, so the level
   rule applies — a deeper context's object cannot be parked here. *)
let set_local table access ~slot v = Segment.store_access table access ~slot v
let get_local table access ~slot = Segment.load_access table access ~slot

(* Return from the activation: the context dies with its frame. *)
let destroy table access =
  let c = state_of table access in
  if not c.live then Fault.raise_fault (Fault.Protocol "context already destroyed");
  c.live <- false;
  match Sro.state_of_object table ~index:c.self with
  | Some s -> Sro.release table ~sro_state:s ~index:c.self
  | None -> Object_table.free_entry table c.self
