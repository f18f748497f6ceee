(* Object filing: type-preserving passive storage (paper §7.2, and the
   companion object-filing paper it cites).

   "By the definition of Ada, if a storage system exists before the
   compilation of a package, then it cannot know of and therefore cannot
   preserve the type of some object that it is asked to store. ...  No
   matter what path a system object follows within the 432, its
   hardware-recognized type identity is guaranteed to be preserved and
   checked, either by the hardware or by object filing."

   This module is the minimal filing system this paper relies on: a passive
   store that checkpoints an object's data image *and* its hardware type,
   and reconstructs the object on retrieval with the type intact — so a
   sealed Custom object comes back sealed, and a retrieval asserting the
   wrong type faults rather than producing an untyped blob. *)

open I432
module K = I432_kernel

type filed = {
  image : Bytes.t;
  filed_type : Obj_type.t;
  filed_level : int;
  access_length : int;
}

(* A wire node is one object of a captured composite: its data image, its
   hardware type, and its outgoing access slots as (slot, target serial,
   rights) triples.  The representation is machine-independent — serials
   replace table indices — so a wire value can cross to another machine's
   heap (the interconnect's marshalling format) as well as sit in the
   filing store. *)
type wire_node = {
  w_image : Bytes.t;
  w_type : Obj_type.t;
  w_access_length : int;
  w_edges : (int * int * Rights.t) list;  (* slot, target serial, rights *)
}

(* serial 0 is the root; [w_root_rights] are the rights the presented root
   descriptor carried (post-mask), restored on reconstruction. *)
type wire = { w_root_rights : Rights.t; w_nodes : wire_node array }

type t = {
  machine : K.Machine.t;
  files : (string, filed) Hashtbl.t;
  graphs : (string, wire) Hashtbl.t;
}

let create machine =
  { machine; files = Hashtbl.create 16; graphs = Hashtbl.create 16 }

(* File an object under [key]: its data image and type identity are
   captured.  Access parts are not filed (a passive store cannot hold live
   capabilities; the real system transitively filed composites, which is
   beyond this paper's scope). *)
let store t ~key access =
  let table = K.Machine.table t.machine in
  let i = Object_table.lookup_access table access in
  if not (Rights.has_read (Access.rights access)) then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "read"; held = Access.rights access });
  let image =
    K.Machine.read_bytes t.machine access ~offset:0
      ~len:(Object_table.data_length table i)
  in
  Hashtbl.replace t.files key
    {
      image;
      filed_type = Object_table.otype table i;
      filed_level = Object_table.level table i;
      access_length = Array.length (Object_table.access_part table i);
    }

exception Not_filed of string

(* Retrieve a fresh object carrying the filed data and the filed type.  The
   object is allocated from [sro] (default: the global heap). *)
let retrieve t ?sro ~key () =
  let sro = match sro with Some s -> s | None -> K.Machine.global_sro t.machine in
  match Hashtbl.find_opt t.files key with
  | None -> raise (Not_filed key)
  | Some f ->
    let table = K.Machine.table t.machine in
    let access =
      K.Machine.allocate t.machine sro ~data_length:(Bytes.length f.image)
        ~access_length:f.access_length ~otype:Obj_type.Generic
    in
    if Bytes.length f.image > 0 then
      K.Machine.write_bytes t.machine access ~offset:0 f.image;
    (* Restore the hardware type identity. *)
    Object_table.set_otype table
      (Object_table.lookup_access table access)
      f.filed_type;
    access

(* Retrieve with a type assertion: the typed channel of §7.2. *)
let retrieve_as t ?sro ~key ~expected () =
  let access = retrieve t ?sro ~key () in
  Segment.check_type (K.Machine.table t.machine) access expected;
  access

(* ------------------------------------------------------------------ *)
(* Composite filing                                                    *)
(* ------------------------------------------------------------------ *)

(* A filed composite holds the data images and types of every object
   reachable from the root through access parts, plus the edge structure,
   so the graph (including cycles and sharing) is rebuilt isomorphic on
   retrieval.  This is the slice of the companion filing paper that this
   paper's type-preservation claim needs for composite objects.

   The same capture/reconstruct pair doubles as the interconnect's wire
   codec: capture on the sending node, reconstruct on the receiving one.
   [mask] is intersected into every captured rights set — both the root's
   and every edge's — so a descriptor crossing a machine boundary can
   never arrive holding more authority than the exporter allowed. *)

(* Serialize the reachable graph with a depth-first walk; serials are
   assigned in discovery order so reconstruction is deterministic. *)
let capture machine ?(mask = Rights.full) root =
  let table = K.Machine.table machine in
  let image access i =
    K.Machine.read_bytes machine access ~offset:0
      ~len:(Object_table.data_length table i)
  in
  let make_node w_image i w_edges =
    {
      w_image;
      w_type = Object_table.otype table i;
      w_access_length = Array.length (Object_table.access_part table i);
      w_edges;
    }
  in
  let w_root_rights = Rights.restrict (Access.rights root) mask in
  let root_index = Object_table.lookup_access table root in
  if Array.for_all Option.is_none (Object_table.access_part table root_index)
  then
    (* A leaf — every request message is one: the walk would find no edge,
       so skip its serial table. *)
    {
      w_root_rights;
      w_nodes = [| make_node (image root root_index) root_index [] |];
    }
  else begin
    let serial_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let acc : (int * wire_node) list ref = ref [] in
    let count = ref 0 in
    let rec walk access =
      let i = Object_table.lookup_access table access in
      match Hashtbl.find_opt serial_of i with
      | Some serial -> serial
      | None ->
        let serial = !count in
        incr count;
        Hashtbl.add serial_of i serial;
        let image = image access i in
        (* Reserve our slot in discovery order, then fill edges after the
           children are walked (placeholder updated in place). *)
        let edges = ref [] in
        Array.iteri
          (fun slot stored ->
            match stored with
            | Some child ->
              let rights = Rights.restrict (Access.rights child) mask in
              edges := (slot, walk child, rights) :: !edges
            | None -> ())
          (Object_table.access_part table i);
        acc := (serial, make_node image i (List.rev !edges)) :: !acc;
        serial
    in
    let root_serial = walk root in
    assert (root_serial = 0);
    let w_nodes = Array.make !count (List.assoc 0 !acc) in
    List.iter (fun (serial, node) -> w_nodes.(serial) <- node) !acc;
    { w_root_rights; w_nodes }
  end

(* Rebuild a captured graph on [machine]'s heap: allocate every node,
   restore images and types, then wire the access parts with the captured
   (masked) rights.  Cycles work because allocation precedes wiring. *)
let reconstruct machine ?sro wire =
  let sro = match sro with Some s -> s | None -> K.Machine.global_sro machine in
  let table = K.Machine.table machine in
  let fresh =
    Array.map
      (fun node ->
        let access =
          K.Machine.allocate machine sro
            ~data_length:(Bytes.length node.w_image)
            ~access_length:node.w_access_length ~otype:Obj_type.Generic
        in
        if Bytes.length node.w_image > 0 then
          K.Machine.write_bytes machine access ~offset:0 node.w_image;
        Object_table.set_otype table
          (Object_table.lookup_access table access)
          node.w_type;
        access)
      wire.w_nodes
  in
  Array.iteri
    (fun serial node ->
      List.iter
        (fun (slot, target, rights) ->
          Segment.store_access table fresh.(serial) ~slot
            (Some (Access.restrict fresh.(target) rights)))
        node.w_edges)
    wire.w_nodes;
  Access.restrict fresh.(0) wire.w_root_rights

let wire_nodes wire = Array.length wire.w_nodes

(* ------------------------------------------------------------------ *)
(* Binary wire codec                                                   *)
(* ------------------------------------------------------------------ *)

(* The persistent encoding of a wire value, used by the filing store's
   journal (lib/store).  Deterministic: the same wire always encodes to
   the same bytes, because capture assigns serials in discovery order and
   every field below is written in a fixed order.  Little-endian 32-bit
   lengths; one version byte so the format can evolve without silently
   misreading old journals. *)

exception Corrupt_wire of string

let wire_format_version = 1

let rights_to_byte (r : Rights.t) =
  (if r.Rights.read then 1 else 0)
  lor (if r.Rights.write then 2 else 0)
  lor (r.Rights.type_rights lsl 2)

let rights_of_byte b =
  {
    Rights.read = b land 1 <> 0;
    write = b land 2 <> 0;
    type_rights = (b lsr 2) land 7;
  }

let otype_tag = function
  | Obj_type.Generic -> 0
  | Obj_type.Processor -> 1
  | Obj_type.Process -> 2
  | Obj_type.Port -> 3
  | Obj_type.Dispatching_port -> 4
  | Obj_type.Storage_resource -> 5
  | Obj_type.Domain -> 6
  | Obj_type.Context -> 7
  | Obj_type.Type_definition -> 8
  | Obj_type.Custom _ -> 9

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let encode_wire wire =
  let buf = Buffer.create 256 in
  Buffer.add_char buf (Char.chr wire_format_version);
  Buffer.add_char buf (Char.chr (rights_to_byte wire.w_root_rights));
  put_u32 buf (Array.length wire.w_nodes);
  Array.iter
    (fun node ->
      Buffer.add_char buf (Char.chr (otype_tag node.w_type));
      (match node.w_type with
      | Obj_type.Custom id -> put_u32 buf id
      | _ -> ());
      put_u32 buf (Bytes.length node.w_image);
      Buffer.add_bytes buf node.w_image;
      put_u32 buf node.w_access_length;
      put_u32 buf (List.length node.w_edges);
      List.iter
        (fun (slot, target, rights) ->
          put_u32 buf slot;
          put_u32 buf target;
          Buffer.add_char buf (Char.chr (rights_to_byte rights)))
        node.w_edges)
    wire.w_nodes;
  Buffer.to_bytes buf

let decode_wire bytes =
  let pos = ref 0 in
  let len = Bytes.length bytes in
  let need n what =
    if !pos + n > len then
      raise (Corrupt_wire (Printf.sprintf "truncated %s at offset %d" what !pos))
  in
  let u8 what =
    need 1 what;
    let v = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v
  in
  let u32 what =
    need 4 what;
    let b i = Char.code (Bytes.get bytes (!pos + i)) in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    pos := !pos + 4;
    if v < 0 then raise (Corrupt_wire (Printf.sprintf "negative %s" what));
    v
  in
  let version = u8 "version" in
  if version <> wire_format_version then
    raise (Corrupt_wire (Printf.sprintf "unknown wire version %d" version));
  let root_rights = rights_of_byte (u8 "root rights") in
  let count = u32 "node count" in
  (* Each node costs at least 10 bytes on the wire; an impossible count
     cannot force a huge allocation from a short buffer. *)
  if count > len then raise (Corrupt_wire "node count exceeds buffer");
  let nodes =
    Array.init count (fun _ ->
        let tag = u8 "type tag" in
        let w_type =
          match tag with
          | 0 -> Obj_type.Generic
          | 1 -> Obj_type.Processor
          | 2 -> Obj_type.Process
          | 3 -> Obj_type.Port
          | 4 -> Obj_type.Dispatching_port
          | 5 -> Obj_type.Storage_resource
          | 6 -> Obj_type.Domain
          | 7 -> Obj_type.Context
          | 8 -> Obj_type.Type_definition
          | 9 -> Obj_type.Custom (u32 "custom type id")
          | n -> raise (Corrupt_wire (Printf.sprintf "unknown type tag %d" n))
        in
        let image_len = u32 "image length" in
        need image_len "image";
        let w_image = Bytes.sub bytes !pos image_len in
        pos := !pos + image_len;
        let w_access_length = u32 "access length" in
        let edge_count = u32 "edge count" in
        if edge_count > len then raise (Corrupt_wire "edge count exceeds buffer");
        let edges = ref [] in
        for _ = 1 to edge_count do
          let slot = u32 "edge slot" in
          let target = u32 "edge target" in
          let rights = rights_of_byte (u8 "edge rights") in
          if target >= count then
            raise (Corrupt_wire (Printf.sprintf "edge target %d out of range" target));
          if slot >= w_access_length then
            raise (Corrupt_wire (Printf.sprintf "edge slot %d out of range" slot));
          edges := (slot, target, rights) :: !edges
        done;
        { w_image; w_type; w_access_length; w_edges = List.rev !edges })
  in
  if !pos <> len then raise (Corrupt_wire "trailing bytes after last node");
  if count = 0 then raise (Corrupt_wire "empty wire has no root");
  { w_root_rights = root_rights; w_nodes = nodes }

let wire_equal a b =
  Rights.equal a.w_root_rights b.w_root_rights
  && Array.length a.w_nodes = Array.length b.w_nodes
  && Array.for_all2
       (fun na nb ->
         Bytes.equal na.w_image nb.w_image
         && Obj_type.equal na.w_type nb.w_type
         && na.w_access_length = nb.w_access_length
         && List.length na.w_edges = List.length nb.w_edges
         && List.for_all2
              (fun (s1, t1, r1) (s2, t2, r2) ->
                s1 = s2 && t1 = t2 && Rights.equal r1 r2)
              na.w_edges nb.w_edges)
       a.w_nodes b.w_nodes

(* Deterministic size model for bandwidth accounting: a 16-byte header per
   node, the data image, and 12 bytes per edge (slot + serial + rights). *)
let wire_bytes wire =
  Array.fold_left
    (fun acc node ->
      acc + 16 + Bytes.length node.w_image + (12 * List.length node.w_edges))
    0 wire.w_nodes

let store_graph t ~key root =
  let wire = capture t.machine root in
  Hashtbl.replace t.graphs key wire;
  wire_nodes wire

let retrieve_graph t ?sro ~key () =
  match Hashtbl.find_opt t.graphs key with
  | None -> raise (Not_filed key)
  | Some wire ->
    let root = reconstruct t.machine ?sro wire in
    root

let graph_size t ~key =
  match Hashtbl.find_opt t.graphs key with
  | Some g -> Some (Array.length g.w_nodes)
  | None -> None

let filed_type t ~key =
  match Hashtbl.find_opt t.files key with
  | Some f -> Some f.filed_type
  | None -> None

let mem t ~key = Hashtbl.mem t.files key
let remove t ~key = Hashtbl.remove t.files key
let count t = Hashtbl.length t.files
