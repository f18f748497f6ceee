(** Object filing: type-preserving passive storage (paper §7.2).

    A filed object's data image and hardware type identity are captured
    together; retrieval reconstructs the object with its type intact, so a
    sealed instance comes back sealed and a wrong type assertion faults.
    Composite filing captures the reachable graph (cycles and sharing
    included) and rebuilds it isomorphic. *)

open I432
module K := I432_kernel

type t

exception Not_filed of string

val create : K.Machine.t -> t

(** File one object's data image and type under [key]. *)
val store : t -> key:string -> Access.t -> unit

(** Recreate a filed object (allocated from [sro], default global heap). *)
val retrieve : t -> ?sro:Access.t -> key:string -> unit -> Access.t

(** Retrieve with a hardware type assertion; wrong type faults. *)
val retrieve_as :
  t -> ?sro:Access.t -> key:string -> expected:Obj_type.t -> unit -> Access.t

(** {1 Composite filing and the wire codec}

    [capture]/[reconstruct] serialize the reachable graph into a
    machine-independent value and rebuild it isomorphic (same shapes,
    types, data images, rights, sharing, and cycles) on any machine's
    heap.  The filing store uses them locally; the virtual interconnect
    uses them as its marshalling format, capturing on the sending node
    and reconstructing on the receiving one. *)

(** A captured composite: serial 0 is the root. *)
type wire

(** Capture everything reachable from the root through access parts.
    [mask] (default {!I432.Rights.full}) is intersected into the root's
    rights and every edge's rights, so an exported descriptor can never
    arrive amplified.  Serials follow discovery order, so identical
    graphs capture to identical wires. *)
val capture : K.Machine.t -> ?mask:Rights.t -> Access.t -> wire

(** Rebuild a captured graph on [machine]'s heap (allocated from [sro],
    default that machine's global heap).  Returns the new root, carrying
    the captured (masked) root rights. *)
val reconstruct : K.Machine.t -> ?sro:Access.t -> wire -> Access.t

(** Number of objects in the captured graph. *)
val wire_nodes : wire -> int

(** Deterministic serialized-size model (for link bandwidth accounting):
    16 bytes per node header, the data image, 12 bytes per edge. *)
val wire_bytes : wire -> int

(** {1 Binary wire codec}

    The persistent encoding used by the filing store's journal
    (lib/store).  [encode_wire] is deterministic — the same wire always
    yields the same bytes — so same-seed runs journal identical records.
    [decode_wire] validates everything (version, type tags, edge targets
    and slots, exact length) and raises {!Corrupt_wire} rather than
    returning a malformed graph. *)

exception Corrupt_wire of string

val encode_wire : wire -> Bytes.t
val decode_wire : Bytes.t -> wire

(** Structural equality of captured graphs (serials, types, images,
    access lengths, edges, rights — everything the codec round-trips). *)
val wire_equal : wire -> wire -> bool

(** File everything reachable from the root through access parts.
    Returns the number of objects filed. *)
val store_graph : t -> key:string -> Access.t -> int

(** Rebuild a filed graph isomorphic (fresh objects, same shapes, types,
    data, sharing, and cycles).  Returns the new root. *)
val retrieve_graph : t -> ?sro:Access.t -> key:string -> unit -> Access.t

val graph_size : t -> key:string -> int option

(** {1 Introspection} *)

val filed_type : t -> key:string -> Obj_type.t option
val mem : t -> key:string -> bool
val remove : t -> key:string -> unit
val count : t -> int
