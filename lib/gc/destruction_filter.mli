(** Destruction filters: a type manager's chance to disassemble its objects
    as they become garbage (paper §8.2).

    For user-defined types the filter port is recorded on the
    type-definition object; process objects (a hardware type) use the
    dedicated registration, mirroring the paper's first release, which used
    the facility "only to recover lost process objects". *)

open I432

(** Register the port that receives terminated-and-unreferenced process
    objects.  The registration lives on the machine's object table, so
    independent machines (cluster nodes on different OCaml domains) never
    share it. *)
val register_process_filter : Object_table.t -> Access.t -> unit

val clear_process_filter : Object_table.t -> unit
val process_filter_port : Object_table.t -> int option

(** Register a filter port for a user-defined type. *)
val register : Object_table.t -> typedef:Access.t -> port:Access.t -> unit

(** Drain every corpse currently queued at [port], calling [finalize] on
    each.  Must be called from inside a process body. *)
val drain :
  I432_kernel.Machine.t -> port:Access.t -> finalize:(Access.t -> unit) -> Access.t list
