(** The system-wide on-the-fly garbage collector (paper §8.1).

    Dijkstra tri-color marking with the hardware gray bit: the segment
    write barrier shades moved access descriptors; the collector runs as a
    daemon process charging virtual time for every object scanned or swept,
    so mutators on other processors genuinely overlap with collection.

    Roots: registered machine roots, live process objects (including their
    local-root shadow stacks), and all in-flight port messages.  Only
    [Generic], [Custom] and terminated [Process] objects are collected;
    sweep delivers corpses of filtered types to their destruction-filter
    port instead of freeing them. *)

type config = {
  scan_quantum : int;  (** objects marked per collector step *)
  idle_sleep_ns : int;  (** pause between collection cycles *)
  collect_processes : bool;
}

val default_config : config

type stats = {
  mutable cycles : int;
  mutable marked : int;
  mutable swept : int;
  mutable filtered : int;
  mutable processes_recovered : int;
  mutable mark_ns : int;
  mutable sweep_ns : int;
}

type t

val create : ?config:config -> I432_kernel.Machine.t -> t
val stats : t -> stats

(** Run one full collection cycle; [step] is called between scan quanta (the
    daemon yields there).  Returns the number of objects found dead. *)
val cycle : ?step:(unit -> unit) -> t -> int

(** Spawn the collector as a daemon process on the machine. *)
val spawn_daemon : ?cycles:int -> ?priority:int -> t -> I432.Access.t
