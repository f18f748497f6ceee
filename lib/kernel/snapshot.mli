(** Machine introspection from outside the protection boundary.

    A consistent summary of processes, processors, ports, and the object
    table — the simulator's logic-analyzer view, deliberately not an iMAX
    service (inside the capability system there is no central table of all
    processes, §7.1). *)

type process_line = {
  p_name : string;
  p_status : string;
  p_priority : int;
  p_cpu_ns : int;
  p_dispatches : int;
  p_preemptions : int;
  p_messages : int * int;  (** sent, received *)
}

type processor_line = {
  c_id : int;
  c_clock_ns : int;
  c_busy_ns : int;
  c_idle_ns : int;
  c_utilization : float;
  c_dispatches : int;
  c_online : bool;
}

type port_line = {
  q_index : int;
  q_capacity : int;
  q_depth : int;
  q_sends : int;
  q_receives : int;
  q_blocks : int * int;  (** send, receive *)
}

type sro_line = {
  s_index : int;
  s_level : int;
  s_free_bytes : int;
  s_largest_free : int;  (** largest single free region *)
  s_region_count : int;  (** free-list fragmentation *)
  s_live_objects : int;
}

type t = {
  now_ns : int;
  processes : process_line list;
  processors : processor_line list;
  ports : port_line list;
  sros : sro_line list;
  objects_live : int;
  table_capacity : int;
  barrier_shades : int;
  fault_count : int;
  gc_phase : string;  (** "idle", "mark" or "sweep" (metrics gauge) *)
  events_emitted : int;
  events_retained : int;
  events_dropped : int;
}

val capture : Machine.t -> t

(** Multi-line human-readable rendering. *)
val render : t -> string

(** Full deterministic machine image, for checkpoint verification.

    Every piece of kernel state that shapes future execution, rendered in
    a fixed order: per-object descriptors with hex data images and access
    parts, port queues in service order, process records (dispatching
    parameters, statistics, park state), processor clocks, SRO free-store
    shapes, recorded faults, pending injections with armed one-shot
    counters, and trace totals.  Two machines that replayed the same
    history render byte-identical images, so comparing images proves a
    restore reproduced the killed run's state exactly.  OCaml coroutine
    continuations are the one thing a textual image cannot carry — which
    is precisely why checkpoint/restore is replay-based (DESIGN.md §10). *)
val state_image : Machine.t -> string
