(** Machine introspection from outside the protection boundary.

    One walk of a machine's state, {!fold}, and the views read from it:
    the full {!state_image} for checkpoint verification and the operator
    {!summary} of processors, processes, ports and SROs.  The
    fault-injection audit ([I432_fi.Fi.check_invariants]) is a fold too.
    This is the simulator's logic-analyzer view, deliberately not an iMAX
    service (inside the capability system there is no central table of
    all processes, §7.1). *)

(** A valid descriptor's payload, as the walk classifies it.  The
    records are the kernel's own, not copies. *)
type obj =
  | Plain
      (** no kernel payload: data objects, and the records of layers
          above the kernel *)
  | Port of Port.t
  | Process of Process.t
  | Processor of Processor.t
  | Sro of I432.Access.t
      (** a storage resource object: a full-rights AD to read it through
          {!I432.Sro} *)

(** [fold machine ~init f] calls [f index obj acc] on each valid
    descriptor of the machine's object table exactly once, in ascending
    index order, threading the accumulator.  It builds no list. *)
val fold : Machine.t -> init:'a -> (int -> obj -> 'a -> 'a) -> 'a

(** Multi-line human-readable summary: time, live objects and faults,
    the collector's phase and trace totals, then each processor, each
    process in spawn order, each port and each SRO. *)
val summary : Machine.t -> string

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
