(** Processor objects: each general data processor carries a private
    virtual clock; the run loop always advances the processor with the
    smallest clock, making the multiprocessor interleaving deterministic. *)

open I432

type t = {
  id : int;
  self : int;  (** object-table index of the processor object *)
  mutable clock_ns : int;
  mutable current : int;  (** running process object index; [-1] for none *)
  mutable busy_ns : int;
  mutable idle_ns : int;
  mutable dispatches : int;
  mutable online : bool;
      (** [false] once the GDP has hard-faulted; it never dispatches again *)
  mutable transient_pending : bool;
      (** set by fault injection: the next instruction charged on this
          processor raises a {!I432.Fault.Transient} fault *)
}

type Object_table.payload += Processor_state of t

val make : id:int -> self:int -> t

(** Busy fraction over the life of the run. *)
val utilization : t -> float
