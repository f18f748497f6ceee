(* Processor objects.

   Each general data processor has its own virtual clock; the machine's run
   loop always advances the processor with the smallest clock, which makes
   the multiprocessor interleaving deterministic.  Ready processes are bound
   to idle processors by the hardware dispatching algorithm (paper §2). *)

open I432

type t = {
  id : int;
  self : int;  (* object-table index of the processor object *)
  mutable clock_ns : int;
  mutable current : int;  (* running process object index; -1 for none *)
  mutable busy_ns : int;
  mutable idle_ns : int;
  mutable dispatches : int;
  mutable online : bool;  (* a hard-faulted GDP goes offline forever *)
  mutable transient_pending : bool;  (* next charged instruction faults *)
}

type Object_table.payload += Processor_state of t

let make ~id ~self =
  {
    id;
    self;
    clock_ns = 0;
    current = -1;
    busy_ns = 0;
    idle_ns = 0;
    dispatches = 0;
    online = true;
    transient_pending = false;
  }


(* Utilization over the life of the run. *)
let utilization t =
  let total = t.busy_ns + t.idle_ns in
  if total = 0 then 0.0 else float_of_int t.busy_ns /. float_of_int total
