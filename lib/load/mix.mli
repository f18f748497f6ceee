(** The iAPX-432 CPI workload mix as a request recipe: five instruction
    categories with per-instruction cycle costs (alu 25, data 35, memory
    60, control 50, object-ops 120 cycles at 8 MHz), five weight
    profiles, and a charged service routine per class. *)

open I432
module K = I432_kernel

type cls = Alu | Data_transfer | Memory | Control | Object_ops

(** All classes in dense-code order. *)
val all : cls array

val class_count : int

(** Dense code (0-based index into [all]) and its inverse; [of_code]
    raises [Invalid_argument] outside the range. *)
val code : cls -> int

val of_code : int -> cls

(** Short stable name ("alu", "data", "memory", "control",
    "object-ops"); used as metrics suffixes and trace details. *)
val name : cls -> string

(** [name] of every class, in code order. *)
val names : string array

(** Per-instruction cycle cost from the CPI model. *)
val cycles : cls -> int

(** Nominal virtual-time service cost of one request: 16 instructions of
    its class at 8 MHz. *)
val service_ns : cls -> int

type profile = Typical | Compute | Memory_bound | Control_flow | Mixed

val profiles : profile array
val profile_name : profile -> string
val profile_of_string : string -> profile option

(** Percent weight per class in [all] order; sums to 100.  The array is
    shared: do not mutate it. *)
val weights : profile -> int array

(** Weighted class draw (consumes one Prng int). *)
val pick : I432_util.Prng.t -> profile -> cls

(** Weight-averaged {!service_ns} of a profile. *)
val mean_service_ns : profile -> int

(** Execute one request's charged recipe inside a process body.
    [scratch] must be a data object with at least 64 data bytes; the
    object-ops class allocates and releases a real object.  Total charged
    virtual time equals [service_ns cls]. *)
val service : K.Machine.t -> scratch:Access.t -> cls -> unit
