(** Shared-bus contention model for the multiprocessor scaling experiment.

    Every charged instruction is slowed by [alpha] per-mille per additional
    processor sharing the memory bus. *)

type t

val create : ?alpha_per_mille:int -> processors:int -> unit -> t
val set_processors : t -> int -> unit
val processors : t -> int

(** Effective cost (ns) of an instruction under current contention. *)
val penalize : t -> int -> int

(** Current slowdown factor (1.0 = no contention). *)
val factor : t -> float
