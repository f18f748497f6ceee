(** Resource-control policies layered on the basic process manager
    (paper §6.1): the null pass-through policy, a round-robin equalizer,
    and a fair-share user-process manager whose daemon samples per-group
    CPU consumption and renices over-served groups. *)

open I432
module K := I432_kernel

type group
type policy = Null | Round_robin | Fair_share
type t

val create : ?quantum_ns:int -> K.Machine.t -> Process_manager.t -> policy -> t

(** Declare an accounting group (a "user"). *)
val add_group : t -> string -> group

(** Place a managed process under a group's account. *)
val enroll : t -> group -> Access.t -> unit

(** One fair-share rebalancing pass (the daemon calls this periodically). *)
val rebalance : t -> unit

(** Spawn the policy daemon; a no-op body for policies that need none. *)
val spawn_daemon : t -> Access.t

val groups : t -> group list
val policy_to_string : policy -> string
