(** Scenarios and the three generic verifiers (DESIGN.md §16).

    A scenario rebuilds the same seeded world on every [boot], advances
    it with [run] (to halt, or only to a {!Checkpoint.bound}), and reads
    back its byte-equality surfaces with [streams]: per-node event lines
    plus whatever else it promises to reproduce (printed lists, reports,
    metrics renders).  The verifiers are written once against that seam
    and report the first divergent line of the first divergent stream. *)

module K := I432_kernel
module Net := I432_net

type divergence = Checkpoint.divergence = {
  stream : string;  (** ["<scenario>/<stream>"] *)
  index : int;
  expected : string option;
  got : string option;
  context : string list;
}

(** The two worlds a checkpoint can save. *)
type world = Machine of K.Machine.t | Cluster of Net.Cluster.t

type 'w t = {
  name : string;
  boot : unit -> 'w;
  run : ?bound:Checkpoint.bound -> 'w -> unit;
  streams : 'w -> (string * string list) list;  (** compared in order *)
}

(** A world that [boot] already runs to completion; [run] is a no-op. *)
val make :
  name:string -> streams:('w -> (string * string list) list) -> (unit -> 'w) -> 'w t

(** A single machine; its one stream is ["events"]. *)
val machine : name:string -> (unit -> K.Machine.t) -> world t

(** A cluster stepped by [engine] in rounds of [quantum_ns]; one event
    stream per node, named after the node. *)
val cluster :
  name:string ->
  ?engine:Net.Cluster.engine ->
  ?quantum_ns:int ->
  (unit -> Net.Cluster.t) ->
  world t

(** Every retained event of a machine, one rendered line each. *)
val event_lines : K.Machine.t -> string list

(** The streams {!machine} and {!cluster} compare. *)
val world_streams : world -> (string * string list) list

(** Boot and run to halt. *)
val play : 'w t -> 'w

(** Run [s] and compare with [first] (an already-run world of [s], read
    on entry) or with a second fresh run. *)
val same_seed : ?first:'w -> 'w t -> (unit, divergence) result

(** Compare [mk engine] (or its already-run world [first]) with a fresh
    run of [mk Seq]. *)
val equal_engines :
  ?first:'w ->
  (Net.Cluster.engine -> 'w t) ->
  Net.Cluster.engine ->
  (unit, divergence) result

(** Run a fresh world of [s] to [bound], save it into [store] under
    [key], restore it through {!Checkpoint.restore} or
    {!Checkpoint.restore_cluster}, run it to halt, and compare with
    [expected] (a fresh straight run's streams when not given).  Returns
    the resumed world; a replay whose state image differs returns the
    image's first divergent line. *)
val kill_restore :
  ?expected:(string * string list) list ->
  world t ->
  store:Store.t ->
  key:string ->
  bound:Checkpoint.bound ->
  (world, divergence) result

val to_string : divergence -> string
