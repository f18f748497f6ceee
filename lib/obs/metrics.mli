(** Named metrics registry: counters, gauges, and {!I432_util.Stats}-backed
    histograms.

    Instruments are resolved once (find-or-create by name) and updated
    without a lookup on the hot path, unless {!pull}ed: read only when a
    reader asks.  Dumps are sorted by name, so identical runs produce
    byte-identical JSON. *)

open I432_util

type counter
type gauge
type histogram = { m_name : string; m_hist : Stats.hist }
type log_histogram = { l_name : string; l_hist : Stats.log_hist }

type t

val create : unit -> t

(** Find-or-create by name; raises [Invalid_argument] on a pulled name. *)
val counter : t -> string -> counter

(** [pull t name read] registers the counter [name] as [read ()] each
    time a reader asks; {!find_counter} and {!counters} return a record
    of that value.  Raises [Invalid_argument] on a registered name. *)
val pull : t -> string -> (unit -> int) -> unit

val incr : ?by:int -> counter -> unit

(** [incr ~by:n], without the option an optional argument allocates: for
    per-instruction counts. *)
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** [buckets]/[lo]/[hi] apply only on first creation of the name. *)
val histogram : t -> ?buckets:int -> ?lo:float -> ?hi:float -> string -> histogram

val observe : histogram -> float -> unit

(** [observe h (float_of_int n)], byte for byte, without boxing the
    float: the entry point for integer observations such as virtual ns. *)
val observe_int : histogram -> int -> unit

(** Log-bucketed quantile histogram ({!Stats.log_hist}); the shape
    arguments apply only on first creation of the name.  Defaults span
    10 ns .. 10 s at 16 buckets per decade (~15% relative width) —
    sized for virtual-time request latencies. *)
val log_histogram :
  t -> ?per_decade:int -> ?lo:float -> ?decades:int -> string -> log_histogram

val observe_log : log_histogram -> float -> unit

(** [observe_log h (float_of_int n)] without boxing the float. *)
val observe_log_int : log_histogram -> int -> unit

(** [log_quantile h q] with [q] in [0, 1]. *)
val log_quantile : log_histogram -> float -> float

(* A registry is not thread-safe: one domain updates it at a time.  A
   machine's registry is written by the domain stepping the machine, and
   [Machine.advance] refuses a second one. *)

(** Fold [src] into [dst]: counters (pulled ones as plain) and gauges add;
    same-named histograms (which must share bucket count and range) add
    bucket-wise.  Folding per-node registries in node order is
    deterministic. *)
val merge_into : dst:t -> src:t -> unit

val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option
val find_histogram : t -> string -> histogram option
val find_log_histogram : t -> string -> log_histogram option

(** The named counter's value; 0 when no such counter exists. *)
val count : t -> string -> int

(** Sorted by name, each as a record of its value now. *)
val counters : t -> counter list

(** Schema [imax432-metrics/1]: counters, gauges, histograms (with
    underflow/overflow buckets), sorted by name.  A [log_histograms] key
    is appended only when at least one exists, so dumps from runs without
    one are byte-identical to earlier schema emissions. *)
val to_json : t -> Jout.t

(** Human-readable rendering for operator tooling. *)
val render : t -> string
