(** Descriptive statistics for the benchmark harness and the metrics
    registry. *)

(** Nearest-rank quantile: the element at rank [floor (q * n)] (capped at
    the last) of an ascending [sorted] array; [empty] when it has none. *)
val nearest_rank : empty:'a -> 'a array -> float -> 'a

(** Jain's fairness index in (0, 1]; 1.0 means all values equal. *)
val jain_fairness : float array -> float

(** {1 Histograms} *)

(** A streaming fixed-width histogram over [lo, hi) with explicit
    underflow/overflow buckets: no finite observation is ever silently
    dropped.  NaN observations are ignored. *)
type hist = {
  h_lo : float;
  h_hi : float;
  h_counts : int array;
  mutable h_underflow : int;  (** observations below [lo] *)
  mutable h_overflow : int;  (** observations at or above [hi] *)
  mutable h_count : int;  (** all finite observations *)
  h_sum : float array;
      (** one cell, the sum ({!hist_sum}); a float array keeps it unboxed,
          so an observation allocates nothing *)
  mutable h_min : float;  (** [infinity] when empty *)
  mutable h_max : float;  (** [neg_infinity] when empty *)
}

(** Raises [Invalid_argument] unless [buckets > 0] and [hi > lo]. *)
val hist_create : buckets:int -> lo:float -> hi:float -> unit -> hist

val hist_observe : hist -> float -> unit

(** The sum of every finite observation. *)
val hist_sum : hist -> float

(** [hist_observe h (float_of_int n)] without boxing the float. *)
val hist_observe_int : hist -> int -> unit

(** 0.0 when empty. *)
val hist_mean : hist -> float

(** Fold [src] into [dst].  Raises [Invalid_argument] unless both have the
    same bucket count and [lo, hi) range. *)
val hist_merge_into : dst:hist -> src:hist -> unit

(** {1 Log-bucketed histograms}

    A streaming geometric histogram: [per_decade] buckets per factor of
    10, spanning [decades] decades upward from [lo].  Every bucket has the
    same relative width, so tail quantiles (p999) stay resolvable over a
    multi-decade latency range where a fixed-width {!hist} collapses the
    tail into one bucket. *)
type log_hist = {
  lh_lo : float;  (** lower edge of bucket 0; > 0 *)
  lh_per_decade : int;
  lh_log_lo : float;  (** cached [log10 lh_lo] *)
  lh_counts : int array;
  mutable lh_underflow : int;  (** observations below [lo] *)
  mutable lh_overflow : int;  (** observations beyond the last bucket *)
  mutable lh_count : int;  (** all finite observations *)
  lh_acc : float array;
      (** three cells, the sum, min and max ({!log_hist_sum},
          {!log_hist_min}, {!log_hist_max}); a float array keeps them
          unboxed, so an observation allocates nothing *)
}

(** Raises [Invalid_argument] unless [per_decade > 0], [decades > 0] and
    [lo > 0]. *)
val log_hist_create :
  per_decade:int -> lo:float -> decades:int -> unit -> log_hist

val log_hist_observe : log_hist -> float -> unit

(** [log_hist_observe h (float_of_int n)] without boxing the float. *)
val log_hist_observe_int : log_hist -> int -> unit

(** The sum of every finite observation. *)
val log_hist_sum : log_hist -> float

(** The least finite observation; [infinity] when empty. *)
val log_hist_min : log_hist -> float

(** The greatest finite observation; [neg_infinity] when empty. *)
val log_hist_max : log_hist -> float

(** 0.0 when empty. *)
val log_hist_mean : log_hist -> float

(** [log_hist_quantile h q] with [q] in [0, 1]: cumulative bucket walk
    with geometric interpolation inside the landing bucket, clamped to
    the observed [min, max] ([q] = 0 returns the exact minimum).  0.0
    when empty; raises [Invalid_argument]
    on [q] outside [0, 1].  The estimate's relative error is bounded by
    one bucket's relative width, [10^(1/per_decade)]. *)
val log_hist_quantile : log_hist -> float -> float

(** Fold [src] into [dst].  Raises [Invalid_argument] unless both share
    [lo], [per_decade] and bucket count.  Same single-writer/merge
    conventions as {!hist_merge_into}. *)
val log_hist_merge_into : dst:log_hist -> src:log_hist -> unit
