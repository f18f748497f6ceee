(* Small statistics toolkit used by the benchmark harness and the metrics
   registry. *)

let nearest_rank ~empty sorted q =
  let n = Array.length sorted in
  if n = 0 then empty
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair. *)
let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.jain_fairness: empty";
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* A streaming fixed-width histogram over [lo, hi).  Out-of-range values
   are not dropped: they land in the explicit underflow/overflow buckets,
   so the bucket counts always account for every finite observation.  NaN
   observations are ignored (they order with nothing). *)
type hist = {
  h_lo : float;
  h_hi : float;
  h_counts : int array;
  mutable h_underflow : int;
  mutable h_overflow : int;
  mutable h_count : int;  (* finite observations, including under/overflow *)
  h_sum : float array;  (* one cell, stored unboxed: adding allocates nothing *)
  mutable h_min : float;
  mutable h_max : float;
}

let hist_create ~buckets ~lo ~hi () =
  if buckets <= 0 then invalid_arg "Stats.hist_create: buckets";
  if not (hi > lo) then invalid_arg "Stats.hist_create: range";
  {
    h_lo = lo;
    h_hi = hi;
    h_counts = Array.make buckets 0;
    h_underflow = 0;
    h_overflow = 0;
    h_count = 0;
    h_sum = [| 0.0 |];
    h_min = infinity;
    h_max = neg_infinity;
  }

let hist_sum h = h.h_sum.(0)

let[@inline] hist_observe h x =
  if not (Float.is_nan x) then begin
    h.h_count <- h.h_count + 1;
    h.h_sum.(0) <- h.h_sum.(0) +. x;
    if x < h.h_min then h.h_min <- x;
    if x > h.h_max then h.h_max <- x;
    if x < h.h_lo then h.h_underflow <- h.h_underflow + 1
    else if x >= h.h_hi then h.h_overflow <- h.h_overflow + 1
    else begin
      let buckets = Array.length h.h_counts in
      let width = (h.h_hi -. h.h_lo) /. float_of_int buckets in
      let b = int_of_float ((x -. h.h_lo) /. width) in
      let b = if b >= buckets then buckets - 1 else if b < 0 then 0 else b in
      h.h_counts.(b) <- h.h_counts.(b) + 1
    end
  end

(* The same body inlined over an int: the float is never boxed. *)
let hist_observe_int h n = hist_observe h (float_of_int n)

let hist_mean h =
  if h.h_count = 0 then 0.0 else hist_sum h /. float_of_int h.h_count

(* Fold [src] into [dst].  Requires identical shape (same bucket count and
   range), so per-node histograms created from the same instrumentation
   site merge without rebinning.  Sum order is dst-then-src, so merging a
   name-sorted sequence of registries is deterministic. *)
let hist_merge_into ~dst ~src =
  if
    Array.length dst.h_counts <> Array.length src.h_counts
    || dst.h_lo <> src.h_lo || dst.h_hi <> src.h_hi
  then invalid_arg "Stats.hist_merge_into: shape mismatch";
  Array.iteri (fun i c -> dst.h_counts.(i) <- dst.h_counts.(i) + c) src.h_counts;
  dst.h_underflow <- dst.h_underflow + src.h_underflow;
  dst.h_overflow <- dst.h_overflow + src.h_overflow;
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum.(0) <- hist_sum dst +. hist_sum src;
  if src.h_min < dst.h_min then dst.h_min <- src.h_min;
  if src.h_max > dst.h_max then dst.h_max <- src.h_max

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)
(* ------------------------------------------------------------------ *)

(* A streaming geometric histogram: [per_decade] buckets per factor of 10,
   spanning [decades] decades upward from [lo].  Fixed-width buckets
   cannot resolve tail quantiles over a multi-decade range (a p999 four
   decades above p50 lands in one giant bucket); here every bucket has the
   same *relative* width 10^(1/per_decade), so quantile error is a bounded
   relative error everywhere in range.  Out-of-range values land in the
   explicit underflow/overflow buckets, like [hist].  NaNs are ignored. *)
type log_hist = {
  lh_lo : float;  (* lower edge of bucket 0; > 0 *)
  lh_per_decade : int;
  lh_log_lo : float;  (* log10 lh_lo, cached for the observe path *)
  lh_counts : int array;  (* per_decade * decades buckets *)
  mutable lh_underflow : int;
  mutable lh_overflow : int;
  mutable lh_count : int;  (* finite observations, including under/overflow *)
  lh_acc : float array;
      (* sum, min and max, stored unboxed: observing allocates nothing *)
}

let log_hist_sum h = h.lh_acc.(0)
let log_hist_min h = h.lh_acc.(1)
let log_hist_max h = h.lh_acc.(2)

let log_hist_create ~per_decade ~lo ~decades () =
  if per_decade <= 0 then invalid_arg "Stats.log_hist_create: per_decade";
  if decades <= 0 then invalid_arg "Stats.log_hist_create: decades";
  if not (lo > 0.0) then invalid_arg "Stats.log_hist_create: lo";
  {
    lh_lo = lo;
    lh_per_decade = per_decade;
    lh_log_lo = log10 lo;
    lh_counts = Array.make (per_decade * decades) 0;
    lh_underflow = 0;
    lh_overflow = 0;
    lh_count = 0;
    lh_acc = [| 0.0; infinity; neg_infinity |];
  }

let[@inline] log_hist_observe h x =
  if not (Float.is_nan x) then begin
    h.lh_count <- h.lh_count + 1;
    h.lh_acc.(0) <- h.lh_acc.(0) +. x;
    if x < h.lh_acc.(1) then h.lh_acc.(1) <- x;
    if x > h.lh_acc.(2) then h.lh_acc.(2) <- x;
    if x < h.lh_lo then h.lh_underflow <- h.lh_underflow + 1
    else begin
      let buckets = Array.length h.lh_counts in
      let b =
        int_of_float
          (floor ((log10 x -. h.lh_log_lo) *. float_of_int h.lh_per_decade))
      in
      (* log10 can be an ulp off at an exact bucket edge; clamp low.  High
         side stays a genuine overflow. *)
      let b = if b < 0 then 0 else b in
      if b >= buckets then h.lh_overflow <- h.lh_overflow + 1
      else h.lh_counts.(b) <- h.lh_counts.(b) + 1
    end
  end

(* The same body inlined over an int: the float is never boxed. *)
let log_hist_observe_int h n = log_hist_observe h (float_of_int n)

let log_hist_mean h =
  if h.lh_count = 0 then 0.0 else log_hist_sum h /. float_of_int h.lh_count

(* Lower edge of bucket [b]. *)
let log_hist_edge h b =
  h.lh_lo *. (10.0 ** (float_of_int b /. float_of_int h.lh_per_decade))

(* Quantile estimate by cumulative bucket walk with geometric interpolation
   inside the landing bucket.  Underflow resolves to the observed minimum
   and overflow to the observed maximum (the only honest values there);
   in-range answers are clamped to [min, max] so q=0/q=1 are exact. *)
let log_hist_quantile h q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Stats.log_hist_quantile";
  if h.lh_count = 0 then 0.0
  else if q = 0.0 then log_hist_min h
  else begin
    let target = q *. float_of_int h.lh_count in
    let target = if target < 1.0 then 1.0 else target in
    let clamp x =
      if x < log_hist_min h then log_hist_min h
      else if x > log_hist_max h then log_hist_max h
      else x
    in
    if float_of_int h.lh_underflow >= target then log_hist_min h
    else begin
      let cum = ref (float_of_int h.lh_underflow) in
      let buckets = Array.length h.lh_counts in
      let result = ref None in
      let b = ref 0 in
      while !result = None && !b < buckets do
        let c = h.lh_counts.(!b) in
        if c > 0 && !cum +. float_of_int c >= target then begin
          let frac = (target -. !cum) /. float_of_int c in
          let lo_edge = log_hist_edge h !b in
          let step = 10.0 ** (frac /. float_of_int h.lh_per_decade) in
          result := Some (clamp (lo_edge *. step))
        end
        else begin
          cum := !cum +. float_of_int c;
          incr b
        end
      done;
      match !result with Some v -> v | None -> log_hist_max h
    end
  end

(* Fold [src] into [dst]; same conventions as [hist_merge_into]: identical
   shape required, dst-then-src sum order for determinism. *)
let log_hist_merge_into ~dst ~src =
  if
    Array.length dst.lh_counts <> Array.length src.lh_counts
    || dst.lh_lo <> src.lh_lo || dst.lh_per_decade <> src.lh_per_decade
  then invalid_arg "Stats.log_hist_merge_into: shape mismatch";
  Array.iteri
    (fun i c -> dst.lh_counts.(i) <- dst.lh_counts.(i) + c)
    src.lh_counts;
  dst.lh_underflow <- dst.lh_underflow + src.lh_underflow;
  dst.lh_overflow <- dst.lh_overflow + src.lh_overflow;
  dst.lh_count <- dst.lh_count + src.lh_count;
  dst.lh_acc.(0) <- log_hist_sum dst +. log_hist_sum src;
  if log_hist_min src < log_hist_min dst then dst.lh_acc.(1) <- log_hist_min src;
  if log_hist_max src > log_hist_max dst then dst.lh_acc.(2) <- log_hist_max src
