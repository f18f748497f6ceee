(* Paired-ratio host timing, the one harness every overhead gate uses.

   Each trial times the baseline and the candidate back to back and keeps
   their ratio: host-load drift hits both halves of a pair alike, so the
   ratio is far more stable than comparing two independent minima, and
   the median rejects trials where a GC pause or scheduler hiccup landed
   inside one half.  A major collection before *every* sample (the
   second of a pair would otherwise run against the first's garbage) and
   ABBA order alternation cancel position-in-pair bias — without both,
   an Off-vs-Off null test of this harness reads several percent instead
   of ~0. *)

type t = {
  base_ns : float;  (* fastest baseline sample *)
  test_ns : float;  (* fastest candidate sample *)
  ratio : float;  (* median paired test/base ratio *)
}

(* Host ns per call of [f], averaged over [batch] back-to-back calls. *)
let time ~batch f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batch do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch

let measure ~trials ~batch ~base ~test =
  ignore (time ~batch base);
  ignore (time ~batch test);
  let best_base = ref infinity and best_test = ref infinity in
  let sample f best =
    Gc.full_major ();
    let ns = time ~batch f in
    if ns < !best then best := ns;
    ns
  in
  let ratios =
    Array.init trials (fun i ->
        if i mod 2 = 0 then
          let b = sample base best_base in
          sample test best_test /. b
        else
          let t = sample test best_test in
          t /. sample base best_base)
  in
  Array.sort compare ratios;
  { base_ns = !best_base; test_ns = !best_test; ratio = ratios.(trials / 2) }

let overhead_pct p = 100.0 *. (p.ratio -. 1.0)

(* The three readings of an overhead measurement: each side's fastest
   sample, keyed [base] and [test], and the median overhead. *)
let overhead_readings ?bound ~base ~test p =
  Reading.
    [
      v base "ns" p.base_ns;
      v test "ns" p.test_ns;
      v ?bound "overhead_pct" "%" (overhead_pct p);
    ]

(* Each measurement's median ratio estimates the overhead during that ~1s
   epoch; host noise (scheduler interference, frequency shifts) only ever
   inflates it.  Re-measuring on a reading past its bound — after a
   cool-down, since noisy epochs span several seconds — and keeping the
   epoch whose readings lie least past their bounds, of up to four,
   estimates the intrinsic cost, not the noisiest moment of the build
   machine. *)
let best_epoch measure ~smoke =
  let worst =
    List.fold_left (fun w r -> Float.max w (Reading.excess r)) neg_infinity
  in
  let rec attempt n best =
    let rs = measure ~smoke in
    let best = match best with Some b when worst b < worst rs -> b | _ -> rs in
    if List.for_all Reading.holds best || n >= 4 then best
    else begin
      List.iter
        (fun r ->
          if not (Reading.holds r) then
            Printf.printf "  epoch %d: %s; re-measuring\n" n
              (Reading.describe r))
        rs;
      Unix.sleepf 2.0;
      attempt (n + 1) (Some best)
    end
  in
  attempt 1 None
