(* Tests for the utility substrate: PRNG determinism, statistics, table
   rendering and CRC-32. *)

open I432_util

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 in
  let b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let t = Prng.create ~seed:7 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int t 0))

let test_prng_float_range () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Prng.float t in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_exponential_positive () =
  let t = Prng.create ~seed:13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Prng.exponential t ~mean:5.0 > 0.0)
  done

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential t ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 3.0" mean)
    true
    (mean > 2.8 && mean < 3.2)

let test_prng_choose () =
  let t = Prng.create ~seed:19 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    let v = Prng.choose t arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) arr)
  done

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:23 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ---------------- Stats ---------------- *)

let test_jain_equal () =
  check_float "equal shares" 1.0 (Stats.jain_fairness [| 5.0; 5.0; 5.0 |])

let test_jain_skewed () =
  let j = Stats.jain_fairness [| 1.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "one-taker ~1/3" true (abs_float (j -. (1.0 /. 3.0)) < 1e-9)

let test_jain_all_zero () =
  check_float "degenerate zeros" 1.0 (Stats.jain_fairness [| 0.0; 0.0 |])

(* The streaming histogram's buckets: [lo, hi) split evenly, the rest
   counted apart. *)
let hist_of ~buckets ~lo ~hi samples =
  let h = Stats.hist_create ~buckets ~lo ~hi () in
  Array.iter (Stats.hist_observe h) samples;
  h

let test_histogram () =
  let h = hist_of ~buckets:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; 4.5 |] in
  Alcotest.(check (array int)) "bucket counts" [| 1; 2; 0; 1 |] h.Stats.h_counts;
  Alcotest.(check int) "no underflow" 0 h.Stats.h_underflow;
  Alcotest.(check int) "4.5 overflows" 1 h.Stats.h_overflow

let test_histogram_edges () =
  (* Exactly-lo lands in the first bucket; exactly-hi overflows; NaN is
     ignored entirely. *)
  let h =
    hist_of ~buckets:2 ~lo:0.0 ~hi:2.0 [| 0.0; 2.0; -0.001; 1.999; Float.nan |]
  in
  Alcotest.(check (array int)) "lo inclusive, hi exclusive" [| 1; 1 |]
    h.Stats.h_counts;
  Alcotest.(check int) "below lo underflows" 1 h.Stats.h_underflow;
  Alcotest.(check int) "hi itself overflows" 1 h.Stats.h_overflow;
  Alcotest.(check int) "NaN not counted" 4 h.Stats.h_count

(* ---------------- Table ---------------- *)

let test_table_renders () =
  let s =
    Table.render ~title:"T" ~header:[ "a"; "b" ]
      ~aligns:[ Table.Left; Table.Right ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  Alcotest.(check bool) "mentions header" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.length s > 0
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains "yy" && contains "22")

let test_table_ragged () =
  Alcotest.check_raises "ragged rows" (Invalid_argument "Table.render: ragged rows")
    (fun () ->
      ignore
        (Table.render ~title:"T" ~header:[ "a"; "b" ]
           ~aligns:[ Table.Left; Table.Right ]
           [ [ "only-one" ] ]))

let test_fmt_us () = Alcotest.(check string) "65us" "65.00" (Table.fmt_us 65_000)

let prop_nearest_rank_monotone =
  QCheck2.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let p25 = Stats.nearest_rank ~empty:nan arr 0.25 in
      let p75 = Stats.nearest_rank ~empty:nan arr 0.75 in
      p25 <= p75)

let prop_jain_bounds =
  QCheck2.Test.make ~name:"Jain index in (0,1]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (float_bound_inclusive 100.0))
    (fun xs ->
      let j = Stats.jain_fairness (Array.of_list xs) in
      j > 0.0 && j <= 1.0 +. 1e-9)

(* ---------------- Crc32 ---------------- *)

(* Bit-at-a-time CRC-32 straight from the definition: reflected
   polynomial 0xEDB88320, init and final xor 0xFFFFFFFF. *)
let crc32_reference buf pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_check_value () =
  let crc s = Crc32.sub (Bytes.of_string s) 0 (String.length s) in
  Alcotest.(check int) "standard check value" 0xCBF43926 (crc "123456789");
  Alcotest.(check int) "empty input" 0 (crc "");
  Alcotest.(check int) "a slice = the same bytes alone" (crc "123456789")
    (Crc32.sub (Bytes.of_string "xx123456789y") 2 9)

let test_crc32_bounds () =
  let b = Bytes.make 8 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Crc32.sub")
        (fun () -> ignore (Crc32.sub b pos len)))
    [ (-1, 1); (0, -1); (0, 9); (8, 1); (5, 4); (9, 0); (max_int, 1) ];
  Alcotest.(check int) "empty slice at the end" 0 (Crc32.sub b 8 0)

let prop_crc32_matches_reference =
  QCheck2.Test.make ~name:"crc32 = bit-at-a-time reference" ~count:300
    QCheck2.Gen.(
      bytes_size (int_range 0 300) >>= fun b ->
      let n = Bytes.length b in
      int_range 0 n >>= fun pos ->
      int_range 0 (n - pos) >>= fun len -> return (b, pos, len))
    (fun (b, pos, len) ->
      Crc32.sub b pos len = crc32_reference b pos len
      && Crc32.sub b 0 (Bytes.length b) = crc32_reference b 0 (Bytes.length b))

(* Every length 0-80 at every offset 0-15 of random contents: each way
   a range splits into a slicing-by-8 body and a byte-at-a-time tail, at
   every alignment. *)
let prop_crc32_every_range =
  QCheck2.Test.make ~name:"crc32 = reference at every length 0-80, offset 0-15"
    ~count:20
    QCheck2.Gen.(bytes_size (return 96))
    (fun b ->
      let ok = ref true in
      for pos = 0 to 15 do
        for len = 0 to 80 do
          if Crc32.sub b pos len <> crc32_reference b pos len then ok := false
        done
      done;
      !ok)

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int invalid", `Quick, test_prng_int_invalid);
    ("prng float range", `Quick, test_prng_float_range);
    ("prng exponential positive", `Quick, test_prng_exponential_positive);
    ("prng exponential mean", `Quick, test_prng_exponential_mean);
    ("prng choose", `Quick, test_prng_choose);
    ("prng shuffle permutation", `Quick, test_prng_shuffle_permutation);
    ("jain equal", `Quick, test_jain_equal);
    ("jain skewed", `Quick, test_jain_skewed);
    ("jain all zero", `Quick, test_jain_all_zero);
    ("histogram", `Quick, test_histogram);
    ("histogram edges", `Quick, test_histogram_edges);
    ("table renders", `Quick, test_table_renders);
    ("table ragged", `Quick, test_table_ragged);
    ("fmt us", `Quick, test_fmt_us);
    QCheck_alcotest.to_alcotest prop_nearest_rank_monotone;
    QCheck_alcotest.to_alcotest prop_jain_bounds;
    ("crc32 check value", `Quick, test_crc32_check_value);
    ("crc32 rejects out-of-range slices", `Quick, test_crc32_bounds);
    QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
    QCheck_alcotest.to_alcotest prop_crc32_every_range;
  ]
