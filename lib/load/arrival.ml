(* Seeded open-loop arrival streams.

   The whole schedule is materialized before the machine boots: every
   request's user, session, mix class and absolute virtual arrival instant
   is a pure function of the seed.  That is what makes the harness
   open-loop — arrivals never wait on completions, so offered load is an
   input, not a feedback artifact — and what makes runs reproducible: the
   stream can be rendered to text and compared byte-for-byte across runs,
   engines, and cluster layouts.

   Each user draws from its own splitmix64 stream (seeded from the run
   seed and the user id), so at a fixed per-user rate adding users never
   perturbs the schedules of existing ones — the aggregate [rate_rps]
   splits evenly, so scale it with the user count to keep that property.
   [Poisson] draws i.i.d. exponential inter-arrival gaps;
   [Bursty] compresses each session's gaps 4x and parks the saved time in
   an inter-session gap, keeping the same mean offered rate with a much
   burstier short-range profile. *)

module Prng = I432_util.Prng

type pattern = Poisson | Bursty

let pattern_name = function Poisson -> "poisson" | Bursty -> "bursty"

let pattern_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | _ -> None

type request = {
  mutable r_id : int;  (* dense, in arrival order; set once, after the sort *)
  r_user : int;
  r_session : int;
  r_cls : int;  (* Mix class code *)
  r_at_ns : int;  (* absolute virtual arrival instant *)
}

type spec = {
  seed : int;
  users : int;
  sessions : int;  (* sessions per user, run back to back *)
  requests_per_session : int;
  rate_rps : float;  (* aggregate offered load, requests per virtual second *)
  pattern : pattern;
  profile : Mix.profile;
}

let total spec = spec.users * spec.sessions * spec.requests_per_session

let generate spec =
  if spec.users <= 0 then invalid_arg "Arrival.generate: users";
  if spec.sessions <= 0 then invalid_arg "Arrival.generate: sessions";
  if spec.requests_per_session <= 0 then
    invalid_arg "Arrival.generate: requests_per_session";
  if not (spec.rate_rps > 0.0) then invalid_arg "Arrival.generate: rate";
  (* Mean inter-arrival gap per user, ns: aggregate rate split evenly. *)
  let mean_ns = 1e9 *. float_of_int spec.users /. spec.rate_rps in
  let out = Array.make (total spec) { r_id = 0; r_user = 0; r_session = 0; r_cls = 0; r_at_ns = 0 } in
  let k = ref 0 in
  for user = 0 to spec.users - 1 do
    (* Independent per-user stream: user count changes never reshuffle
       other users' draws. *)
    let prng = Prng.create ~seed:(spec.seed + ((user + 1) * 1_000_003)) in
    let clock = ref 0.0 in
    for session = 0 to spec.sessions - 1 do
      (match spec.pattern with
      | Poisson -> ()
      | Bursty ->
        (* Park the time the compressed intra-session gaps save into one
           inter-session gap, preserving the mean offered rate. *)
        if session > 0 then
          let parked =
            0.75 *. mean_ns *. float_of_int spec.requests_per_session
          in
          clock := !clock +. Prng.exponential prng ~mean:parked);
      for _ = 0 to spec.requests_per_session - 1 do
        let gap_mean =
          match spec.pattern with
          | Poisson -> mean_ns
          | Bursty -> 0.25 *. mean_ns
        in
        clock := !clock +. Prng.exponential prng ~mean:gap_mean;
        let cls = Mix.code (Mix.pick prng spec.profile) in
        out.(!k) <-
          {
            r_id = 0;
            r_user = user;
            r_session = session;
            r_cls = cls;
            r_at_ns = int_of_float !clock;
          };
        incr k
      done
    done
  done;
  (* Merge the per-user streams into one arrival-ordered schedule; the
     (user, session) tie-break keeps simultaneous arrivals deterministic.
     Ids are dense in arrival order.  The comparator compares the three
     ints in turn: no tuple per call, no polymorphic compare. *)
  Array.sort
    (fun a b ->
      let c = Int.compare a.r_at_ns b.r_at_ns in
      if c <> 0 then c
      else
        let c = Int.compare a.r_user b.r_user in
        if c <> 0 then c else Int.compare a.r_session b.r_session)
    out;
  Array.iteri (fun i r -> r.r_id <- i) out;
  out

(* Canonical text rendering, one line per request — the byte-equality
   surface for --check gates and the qcheck determinism properties. *)
let render reqs =
  let buf = Buffer.create (Array.length reqs * 32) in
  Array.iter
    (fun r ->
      Printf.bprintf buf "#%d u%d s%d %s @%dns\n" r.r_id r.r_user r.r_session
        (Mix.name (Mix.of_code r.r_cls))
        r.r_at_ns)
    reqs;
  Buffer.contents buf

(* The span of the schedule and the offered rate it realizes (the drawn
   gaps never hit the nominal rate exactly). *)
let horizon_ns reqs =
  Array.fold_left (fun acc r -> max acc r.r_at_ns) 0 reqs

let offered_rps reqs =
  let h = horizon_ns reqs in
  if h = 0 then 0.0
  else float_of_int (Array.length reqs) /. (float_of_int h /. 1e9)
