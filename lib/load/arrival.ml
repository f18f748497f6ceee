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
   burstier short-range profile.

   A user's own stream comes out in time order, so [generate] never sorts:
   it draws each stream one request ahead and merges the streams through a
   binary heap of per-user heads, ordered by (arrival instant, user) —
   O(log users) per request and no array beyond the schedule itself.
   Requests sharing (instant, user, session) keep their draw order. *)

module Prng = I432_util.Prng

type pattern = Poisson | Bursty

let pattern_name = function Poisson -> "poisson" | Bursty -> "bursty"

let pattern_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | _ -> None

type request = {
  r_id : int;  (* dense, in arrival order *)
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

(* One user's stream, drawn one request ahead: [at], [session] and [cls]
   describe the next request the user issues. *)
type cursor = {
  user : int;
  prng : Prng.t;
  mutable clock : float;  (* virtual ns, accumulated gaps *)
  mutable session : int;
  mutable drawn : int;  (* requests drawn in [session] so far *)
  mutable at : int;
  mutable cls : int;
}

(* The merge order.  One head per user sits in the heap, so (at, user) is
   a strict order there; a user's own requests leave in draw order. *)
let before a b = a.at < b.at || (a.at = b.at && a.user < b.user)

let generate spec =
  if spec.users <= 0 then invalid_arg "Arrival.generate: users";
  if spec.sessions <= 0 then invalid_arg "Arrival.generate: sessions";
  if spec.requests_per_session <= 0 then
    invalid_arg "Arrival.generate: requests_per_session";
  if not (spec.rate_rps > 0.0) then invalid_arg "Arrival.generate: rate";
  (* Mean inter-arrival gap per user, ns: aggregate rate split evenly. *)
  let mean_ns = 1e9 *. float_of_int spec.users /. spec.rate_rps in
  let gap_mean =
    match spec.pattern with Poisson -> mean_ns | Bursty -> 0.25 *. mean_ns
  in
  (* Bursty parks the time its compressed intra-session gaps save into one
     inter-session gap, preserving the mean offered rate. *)
  let parked = 0.75 *. mean_ns *. float_of_int spec.requests_per_session in
  (* Draw [c]'s next request; false once its last session is spent. *)
  let advance c =
    if c.drawn = spec.requests_per_session then begin
      c.session <- c.session + 1;
      c.drawn <- 0;
      if c.session < spec.sessions && spec.pattern = Bursty then
        c.clock <- c.clock +. Prng.exponential c.prng ~mean:parked
    end;
    c.session < spec.sessions
    && begin
         c.clock <- c.clock +. Prng.exponential c.prng ~mean:gap_mean;
         c.cls <- Mix.code (Mix.pick c.prng spec.profile);
         c.at <- int_of_float c.clock;
         c.drawn <- c.drawn + 1;
         true
       end
  in
  (* Independent per-user streams: user count changes never reshuffle
     other users' draws.  Each holds its first request; sifting down every
     inner node makes the array a heap of them. *)
  let heap =
    Array.init spec.users (fun user ->
        let c =
          {
            user;
            prng = Prng.create ~seed:(spec.seed + ((user + 1) * 1_000_003));
            clock = 0.0;
            session = 0;
            drawn = 0;
            at = 0;
            cls = 0;
          }
        in
        ignore (advance c);
        c)
  in
  let size = ref spec.users in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let r = l + 1 in
      let m = if r < !size && before heap.(r) heap.(l) then r else l in
      if before heap.(m) heap.(i) then begin
        let c = heap.(i) in
        heap.(i) <- heap.(m);
        heap.(m) <- c;
        sift_down m
      end
    end
  in
  for i = (spec.users / 2) - 1 downto 0 do
    sift_down i
  done;
  (* Merge the sorted per-user streams into one arrival-ordered schedule,
     O(log users) per request: emit the earliest head, draw that user's
     next request and restore the heap.  Ids are dense in arrival order. *)
  Array.init (total spec) (fun k ->
      let c = heap.(0) in
      let r =
        { r_id = k; r_user = c.user; r_session = c.session; r_cls = c.cls; r_at_ns = c.at }
      in
      if not (advance c) then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down 0;
      r)

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
