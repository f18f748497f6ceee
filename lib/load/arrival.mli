(** Seeded open-loop arrival streams: the full schedule — user, session,
    class, absolute virtual arrival instant per request — is a pure
    function of the seed, materialized before the machine boots.  Each
    user draws from its own splitmix64 stream, so schedules are stable
    under user-count changes at a fixed per-user rate (the aggregate
    [rate_rps] splits evenly across users). *)

type pattern = Poisson | Bursty

val pattern_name : pattern -> string
val pattern_of_string : string -> pattern option

type request = {
  r_id : int;  (** dense, in arrival order *)
  r_user : int;
  r_session : int;
  r_cls : int;  (** {!Mix.cls} code *)
  r_at_ns : int;  (** absolute virtual arrival instant *)
}

type spec = {
  seed : int;
  users : int;
  sessions : int;  (** sessions per user, run back to back *)
  requests_per_session : int;
  rate_rps : float;  (** aggregate offered load, requests/virtual second *)
  pattern : pattern;
  profile : Mix.profile;
}

val total : spec -> int

(** The arrival-ordered schedule; ids are dense in arrival order.
    Requests at one instant leave by user, then in draw order.
    [Poisson] draws i.i.d. exponential gaps at the per-user rate;
    [Bursty] compresses intra-session gaps 4x and parks the saved time
    between sessions (same mean rate, burstier short-range profile).
    Raises [Invalid_argument] on non-positive spec fields. *)
val generate : spec -> request array

(** Canonical one-line-per-request rendering — the byte-equality surface
    for --check gates and determinism tests. *)
val render : request array -> string

(** Largest arrival instant. *)
val horizon_ns : request array -> int

(** Realized offered load over the schedule's span. *)
val offered_rps : request array -> float
