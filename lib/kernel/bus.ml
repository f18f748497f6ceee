(* Shared-bus contention model.

   The 432's processors share one memory through a common bussing scheme;
   the paper (§3) claims "a factor of 10 in total processing power of a
   single 432 system is realizable".  We model contention as a per-mille
   slowdown applied to every charged instruction, linear in the number of
   *other* processors: with alpha = 20 per-mille, ten processors each run at
   1/1.18 speed, so the system delivers ~8.5x, and the envelope tops out
   around 10x near 13-14 processors before flattening. *)

type t = {
  mutable processors : int;
  alpha_per_mille : int;
}

let create ?(alpha_per_mille = 20) ~processors () =
  if processors <= 0 then invalid_arg "Bus.create: processors";
  if alpha_per_mille < 0 then invalid_arg "Bus.create: alpha";
  { processors; alpha_per_mille }

let set_processors t n =
  if n <= 0 then invalid_arg "Bus.set_processors";
  t.processors <- n

let processors t = t.processors

(* Effective cost of an instruction under contention.  Inlined into
   [Machine.charge], which every charged instruction goes through. *)
let[@inline] penalize t cost =
  let extra = cost * t.alpha_per_mille * (t.processors - 1) / 1000 in
  cost + extra

(* Slowdown factor as a float, for reporting. *)
let factor t =
  1.0 +. (float_of_int (t.alpha_per_mille * (t.processors - 1)) /. 1000.0)
