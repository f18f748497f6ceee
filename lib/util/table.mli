(** ASCII table rendering for experiment output. *)

type align = Left | Right

(** [render ~title ~header ~aligns rows] draws a boxed table.  All rows must
    have the same arity as [header] and [aligns]. *)
val render :
  title:string ->
  header:string list ->
  aligns:align list ->
  string list list ->
  string

val print :
  title:string ->
  header:string list ->
  aligns:align list ->
  string list list ->
  unit

(** Format a float with the given number of decimals (default 2). *)
val fmt_float : ?decimals:int -> float -> string

(** Render a nanosecond count as microseconds with two decimals. *)
val fmt_us : int -> string
