(** First-fit free store over disjoint [base, base+length) regions.

    Internally an address-ordered balanced tree augmented with the maximum
    region length per subtree, so the three hot operations are O(log n) in
    the number of free regions instead of the O(n) list walks they replace:

    - {!take_first_fit} finds the {e lowest-base} region of sufficient
      length — exactly the region a first-fit scan of a base-sorted list
      would pick, so placement decisions (and therefore fragmentation
      patterns, exhaustion points, and every virtual-time result built on
      them) are bit-identical to the reference implementation;
    - {!insert} coalesces with address-adjacent neighbours;
    - {!largest}, {!total} and {!region_count} are O(1).

    Size-independence (the paper's ~80 us segment creation regardless of
    request size) is preserved because the fit query's cost depends only on
    region count, never on the requested size.

    A carve that leaves a remainder, and a free that merges into an
    existing region, resize a node in place: only a region that appears
    or vanishes allocates or rebalances. *)

type t

val create : unit -> t

(** Add a free region, coalescing with adjacent neighbours.  Regions must
    be disjoint from existing ones (unchecked, as in the list version) and
    bases non-negative.  [length = 0] is a no-op. *)
val insert : t -> base:int -> length:int -> unit

(** Carve [size] bytes from the lowest-base region with [length >= size]
    (first fit; the remainder, if any, stays at [base+size]) and return
    its base; [-1] when nothing fits.  [size] must be non-negative; a
    zero-size carve reports the lowest base without changing the store
    (matching a first-fit list scan). *)
val take_first_fit : t -> size:int -> int

(** Sum of free region lengths. *)
val total : t -> int

(** Length of the largest single region (0 when empty). *)
val largest : t -> int

val region_count : t -> int

(** Ascending base order. *)
val iter : (base:int -> length:int -> unit) -> t -> unit

(** [(base, length)] pairs in ascending base order. *)
val to_list : t -> (int * int) list
