(** Physical memory of one tightly-coupled 432 system.

    Raw, unchecked-by-rights storage; all protection checks happen in
    {!Segment}, which translates access descriptors to physical ranges.
    Reads and writes are counted for the bus-contention model. *)

type t

val create : size_bytes:int -> t
val size : t -> int
val read_count : t -> int
val write_count : t -> int

(** Host bytes held by pages this memory has written: the number of
    materialized 4 KiB pages times the page size.  A fresh memory holds
    none, whatever its size. *)
val resident_bytes : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit

(** 32-bit signed little-endian. *)
val read_i32 : t -> int -> int

val write_i32 : t -> int -> int -> unit
val blit_from_bytes : t -> src:Bytes.t -> dst_addr:int -> unit
val blit_to_bytes : t -> src_addr:int -> len:int -> Bytes.t
val fill : t -> addr:int -> len:int -> byte:char -> unit
