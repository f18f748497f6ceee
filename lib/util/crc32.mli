(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and final
    xor 0xFFFFFFFF: zlib's [crc32]).

    The filing store's journal protects every record with a CRC so a torn
    or corrupted tail is detected on recovery instead of surfacing as a
    garbage object.  Pure and table-driven (slicing-by-8); no dependency
    on host libraries, so checksums are identical on every platform. *)

(** [sub b pos len] is the CRC of the [len] bytes of [b] at [pos], as an
    unsigned 32-bit [int]; it allocates nothing.  Raises
    [Invalid_argument] on an out-of-bounds range. *)
val sub : Bytes.t -> int -> int -> int
