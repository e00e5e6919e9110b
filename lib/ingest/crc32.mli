(** CRC-32 (IEEE 802.3 polynomial, reflected, init/xorout [0xFFFFFFFF]) —
    the checksum guarding each wire frame. Table-driven, pure OCaml, one
    table shared process-wide. Matches zlib's [crc32], so recorded logs
    can be checked with standard tooling. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** The CRC as an unsigned 32-bit value in a native int. Raises
    [Invalid_argument] on an out-of-bounds slice. *)

val string : string -> int
(** CRC of a whole string. *)
