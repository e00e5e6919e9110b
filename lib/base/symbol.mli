(** Append-only string interning table.

    Every distinct string is assigned a dense non-negative id in
    first-intern order; ids are never reused or invalidated. Interning an
    already-known string is a single hash lookup, and [name] is an array
    read — which is what lets the matcher hot path replace string hashing
    and structural comparison with integer equality: two strings interned
    in the same table are equal iff their ids are equal.

    A table is owned by one {!Ocep_poet.Poet} store; symbols from
    different tables are not comparable. Not thread-safe: interning
    happens only on the ingest path (single domain). *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of the string, allocating the next dense id on first sight.
    Idempotent: [intern t s = intern t s]. O(1) amortized. *)

val lookup : t -> string -> int option
(** The id if the string was already interned, without allocating one.
    A [None] answer means no interned symbol can equal this string. *)

val name : t -> int -> string
(** The string of an id. Raises [Invalid_argument] for ids never
    returned by [intern]. *)

val size : t -> int
(** Number of distinct strings interned so far (ids are [0, size)). *)
