(** Vector clocks over a flat backing pool.

    The allocation-free twin of {!Vclock}: the live clock of every
    trace is a dense row of one shared array mutated in place (a tick
    is a single store), and immutable {e snapshots} — the timestamp a
    send leaves for its receive, the persistent clock of a
    communication event — live in an off-heap Bigarray pool,
    referenced by integer handles.

    A snapshot is one lane-packed row: a header word naming the lane
    width, then the clock packed four 15-bit, two 31-bit or one 63-bit
    entry per word. The width is pool-wide: the narrowest that holds
    every value ticked so far, so a stream stays at four entries per
    word until some trace passes 32767 events.

    Not thread-safe for writers; safe for concurrent readers while no
    tick/snapshot is running. *)

type t

val create : dim:int -> t
(** Raises [Invalid_argument] unless [0 <= dim < 65536]. *)

val words : t -> int
(** Words written by snapshots so far (headers and lanes). *)

(** {1 Live rows (in-place, allocation-free)} *)

val get : t -> trace:int -> entry:int -> int

val tick : t -> trace:int -> int
(** Increment the trace's own entry in place; returns the new value
    (the 1-based index of the event being timestamped). *)

val merge_into : t -> trace:int -> int -> unit
(** Pointwise max of a snapshot into the trace's live row. *)

val current_to_array : t -> trace:int -> int array
(** Dense copy of the live row (allocates — materialization only). *)

(** {1 Snapshots} *)

val snapshot : t -> trace:int -> int
(** Freeze the trace's live row into the pool; returns its handle. *)

val to_array : t -> int -> int array
(** Decode a snapshot into a fresh dense clock. *)

val nil : int
(** Sentinel handle (-1): "no snapshot". Never returned by
    {!snapshot}; safe to store in handle columns. *)
