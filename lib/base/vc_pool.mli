(** Interval-compressed vector clocks over a flat backing pool.

    The allocation-free twin of {!Vclock}: the live clock of every
    trace is a dense row of one shared array mutated in place (a tick
    is a single store), and immutable {e snapshots} — the timestamp a
    send leaves for its receive, the persistent clock of a
    communication event — live in an off-heap Bigarray pool,
    referenced by integer handles.

    Snapshots are interval-compressed: a clock is stored as a short
    list of [(lo, hi, v)] runs — traces [lo..hi] all carry value [v],
    uncovered traces are 0 — because monitored streams are dominated
    by trace-consecutive same-shape activity (the same regularity the
    paper's Section V pruning rule exploits), so a handful of ranges
    usually covers the whole vector. Past [max_runs] ranges the dense
    row is smaller and the encoder falls back to it. [leq], [equal]
    and [merge] are simultaneous segment sweeps: O(runs), not O(dim),
    on compressed operands.

    Not thread-safe for writers; safe for concurrent readers while no
    tick/snapshot is running. *)

type t

val create : ?max_runs:int -> dim:int -> unit -> t
(** [max_runs] defaults to [max 4 ((dim + 2) / 3)] — the break-even
    point past which the dense fallback is no larger than the runs. *)

val dim : t -> int

val words : t -> int
(** Words of pool storage currently in use (snapshot footprint). *)

(** {1 Live rows (in-place, allocation-free)} *)

val get : t -> trace:int -> entry:int -> int

val tick : t -> trace:int -> int
(** Increment the trace's own entry in place; returns the new value
    (the 1-based index of the event being timestamped). *)

val merge_into : t -> trace:int -> int -> unit
(** Pointwise max of a snapshot into the trace's live row. O(runs):
    only entries the snapshot covers are touched. *)

val recv_update : t -> trace:int -> int -> int
(** Fused receive: [merge_into t ~trace h], tick the trace's own entry,
    and freeze the result — observably identical to that three-call
    composition but a single row pass in the dense steady state.
    Returns the new snapshot's handle. *)

val current_to_array : t -> trace:int -> int array
(** Dense copy of the live row (allocates — materialization only). *)

(** {1 Snapshots} *)

val snapshot : t -> trace:int -> int
(** Freeze the trace's live row into the pool; returns its handle. *)

val encode : t -> int array -> int
(** Freeze an arbitrary dense clock (tests, admission replays). *)

val read : t -> int -> entry:int -> int
(** One entry of a snapshot. O(runs). *)

val to_array : t -> int -> int array

val decode_into : t -> int -> int array -> unit
(** Decode a snapshot into a caller-owned scratch row of length [dim]. *)

val leq : t -> int -> int -> bool
(** Pointwise [<=] of two snapshots — a simultaneous segment sweep. *)

val equal : t -> int -> int -> bool

val merge : t -> int -> int -> int
(** Pointwise max of two snapshots as a fresh snapshot. *)

val tick_merge : t -> int -> int -> trace:int -> int
(** [tick_merge t local incoming ~trace]: merge then tick the owner
    entry — the timestamp of a receive event, as a fresh snapshot. *)

val is_dense : t -> int -> bool
(** True if the snapshot fell back to the dense row encoding. *)

val runs : t -> int -> int
(** Number of interval runs of a snapshot; -1 for a dense fallback. *)

val nil : int
(** Sentinel handle (-1): "no snapshot". Never returned by the
    constructors; safe to store in handle columns. *)

val pp : Format.formatter -> t * int -> unit
