(** Search-span tracing into a bounded ring buffer, dumpable as Chrome
    [trace_event] JSON (loadable by chrome://tracing and Perfetto).

    A span is one completed unit of engine work — a terminating arrival,
    an anchored or pinned search — with a name, a category, a wall-clock
    interval and a few typed arguments. Spans are recorded after the
    fact (one call per span, no open/close pairing) into a
    fixed-capacity ring: memory is O(capacity) and an always-on tracer
    over a ≥1M-event run simply keeps the most recent spans, counting
    what it overwrote.

    The ring is preallocated as a structure of arrays, so the typed
    entry points ({!record_search}, {!record_arrival}) allocate nothing
    per span — a record is a mutex acquisition plus a dozen array
    stores. The generic {!record} path keeps the old association-list
    arguments for ad-hoc spans off the hot path.

    Recording is thread-safe (a mutex around the ring slot). The engine
    tags each span with its domain's id as the [tid]. *)

type arg = Int of int | Float of float | Str of string

type span = {
  name : string;
  cat : string;
  ts_us : float;  (** start, µs on the monotonic clock *)
  dur_us : float;
  tid : int;  (** domain id of the recording domain *)
  args : (string * arg) list;
}

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val capacity : t -> int

val record :
  t ->
  name:string ->
  cat:string ->
  ts_us:float ->
  dur_us:float ->
  tid:int ->
  args:(string * arg) list ->
  unit
(** Generic span with caller-built arguments. Allocation-free only if
    [args] is; prefer the typed entry points on hot paths. *)

val record_search :
  t ->
  name:string ->
  cat:string ->
  ts_us:float ->
  dur_us:float ->
  tid:int ->
  pattern:int ->
  anchor_leaf:int ->
  nodes:int ->
  backjumps:int ->
  outcome:string ->
  pin_leaf:int ->
  pin_trace:int ->
  unit
(** Allocation-free span of an anchored or pinned search. [pin_leaf] and
    [pin_trace] are [-1] for an unpinned search; [outcome] should be a
    constant ("found" / "not_found" / "aborted"). The rendered arguments
    match what the engine used to pass to {!record}. *)

val record_arrival :
  t ->
  ts_us:float ->
  dur_us:float ->
  tid:int ->
  trace:int ->
  index:int ->
  etype:string ->
  anchors:int ->
  unit
(** Allocation-free span of one terminating arrival (name ["arrival"],
    category ["engine"]). *)

val length : t -> int
(** Spans currently held (≤ capacity). *)

val recorded : t -> int
(** Spans ever recorded. *)

val dropped : t -> int
(** Spans overwritten by the ring ([recorded − length]). *)

val spans : t -> span list
(** Retained spans, oldest first, with typed-column arguments
    materialized back into the [args] list. *)

val dump : out_channel -> t -> unit
(** Write the whole ring as one Chrome [trace_event] JSON object
    ([{"traceEvents": [...]}], complete events, [ph:"X"], one row per
    recording domain). *)
