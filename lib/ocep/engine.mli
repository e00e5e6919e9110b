(** The online monitor: a POET client that maintains leaf histories and,
    on every terminating event, searches for matches and maintains the
    representative subset.

    Since PR 4 one engine hosts a {e registry} of patterns; since this
    PR the whole registry compiles into one {e discrimination network}
    ({!Ocep_pattern.Compile.Network}): one hash-consed node per distinct
    [process, type, text] class key, each holding every subscribed
    (pattern, leaf) pair, so an arriving event's class predicates are
    evaluated once per node regardless of how many patterns reference
    them. The shared history store is keyed on automaton node ids
    (refcounted by subscription; pruning and [max_history_per_trace]
    apply once per node/class), and {!add_pattern}/{!Handle.detach} are
    incremental network edits whose cost does not grow with the number
    of registered patterns. Per-pattern state stays isolated: each
    registered pattern has its own coverage slots, representative subset
    and report ring ({!Matcher.plan}s are shared between structurally
    equal patterns — they are immutable and shape-derived), and its
    observables are bit-identical to a dedicated single-pattern engine
    fed the same stream.

    On arrival of an event the engine (1) advances the communication
    epoch, (2) appends the event once to the history of every event class
    it matches, and (3) for each pattern with {e terminating} matched
    leaves, runs one anchored search per anchor, plus — when
    [pin_searches] is on — one pinned search per still-uncovered coverage
    slot of that pattern, exactly the goForward/goBackward cycle of
    Algorithm 1 driven by the subset objective. Every search runs
    sequentially on the domain that feeds the engine; parallelism comes
    from running one engine per tenant on the service's shard domains.
    The elapsed monotonic time of step (3) is recorded per arrival;
    these samples are the distributions of Figs. 6–10. *)

open Ocep_base
module Compile = Ocep_pattern.Compile
module Poet = Ocep_poet.Poet

type latency_sink =
  | Samples  (** the raw per-arrival vector — exact, but O(arrivals) memory *)
  | Histogram
      (** the log-bucketed {!Ocep_stats.Histogram} — O(buckets) memory
          regardless of run length, quantiles within one bucket width;
          the only sound choice for ≥1M-event online runs *)
  | Both  (** record into both sinks (used to validate the histogram path) *)

type config = {
  pruning : bool;  (** the O(1) history-pruning rule (Section V-D) *)
  max_history_per_trace : int option;  (** hard storage cap per (class, trace) *)
  pin_searches : bool;  (** search uncovered slots on each terminating event *)
  pin_filtering : bool;
      (** skip pinned searches the engine can rule out from O(1) state:
          slots with an empty (leaf, trace) history, whole batches whose
          anchored search already failed exhaustively, and — in
          node-budget runs only — slots whose pinned search failed
          before with the slot history and match count unchanged since.
          Without a node budget (the default) filtering is exact:
          coverage, reports and match counts are identical to unfiltered
          (DESIGN.md §4b proves the first two rules sound and the third
          inert). Under a budget the third rule is a heuristic in the
          same spirit as the budget itself. On by default; the switch
          exists for A/B measurement and the equivalence tests. Skips
          are counted in [ocep_pinned_skipped_total]. *)
  node_budget : int option;  (** abort pathological searches, [None] = unlimited *)
  report_cap : int;  (** retained reported matches, per pattern *)
  record_latency : bool;
      (** master switch for per-arrival timing; when on, [latency_sink]
          selects where the samples go *)
  latency_sink : latency_sink;
  gc_every : int option;
      (** the paper's future-work extension: every N events, drop history
          entries provably unable to join any future match (sound for
          leaves whose relation to every anchor leaf excludes happening
          before it — e.g. both sides of a pure concurrency pattern).
          With shared classes a class is collected only when {e every}
          subscribed (pattern, leaf) pair is GC-able — the conservative
          AND, which never changes coverage, reports or match counts.
          Requires every trace to keep producing events to make progress
          (the usual vector-clock GC caveat). [None] disables. *)
  trace_spans : bool;
      (** record a span per terminating arrival and per anchored/pinned
          search, tagged with the recording domain's id, into a bounded
          ring buffer; dump
          it with {!tracer} + {!Ocep_obs.Tracer.dump}. Off by default:
          spans cost two clock reads and a mutex-protected ring write
          per search. *)
  trace_capacity : int;
      (** span ring capacity when [trace_spans] is on; overwrites are
          counted in [ocep_spans_dropped_total]. *)
  provenance : bool;
      (** the flight recorder: keep a bounded per-event provenance
          record (wire record id, admission verdict, decode → admit →
          dispatch timestamps) for the most recent
          [provenance_capacity] events of each trace, plus per-trace
          staleness gauges ([ocep_trace_staleness_us{trace="N"}]) and a
          ring of refused wire records — what [ocep explain]
          reconstructs causal chains from. On by default: recording is
          one clock read and a few array stores per event. *)
  provenance_capacity : int;  (** flight-recorder window, per trace *)
}

val default_config : config
(** pruning on, no cap, pin searches on with filtering, no budget,
    100_000 reports, latency recording on into the [Samples] sink, gc
    off, span tracing off (capacity 65_536 when enabled), provenance on
    with a 1_024-event window per trace (sized to keep the flight ring
    cache-resident; raise it when a deeper [ocep explain] window matters
    more than the last few percent of throughput). *)

type t

type pattern_id = int
(** Numeric id of one registered pattern, as it appears in metric labels
    ([ocep_matches_total{pattern="N"}]) and CLI output. Ids are assigned
    by {!add_pattern} in increasing order and never reused, so a removed
    pattern's id stays invalid. Code should hold {!Handle.t} values
    rather than ids; the id survives mainly for display and
    {!remove_pattern}. *)

(** A typed handle onto one registered pattern — the value returned by
    {!add_pattern} and listed by {!handles}. Every per-pattern question
    previously asked through an [(engine, pattern_id)] pair ([reports_for]
    and friends) is a function of the handle alone, so call sites cannot
    pair an id with the wrong engine, and detaching is a method of the
    thing being detached. All accessors raise
    [Ocep_error.Error (Stale_handle _)] once the pattern has been
    detached (check {!is_live} when in doubt) — the typed error channel
    shared with the service control plane, so a handle misuse carries
    the same failure shape locally and over the wire. *)
module Handle : sig
  type t

  (** One coherent snapshot of the pattern's observable counters, read in
      a single call — what dashboards and progress printers want, without
      ten accessor round-trips or a trip through the string-keyed
      {!Ocep_obs.Metrics} registry. *)
  type metrics = {
    matches : int;  (** successful searches, incl. coverage-neutral ones *)
    reports_retained : int;  (** representative-subset reports currently held *)
    covered_slots : int;
    seen_slots : int;
    nodes : int;  (** search-tree candidates examined *)
    backjumps : int;
    searches : int;
    aborted : int;  (** searches cut by [node_budget] *)
    pinned_skipped : int;  (** pinned searches removed by the pre-filter *)
  }

  val id : t -> pattern_id
  (** Stable even after {!detach}. *)

  val is_live : t -> bool
  (** [false] once the pattern has been detached (by this handle or any
      alias of it). *)

  val net : t -> Compile.t
  val reports : t -> Subset.report list
  val matches_found : t -> int
  val covered_slots : t -> int
  val seen_slots : t -> int

  val search_stats : t -> Matcher.stats
  (** The pattern's live stats record (mutated by ongoing searches), not
      a copy — read it, don't keep it across detach. *)

  val aborted_searches : t -> int
  val pinned_skipped : t -> int

  val find_containing : t -> Event.t -> Event.t array option
  (** One complete match of this pattern containing the given (already
      processed) event — ground truth, independent of the subset. *)

  val latency_histogram : t -> Ocep_stats.Histogram.t
  (** The pattern's bounded latency histogram
      ([ocep_latency_us{pattern="N"}]): the arrival-level sample recorded
      for every arrival in which this pattern anchored, when
      [latency_sink] is [Histogram] or [Both]. *)

  val history_entries : t -> leaf:int -> int
  (** Live entries of the leaf's (shared) history class. *)

  val nearest_miss : t -> (int * int) option
  (** The pattern's nearest miss so far: [(leaf, level)] where [leaf]
      is the leaf that failed binding last in the deepest-reaching
      failed search ([level] leaves were bound when it got furthest);
      [None] until some search returns [Not_found]. The bounded
      explanation [ocep explain] renders for digests that match no
      report. *)

  val metrics : t -> metrics

  val detach : t -> unit
  (** Hot-detach the pattern: its subscriptions leave the dispatch table
      and each of its classes' refcounts drop; a class with no
      subscribers left releases its history storage. The pattern's
      registry metrics freeze at their last values. Raises
      [Ocep_error.Error (Stale_handle _)] when already detached. *)
end

(** {1 Construction and the pattern registry} *)

val create :
  ?config:config -> ?patterns:Compile.t list -> ?net:Compile.t -> poet:Poet.t -> unit -> t
(** The one constructor: builds an engine subscribed to [poet] and
    registers [net] (when given) followed by each element of [patterns],
    in order — their handles are recoverable via {!handles}. With
    neither, the registry starts empty and events arriving while no
    pattern is registered only advance the frontier and the communication
    epochs.

    Raises [Invalid_argument] on a nonsensical config ([gc_every],
    [node_budget] or [max_history_per_trace] of [Some n] with [n <= 0], a
    negative [report_cap], or a non-positive [trace_capacity] or
    [provenance_capacity]) and on any pattern exceeding
    {!Compile.max_leaves}. *)

val add_pattern : t -> Compile.t -> Handle.t
(** Register a pattern: intern it through the POET store's symbol table
    and subscribe its leaves to the discrimination network — an
    incremental edit touching one node (found or created) per leaf, so
    registration cost is independent of how many patterns are already
    registered. Leaves whose [process, type, text] class key equals one
    already registered (by this or another pattern) share that node's
    physical history; a pattern structurally equal to an earlier one
    (equal {!Compile.shape_key} — notably another instance of the same
    template) additionally reuses its search plans. Raises
    [Invalid_argument] on a pattern exceeding {!Compile.max_leaves}
    leaves. A pattern attached mid-run starts with empty coverage but
    sees any history its shared nodes already accumulated. *)

val handles : t -> Handle.t list
(** Handles of the live patterns, ascending registration order. *)

val remove_pattern : t -> pattern_id -> unit
(** {!Handle.detach} by pattern id: unsubscribe every leaf from its
    automaton node — a node losing its last subscriber leaves the
    network and releases its history class. Raises
    [Ocep_error.Error (Unknown_pattern _)] on an unknown or removed
    id. *)

val pattern_ids : t -> pattern_id list
(** Ids of the live patterns, ascending registration order. *)

val pattern_count : t -> int

(** {1 Engine-wide accessors}

    The aggregating accessors below ([matches_found], [covered_slots],
    [search_stats], ...) sum over live patterns — for a single-pattern
    engine they are exactly the pre-registry values. [net] and
    [interned_net] refer to the earliest live pattern. *)

val net : t -> Compile.t
(** The earliest live pattern's net. Raises [Invalid_argument] when the
    registry is empty. *)

val interned_net : t -> Compile.inet
(** The net interned through the POET store's symbol table — what the
    engine's own searches run on; exposed so external callers
    (baseline comparisons, tests) can run {!Matcher} searches against
    this engine's history. Earliest live pattern; raises
    [Invalid_argument] when the registry is empty. *)

val config : t -> config

val poet : t -> Poet.t
(** The POET store the engine is subscribed to. *)

val feed_raw : t -> Event.raw -> Event.t
(** Deliver one raw event to the engine's POET store (and so, through the
    subscription, to the engine): the single ingest entry point used by
    both the in-process simulator path and {!Ocep_ingest}'s admission
    layer. The caller owes POET's precondition — events of each trace in
    local-clock order, receives after their sends; that is exactly what
    the admission layer restores under degraded delivery. Events fed
    this way carry the [Direct] provenance verdict. *)

val feed_raw_flat : t -> Event.raw -> unit
(** {!feed_raw} without the boxed return value. With no boxed POET
    clients the whole ingest + dispatch path then allocates nothing for
    events that match no class — the hot-path entry point for raw-speed
    feeding. *)

val feed_block : t -> ?off:int -> ?len:int -> Event.raw array -> unit
(** Feed a block of raw events ([off], [len] select a slice; the whole
    array by default): one tight loop over {!feed_raw_flat}, the batch
    half of the arrival path used by {!Ocep_ingest.Source}'s block mode
    and the benchmarks. Raises [Invalid_argument] on an out-of-bounds
    slice. *)

val set_wire_stamps : t -> decode_us:float -> admit_us:float -> unit
(** Set the decode/admit timestamps the flight recorder will stamp on
    subsequent {!feed_wire} events, until the next call. Split from
    {!feed_wire} so the per-record path carries only immediates — float
    arguments to a cross-library call are boxed — while stamps change
    only on the ingest path's sampled records and buffered releases. *)

val feed_wire : t -> id:int -> verdict:Ocep_obs.Provenance.verdict -> Event.raw -> unit
(** {!feed_raw_flat} with wire provenance: the admission layer's verdict
    and the current {!set_wire_stamps} timestamps are stamped into the
    flight recorder alongside the dispatch timestamp. Like
    [feed_raw_flat] it returns nothing, so an event that matches no
    class is never boxed. Identical to [feed_raw_flat] when the config's
    [provenance] is off. *)

val flight : t -> Flight.t option
(** The flight recorder, present when the config's [provenance] is on. *)

val note_wire_drop : t -> id:int -> verdict:Ocep_obs.Provenance.verdict -> unit
(** Record a wire record the admission layer refused (deduped,
    gap-skipped, late, orphaned) into the flight recorder's drop ring;
    no-op without one. *)

val reports : t -> Subset.report list
(** The representative subset(s), grouped by pattern in registration
    order, each group in report order. *)

val report_digest : pattern_id:pattern_id -> Subset.report -> string
(** 16-hex-digit FNV-1a digest of one report's observables (arrival
    sequence, freshness, event identities), salted with its pattern id —
    the stable name [ocep run]/[ocep replay] print next to each report
    and [ocep explain] resolves. *)

val reports_digest : t -> string
(** 16-hex-digit FNV-1a digest of every live pattern's observables —
    matches, coverage, and each report's arrival sequence, freshness and
    event identities, in registration order. Two engines produce the
    same digest iff their match reports are bit-identical; the CLI
    prints it, and the service control plane ships it in STATS/DRAIN
    replies so per-tenant isolation is a string comparison. *)

val matches_found : t -> int
(** Successful searches (includes matches that added no new coverage),
    summed over patterns. *)

val find_containing : t -> Event.t -> Event.t array option
(** One complete match of any registered pattern containing the given
    event (which must have been processed), for ground-truth queries —
    independent of the subsets. Patterns are tried in registration
    order. *)

val latencies_us : t -> float array
(** Per-terminating-arrival processing times, microseconds — the raw
    samples, populated only when [record_latency] is on and
    [latency_sink] is [Samples] or [Both]; empty under [Histogram]
    (that is the point: no per-arrival storage). *)

val latency_histogram : t -> Ocep_stats.Histogram.t
(** The bounded latency histogram (registered as [ocep_latency_us]);
    empty unless [latency_sink] is [Histogram] or [Both]. *)

val metrics : t -> Ocep_obs.Metrics.t
(** The engine's metrics registry. Besides the engine-wide instruments,
    every registered pattern owns labeled variants of the per-pattern
    ones ([ocep_matches_total{pattern="N"}], [ocep_reports{...}],
    [ocep_covered_slots{...}], [ocep_seen_slots{...}],
    [ocep_search_*_total{...}], [ocep_pinned_skipped_total{...}],
    [ocep_latency_us{...}]). Call {!sync_metrics} first to pull the
    current counter values in; then render with {!Ocep_obs.Snapshot}. *)

val sync_metrics : t -> unit
(** Copy every internal counter (engine, per-pattern, matcher, history,
    subset, POET, tracer) into the registry. O(instruments); safe
    to call as often as snapshots are wanted, including mid-run. *)

val tracer : t -> Ocep_obs.Tracer.t option
(** The span ring buffer, present when [trace_spans] was set. *)

val events_processed : t -> int
val terminating_arrivals : t -> int

val history_entries : t -> int
(** Live entries in the shared store — each physical class counted once,
    however many (pattern, leaf) pairs subscribe to it. *)

val history_dropped : t -> int

val automaton_nodes : t -> int
(** Live discrimination-network nodes — distinct class keys across the
    registered patterns. With node sharing this is typically far below
    the total leaf count ({e dedicated} dispatch would hold one entry
    per (pattern, leaf) pair). *)

val automaton_nodes_total : t -> int
(** Nodes ever allocated, including removed ones (exported as
    [ocep_automaton_nodes_total]). *)

val automaton_shared_evals : t -> int
(** Class-predicate evaluations saved by node sharing so far: for every
    candidate node tested during dispatch, all subscribers beyond the
    first ride on the one test (exported as
    [ocep_automaton_shared_evals_total]). Zero until two (pattern, leaf)
    pairs share a node. *)

val covered_slots : t -> int
val seen_slots : t -> int

val search_stats : t -> Matcher.stats
(** Merged counters across all patterns and searches. For a
    single-pattern engine this is that pattern's live stats record; with
    several patterns it is a fresh snapshot summed at call time. *)

val aborted_searches : t -> int

val pinned_skipped : t -> int
(** Pinned searches skipped by the slot pre-filter (exported as
    [ocep_pinned_skipped_total]) — each one a whole search the engine
    proved futile from O(1) state instead of running. *)

val shutdown : t -> unit
(** A no-op: the engine owns no domains or other resources to release.
    Kept for existing callers; it will be removed with them. *)
