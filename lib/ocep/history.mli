(** Per-class event histories (the leaf nodes of the pattern tree).

    Every event that class-matches a leaf is appended to that leaf's
    history on the event's trace, so within one history events are in
    trace order and both their indices and any entry of their vector
    timestamps are monotone — which is what lets the domain restriction
    work by binary search.

    Since PR 4 the physical storage is a {e class-indexed store}: leaves
    — of one pattern or of several patterns registered with the same
    engine — whose [process, type, text] class-matches the same events
    (equal {!Ocep_pattern.Compile.class_key}) can share one physical
    history. The per-leaf API below operates on a {e view} ({!t}) that
    maps each leaf of one pattern to its class, so the matcher and the
    baselines are unchanged; the engine allocates classes explicitly and
    adds each arrival once per class instead of once per leaf.

    The O(1) redundancy rule of Section V-D is applied on insertion, in
    the sound form the differential fuzzer forced us to (PR 6): when the
    trailing entries of the class history plus the new event form a block
    of {e consecutive} trace positions with equal attribute values inside
    one communication epoch, the oldest block member is evicted (unless it
    is a send — its message receipts keep it causally distinguishable) so
    that the last {!set_run_cap} block members are kept. Consecutiveness
    guarantees no event at all interposes; the epoch guarantees the block
    holds no mid-block communication (sends and receives advance the epoch
    before they are stored, so they can only start a block); and the run
    cap — maintained at the maximum registered pattern size — guarantees
    any match can remap its block events order-preservingly onto the kept
    suffix, with identical relations to everything outside the block.
    Matches and covered slots are preserved exactly. An optional hard cap
    bounds each history for arbitrarily long runs (oldest entries are
    dropped). With sharing, pruning and the cap apply once per class, not
    once per subscribed leaf. *)

open Ocep_base

type entry = { ev : Event.t; epoch : int }

type store
(** The physical class-indexed storage: communication epochs, one history
    per allocated class, and the drop/prune/eviction counters. One store
    is shared by every pattern of a multi-pattern engine. *)

type t
(** A leaf-indexed view of a store for one pattern: leaf [l] reads and
    writes the class the view was built with. Views are cheap (two arrays
    of length [k]) and share the store's storage. *)

(** {1 Store construction (the multi-pattern engine's interface)} *)

val create_store : n_traces:int -> pruning:bool -> ?max_per_trace:int -> unit -> store

val set_run_cap : store -> int -> unit
(** Raise the number of entries the pruning rule keeps per
    identical-event run (never lowers it; initially 1). Soundness
    requires it to be at least the leaf count of every pattern reading
    the store — the engine calls this with {!Ocep_pattern.Compile.size}
    at registration, and the standalone {!create} sets it from its net. *)

val alloc_class : store -> int
(** A fresh, empty class; its id. Ids of released classes are reused.
    Legacy store-owned allocation — the multi-pattern engine keys the
    store on discrimination-network node ids via {!ensure_class}
    instead. *)

val ensure_class : store -> int -> unit
(** Bind fresh, empty storage to an externally-allocated class id — the
    engine's path since the registry compiles into a discrimination
    network whose node ids key the store (the network owns allocation
    and recycling, keeping ids dense). Idempotent for an id already
    bound by the network discipline: a recycled id's slot was replaced
    with fresh storage at {!release_class} time. *)

val release_class : store -> int -> unit
(** Drop the class's storage (its entries leave {!store_entries}
    immediately, without counting as {!dropped}) and recycle the id. Only
    call once no live view references the class — the engine does this
    when the last pattern subscribed to a class is removed. *)

val class_count : store -> int
(** Allocated class ids are [0, class_count) (including released ones). *)

val view : store -> classes:(int array) -> t
(** The view mapping leaf [l] to class [classes.(l)]. The array is copied. *)

val store_of : t -> store

val class_id : t -> leaf:int -> int

val add_class : store -> cls:int -> Event.t -> unit
(** Append to the class's history on the event's trace (with pruning) —
    the engine's per-arrival write, executed once per matched class
    regardless of how many (pattern, leaf) pairs subscribe to it. *)

val note_comm_store : store -> Event.t -> unit

val note_comm_store_i : store -> trace:int -> comm:bool -> unit
(** [note_comm_store] for callers that carry the event as arena columns:
    advance [trace]'s communication epoch when [comm]. *)

val class_entries : store -> cls:int -> int

val store_entries : store -> int

val store_dropped : store -> int

val store_pruned : store -> int

val store_cap_evicted : store -> int

val store_epochs_total : store -> int

val gc_store : store -> thresholds:int array -> classes:bool array -> int
(** {!gc} by class id: drop dead entries of every class whose bit is set.
    With shared classes the engine enables a class only when {e every}
    subscribed (pattern, leaf) pair is GC-able — the sound (conservative)
    AND. Returns the number of entries dropped. *)

(** {1 Per-leaf view API (unchanged from the single-pattern engine)} *)

val create :
  Ocep_pattern.Compile.t -> n_traces:int -> pruning:bool -> ?max_per_trace:int -> unit -> t
(** Standalone compatibility constructor: a fresh store with one private
    class per leaf (no sharing) — exactly the pre-registry behavior, used
    by the baselines, the ablations and the tests. *)

val note_comm : t -> Event.t -> unit
(** Advance the communication epoch of the event's trace if the event is a
    send or a receive. Call on {e every} event, before {!add}. *)

val add : t -> leaf:int -> Event.t -> unit
(** Append to the leaf's class history on the event's trace (with
    pruning). When classes are shared, adding through two leaves of the
    same class stores the event twice — the engine adds per {e class}
    ({!add_class}) instead. *)

val on : t -> leaf:int -> trace:int -> entry Vec.t
(** The (live) history vector; callers must not mutate it. *)

val positions_for_text : t -> leaf:int -> trace:int -> int -> int Ocep_base.Vec.t
(** Positions (ascending) of the leaf's entries on the trace whose text
    symbol equals the given id — the candidate index used when the leaf's
    text attribute is an exact string or an already-bound variable.
    {!no_positions} when there are none. Callers must not mutate it. *)

val no_positions : int Ocep_base.Vec.t
(** The shared empty answer of {!positions_for_text}. *)

val generation : t -> leaf:int -> trace:int -> int
(** Monotone counter bumped on every mutation (append, pruning replace,
    cap eviction, GC drop) of the leaf's (class, trace) history. Equal
    generations at two instants mean the history is unchanged in between
    — the basis of the engine's "skip a pinned search whose slot saw
    nothing new since it last failed" filter. *)

val total_entries : t -> int
(** Current number of stored entries across the whole underlying store
    (all classes — for an engine view that is all patterns), the
    monitor's storage footprint. *)

val entries_for : t -> leaf:int -> int
(** Stored entries of the leaf's class across all traces. O(1):
    maintained as a per-class counter so the engine can use it as a work
    estimate on every terminating arrival. *)

val dropped : t -> int
(** Entries evicted by the [max_per_trace] cap or by {!gc} (not by the
    O(1) pruning rule). *)

val pruned : t -> int
(** Entries merged away by the O(1) pruning rule (oldest member of a
    consecutive identical-event block, see the module header). *)

val cap_evicted : t -> int
(** Entries evicted by the [max_per_trace] cap alone, i.e. {!dropped}
    minus GC drops. *)

val epochs_total : t -> int
(** Communication-epoch advances summed over all traces — one per
    send/receive seen by {!note_comm}. *)

val gc : t -> thresholds:int array -> leaves:bool array -> int
(** The paper's future-work extension: drop entries that can no longer
    generate new matches. [thresholds.(tr)] is the greatest trace index on
    [tr] already in the causal past of {e every} trace's frontier — any
    future event is causally after such entries, so for a leaf whose
    relation to every possible anchor leaf excludes [Before] (enabled via
    [leaves]) they are dead. Returns the number of entries dropped;
    rebuilds the text index of the affected histories. Per-leaf bits are
    OR-ed onto shared classes — only use this view-level entry point when
    every leaf sharing a class agrees (the engine computes the
    conservative AND and calls {!gc_store} directly). *)
