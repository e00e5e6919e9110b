(** The OCEP backtracking matcher (Algorithms 1–3).

    A search is anchored at a newly arrived event bound to one leaf. The
    remaining leaves are instantiated one backtracking level at a time in
    a connectivity order starting from the anchor. At each level the
    candidate domain on every trace is restricted by the causal relations
    to all already instantiated events (Fig. 4, {!Domain.restrict}) and
    candidates are tried newest-first. A wiped-out level jumps back to the
    deepest level it actually conflicts with — conflict-directed
    backjumping in the style of Prosser [33], which the paper's
    timestamp-recording goBackward realizes — rather than to the
    chronologically previous one.

    Leaves whose trace is pinned by an exact process attribute, by an
    already-bound process variable, or by the caller's [pin] argument
    iterate a single trace; this is what makes run time depend on the
    traces in the pattern rather than all traces (Section V-D).

    The matcher operates entirely on the interned view
    ({!Compile.inet}): attribute comparisons, variable bindings and the
    text-index lookups are integer compares of {!Ocep_base.Symbol} ids,
    never string operations. Conflict sets are level bitsets, which caps
    patterns at 62 leaves ([Invalid_argument] beyond). *)

open Ocep_base
module Compile = Ocep_pattern.Compile

type outcome =
  | Found of Event.t array  (** the match, indexed by leaf id *)
  | Not_found
  | Aborted  (** node budget exhausted *)

type stats = {
  mutable nodes : int;  (** candidates examined *)
  mutable backjumps : int;
  mutable searches : int;
  mutable miss_level : int;
      (** nearest miss: the deepest backtracking level any failed
          ([Not_found]) search reached — that many leaves were bound
          when the search got furthest; -1 until a search fails *)
  mutable miss_leaf : int;
      (** the leaf at {!miss_level}'s position in the evaluation order —
          the leaf that failed binding last; -1 until a search fails *)
}

val new_stats : unit -> stats

type plan
(** Precomputed per-[(net, anchor_leaf)] search strategy: the evaluation
    order, its inverse, and the partner adjacency. These are pure
    functions of the pattern and the anchor leaf, so callers issuing many
    searches for the same anchor leaf (the engine) build the plan once
    instead of re-deriving it per search. Plans are immutable and safe
    to share across domains. *)

val plan : net:Compile.inet -> anchor_leaf:int -> plan
(** Raises [Invalid_argument] for patterns over 62 leaves. *)

val search :
  ?plan:plan ->
  net:Compile.inet ->
  history:History.t ->
  n_traces:int ->
  trace_of_sym:(int -> int option) ->
  partner_of:(Event.t -> Event.t option) ->
  anchor_leaf:int ->
  anchor:Event.t ->
  ?pin:int * int ->
  ?node_budget:int ->
  ?stats:stats ->
  unit ->
  outcome
(** Find one complete match that instantiates [anchor_leaf] with [anchor];
    with [pin = (leaf, trace)], the match must additionally instantiate
    [leaf] on [trace]. [node_budget] bounds the nodes expanded by {e this}
    search ([Aborted] once exceeded) even when a cumulative [stats] record
    is shared across searches. [plan] must have been built with {!plan}
    for the same [net] and [anchor_leaf] (checked for the anchor leaf);
    omitted, it is derived on the spot. Raises [Invalid_argument] if the
    anchor event does not class-match the anchor leaf, if [pin] names the
    anchor leaf with a different trace, or on a plan/anchor mismatch.

    A search works in a context reused by every search on the calling
    domain, so with a [plan] it allocates only the boxes of its optional
    arguments and, on [Found], the match (plus whatever [trace_of_sym]
    and [partner_of] allocate). Nested calls are safe: a
    search started while another runs on the same domain (from one of
    its callbacks, or from another thread) gets a private context. *)

val enumerate :
  ?plan:plan ->
  net:Compile.inet ->
  history:History.t ->
  n_traces:int ->
  trace_of_sym:(int -> int option) ->
  partner_of:(Event.t -> Event.t option) ->
  anchor_leaf:int ->
  anchor:Event.t ->
  ?limit:int ->
  (Event.t array -> unit) ->
  unit
(** All matches anchored at the event, by exhaustive chronological
    backtracking over the same pruned domains (used by tests, the oracle
    comparisons, and the Fig. 3 demonstration). Uses a context of its
    own, so the callback may run searches. *)
