(** The admission layer: restores the engine's delivery preconditions
    from a degraded stream. {!Ocep_poet.Poet.ingest} requires a valid
    linearization — each trace's events in local-clock order, every
    receive after its send — and the engine's match reports additionally
    embed the global arrival sequence, so byte-identical reports need the
    exact recorded order. A real transport delivers neither: it reorders,
    duplicates, and drops.

    The layer holds a bounded reorder buffer keyed on the global record
    id (record order is a linearization, so restoring id-contiguity
    restores every per-trace local clock and every send-before-receive
    edge at once), suppresses duplicate ids, and detects gaps — a
    missing id that newer frames have overtaken. What happens at a gap
    is the {!gap_policy}:

    - [Wait]: never give up on a missing id mid-stream; a gap surfaces
      only if the buffer would exceed [reorder_window] (raises {!Gap} —
      the transport's disorder exceeded the provisioned bound) or at
      {!finish}, where the survivors are flushed in id order.
    - [Skip n]: give up on the ids blocking the head after [n] further
      frames arrive (and immediately when the window fills); matching
      continues on the remaining stream, with the loss counted per
      trace.
    - [Fail]: like [Wait] during the stream, but any loss — window
      overflow or ids still missing at {!finish} — raises {!Gap}.

    After a skip, the per-trace local clocks jump; POET tolerates index
    gaps, but a receive whose send was in the lost range would make
    [ingest] raise, so such orphaned receives are dropped and counted
    ([orphan_receives]) rather than crashing the engine. A receive
    consumes its send, so a second receive of the same message id is
    an orphan too. *)

type gap_policy =
  | Wait
  | Skip of int  (** patience, measured in subsequently arriving frames *)
  | Fail

type config = {
  reorder_window : int;  (** max out-of-order frames held; > 0 *)
  gap_policy : gap_policy;
}

val default_config : config
(** window 1024, [Wait]. *)

type stats = {
  frames : int;  (** frames offered to {!push} *)
  admitted : int;  (** events released to the consumer *)
  duplicates : int;  (** already-admitted or already-buffered ids, dropped *)
  late : int;  (** frames for an id that had been skipped — loss double-counted by the transport, not new data *)
  reordered : int;  (** frames that arrived before an earlier id and had to be buffered *)
  max_depth : int;  (** peak reorder-buffer occupancy *)
  gaps : int;  (** ids given up on *)
  trace_gaps : int array;  (** per-trace events lost to gaps, attributed at the local-clock jump *)
  orphan_receives : int;  (** receives dropped because their send fell into a gap or was already received *)
}

exception Gap of string

type t

val create :
  ?config:config ->
  ?on_depth:(int -> unit) ->
  ?on_drop:(Ocep_obs.Provenance.verdict -> int -> unit) ->
  n_traces:int ->
  emit:
    (verdict:Ocep_obs.Provenance.verdict ->
    decode_us:float ->
    admit_us:float ->
    Wire.t ->
    unit) ->
  unit ->
  t
(** [emit] receives admitted events, in exact record order when no id is
    ever skipped, each stamped with its provenance: the verdict
    ([In_order] for frames released on the fast path, [Reordered] for
    frames that overtook an earlier id and sat in the buffer),
    [decode_us] — the frame's admission-entry timestamp (the [at_us]
    given to {!push}), and [admit_us] — the release timestamp; their
    difference is the frame's reorder-buffer residency. Fast-path
    releases happen inside the same {!push}, so they reuse [at_us] as
    the admit stamp without reading the clock; only buffered releases
    pay a clock read for their real residency (so [admit_us >
    decode_us] identifies a buffered release). [on_depth]
    observes the buffer depth after every {!push} that leaves frames
    buffered — in-order frames are released on a fast path that reports
    nothing, so the [ocep_ingest_reorder_depth] histogram it feeds
    counts only actual disorder. [on_drop] observes every record id the
    layer refuses, with why: [Deduped] (duplicate id), [Gap_skipped]
    (given up on under [Skip] or lost in a hole at {!finish}), [Late]
    (arrived after its id was skipped), [Orphaned] (receive whose send
    fell into a gap) — the feed of the engine's refused-record ring.
    Raises [Invalid_argument] on a non-positive window or negative
    [Skip] patience. *)

val push : ?at_us:float -> t -> Wire.t -> unit
(** Offer one frame; may call [emit] zero or more times. [at_us] is the
    frame's admission-entry timestamp (decode completion when the
    caller timestamps at decode; defaults to
    [Ocep_base.Clock.now_us ()]). Raises {!Gap} per the policy, and
    [Invalid_argument] on a frame whose trace id is outside
    [0, n_traces). *)

val finish : t -> unit
(** End of stream: flush the buffer per the policy ([Fail] raises {!Gap}
    if anything is missing). Further {!push}es raise [Invalid_argument]. *)

val stats : t -> stats
(** A snapshot ([trace_gaps] is a fresh copy). *)
