(** Replay a framed stream into an engine through the admission layer —
    the ingest path's top plumbing. Decode errors are tolerated
    per-frame ({!Framing.item}), admission restores order and drops
    duplicates, and everything is accounted into [ocep_ingest_*]
    instruments of the engine's metrics registry:

    - counters [ocep_ingest_frames_total], [..._crc_errors_total],
      [..._bad_frames_total], [..._truncated_total],
      [..._admitted_total], [..._duplicates_total], [..._late_total],
      [..._reordered_total], [..._gaps_total], [..._trace_gaps_total],
      [..._orphan_receives_total], [..._queue_shed_total]
    - histograms [ocep_ingest_reorder_depth] (buffer depth after each
      frame) and [ocep_ingest_queue_occupancy] (queue length at each
      consumer wakeup, pipelined mode only)
    - the {!Ocep_obs.Watermark} plane: per-stage watermark gauges,
      ingest lag, and [ocep_stage_latency_us] histograms for decode,
      queue residency (pipelined mode), reorder-buffer residency, and
      per-record match time

    Each admitted event reaches the engine through
    {!Ocep.Engine.feed_wire}, so the flight recorder sees its wire id,
    admission verdict, and stage timestamps; refused records land in
    the engine's drop ring via {!Ocep.Engine.note_wire_drop}.

    Timing is {e sampled}: one frame in 64 carries fresh clock stamps
    and feeds the latency histograms; the rest reuse the most recent
    stamp and advance the watermarks gauge-only. Record ids, verdicts,
    watermarks and lag are exact on every record — only the timestamp
    precision of unsampled records is coarse (bounded by the sample
    window), which is what keeps the always-on provenance + watermark
    plane under a few percent of the per-event budget. Buffered
    (reordered) releases always carry a fresh admit stamp, so
    reorder-buffer residency is measured exactly.

    With [pipeline] set, a dedicated domain reads and CRC-checks frames
    while the calling domain runs admission and matching, the two
    coupled by a {!Bqueue} whose policy is the backpressure stance.
    Shedding loses frames exactly like a lossy transport — the admission
    layer turns each shed frame into a gap, so [Shed] only preserves
    match reports when the gap policy tolerates loss. *)

type config = {
  admission : Admission.config;
  queue_capacity : int;
      (** pipelined mode: frames (block mode: blocks) buffered between
          the domains *)
  queue_policy : Bqueue.policy;
  pipeline : bool;
  block_size : int;
      (** > 1 enables block mode: frames are decoded and admitted in
          chunks of this size, amortizing per-record costs — the decode
          loop's clock sampling, and in pipelined mode the queue
          hand-off synchronization (one push/pop per block instead of
          per frame). Admission order, verdicts, watermarks and lag are
          identical to the per-record path; full clock stamps land on
          at most one frame per block, so only the timestamp precision
          of the latency histograms coarsens (and with [Shed],
          [queue_shed] counts shed {e blocks}). [1] (the default) is
          the exact per-record path. *)
}

val default_config : config
(** default admission, capacity 4096, [Block], pipeline off,
    block_size 1. *)

type stats = {
  frames : int;  (** well-formed frames offered to admission *)
  crc_errors : int;
  bad_frames : int;
  truncated : bool;  (** the stream ended mid-frame *)
  queue_shed : int;
  queue_max_occupancy : int;
  admission : Admission.stats;
}

val replay_stream :
  ?config:config -> ?tick:(unit -> unit) -> engine:Ocep.Engine.t -> Framing.reader -> stats
(** Drives the reader to [Eof]/[Truncated], feeding admitted events to
    {!Ocep.Engine.feed_wire}, then finishes admission and syncs the
    [ocep_ingest_*] instruments. [tick] is called every 1024 frames on
    the ingesting domain — the hook the CLI uses to republish telemetry
    under live load. Raises [Invalid_argument] when the stream's trace
    table does not match the engine's POET store (same names, same
    order), and lets {!Admission.Gap} escape. *)
