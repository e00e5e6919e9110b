(** One typed knob-set for driving a framed stream into an engine — the
    ingest path's public entry point since the service tier.

    Before this module, assembling a replay meant threading five
    separately-typed knobs ({!Admission.config}, queue capacity, queue
    policy, pipeline flag, block size) plus a CLI-side fault-injection
    dance through every call site. {!config} is the one flat record:
    the CLI's [ocep replay] flags, the service tier's per-tenant
    admission settings and the tests all build it from {!default} and
    override fields by name.

    Fault degradation ([faults]/[fault_seed]) lives here too: a faulted
    replay decodes the pristine log, applies the deterministic
    {!Ocep_workloads.Inject.apply_faults} schedule to the frame
    sequence, re-frames it into a temp file and replays that — so the
    degraded stream exercises exactly the same reader and admission
    path as a pristine one. *)

type config = {
  gap_policy : Admission.gap_policy;
  reorder_window : int;  (** max out-of-order frames held by admission; > 0 *)
  pipeline : bool;  (** decode on a dedicated domain, hand over a {!Bqueue} *)
  queue_capacity : int;  (** pipelined mode: frames (or blocks) buffered *)
  queue_policy : Bqueue.policy;
  block_size : int;  (** > 1 decodes and admits in chunks (see {!Source.config}) *)
  faults : Ocep_workloads.Inject.faults;
      (** deterministic transport degradation applied to the frame
          sequence before admission; {!Ocep_workloads.Inject.no_faults}
          streams the input untouched *)
  fault_seed : int;  (** PRNG seed for [faults] *)
}

val default : config
(** [Wait] on gaps, window 1024, no pipeline, queue 4096 [Block],
    block size 1, no faults (seed 7) — byte-for-byte the behavior of
    {!Source.default_config}. *)

val source_config : config -> Source.config
(** The admission/queue/pipeline subset, in {!Source}'s record — what
    the service tier uses to provision each tenant's admission layer. *)

val replay :
  ?config:config ->
  ?tick:(unit -> unit) ->
  ?log:(string -> unit) ->
  engine:Ocep.Engine.t ->
  Framing.reader ->
  Source.stats
(** Drive the reader into the engine under [config]. Without faults
    this is exactly the streaming path (constant memory); with faults
    the whole stream is decoded first (memory O(frames)) and [log], if
    given, receives one line describing the degradation (frame counts
    before and after). [tick] as in {!Source.replay_stream}. Raises
    [Invalid_argument] on a trace-table mismatch and lets
    {!Admission.Gap} escape, like the underlying stream replay. *)
