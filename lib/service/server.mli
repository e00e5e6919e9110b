(** The sharded multi-tenant matching service.

    One process hosts [shards] POET engines' worth of matching capacity:
    each shard is an OCaml 5 domain running an admission + engine loop,
    fed through a bounded {!Ocep_ingest.Bqueue}. A tenant is one framed
    connection ({!Ocep_ingest.Framing} over TCP): the stream header
    names the tenant's traces, the first frame must be a
    {!Control.request.Hello}, and from then on data frames and control
    frames interleave freely on the wire.

    {b Routing.} A tenant is pinned to [hash(tenant) mod shards] for its
    whole session, so every trace the tenant owns is replayed on one
    domain — causal order within a tenant never crosses a domain
    boundary, which is what lets each tenant's engine produce digests
    bit-identical to a dedicated single-process engine. Different
    tenants hashing to the same shard interleave at frame-batch
    granularity but touch disjoint engines, so they cannot perturb each
    other's observables.

    {b Quotas.} Each tenant has an in-flight quota: the number of its
    events queued toward its shard but not yet matched. The enforcement
    stance is the existing {!Ocep_ingest.Bqueue.policy}: [Block] stalls
    the tenant's connection reader until the shard catches up (lossless
    backpressure — TCP pushes back to the client), [Shed] drops the
    overflow at the router and counts it ([shed] in {!Control.stats}),
    degrading {e only} that tenant: its record-id gaps are absorbed by
    its own admission layer's [Skip] policy. [Hello] may lower the quota
    or switch the policy per session; raising it above the server cap is
    refused with [Quota_exceeded]. So is a stream header naming more
    than {!max_traces} traces: a tenant's POET holds a live clock row
    per trace as long as the trace table, so its memory grows with the
    square of the trace count.

    {b Control.} ATTACH/DETACH/STATS/DRAIN frames are routed through the
    same shard queue as the tenant's data, so a control edit takes
    effect at an exact, reproducible stream position: a client that
    sends [f1 .. fk, ATTACH, fk+1 ..] observes precisely the reports of
    an engine whose pattern was attached between [fk] and [fk+1].
    Responses are written by the shard directly to the tenant's
    connection (1:1, in request order).

    {b Telemetry.} With [metrics_port] set, a publisher thread owns a
    service-level metrics registry (the per-tenant engines' registries
    stay on their shard domains, per the {!Ocep_obs.Metrics} contract)
    and serves [ocep_tenant_events_total{tenant=...}],
    [..._frames_total], [..._shed_total], [..._matches_total],
    [ocep_service_tenants] and [ocep_shard_queue_depth{shard=...}] over
    the existing {!Ocep_obs.Serve} endpoint, refreshed from the shards'
    atomic counters twice a second. *)

module Session = Ocep_ingest.Session
module Bqueue = Ocep_ingest.Bqueue

type config = {
  host : string;
  port : int;  (** 0 asks the OS for a free port (see {!port}) *)
  shards : int;  (** matching domains; > 0 *)
  tenant_quota : int;  (** in-flight event cap per tenant, and the Hello ceiling *)
  quota_policy : Bqueue.policy;  (** default enforcement stance *)
  session : Session.config;
      (** per-tenant admission knobs ([gap_policy], [reorder_window]);
          the [faults]/[pipeline] fields are ignored — degradation is
          the transport's job and each shard is already a pipeline *)
  max_patterns : int;  (** ATTACH cap per tenant; exceeding it is [Quota_exceeded] *)
  metrics_port : int option;  (** [Some p] serves /metrics on 127.0.0.1:p (0 = free port) *)
}

val default_config : config
(** 127.0.0.1:0, 2 shards, quota 4096 [Block], admission [Skip 64] with
    the default window (a quota shed must not wedge the tenant's own
    stream on [Wait]), 64 patterns, no metrics endpoint. *)

val max_traces : int
(** 1024: the most traces a tenant's stream header may name. *)

type t

val start : ?config:config -> unit -> t
(** Bind, spawn the shard domains and the accept thread, and return.
    Raises [Unix.Unix_error] if the address cannot be bound,
    [Invalid_argument] on a non-positive [shards] or [tenant_quota < 0]. *)

val port : t -> int
val metrics_port : t -> int option

val tenant_count : t -> int
(** Currently connected tenants. *)

val stop : t -> unit
(** Stop accepting, close every live connection, drain and join the
    shard domains, stop the telemetry endpoint. Idempotent. Clients
    still connected see EOF; clients that already received their DRAIN
    response lose nothing. *)
