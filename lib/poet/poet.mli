(** The Partial-Order Event Tracer substrate.

    This is the OCaml stand-in for POET (Kunz, Black, Taylor, Basten 1997):
    it receives the raw events of a target system grouped by traces,
    assigns Fidge/Mattern vector timestamps, and hands events to client
    subscribers in a linearization of the causal partial order. It also
    supports the dump/reload workflow the paper's evaluation uses: save a
    collected execution to a file and replay it later through the same
    client interface.

    Events must be ingested in a valid linearization (a receive after its
    send); the simulator's emission order is one. [Linearize] can reshuffle
    a dump into a different valid linearization. *)

open Ocep_base

type t

val create :
  ?retain:bool -> ?partner_index:bool -> trace_names:string array -> unit -> t
(** [retain] (default [false]) keeps every timestamped event in the
    per-trace store — needed by offline oracles and tests, too expensive
    for million-event monitoring runs. *)

val trace_count : t -> int
val trace_names : t -> string array
val trace_of_name : t -> string -> int option

val dense_capacity : int
(** Message ids in [0, dense_capacity) use the dense per-message-id
    arrays for vector-clock and partner lookup; ids outside (negative or
    past the cap) spill to hashtables. Exposed so tests can exercise the
    dense/sparse boundary. *)

val symbols : t -> Symbol.t
(** The store's interning table. Trace names are interned at [create];
    every etype and text is interned at [ingest], so the [tsym]/[esym]/
    [xsym] fields of emitted events are ids in this table. *)

val arena : t -> Arena.t
(** The flat struct-of-arrays row store backing this POET: one row per
    ingested event, indexed by the eids handed to flat subscribers.
    Read-only for clients. *)

val vc_pool : t -> Vc_pool.t
(** The clock pool backing this POET: live per-trace rows plus the
    lane-packed snapshots referenced by the arena's [vch] column.
    Read-only for clients. *)

val clock_entry : t -> trace:int -> entry:int -> int
(** One entry of a trace's live clock — [entry]'s index in the causal
    past of [trace]'s latest event (its own event count when
    [entry = trace]). O(1), no allocation. *)

val trace_of_sym : t -> int -> int option
(** [trace_of_sym t s] is the trace whose name has symbol [s] — the
    integer twin of {!trace_of_name}, with the same first-trace-wins
    semantics for duplicate names. Total: unknown ids answer [None]. *)

val subscribe : t -> (Event.t -> unit) -> unit
(** Register a boxed client callback, invoked with the materialized
    [Event.t] of every subsequently ingested event, in ingestion order.
    Having at least one boxed subscriber forces a boxed record per
    ingest; allocation-free clients use {!subscribe_flat}. *)

val subscribe_flat : t -> (int -> unit) -> unit
(** Register a flat client callback, invoked with the eid of every
    subsequently ingested event. Flat subscribers run before boxed ones
    and cost no per-event allocation; the callback reads columns via
    {!arena} / {!clock_entry} and calls {!materialize} only when it
    needs the boxed view. *)

val ingest : t -> Event.raw -> Event.t
(** Timestamp, optionally store, fan out to subscribers, and return the
    event. Raises [Failure] if the event is a receive for an unknown
    message (i.e. the input order is not a linearization) or if the trace
    id is out of range. *)

val ingest_flat : t -> Event.raw -> int
(** [ingest] without the boxed return value: timestamp, push the arena
    row, fan out, return the eid. With no boxed subscribers and
    [retain:false] this path performs no OCaml-heap allocation per
    event. Same failure cases as {!ingest}. *)

val materialize : t -> int -> Event.t
(** The boxed view of an arena row. Communication events decode their
    persisted clock snapshot and can be materialized at any later time;
    an internal event only until its trace ingests another event (its
    clock lives in the trace's in-place row) — afterwards [Failure] is
    raised. Each call builds a fresh record; results are
    content-identical (and [Event.equal]) to the event a boxed
    subscriber saw, not physically equal to it. *)

val ingested : t -> int
(** Number of events ingested so far. *)

val notifications : t -> int
(** Subscriber callbacks invoked so far (ingested events × subscribers
    at the time of each ingestion) — the substrate's fan-out volume,
    exported by the engine's telemetry. *)

val events_on : t -> int -> Event.t array
(** Retained events of a trace, in trace order. Raises [Failure] if the
    store was created with [retain:false]. *)

val all_events : t -> Event.t list
(** All retained events in ingestion order. Raises like {!events_on}. *)

val find_partner : t -> Event.t -> Event.t option
(** The partner of a retained send/receive event (matching receive/send),
    if it has been ingested. Works regardless of [retain]: partner links
    for sends are kept until consumed and receives keep a link back. *)

(** {1 Dump / reload} *)

val dump_header : trace_names:string array -> out_channel -> unit
val dump_raw : out_channel -> Event.raw -> unit
(** Streaming dump: write the header once, then each raw event in
    ingestion order. *)

val load : in_channel -> string array * Event.raw list
(** Read back a dump: trace names and the raw events in dumped order.
    Raises [Failure] on a malformed file. *)
