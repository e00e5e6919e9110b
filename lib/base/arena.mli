(** Flat struct-of-arrays event store.

    The columnar twin of {!Event.t}: one row per ingested event,
    identified by its dense [eid] (ingestion sequence number), all
    fields ints in parallel off-heap Bigarray columns — trace, 1-based
    index, the three attribute symbols, a kind tag, the message id,
    and a {!Vc_pool} snapshot handle for the vector timestamp of
    communication events. Pushing a row allocates nothing on the OCaml
    heap (columns double off-heap); everything downstream of the POET
    boundary references events by [eid] and reads single columns. The
    boxed {!Event.t} survives as a lazily materialized view built by
    the owning store ({!Ocep_poet.Poet.materialize}), which holds the
    symbol table and clock pool the arena deliberately does not.

    Single writer (the ingest path); concurrent readers are safe while
    no push is in flight. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int
(** Rows pushed so far; valid eids are [0, length). *)

val push :
  t ->
  trace:int ->
  index:int ->
  tsym:int ->
  esym:int ->
  xsym:int ->
  kind:int ->
  msg:int ->
  vch:int ->
  int
(** Append a row; returns its eid ([= length] before the push). *)

(** {1 Column reads} (bounds-checked; raise [Invalid_argument]) *)

val trace : t -> int -> int
val index : t -> int -> int
val tsym : t -> int -> int
val esym : t -> int -> int
val xsym : t -> int -> int
val kind_tag : t -> int -> int
val msg : t -> int -> int
(** -1 for internal events. *)

val vch : t -> int -> int
(** {!Vc_pool.nil} when no snapshot was persisted (internal events). *)

val kind : t -> int -> Event.kind

(** {1 Unchecked column reads} (dispatch hot path; the eid must come
    from a completed {!push}) *)

val unsafe_trace : t -> int -> int
val unsafe_index : t -> int -> int
val unsafe_tsym : t -> int -> int
val unsafe_esym : t -> int -> int
val unsafe_xsym : t -> int -> int
val unsafe_kind_tag : t -> int -> int
val unsafe_msg : t -> int -> int

(** {1 Kind tags} *)

val k_internal : int
val k_send : int
val k_recv : int
val kind_tag_of : Event.kind -> int
val is_comm_tag : int -> bool

val footprint_bytes : t -> int
(** Off-heap bytes currently reserved by the columns. *)
