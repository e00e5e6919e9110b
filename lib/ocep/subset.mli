(** Representative-subset bookkeeping (Section IV-B).

    A coverage slot is a (leaf, trace) pair. The representative subset must
    contain, for every slot on which a matching event participates in some
    complete match, at least one reported match instantiating that slot —
    at most k·n matches. The tracker records which slots have been covered
    by reported matches, which slots have been seen (some event
    class-matched the leaf on the trace — only those can possibly need
    covering), and keeps the reported matches. *)

open Ocep_base

type report = {
  events : Event.t array;  (** the match, indexed by leaf id *)
  fresh : (int * int) list;  (** slots this report covered first *)
  seq : int;  (** ingestion sequence number at report time *)
}

type t

val create : k:int -> n_traces:int -> ?report_cap:int -> unit -> t
(** [report_cap] (default [max_int]) bounds the retained report list; the
    coverage arrays stay exact regardless.

    Cap semantics: once the cap is hit, {!record} keeps updating the
    coverage matrices and keeps returning [Some report] for matches that
    cover new slots — it only stops {e retaining} the report objects, so
    {!covered_count} advances past the point where {!reports} stops
    growing. Every report lost this way is counted in {!dropped_count}
    and exported as [ocep_subset_reports_dropped_total]; a nonzero value
    means the subset in {!reports} is no longer representative (some
    covered slot has no retained witness) and the cap must be raised to
    recover the paper's k·n guarantee from the report list alone. *)

val seen : t -> leaf:int -> trace:int -> unit
val is_covered : t -> leaf:int -> trace:int -> bool
val is_seen : t -> leaf:int -> trace:int -> bool

val record : t -> seq:int -> Event.t array -> report option
(** Update coverage with a found match; [Some report] iff it covered at
    least one new slot. The report is added to the subset unless
    [report_cap] retained reports already exist, in which case it is
    dropped and counted (see {!create} for the cap semantics). *)

val pending_slots : t -> int
(** The number of slots that have candidate events but no covering match
    yet — the engine re-searches these on every terminating event. Drops
    slots covered since they were queued, in place; read the rest with
    {!pending_slot}. *)

val pending_slot : t -> int -> int
(** [pending_slot t i], for [i] below the last {!pending_slots} count:
    the [i]-th pending slot, most recently seen first, packed as one int
    (decode with {!slot_leaf} and {!slot_trace}). *)

val slot_leaf : t -> int -> int
val slot_trace : t -> int -> int

val reports : t -> report list
(** Reported matches, oldest first (capped at [report_cap]). *)

val covered_count : t -> int
val seen_count : t -> int

val dropped_count : t -> int
(** Coverage-advancing reports discarded because the cap was reached —
    the gap between what {!covered_count} claims and what {!reports} can
    witness. *)
