(** Candidate domains and their restriction by an instantiated event
    (Fig. 4).

    Given the history of a leaf on one trace and an already instantiated
    event [w], the positions that may still extend the partial match are:

    - relation [Before]  (candidate → w): positions up to the greatest
      predecessor of [w] on the trace, found from [w]'s own timestamp
      entry in O(1) plus a binary search;
    - relation [After]   (w → candidate): positions from the least
      successor of [w] on, found by binary search on the candidates'
      timestamp entry for [w]'s trace (monotone along the trace);
    - relation [Concurrent]: the open window strictly between the two.

    The three windows partition the history, so one restriction allows
    at most two ranges of positions. A domain is a set of positions
    {e inside the history vector} (not trace indices), kept as disjoint,
    sorted, non-adjacent intervals in two preallocated int arrays and
    intersected in place: restricting a domain allocates nothing. Each
    restriction adds at most one interval, so a domain of a [k]-leaf
    pattern (at most [k - 1] restrictions) needs capacity [k + 1]. *)

open Ocep_base

type t

val create : capacity:int -> t
(** An empty domain able to hold [capacity] intervals (at least 2). *)

val set_full : t -> History.entry Vec.t -> unit
(** Reset to every position of the history (empty for an empty one). *)

val restrict :
  t -> History.entry Vec.t -> trace:int -> w:Event.t -> Ocep_pattern.Compile.allowed -> unit
(** Intersect in place with the positions of history entries on [trace]
    whose relation to [w] is one of the allowed ones. The domain must
    have been {!set_full} on the same history. Raises [Invalid_argument]
    if the domain is already at capacity. *)

val is_empty : t -> bool

val mem : t -> int -> bool

val max_elt : t -> int
(** The largest position, [-1] when empty. *)

val next_below : t -> int -> int
(** [next_below d x] is the largest position [<= x], [-1] when none. *)

val elements : t -> int list
(** All positions, ascending (allocates; for tests and debugging). *)

val intervals : t -> (int * int) list
(** The stored intervals, ascending (allocates; for tests). *)

val gp_position : History.entry Vec.t -> trace:int -> w:Event.t -> int
(** Largest position whose event happens before [w] ([-1] if none): the
    greatest-predecessor boundary within this history. *)

val ls_position : History.entry Vec.t -> trace:int -> w:Event.t -> int
(** Smallest position whose event happens after [w] ([length] if none):
    the least-successor boundary within this history. *)
