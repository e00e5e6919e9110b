(** Reproduction of every table and figure in the paper's evaluation
    (Section V), plus the ablations DESIGN.md calls out.

    Scale is controlled by [events] (events per run; the paper uses >1M)
    and [runs] (seeds pooled per configuration; the paper averages 5).
    Absolute times differ from the paper's 2008 hardware; the tables print
    the paper's numbers next to the measured ones so the *shape* can be
    compared. *)

type scale = { events : int; runs : int }

val scale_from_env : unit -> scale
(** [OCEP_EVENTS] (default 50_000) and [OCEP_RUNS] (default 2). *)

val fig3 : Format.formatter -> unit
(** The representative-subset example: all matches vs an n²-event sliding
    window vs OCEP's reported subset, on the Fig. 3 scenario. *)

val boxplot_figure :
  Format.formatter -> scale:scale -> case:string -> unit
(** One of Figs. 6–9: per-terminating-event latency summaries for the
    paper's trace counts of that case. *)

val fig6_pattern_length : Format.formatter -> scale:scale -> unit
(** The discussion attached to Fig. 6: matching cost as a function of the
    pattern length, sweeping the deadlock-cycle length at 20 traces. *)

val fig10 : Format.formatter -> scale:scale -> unit
(** The detailed-runtime table: Q1/Med/Q3/top-whisker/max per case,
    measured next to the paper's values. *)

val completeness : Format.formatter -> scale:scale -> unit
(** Section V-D's completeness metric: injected violations detected and
    false positives per case. *)

val multi : Format.formatter -> scale:scale -> unit
(** Registry deployment: all four case-study patterns registered in one
    engine, run over each case's stream — per-pattern outcomes, plus the
    isolation check that the stream's own pattern reports exactly what a
    dedicated single-pattern engine does. *)

val baselines : Format.formatter -> scale:scale -> unit
(** Section V-C's qualitative comparisons, measured: wait-for-graph
    deadlock detection (incremental and full-history), the conflict-graph
    atomicity detector, the vector-timestamp race checker, and the
    sliding-window matcher's omission rate on the Fig. 3 scenario. *)

val lattice : Format.formatter -> scale:scale -> unit
(** The global-state alternative of Sections I and III: possibly(two
    traces inside the critical section) by consistent-cut lattice
    exploration, on a small slice, next to OCEP on the same slice. *)

val ablation_pruning : Format.formatter -> scale:scale -> unit
(** A1: causal domain restriction + backjumping vs chronological
    backtracking — candidate counts per search on identical histories. *)

val ablation_history : Format.formatter -> scale:scale -> unit
(** A2: the O(1) history-pruning rule on vs off — monitor storage and
    latency on the ordering workload. *)

val ablation_gc : Format.formatter -> scale:scale -> unit
(** A3 (the paper's first future-work item): garbage-collect history
    entries provably unable to join future matches — storage and latency
    on the race workload, whose concurrency pattern makes both leaves
    collectable. *)

val all : Format.formatter -> scale:scale -> unit
(** Everything above, in paper order. *)
