(** Differential fuzzing of the whole matching stack.

    A fuzz {e case} is a pure function of its seed: a random pattern
    (via {!Ocep_pattern.Gen}), a random valid linearization of message
    exchanges over 2–4 traces, and a restorable fault schedule for the
    transport. {!check} runs the case through three independent oracles,
    any of which failing is an engine bug:

    - {b automaton-dedicated}: when the case registers several
      patterns, each pattern's observables in the shared registry must
      equal those of a dedicated single-pattern engine fed the same
      stream.
    - {b oracle-soundness} / {b oracle-coverage}: against the
      brute-force {!Ocep_baselines.Oracle} — every retained report is a
      real match, and the representative subset covers exactly the
      (leaf, trace) slots the full match set covers. Skipped (and
      counted) when the enumeration would exceed a work budget.
    - {b record-replay}: record the stream, degrade it with the case's
      (restorable: reorder + duplicate, no drop) faults, replay through
      framing + admission into a fresh engine — the digest must equal
      the live run's ({!Runner.reports_digest}).

    A diverging case is {!shrink}-minimized by greedy event deletion and
    saved to a corpus directory as a small text file that {!load} reads
    back — the regression suite replays [test/corpus/] on every run.

    Engine {e mutations} deliberately break one engine invariant each;
    the test suite uses them to prove the harness actually catches bugs
    (a fuzzer that never fails proves nothing). *)

open Ocep_base

type case = {
  c_seed : int;
  c_traces : string array;
  c_pattern : string;  (** pattern source text *)
  c_events : Event.raw list;  (** a valid linearization *)
  c_faults : Ocep_workloads.Inject.faults;  (** restorable transport degradation *)
}

type mutation =
  | No_pinned_searches  (** pinned searches off: coverage-only matches are lost *)
  | Tiny_node_budget  (** [node_budget = 1]: almost every search aborts *)
  | History_cap_one  (** [max_history_per_trace = 1]: history evicted *)
  | Lossy_replay  (** 25% frame drop in the replay transport *)

val mutations : (string * mutation) list
(** CLI-name/value pairs: [no-pins], [tiny-budget], [history-cap],
    [lossy-replay]. *)

val mutation_name : mutation -> string
val mutation_of_name : string -> mutation option

type divergence = {
  d_oracle : string;
      (** [automaton-dedicated], [oracle-soundness], [oracle-coverage]
          or [record-replay] *)
  d_detail : string;
}

type result = {
  r_divergence : divergence option;
  r_oracle_checked : bool;
      (** whether the brute-force oracle ran (false when its work budget
          was exceeded, or when an earlier oracle already diverged) *)
}

val generate : seed:int -> case
(** Deterministic: equal seeds give equal cases. *)

val check : ?mutation:mutation -> case -> result
(** Run the three oracles in order, stopping at the first divergence.
    [mutation] seeds a deliberate bug into the engine (or transport)
    under test; the reference comparisons stay honest. *)

val shrink : ?mutation:mutation -> case -> case
(** Greedy minimization: repeatedly delete events (a send takes its
    receive along, keeping the stream a linearization) while the case
    still diverges, then try clearing the fault schedule. Bounded by a
    fixed re-check budget; returns the smallest still-diverging case. *)

val save : dir:string -> ?expect_mutant:string -> case -> string
(** Write the case as [<dir>/seed<n>.case] (or
    [mutant-<name>-seed<n>.case] with [expect_mutant]), creating [dir]
    if needed; returns the path. The file is a small self-contained
    text format: header lines, one line per event, then the pattern
    source. *)

val load : string -> case * string option
(** Read a saved case back; the second component is the
    [expect-mutant:] header if present — such a case is expected to
    pass {!check} clean and to diverge under that mutation. Raises
    [Failure] on a malformed file. *)

val load_dir : string -> (string * case * string option) list
(** All [*.case] files of a directory, sorted by name; [] if the
    directory does not exist. *)

type summary = {
  s_ran : int;
  s_oracle_checked : int;  (** cases where the brute-force oracle ran *)
  s_failures : (int * divergence) list;  (** offending seed, divergence *)
}

val run :
  ?mutation:mutation ->
  ?corpus_dir:string ->
  ?log:(string -> unit) ->
  seeds:int ->
  start_seed:int ->
  unit ->
  summary
(** Fuzz campaign over [start_seed .. start_seed + seeds - 1]: generate,
    check, and — on divergence — shrink and (with [corpus_dir]) save the
    minimized case. [log] receives progress lines. *)
