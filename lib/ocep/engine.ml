open Ocep_base
module Compile = Ocep_pattern.Compile
module Network = Compile.Network
module Poet = Ocep_poet.Poet
module Hist = Ocep_stats.Histogram
module Metrics = Ocep_obs.Metrics
module Tracer = Ocep_obs.Tracer
module Itbl = Hashtbl.Make (Int)

type latency_sink = Samples | Histogram | Both

type pattern_id = int

type config = {
  pruning : bool;
  max_history_per_trace : int option;
  pin_searches : bool;
  pin_filtering : bool;
  node_budget : int option;
  report_cap : int;
  record_latency : bool;
  latency_sink : latency_sink;
  gc_every : int option;
  trace_spans : bool;
  trace_capacity : int;
  provenance : bool;
  provenance_capacity : int;
}

let default_trace_capacity = 65_536

(* sized so the flight ring (48 B/slot) stays cache-resident on a
   typical trace count — at 8 traces, 1024 slots is 384 KB.  The ring
   is written once per event, so an L2-resident window records for
   effectively nothing while a multi-megabyte one pays a store miss per
   event (~5% of the races budget, measured by bench_obs); raise it for
   explain-heavy forensics where a deeper window beats throughput *)
let default_provenance_capacity = 1_024

let default_config =
  {
    pruning = true;
    max_history_per_trace = None;
    pin_searches = true;
    pin_filtering = true;
    node_budget = None;
    report_cap = 100_000;
    record_latency = true;
    latency_sink = Samples;
    gc_every = None;
    trace_spans = false;
    trace_capacity = default_trace_capacity;
    provenance = true;
    provenance_capacity = default_provenance_capacity;
  }

(* Reject configurations that would crash later (gc_every = Some 0 used
   to divide by zero in the gc cadence check) or that have no sensible
   meaning, at construction time rather than deep inside on_event. *)
let validate_config (c : config) =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  (match c.gc_every with
  | Some n when n <= 0 -> fail "Engine.create: gc_every must be positive, got %d" n
  | _ -> ());
  (match c.node_budget with
  | Some n when n <= 0 -> fail "Engine.create: node_budget must be positive, got %d" n
  | _ -> ());
  (match c.max_history_per_trace with
  | Some n when n <= 0 -> fail "Engine.create: max_history_per_trace must be positive, got %d" n
  | _ -> ());
  if c.report_cap < 0 then fail "Engine.create: report_cap must be non-negative, got %d" c.report_cap;
  if c.trace_capacity <= 0 then
    fail "Engine.create: trace_capacity must be positive, got %d" c.trace_capacity;
  if c.provenance_capacity <= 0 then
    fail "Engine.create: provenance_capacity must be positive, got %d" c.provenance_capacity

(* A leaf's stored events can be garbage-collected once they are in the
   causal past of every trace iff (a) the leaf never serves as interposer
   evidence for a [~>] check and (b) its relation to every possible anchor
   (terminating) leaf excludes Before: any future anchor is causally after
   a fully-seen event, so such an event can never satisfy the constraint
   again. *)
let gc_able_leaves (net : Compile.t) =
  let k = Compile.size net in
  Array.init k (fun l ->
      (not (List.exists (fun (i, _) -> i = l) net.Compile.lim_checks))
      && List.for_all
           (fun a ->
             (not net.Compile.terminating.(a)) || a = l
             ||
             match net.Compile.cons.(l).(a) with
             | Some s -> not s.Compile.before
             | None -> false)
           (List.init k (fun i -> i)))

(* Handles into the metrics registry whose values are pulled from the
   engine's internal counters by [sync_metrics] (called before every
   snapshot) rather than bumped in the hot path — the only always-hot
   instruments are the latency histograms. *)
type meters = {
  m_events : Metrics.counter;
  m_terminating : Metrics.counter;
  m_matches : Metrics.counter;
  m_reports : Metrics.gauge;
  m_nodes : Metrics.counter;
  m_backjumps : Metrics.counter;
  m_searches : Metrics.counter;
  m_aborts : Metrics.counter;
  m_epochs : Metrics.counter;
  m_hist_entries : Metrics.gauge;
  m_hist_dropped : Metrics.counter;
  m_hist_pruned : Metrics.counter;
  m_hist_cap_evicted : Metrics.counter;
  m_covered : Metrics.gauge;
  m_seen : Metrics.gauge;
  m_subset_dropped : Metrics.counter;
  m_pinned_skipped : Metrics.counter;
  m_poet_ingested : Metrics.counter;
  m_poet_notified : Metrics.counter;
  m_spans : Metrics.counter;
  m_spans_dropped : Metrics.counter;
  m_patterns : Metrics.gauge;
  m_automaton_nodes : Metrics.counter;
  m_automaton_shared : Metrics.counter;
}

(* Per-pattern instruments: the existing metric names carried one engine's
   single pattern implicitly; with a registry they gain a pattern label. *)
type pmeters = {
  pm_matches : Metrics.counter;
  pm_reports : Metrics.gauge;
  pm_covered : Metrics.gauge;
  pm_seen : Metrics.gauge;
  pm_nodes : Metrics.counter;
  pm_backjumps : Metrics.counter;
  pm_searches : Metrics.counter;
  pm_aborts : Metrics.counter;
  pm_pinned_skipped : Metrics.counter;
  pm_subset_dropped : Metrics.counter;
}

(* The isolated per-pattern state: everything that was engine state when
   the engine owned exactly one pattern, minus the shared substrate
   (POET subscription, history store, frontier). *)
type pstate = {
  pid : pattern_id;
  pnet : Compile.t;
  pinet : Compile.inet;
  phistory : History.t;  (* leaf-indexed view onto the shared store *)
  psubset : Subset.t;
  pstats : Matcher.stats;
  pplans : Matcher.plan option array;
      (* anchor leaf -> precomputed search plan, boxed once as the
         optional argument [Matcher.search] takes, as are the two below:
         a search then allocates nothing for its arguments *)
  pstats_arg : Matcher.stats option;  (* [Some pstats] *)
  ppins : (int * int) option array;  (* packed slot -> [Some (leaf, trace)], filled on demand *)
  pgcable : bool array;
  pgeneric : bool array;  (* leaf's type spec is wildcard/variable *)
  ppin_gen : int array array;  (* slot -> history generation at last failed pin, -1 none *)
  ppin_matches : int array array;  (* slot -> matches_found at last failed pin *)
  pscratch : int Vec.t;  (* sort keys of leaves matched by the current arrival *)
  panchors : int Vec.t;  (* terminating matched leaves, candidate order *)
  mutable ptouched_seq : int;  (* events_processed when pscratch was reset *)
  mutable pmatches : int;
  mutable paborted : int;
  mutable pskipped : int;
  pnodes : pstate Network.node array;
      (* leaf -> its discrimination-network node; node ids double as the
         history-store class ids behind [phistory] *)
  pm : pmeters;
  plat_hist : Hist.t;  (* ocep_latency_us{pattern="..."} *)
}

type t = {
  cfg : config;
  poet : Poet.t;
  n_traces : int;
  store : History.store;  (* shared by all registered patterns *)
  latencies : float Vec.t;
  latency_hist : Hist.t;  (* registered as ocep_latency_us *)
  metrics : Metrics.t;
  meters : meters;
  tracer : Tracer.t option;
  flight : Flight.t option;
  m_staleness : Metrics.gauge array;  (* per trace, [||] when provenance is off *)
  (* wire provenance of the event currently being fed ([feed_wire] sets,
     [arrive] consumes and clears): threading through mutable state
     keeps [Poet.ingest_flat]'s signature and allocates nothing per event.
     The timestamps live in a flat float array — a mutable float field
     of this mixed record would box on every store *)
  mutable pw_id : int;
  mutable pw_verdict : int;
  pw_times : float array;
      (* [0] decode stamp, [1] admit stamp, [2] the chained dispatch
         stamp: the flight recorder reads the clock once every 16
         events and reuses the stamp in between, so always-on
         provenance pays ~2 ns/event of clock time instead of ~30 *)
  (* the event currently being dispatched: its arena row, and the boxed
     view [cur_event] materializes on first demand (class match, search
     anchor) — [Event.none] until then, so events matching no class
     never get boxed at all *)
  mutable cur_eid : int;
  mutable cur_ev : Event.t;
  intern : string -> int;
  trace_of_sym : int -> int option;
  partner_of : Event.t -> Event.t option;
  mutable patterns : pstate list;  (* live patterns, ascending pid *)
  mutable next_pid : pattern_id;
  network : pstate Network.t;
      (* the whole registry compiled into one discrimination network:
         one node per distinct class key, each holding every subscribed
         (pattern, leaf) pair. Dispatch is the network's per-etype
         candidate array (one bounds check and one load); edits are
         incremental, so add/remove_pattern cost does not grow with the
         number of registered patterns. *)
  plan_cache : (string, Matcher.plan option array) Hashtbl.t;
      (* shape key -> plans: template instances (and any structurally
         equal patterns) share one physical plan set — plans are
         immutable and depend only on the net's shape *)
  touched : pstate Vec.t;
      (* the patterns the current arrival touched, in first-touch order;
         sorted by pid before phases 2-3 so per-event work is
         O(touched patterns), not O(registered patterns) *)
  mutable shared_evals : int;
      (* class-predicate evaluations saved by node sharing: for each
         candidate node tested, subscribers-beyond-the-first many
         per-leaf tests collapse into the one node test *)
  pins : int Vec.t;
      (* one anchor's surviving pinned slots (packed, see
         Subset.pending_slot) in pending order, all decided before the
         first of them runs *)
  mutable events_processed : int;
  mutable terminating_arrivals : int;
}

(* A node is GC-able only when every subscribed (pattern, leaf) pair is
   — the conservative AND, recomputed on the node's own subscriber edits
   only. *)
let recompute_gcable (n : pstate Network.node) =
  Network.set_gcable n
    (Array.for_all (fun ((q : pstate), l) -> q.pgcable.(l)) n.Network.nsubs)

let make_meters metrics =
  let c ?help name = Metrics.counter metrics ?help name in
  let g ?help name = Metrics.gauge metrics ?help name in
  (* registration order is exposition order, so bind each instrument with a
     [let] (record-literal fields evaluate in unspecified order) *)
  let m_events = c ~help:"Events processed by the engine" "ocep_events_total" in
  let m_terminating =
    c ~help:"Arrivals matching a terminating leaf" "ocep_terminating_arrivals_total"
  in
  let m_matches = c ~help:"Successful searches" "ocep_matches_total" in
  let m_reports = g ~help:"Reported representative subset size" "ocep_reports" in
  let m_nodes = c ~help:"Search-tree nodes expanded" "ocep_search_nodes_total" in
  let m_backjumps = c ~help:"Conflict-directed backjumps" "ocep_search_backjumps_total" in
  let m_searches = c ~help:"Searches started" "ocep_searches_total" in
  let m_aborts = c ~help:"Searches aborted by the node budget" "ocep_search_aborts_total" in
  let m_epochs = c ~help:"Communication-epoch advances" "ocep_epoch_advances_total" in
  let m_hist_entries = g ~help:"Stored history entries (shared across patterns)" "ocep_history_entries" in
  let m_hist_dropped =
    c ~help:"History entries dropped (cap + GC)" "ocep_history_dropped_total"
  in
  let m_hist_pruned =
    c ~help:"History entries merged by the O(1) pruning rule" "ocep_history_pruned_total"
  in
  let m_hist_cap_evicted =
    c ~help:"History entries evicted by the per-trace cap" "ocep_history_cap_evicted_total"
  in
  let m_covered = g ~help:"Covered coverage slots" "ocep_covered_slots" in
  let m_seen = g ~help:"Seen coverage slots" "ocep_seen_slots" in
  let m_subset_dropped =
    c ~help:"Coverage-advancing reports dropped by report_cap"
      "ocep_subset_reports_dropped_total"
  in
  let m_pinned_skipped =
    c ~help:"Pinned searches skipped by the slot pre-filter" "ocep_pinned_skipped_total"
  in
  let m_poet_ingested = c ~help:"Events ingested by POET" "ocep_poet_events_ingested_total" in
  let m_poet_notified =
    c ~help:"POET subscriber callbacks invoked" "ocep_poet_notifications_total"
  in
  let m_spans = c ~help:"Trace spans recorded" "ocep_spans_total" in
  let m_spans_dropped =
    c ~help:"Trace spans overwritten by the ring buffer" "ocep_spans_dropped_total"
  in
  let m_patterns = g ~help:"Registered live patterns" "ocep_patterns" in
  let m_automaton_nodes =
    c ~help:"Discrimination-network nodes ever allocated" "ocep_automaton_nodes_total"
  in
  let m_automaton_shared =
    c ~help:"Class-predicate evaluations saved by automaton node sharing"
      "ocep_automaton_shared_evals_total"
  in
  {
    m_events;
    m_terminating;
    m_matches;
    m_reports;
    m_nodes;
    m_backjumps;
    m_searches;
    m_aborts;
    m_epochs;
    m_hist_entries;
    m_hist_dropped;
    m_hist_pruned;
    m_hist_cap_evicted;
    m_covered;
    m_seen;
    m_subset_dropped;
    m_pinned_skipped;
    m_poet_ingested;
    m_poet_notified;
    m_spans;
    m_spans_dropped;
    m_patterns;
    m_automaton_nodes;
    m_automaton_shared;
  }

let make_pmeters metrics ~pid =
  let lbl name = Metrics.with_labels name [ ("pattern", string_of_int pid) ] in
  let c ?help name = Metrics.counter metrics ?help (lbl name) in
  let g ?help name = Metrics.gauge metrics ?help (lbl name) in
  let pm_matches = c ~help:"Successful searches" "ocep_matches_total" in
  let pm_reports = g ~help:"Reported representative subset size" "ocep_reports" in
  let pm_covered = g ~help:"Covered coverage slots" "ocep_covered_slots" in
  let pm_seen = g ~help:"Seen coverage slots" "ocep_seen_slots" in
  let pm_nodes = c ~help:"Search-tree nodes expanded" "ocep_search_nodes_total" in
  let pm_backjumps = c ~help:"Conflict-directed backjumps" "ocep_search_backjumps_total" in
  let pm_searches = c ~help:"Searches started" "ocep_searches_total" in
  let pm_aborts = c ~help:"Searches aborted by the node budget" "ocep_search_aborts_total" in
  let pm_pinned_skipped =
    c ~help:"Pinned searches skipped by the slot pre-filter" "ocep_pinned_skipped_total"
  in
  let pm_subset_dropped =
    c ~help:"Coverage-advancing reports dropped by report_cap"
      "ocep_subset_reports_dropped_total"
  in
  {
    pm_matches;
    pm_reports;
    pm_covered;
    pm_seen;
    pm_nodes;
    pm_backjumps;
    pm_searches;
    pm_aborts;
    pm_pinned_skipped;
    pm_subset_dropped;
  }

(* Sort keys for the per-pattern matched-leaf scratch: exact-type leaves
   ascending, then generic (wildcard/variable type) leaves ascending —
   the candidate order of the old single-pattern dispatch, which fixes
   the Subset.seen and anchor processing order and therefore keeps every
   per-pattern observable bit-identical to a dedicated engine. *)
let generic_bit = 1 lsl 20

let leaf_mask = generic_bit - 1

(* insertion sort: the scratch holds the matched leaves of one arrival
   for one pattern — almost always <= 4 elements *)
let sort_scratch (v : int Vec.t) =
  for i = 1 to Vec.length v - 1 do
    let x = Vec.get v i in
    let j = ref (i - 1) in
    while !j >= 0 && Vec.get v !j > x do
      Vec.set v (!j + 1) (Vec.get v !j);
      decr j
    done;
    Vec.set v (!j + 1) x
  done

(* The touched-pattern worklist is filled in node order; phases 2 and 3
   must run patterns in pid order (the order a dedicated engine per
   pattern would be driven in), so restore it. Same insertion sort: an
   arrival rarely touches more than a handful of patterns, and sharing
   makes first-touch order nearly sorted already. *)
let sort_touched (v : pstate Vec.t) =
  for i = 1 to Vec.length v - 1 do
    let x = Vec.get v i in
    let j = ref (i - 1) in
    while !j >= 0 && (Vec.get v !j).pid > x.pid do
      Vec.set v (!j + 1) (Vec.get v !j);
      decr j
    done;
    Vec.set v (!j + 1) x
  done

(* The boxed view of the event being dispatched, built at most once per
   arrival. Safe whenever dispatch is running: internal events are
   materialized during their own arrival (their trace's live clock row
   is still their timestamp), communication events from their persisted
   snapshot. *)
let cur_event t =
  let ev = t.cur_ev in
  if ev != Event.none then ev
  else begin
    let ev = Poet.materialize t.poet t.cur_eid in
    t.cur_ev <- ev;
    ev
  end

let live_pattern t pid = List.find_opt (fun (p : pstate) -> p.pid = pid) t.patterns

let get_pattern t pid =
  match live_pattern t pid with
  | Some p -> p
  | None ->
    Ocep_error.error (Ocep_error.Unknown_pattern (Printf.sprintf "no registered pattern %d" pid))

let first_pattern t =
  match t.patterns with
  | p :: _ -> p
  | [] -> invalid_arg "Engine: no registered patterns"

let create_multi ?(config = default_config) ~poet () =
  validate_config config;
  let n_traces = Poet.trace_count poet in
  let metrics = Metrics.create () in
  let t =
    {
      cfg = config;
      poet;
      n_traces;
      store =
        History.create_store ~n_traces ~pruning:config.pruning
          ?max_per_trace:config.max_history_per_trace ();
      latencies = Vec.create ();
      latency_hist =
        Metrics.histogram metrics
          ~help:"Per-terminating-arrival processing time (microseconds)" "ocep_latency_us";
      metrics;
      meters = make_meters metrics;
      tracer =
        (if config.trace_spans then Some (Tracer.create ~capacity:config.trace_capacity)
         else None);
      flight =
        (if config.provenance then
           Some (Flight.create ~n_traces ~capacity:config.provenance_capacity ())
         else None);
      m_staleness =
        (if config.provenance then
           Array.init n_traces (fun tr ->
               Metrics.gauge metrics
                 ~help:"Microseconds since the trace's last event was dispatched (-1 before any)"
                 (Metrics.with_labels "ocep_trace_staleness_us" [ ("trace", string_of_int tr) ]))
         else [||]);
      pw_id = -1;
      pw_verdict = 0;
      pw_times = Array.make 3 0.;
      cur_eid = -1;
      cur_ev = Event.none;
      intern = Symbol.intern (Poet.symbols poet);
      trace_of_sym = Poet.trace_of_sym poet;
      partner_of = Poet.find_partner poet;
      patterns = [];
      next_pid = 0;
      network = Network.create ();
      plan_cache = Hashtbl.create 16;
      touched = Vec.create ();
      shared_evals = 0;
      pins = Vec.create ();
      events_processed = 0;
      terminating_arrivals = 0;
    }
  in
  let consume_outcome (p : pstate) outcome =
    match outcome with
    | Matcher.Found m ->
      p.pmatches <- p.pmatches + 1;
      ignore (Subset.record p.psubset ~seq:t.events_processed m)
    | Matcher.Not_found -> ()
    | Matcher.Aborted -> p.paborted <- p.paborted + 1
  in
  (* Consume a pinned search's result for a slot that is still uncovered.
     A definitive failure is remembered with the slot's current history
     generation and the pattern's match count; the record can only be
     consulted again in node-budget runs (without a budget, batches only
     survive the anchored-failure filter right after a match, which
     bumps pmatches and invalidates every record — DESIGN.md §4b).
     There the skip is a heuristic in the budget's own spirit: the slot
     looks exactly as it did when an identical pin failed, so re-paying
     the (budget-capped) search is judged not worth it. *)
  let consume_pin (p : pstate) l tr outcome =
    (match outcome with
    | Matcher.Not_found ->
      p.ppin_gen.(l).(tr) <- History.generation p.phistory ~leaf:l ~trace:tr;
      p.ppin_matches.(l).(tr) <- p.pmatches
    | Matcher.Found _ | Matcher.Aborted -> ());
    consume_outcome p outcome
  in
  let outcome_tag = function
    | Matcher.Found _ -> "found"
    | Matcher.Not_found -> "not_found"
    | Matcher.Aborted -> "aborted"
  in
  (* the pin of a packed slot as [search]'s optional argument *)
  let pin_arg (p : pstate) slot =
    if slot < 0 then None
    else
      match p.ppins.(slot) with
      | Some _ as pin -> pin
      | None ->
        let pin = Some (Subset.slot_leaf p.psubset slot, Subset.slot_trace p.psubset slot) in
        p.ppins.(slot) <- pin;
        pin
  in
  (* [slot] is the packed pinned slot, -1 for an anchored search *)
  let run_search (p : pstate) ~anchor_leaf ~anchor ~slot =
    let pin = pin_arg p slot in
    match t.tracer with
    | None ->
      Matcher.search ?plan:p.pplans.(anchor_leaf) ~net:p.pinet ~history:p.phistory ~n_traces
        ~trace_of_sym:t.trace_of_sym ~partner_of:t.partner_of ~anchor_leaf ~anchor ?pin
        ?node_budget:config.node_budget ?stats:p.pstats_arg ()
    | Some tr ->
      let nodes0 = p.pstats.Matcher.nodes and backjumps0 = p.pstats.Matcher.backjumps in
      let t0 = Clock.now_us () in
      let outcome =
        Matcher.search ?plan:p.pplans.(anchor_leaf) ~net:p.pinet ~history:p.phistory ~n_traces
          ~trace_of_sym:t.trace_of_sym ~partner_of:t.partner_of ~anchor_leaf ~anchor ?pin
          ?node_budget:config.node_budget ?stats:p.pstats_arg ()
      in
      let dt = Clock.now_us () -. t0 in
      let pin_leaf, pin_trace = match pin with Some (l, tr') -> (l, tr') | None -> (-1, -1) in
      Tracer.record_search tr
        ~name:(if pin_leaf < 0 then "search" else "pinned")
        ~cat:"engine" ~ts_us:t0 ~dur_us:dt
        ~tid:(Stdlib.Domain.self () :> int)
        ~pattern:p.pid ~anchor_leaf
        ~nodes:(p.pstats.Matcher.nodes - nodes0)
        ~backjumps:(p.pstats.Matcher.backjumps - backjumps0)
        ~outcome:(outcome_tag outcome) ~pin_leaf ~pin_trace;
      outcome
  in
  let maybe_gc () =
    match config.gc_every with
    | Some n when t.events_processed mod n = 0 -> begin
      (* a class is GC-able only if every subscribed (pattern, leaf) pair
         is — the conservative AND; GC-able entries can never join a
         future match, so retaining some conservatively never changes
         coverage, reports or match counts *)
      let ncls = History.class_count t.store in
      if ncls > 0 then begin
        let classes = Array.make ncls false in
        let any = ref false in
        Network.iter t.network (fun n ->
            if n.Network.ngcable && Array.length n.Network.nsubs > 0 then begin
              classes.(n.Network.nid) <- true;
              any := true
            end);
        if !any then begin
          (* threshold per trace: the greatest index already covered by
             every trace's frontier. A trace's live clock row IS its
             latest event's timestamp (all-zero before any event), so
             the old per-dispatch frontier copy is read straight from
             the POET clock pool instead. *)
          let thresholds =
            Array.init n_traces (fun tr ->
                let m = ref max_int in
                for x = 0 to n_traces - 1 do
                  let v = Poet.clock_entry poet ~trace:x ~entry:tr in
                  if v < !m then m := v
                done;
                !m)
          in
          ignore (History.gc_store t.store ~thresholds ~classes)
        end
      end
    end
    | _ -> ()
  in
  (* Skip decision for one of a pattern's slots in one anchor's pinned
     batch, made before any search of the batch runs. Each rule only
     skips searches that must return Not_found:
     1. the slot's (leaf, trace) history is empty — every candidate a
        pinned search could bind to the pinned leaf on that trace lives
        in exactly that history;
     2. the anchored (unpinned) search of this batch proved Not_found
        exhaustively — a pinned match is in particular an unpinned one;
     3. an identical pinned search failed before and neither the slot's
        history generation nor the pattern's match count has changed
        since. *)
  let skip_slot (p : pstate) ~anchored_failed l tr =
    anchored_failed
    || Vec.is_empty (History.on p.phistory ~leaf:l ~trace:tr)
    || (p.ppin_gen.(l).(tr) >= 0
       && p.ppin_gen.(l).(tr) = History.generation p.phistory ~leaf:l ~trace:tr
       && p.ppin_matches.(l).(tr) = p.pmatches)
  in
  (* The arrival body: everything up to the searches needs only the
     scalar arena columns, so dispatch runs without touching the OCaml
     heap; the boxed view is demanded lazily by [cur_event] exactly when
     a class matches. The caller has set [cur_eid]/[cur_ev]. *)
  let arrive ~trace ~index ~tsym ~esym ~xsym ~comm =
    t.events_processed <- t.events_processed + 1;
    History.note_comm_store_i t.store ~trace ~comm;
    (match t.flight with
    | Some fl ->
      let pw = t.pw_times in
      (* pw.(2) is the chained dispatch stamp the recorder will read *)
      if t.events_processed land 15 = 1 || Array.unsafe_get pw 2 = 0. then
        Array.unsafe_set pw 2 (Clock.now_us ())
      else begin
        (* a wire admit stamp newer than the chain refreshes it for free *)
        let admit = Array.unsafe_get pw 1 in
        if admit > Array.unsafe_get pw 2 then Array.unsafe_set pw 2 admit
      end;
      Flight.note fl ~trace ~index ~wire_id:t.pw_id ~verdict:t.pw_verdict ~stamps:pw;
      (* the stamps are left in place: they stay current until the next
         [set_wire_stamps], and a direct feed (wire id -1) ignores them *)
      if t.pw_id >= 0 then begin
        t.pw_id <- -1;
        t.pw_verdict <- 0
      end
    | None -> ());
    let seq = t.events_processed in
    (* Phases 1 and 2 are the every-event fast path, so both are plain
       index loops: a closure handed to Array.iter/Vec.iter (or the
       option of a find_opt) would be this path's only OCaml-heap
       allocation, and the local refs below stay unboxed because no
       closure captures them. *)
    (* phase 1 — automaton dispatch: evaluate each candidate node's
       class predicate once, add the event to the node's history class,
       and queue every subscribing (pattern, leaf) pair onto the touched
       worklist *)
    Vec.reset t.touched;
    let cands = Network.candidates t.network ~esym in
    for ci = 0 to Array.length cands - 1 do
      let n = Array.unsafe_get cands ci in
      (* one node test stands in for every subscriber's leaf test *)
      t.shared_evals <- t.shared_evals + (Array.length n.Network.nsubs - 1);
      if Network.node_matches n ~tsym ~esym ~xsym then begin
        History.add_class t.store ~cls:n.Network.nid (cur_event t);
        let subs = n.Network.nsubs in
        for si = 0 to Array.length subs - 1 do
          let (p : pstate), l = Array.unsafe_get subs si in
          if p.ptouched_seq <> seq then begin
            p.ptouched_seq <- seq;
            Vec.reset p.pscratch;
            Vec.reset p.panchors;
            Vec.push t.touched p
          end;
          Vec.push p.pscratch (if p.pgeneric.(l) then generic_bit lor l else l)
        done
      end
    done;
    (* phase 2 — per touched pattern, in pid order: mark slots seen and
       collect anchors in the old dispatch order (exact-type leaves
       ascending, then generic ascending), restored by sorting the
       scratch keys. Work is O(touched patterns), not O(registered). *)
    sort_touched t.touched;
    let any_anchor = ref false in
    let ntouched = Vec.length t.touched in
    for ti = 0 to ntouched - 1 do
      let p = Vec.get t.touched ti in
      sort_scratch p.pscratch;
      for ki = 0 to Vec.length p.pscratch - 1 do
        let key = Vec.get p.pscratch ki in
        let l = key land leaf_mask in
        Subset.seen p.psubset ~leaf:l ~trace;
        if p.pnet.Compile.terminating.(l) then begin
          Vec.push p.panchors l;
          any_anchor := true
        end
      done
    done;
    (* phase 3 — search, per touched pattern in pid order: each anchor
       runs its anchored search, then its surviving pins in pending
       order — exactly the operation sequence of a dedicated engine.
       Patterns share only the history store, which no search writes. *)
    if !any_anchor then begin
      t.terminating_arrivals <- t.terminating_arrivals + 1;
      (* already materialized by the class-matched add_class above *)
      let ev = cur_event t in
      let timed = config.record_latency || t.tracer <> None in
      let t0 = if timed then Clock.now_us () else 0. in
      let anchors_run = ref 0 in
      for ti = 0 to ntouched - 1 do
        let p = Vec.get t.touched ti in
        let ps = p.psubset in
        for ai = 0 to Vec.length p.panchors - 1 do
          incr anchors_run;
          let anchor_leaf = Vec.get p.panchors ai in
          let outcome = run_search p ~anchor_leaf ~anchor:ev ~slot:(-1) in
          consume_outcome p outcome;
          if config.pin_searches then begin
            let anchored_failed = match outcome with Matcher.Not_found -> true | _ -> false in
            (* every skip decision of the batch is made before its first
               pin runs: rule 3 reads [pmatches], which a pin of this
               batch can bump *)
            Vec.reset t.pins;
            for si = 0 to Subset.pending_slots ps - 1 do
              let slot = Subset.pending_slot ps si in
              let l = Subset.slot_leaf ps slot in
              (* a pin on the anchor leaf is either the anchor's own
                 slot (just searched) or contradictory *)
              if l <> anchor_leaf then begin
                if config.pin_filtering && skip_slot p ~anchored_failed l (Subset.slot_trace ps slot)
                then p.pskipped <- p.pskipped + 1
                else Vec.push t.pins slot
              end
            done;
            for bi = 0 to Vec.length t.pins - 1 do
              let slot = Vec.get t.pins bi in
              let l = Subset.slot_leaf ps slot and tr = Subset.slot_trace ps slot in
              (* an earlier pin of this batch may have covered the slot *)
              if not (Subset.is_covered ps ~leaf:l ~trace:tr) then
                consume_pin p l tr (run_search p ~anchor_leaf ~anchor:ev ~slot)
            done
          end
        done
      done;
      if timed then begin
        let lat_us = Clock.now_us () -. t0 in
        if config.record_latency then begin
          (match config.latency_sink with
          | Samples -> Vec.push t.latencies lat_us
          | Histogram -> Hist.record t.latency_hist lat_us
          | Both ->
            Vec.push t.latencies lat_us;
            Hist.record t.latency_hist lat_us);
          (* per-pattern latency: the same arrival-level sample, recorded
             for each pattern that anchored — always bounded (histogram) *)
          match config.latency_sink with
          | Histogram | Both ->
            for ti = 0 to ntouched - 1 do
              let p = Vec.get t.touched ti in
              if Vec.length p.panchors > 0 then Hist.record p.plat_hist lat_us
            done
          | Samples -> ()
        end;
        (match t.flight with
        | Some fl -> Flight.note_match fl ~trace:ev.trace ~index:ev.index ~dur_us:lat_us
        | None -> ());
        match t.tracer with
        | Some tr ->
          Tracer.record_arrival tr ~ts_us:t0 ~dur_us:lat_us
            ~tid:(Stdlib.Domain.self () :> int)
            ~trace:ev.trace ~index:ev.index ~etype:ev.etype ~anchors:!anchors_run
        | None -> ()
      end
    end;
    maybe_gc ()
  in
  let ar = Poet.arena poet in
  (* a trace's symbol never changes, so read it from this cache-resident
     table instead of the arena's streaming tsym column (one fewer cold
     column touched per event) *)
  let tsyms = Array.map (Symbol.intern (Poet.symbols poet)) (Poet.trace_names poet) in
  Poet.subscribe_flat poet (fun eid ->
      t.cur_eid <- eid;
      (* avoid a write-barrier store per event: [cur_ev] only needs
         clearing after a boxed-view materialization *)
      if t.cur_ev != Event.none then t.cur_ev <- Event.none;
      let trace = Arena.unsafe_trace ar eid in
      arrive ~trace
        ~index:(Arena.unsafe_index ar eid)
        ~tsym:(Array.unsafe_get tsyms trace)
        ~esym:(Arena.unsafe_esym ar eid)
        ~xsym:(Arena.unsafe_xsym ar eid)
        ~comm:(Arena.is_comm_tag (Arena.unsafe_kind_tag ar eid)));
  t

let register_pattern t net =
  let k = Compile.size net in
  if k > Compile.max_leaves then
    invalid_arg
      (Printf.sprintf
         "Engine.add_pattern: pattern has %d leaves; the matcher's conflict bitsets cap \
          patterns at %d"
         k Compile.max_leaves);
  let inet = Compile.intern_net net ~intern:t.intern in
  (* a match can bind up to [k] events of one identical-event run, so
     pruning must keep at least that many (the cap only ever grows;
     detaching a pattern leaving it large is merely conservative) *)
  History.set_run_cap t.store k;
  let pid = t.next_pid in
  (* shape-shared artifacts: plans depend only on the net's shape —
     spec kinds, constraint matrix, partners, post-checks — never on
     exact symbol values, so template instances (and any structurally
     equal patterns) share one physical plan set *)
  let plans =
    match Hashtbl.find_opt t.plan_cache (Compile.shape_key inet) with
    | Some v -> v
    | None ->
      let plans = Array.init k (fun l -> Some (Matcher.plan ~net:inet ~anchor_leaf:l)) in
      Hashtbl.add t.plan_cache (Compile.shape_key inet) plans;
      plans
  in
  (* find-or-create this pattern's automaton nodes first — the history
     view is keyed on their ids. An O(leaves) incremental edit of the
     network, independent of how many patterns are already registered. *)
  let nodes =
    Array.init k (fun l ->
        let n, created = Network.resolve t.network ~key:(Compile.class_key inet l) in
        if created then History.ensure_class t.store n.Network.nid;
        n)
  in
  let pstats = Matcher.new_stats () in
  let p =
    {
      pid;
      pnet = net;
      pinet = inet;
      phistory =
        History.view t.store ~classes:(Array.map (fun n -> n.Network.nid) nodes);
      psubset = Subset.create ~k ~n_traces:t.n_traces ~report_cap:t.cfg.report_cap ();
      pstats;
      pstats_arg = Some pstats;
      ppins = Array.make (k * t.n_traces) None;
      pplans = plans;
      pgcable = gc_able_leaves net;
      pgeneric =
        Array.init k (fun l ->
            match inet.Compile.ityp.(l) with Compile.I_exact _ -> false | _ -> true);
      ppin_gen = Array.make_matrix k t.n_traces (-1);
      ppin_matches = Array.make_matrix k t.n_traces 0;
      pscratch = Vec.create ();
      panchors = Vec.create ();
      ptouched_seq = 0;
      pmatches = 0;
      paborted = 0;
      pskipped = 0;
      pnodes = nodes;
      pm = make_pmeters t.metrics ~pid;
      plat_hist =
        Metrics.histogram t.metrics
          ~help:"Per-terminating-arrival processing time (microseconds)"
          (Metrics.with_labels "ocep_latency_us" [ ("pattern", string_of_int pid) ]);
    }
  in
  Array.iteri
    (fun l n ->
      Network.attach n (p, l);
      recompute_gcable n)
    nodes;
  t.patterns <- t.patterns @ [ p ];
  t.next_pid <- pid + 1;
  pid

let remove_pattern t pid =
  let p = get_pattern t pid in
  t.patterns <- List.filter (fun (q : pstate) -> q.pid <> pid) t.patterns;
  (* per-node incremental edit; a pattern whose leaves share a class key
     subscribes one node several times, and the first unsubscribe drops
     every one of its pairs — dedup so a released node is not touched
     again through a later alias *)
  let seen = Itbl.create 8 in
  Array.iter
    (fun n ->
      if not (Itbl.mem seen n.Network.nid) then begin
        Itbl.add seen n.Network.nid ();
        if Network.unsubscribe t.network n ~remove:(fun (q, _) -> q == p) then
          History.release_class t.store n.Network.nid
        else recompute_gcable n
      end)
    p.pnodes

let create ?config ?(patterns = []) ?net ~poet () =
  let t = create_multi ?config ~poet () in
  Option.iter (fun n -> ignore (register_pattern t n)) net;
  List.iter (fun n -> ignore (register_pattern t n)) patterns;
  t

let pattern_ids t = List.map (fun (p : pstate) -> p.pid) t.patterns

let pattern_count t = List.length t.patterns

let net t = (first_pattern t).pnet

let interned_net t = (first_pattern t).pinet

let config t = t.cfg

let reports t = List.concat_map (fun (p : pstate) -> Subset.reports p.psubset) t.patterns

let matches_found t = List.fold_left (fun acc (p : pstate) -> acc + p.pmatches) 0 t.patterns

let find_containing_in t (p : pstate) (ev : Event.t) =
  (* candidate anchors in the old dispatch order: exact-type leaves
     ascending, then generic ascending *)
  let k = Compile.size p.pnet in
  let matching g =
    List.filter
      (fun l -> p.pgeneric.(l) = g && Compile.leaf_matches_i p.pinet l ev)
      (List.init k (fun l -> l))
  in
  let rec try_leaves = function
    | [] -> None
    | anchor_leaf :: rest -> (
      match
        Matcher.search ?plan:p.pplans.(anchor_leaf) ~net:p.pinet ~history:p.phistory
          ~n_traces:t.n_traces ~trace_of_sym:t.trace_of_sym ~partner_of:t.partner_of
          ~anchor_leaf ~anchor:ev ~stats:p.pstats ()
      with
      | Matcher.Found m -> Some m
      | Matcher.Not_found | Matcher.Aborted -> try_leaves rest)
  in
  try_leaves (matching false @ matching true)

let find_containing t ev =
  let rec go = function
    | [] -> None
    | p :: rest -> ( match find_containing_in t p ev with Some m -> Some m | None -> go rest)
  in
  go t.patterns

let latencies_us t = Vec.to_array t.latencies

let latency_histogram t = t.latency_hist

let metrics t = t.metrics

let tracer t = t.tracer

(* Pull every internal counter into the registry. Kept out of the
   per-event hot path: called by whoever is about to render a snapshot
   (the CLI's --metrics-every loop, tests, or a final dump). *)
let sync_metrics t =
  let m = t.meters in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 t.patterns in
  Metrics.set_counter m.m_events t.events_processed;
  Metrics.set_counter m.m_terminating t.terminating_arrivals;
  Metrics.set_counter m.m_matches (sum (fun p -> p.pmatches));
  Metrics.set m.m_reports
    (float_of_int (sum (fun p -> List.length (Subset.reports p.psubset))));
  Metrics.set_counter m.m_nodes (sum (fun p -> p.pstats.Matcher.nodes));
  Metrics.set_counter m.m_backjumps (sum (fun p -> p.pstats.Matcher.backjumps));
  Metrics.set_counter m.m_searches (sum (fun p -> p.pstats.Matcher.searches));
  Metrics.set_counter m.m_aborts (sum (fun p -> p.paborted));
  Metrics.set_counter m.m_epochs (History.store_epochs_total t.store);
  Metrics.set m.m_hist_entries (float_of_int (History.store_entries t.store));
  Metrics.set_counter m.m_hist_dropped (History.store_dropped t.store);
  Metrics.set_counter m.m_hist_pruned (History.store_pruned t.store);
  Metrics.set_counter m.m_hist_cap_evicted (History.store_cap_evicted t.store);
  Metrics.set m.m_covered (float_of_int (sum (fun p -> Subset.covered_count p.psubset)));
  Metrics.set m.m_seen (float_of_int (sum (fun p -> Subset.seen_count p.psubset)));
  Metrics.set_counter m.m_subset_dropped (sum (fun p -> Subset.dropped_count p.psubset));
  Metrics.set_counter m.m_pinned_skipped (sum (fun p -> p.pskipped));
  Metrics.set m.m_patterns (float_of_int (List.length t.patterns));
  Metrics.set_counter m.m_automaton_nodes (Network.nodes_allocated t.network);
  Metrics.set_counter m.m_automaton_shared t.shared_evals;
  List.iter
    (fun (p : pstate) ->
      Metrics.set_counter p.pm.pm_matches p.pmatches;
      Metrics.set p.pm.pm_reports (float_of_int (List.length (Subset.reports p.psubset)));
      Metrics.set p.pm.pm_covered (float_of_int (Subset.covered_count p.psubset));
      Metrics.set p.pm.pm_seen (float_of_int (Subset.seen_count p.psubset));
      Metrics.set_counter p.pm.pm_nodes p.pstats.Matcher.nodes;
      Metrics.set_counter p.pm.pm_backjumps p.pstats.Matcher.backjumps;
      Metrics.set_counter p.pm.pm_searches p.pstats.Matcher.searches;
      Metrics.set_counter p.pm.pm_aborts p.paborted;
      Metrics.set_counter p.pm.pm_pinned_skipped p.pskipped;
      Metrics.set_counter p.pm.pm_subset_dropped (Subset.dropped_count p.psubset))
    t.patterns;
  Metrics.set_counter m.m_poet_ingested (Poet.ingested t.poet);
  Metrics.set_counter m.m_poet_notified (Poet.notifications t.poet);
  (match t.flight with
  | Some fl ->
    let now = Clock.now_us () in
    Array.iteri
      (fun tr g ->
        let last = Flight.last_dispatch_us fl ~trace:tr in
        Metrics.set g (if last > 0. then now -. last else -1.))
      t.m_staleness
  | None -> ());
  match t.tracer with
  | Some tr ->
    Metrics.set_counter m.m_spans (Tracer.recorded tr);
    Metrics.set_counter m.m_spans_dropped (Tracer.dropped tr)
  | None -> ()

let events_processed t = t.events_processed

let terminating_arrivals t = t.terminating_arrivals

let history_entries t = History.store_entries t.store

let history_dropped t = History.store_dropped t.store

let automaton_nodes t = Network.node_count t.network

let automaton_nodes_total t = Network.nodes_allocated t.network

let automaton_shared_evals t = t.shared_evals

let covered_slots t =
  List.fold_left (fun acc (p : pstate) -> acc + Subset.covered_count p.psubset) 0 t.patterns

let seen_slots t =
  List.fold_left (fun acc (p : pstate) -> acc + Subset.seen_count p.psubset) 0 t.patterns

let search_stats t =
  match t.patterns with
  | [ p ] -> p.pstats
  | ps ->
    let s = Matcher.new_stats () in
    List.iter
      (fun (p : pstate) ->
        s.Matcher.nodes <- s.Matcher.nodes + p.pstats.Matcher.nodes;
        s.Matcher.backjumps <- s.Matcher.backjumps + p.pstats.Matcher.backjumps;
        s.Matcher.searches <- s.Matcher.searches + p.pstats.Matcher.searches;
        if p.pstats.Matcher.miss_level > s.Matcher.miss_level then begin
          s.Matcher.miss_level <- p.pstats.Matcher.miss_level;
          s.Matcher.miss_leaf <- p.pstats.Matcher.miss_leaf
        end)
      ps;
    s

let aborted_searches t = List.fold_left (fun acc (p : pstate) -> acc + p.paborted) 0 t.patterns

let pinned_skipped t = List.fold_left (fun acc (p : pstate) -> acc + p.pskipped) 0 t.patterns

let shutdown (_ : t) = ()

let poet t = t.poet

let feed_raw t raw = Poet.ingest t.poet raw

let feed_raw_flat t raw = ignore (Poet.ingest_flat t.poet raw : int)

(* Batch feed: one bounds check and one tight loop per block instead of
   a per-event call through the boxed [ingest]. Nothing in the loop
   allocates unless an event class-matches. *)
let feed_block t ?(off = 0) ?len raws =
  let n = Array.length raws in
  let len = match len with Some l -> l | None -> n - off in
  if off < 0 || len < 0 || off + len > n then
    invalid_arg
      (Printf.sprintf "Engine.feed_block: off %d len %d out of bounds for %d records" off len n);
  let poet = t.poet in
  for i = off to off + len - 1 do
    ignore (Poet.ingest_flat poet (Array.unsafe_get raws i) : int)
  done

let set_wire_stamps t ~decode_us ~admit_us =
  Array.unsafe_set t.pw_times 0 decode_us;
  Array.unsafe_set t.pw_times 1 admit_us

(* ints only: float arguments to a cross-library call are boxed (no
   flambda), so the per-record path must not carry them — stamps arrive
   via [set_wire_stamps] only when they change (one record in a sample
   window, plus buffered releases) *)
let feed_wire t ~id ~verdict raw =
  t.pw_id <- id;
  t.pw_verdict <- Ocep_obs.Provenance.verdict_to_int verdict;
  ignore (Poet.ingest_flat t.poet raw : int)

let flight t = t.flight

let note_wire_drop t ~id ~verdict =
  match t.flight with Some fl -> Flight.note_drop fl ~id ~verdict | None -> ()

(* A handle is just (engine, pid); the pstate is re-resolved on every
   call so a detached pattern fails loudly instead of reading frozen
   state through a stale pointer. *)
module Handle = struct
  type nonrec t = { h_eng : t; h_pid : pattern_id }

  type metrics = {
    matches : int;
    reports_retained : int;
    covered_slots : int;
    seen_slots : int;
    nodes : int;
    backjumps : int;
    searches : int;
    aborted : int;
    pinned_skipped : int;
  }

  let get h =
    match live_pattern h.h_eng h.h_pid with
    | Some p -> p
    | None -> Ocep_error.error (Ocep_error.Stale_handle { pattern = h.h_pid })

  let id h = h.h_pid
  let is_live h = Option.is_some (live_pattern h.h_eng h.h_pid)
  let net h = (get h).pnet
  let reports h = Subset.reports (get h).psubset
  let matches_found h = (get h).pmatches
  let covered_slots h = Subset.covered_count (get h).psubset
  let seen_slots h = Subset.seen_count (get h).psubset
  let search_stats h = (get h).pstats
  let aborted_searches h = (get h).paborted
  let pinned_skipped h = (get h).pskipped
  let find_containing h ev = find_containing_in h.h_eng (get h) ev
  let latency_histogram h = (get h).plat_hist
  let history_entries h ~leaf = History.entries_for (get h).phistory ~leaf

  let nearest_miss h =
    let s = (get h).pstats in
    if s.Matcher.miss_level < 0 then None
    else Some (s.Matcher.miss_leaf, s.Matcher.miss_level)

  let metrics h =
    let p = get h in
    {
      matches = p.pmatches;
      reports_retained = List.length (Subset.reports p.psubset);
      covered_slots = Subset.covered_count p.psubset;
      seen_slots = Subset.seen_count p.psubset;
      nodes = p.pstats.Matcher.nodes;
      backjumps = p.pstats.Matcher.backjumps;
      searches = p.pstats.Matcher.searches;
      aborted = p.paborted;
      pinned_skipped = p.pskipped;
    }

  let detach h =
    match live_pattern h.h_eng h.h_pid with
    | Some _ -> remove_pattern h.h_eng h.h_pid
    | None -> Ocep_error.error (Ocep_error.Stale_handle { pattern = h.h_pid })
end

let add_pattern t net = { Handle.h_eng = t; h_pid = register_pattern t net }

let handles t = List.map (fun (p : pstate) -> { Handle.h_eng = t; h_pid = p.pid }) t.patterns

(* FNV-1a over each pattern's observable state — the stable name the
   CLI prints and the service control plane ships in STATS/DRAIN
   replies. Digest equality is bit-identity of the match reports. *)
let fnv_seed = 0xcbf29ce484222325L

let fnv_int h n =
  let acc = ref h in
  for i = 0 to 7 do
    acc :=
      Int64.mul (Int64.logxor !acc (Int64.of_int ((n asr (8 * i)) land 0xff))) 0x100000001b3L
  done;
  !acc

let mix_report h (r : Subset.report) =
  let h = ref (fnv_int h r.Subset.seq) in
  List.iter
    (fun (a, b) ->
      h := fnv_int !h a;
      h := fnv_int !h b)
    r.Subset.fresh;
  Array.iter
    (fun (e : Event.t) ->
      h := fnv_int !h e.Event.trace;
      h := fnv_int !h e.Event.index)
    r.Subset.events;
  !h

let report_digest ~pattern_id (r : Subset.report) =
  Printf.sprintf "%016Lx" (mix_report (fnv_int fnv_seed pattern_id) r)

let reports_digest t =
  let h = ref fnv_seed in
  List.iter
    (fun (p : pstate) ->
      h := fnv_int !h p.pid;
      h := fnv_int !h p.pmatches;
      h := fnv_int !h (Subset.covered_count p.psubset);
      h := fnv_int !h (Subset.seen_count p.psubset);
      List.iter (fun r -> h := mix_report !h r) (Subset.reports p.psubset))
    t.patterns;
  Printf.sprintf "%016Lx" !h
