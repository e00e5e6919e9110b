(* The hot-path overhaul's behavioral guarantees: (1) the interned
   integer-only fast path classifies and matches exactly like the
   string-keyed pattern semantics, on all four case-study workloads;
   (2) the pinned-search pre-filter skips real searches without changing
   any observable (coverage, reports, match counts), and its skip count
   is exported as ocep_pinned_skipped_total; (3) the per-event path
   stays within its allocation budgets — a failed search, a frame
   decode, and a fed event on every workload. *)

open Ocep_base
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Subset = Ocep.Subset
module Matcher = Ocep.Matcher
module History = Ocep.History
module Framing = Ocep_ingest.Framing
module Wire = Ocep_ingest.Wire
module Oracle = Ocep_baselines.Oracle
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let net_of src = Compile.compile (Parser.parse src)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Observable engine state in a directly comparable shape (reports
   reduced to (seq, fresh, per-leaf (trace, index))). *)
let observe engine =
  let reports =
    List.map
      (fun (r : Subset.report) ->
        ( r.seq,
          r.fresh,
          Array.to_list (Array.map (fun (e : Event.t) -> (e.trace, e.index)) r.events) ))
      (Engine.reports engine)
  in
  ( Engine.matches_found engine,
    Engine.covered_slots engine,
    Engine.seen_slots engine,
    Engine.terminating_arrivals engine,
    reports )

(* ------------------------------------------------------------------ *)
(* Interned fast path == string-keyed semantics                        *)
(* ------------------------------------------------------------------ *)

(* On every event of a case-study run: each leaf's interned class-match
   must agree with the string-keyed one, the engine's history must hold
   exactly the class-matching (event, leaf) pairs (so the precomputed
   dispatch tables miss no candidate), and every report must re-verify
   against the string-keyed oracle. *)
let interned_equals_string_reference =
  QCheck.Test.make ~name:"interned engine = string-keyed reference on the 4 workloads" ~count:6
    QCheck.small_int (fun seed ->
      List.for_all
        (fun case ->
          (* ordering (Random_walk) needs cycle_len + 1 = 5 traces *)
          let w = Cases.make case ~traces:5 ~seed:(seed + 1) ~max_events:300 in
          let names = Sim.trace_names w.Workload.sim_config in
          let poet = Poet.create ~trace_names:names () in
          let net = net_of w.Workload.pattern in
          let config =
            { Engine.default_config with Engine.pruning = false; record_latency = false }
          in
          let engine = Engine.create ~config ~net ~poet () in
          Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
          let inet = Engine.interned_net engine in
          let k = Compile.size net in
          let mismatches = ref 0 and class_adds = ref 0 in
          (* the shared store holds one entry per matched *class*, not per
             matched leaf: leaves with equal class keys share storage *)
          let seen_keys = Hashtbl.create 8 in
          Poet.subscribe poet (fun ev ->
              Hashtbl.reset seen_keys;
              for i = 0 to k - 1 do
                let s = Compile.leaf_matches net i ev in
                if s <> Compile.leaf_matches_i inet i ev then incr mismatches;
                if s then begin
                  let key = Compile.class_key inet i in
                  if not (Hashtbl.mem seen_keys key) then begin
                    Hashtbl.replace seen_keys key ();
                    incr class_adds
                  end
                end
              done);
          ignore
            (Sim.run w.Workload.sim_config
               ~sink:(fun raw -> ignore (Poet.ingest poet raw))
               ~bodies:w.Workload.bodies);
          if !mismatches > 0 then
            QCheck.Test.fail_reportf "%d interned/string classification mismatches on %s"
              !mismatches case
          else if Engine.history_entries engine <> !class_adds then
            QCheck.Test.fail_reportf "history holds %d entries, classification says %d (%s)"
              (Engine.history_entries engine) !class_adds case
          else if
            not
              (List.for_all
                 (fun (r : Subset.report) -> Oracle.is_match ~net ~events:[] r.events)
                 (Engine.reports engine))
          then QCheck.Test.fail_reportf "a report fails the string-keyed oracle on %s" case
          else true)
        [ "deadlock"; "races"; "atomicity"; "ordering" ])

(* ------------------------------------------------------------------ *)
(* Pin filtering changes no observable                                 *)
(* ------------------------------------------------------------------ *)

let run_config ~config ~names ~net raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~net ~poet () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
      (observe engine, Engine.pinned_skipped engine))

(* Without a node budget the filter is exact (DESIGN.md §4b): identical
   coverage, reports and match counts, never a dropped subset slot. *)
let filtering_changes_no_observable =
  QCheck.Test.make ~name:"pin filtering drops no slot and changes no observable" ~count:80
    QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 4242) in
      let n_traces = 2 + Prng.int prng 3 in
      let names = Array.init n_traces (fun i -> "P" ^ string_of_int i) in
      let raws = Testutil.Gen.computation ~n_traces ~length:(20 + Prng.int prng 40) prng in
      let src = Testutil.Gen.pattern ~n_classes:(2 + Prng.int prng 2) prng in
      match Compile.compile (Parser.parse src) with
      | exception Compile.Compile_error _ -> true
      | net ->
        let cfg f = { Engine.default_config with Engine.pin_filtering = f } in
        let on, _ = run_config ~config:(cfg true) ~names ~net raws in
        let off, skipped_off = run_config ~config:(cfg false) ~names ~net raws in
        if skipped_off <> 0 then QCheck.Test.fail_reportf "skips counted with filtering off"
        else if on <> off then
          QCheck.Test.fail_reportf "filtering changed an observable on pattern:@.%s" src
        else true)

(* A deterministic scenario where the filter provably fires: a lone
   concurrent A cannot precede the terminating B, so the anchored search
   fails exhaustively and the (A, P0) pin is skipped as subsumed. *)
let skip_fires_and_is_sound () =
  let names = [| "P0"; "P1" |] in
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let run filtering =
    let poet = Poet.create ~trace_names:names () in
    let engine =
      Engine.create ~config:{ Engine.default_config with Engine.pin_filtering = filtering } ~net
        ~poet ()
    in
    let internal tr ty =
      ignore (Poet.ingest poet { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal })
    in
    internal 0 "A";
    internal 1 "B";
    (observe engine, Engine.pinned_skipped engine)
  in
  let on, skipped_on = run true in
  let off, skipped_off = run false in
  check "observables equal" true (on = off);
  check_int "no skips with filtering off" 0 skipped_off;
  check_int "the futile pin was skipped" 1 skipped_on

let skip_metric_exposed () =
  let names = [| "P0"; "P1" |] in
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~net ~poet () in
  let internal tr ty =
    ignore (Poet.ingest poet { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal })
  in
  internal 0 "A";
  internal 1 "B";
  Engine.sync_metrics engine;
  let prom = Ocep_obs.Snapshot.prometheus (Engine.metrics engine) in
  check "counter exported" true (contains prom "ocep_pinned_skipped_total");
  check "skip counted in exposition" true (contains prom "ocep_pinned_skipped_total 1")

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated by [n] runs of [f], per run: an exact,
   deterministic count for the running domain (every block these paths
   allocate is small enough for the minor heap). *)
let words_per_run n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Eight traces: each does some As, then trace 0 receives a message from
   every other one and does the anchor B. Every A happens before B, so
   [A || B] anchored at B fails after restricting a domain on each of
   the eight traces. *)
let failed_search_allocates_nothing () =
  let names = Array.init 8 (fun i -> "P" ^ string_of_int i) in
  let b = Testutil.Build.create names in
  for tr = 0 to 7 do
    for _ = 1 to 20 do
      ignore (Testutil.Build.internal b tr ~text:"x" "A")
    done
  done;
  for src = 1 to 7 do
    let m, _ = Testutil.Build.send b ~src () in
    ignore (Testutil.Build.recv b ~dst:0 m)
  done;
  let anchor = Testutil.Build.internal b 0 "B" in
  let net = net_of "A := [_, A, $t]; B := [_, B, _]; pattern := A || B;" in
  let poet = Testutil.Build.poet b in
  let history = History.create net ~n_traces:8 ~pruning:false () in
  List.iter
    (fun ev ->
      History.note_comm history ev;
      for l = 0 to Compile.size net - 1 do
        if Compile.leaf_matches net l ev then History.add history ~leaf:l ev
      done)
    (Testutil.Build.events b);
  let net = Compile.intern_net net ~intern:(Symbol.intern (Poet.symbols poet)) in
  let plan = Matcher.plan ~net ~anchor_leaf:1 in
  let stats = Matcher.new_stats () in
  let trace_of_sym = Poet.trace_of_sym poet and partner_of = Poet.find_partner poet in
  let search () =
    match
      Matcher.search ~plan ~net ~history ~n_traces:8 ~trace_of_sym ~partner_of ~anchor_leaf:1
        ~anchor ~stats ()
    with
    | Matcher.Not_found -> ()
    | _ -> Alcotest.fail "expected Not_found"
  in
  search ();
  let words = words_per_run 100 search in
  check_int "one search per call" 101 stats.Matcher.searches;
  if words > 8. then Alcotest.failf "a failed search allocates %.1f words (budget 8)" words

(* A stream of identical short send frames: decoding one allocates the
   event record, its two strings, its kind and the [Frame] box. *)
let frame_decode_allocates_only_the_event () =
  let path = Filename.temp_file "ocep_alloc" ".wire" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  let w = Framing.create_writer oc ~trace_names:[| "P0"; "P1" |] in
  for id = 0 to 199 do
    Framing.write w
      { Wire.id; trace = 0; seq = id + 1; etype = "Send"; text = "x"; kind = Event.Send { msg = id } }
  done;
  Framing.flush w;
  close_out oc;
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let r = Framing.create_reader ic in
  let next () =
    match Framing.next r with Framing.Frame _ -> () | _ -> Alcotest.fail "expected a frame"
  in
  next ();
  let words = words_per_run 150 next in
  if words > 20. then Alcotest.failf "Framing.next allocates %.1f words per frame (budget 20)" words

(* The engine's whole per-event path, fed in blocks as a service shard's
   engine is configured: only history entries, boxed views of
   class-matched events and reports may remain. *)
let feed_block_within_budget () =
  List.iter
    (fun case ->
      let w = Cases.make case ~traces:8 ~seed:7 ~max_events:20_000 in
      let names = Sim.trace_names w.Workload.sim_config in
      let raws = ref [] in
      ignore
        (Sim.run w.Workload.sim_config
           ~sink:(fun r -> raws := r :: !raws)
           ~bodies:w.Workload.bodies);
      let raws = Array.of_list (List.rev !raws) in
      let poet = Poet.create ~trace_names:names () in
      let config = { Engine.default_config with Engine.latency_sink = Engine.Histogram } in
      let engine = Engine.create ~config ~net:(net_of w.Workload.pattern) ~poet () in
      let words = words_per_run 1 (fun () -> Engine.feed_block engine raws) in
      let bytes = words *. float_of_int (Sys.word_size / 8) /. float_of_int (Array.length raws) in
      if bytes > 300. then
        Alcotest.failf "%s: feed_block allocates %.0f B/event (budget 300)" case bytes)
    Cases.all_names

let () =
  Alcotest.run "hotpath"
    [
      ( "interning",
        [ QCheck_alcotest.to_alcotest interned_equals_string_reference ] );
      ( "pin filtering",
        [
          QCheck_alcotest.to_alcotest filtering_changes_no_observable;
          Alcotest.test_case "skip fires and is sound" `Quick skip_fires_and_is_sound;
          Alcotest.test_case "skip metric exposed" `Quick skip_metric_exposed;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "failed search allocates <= 8 words" `Quick
            failed_search_allocates_nothing;
          Alcotest.test_case "frame decode allocates <= 20 words" `Quick
            frame_decode_allocates_only_the_event;
          Alcotest.test_case "feed_block <= 300 B/event, 8 cases" `Quick feed_block_within_budget;
        ] );
    ]
