(* The multi-pattern engine core: a registry engine with N patterns must
   be observably identical, per pattern, to N dedicated single-pattern
   engines fed the same stream — across the four case workloads, with
   and without pin filtering.  Plus the registry lifecycle (add /
   remove / re-add, shared-class refcounting), the 62-leaf compile-time
   cap, config validation, and the same observational equivalence for
   history GC: collecting on every event changes nothing. *)

open Ocep_base
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Subset = Ocep.Subset
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let net_of src = Compile.compile (Parser.parse src)

(* per-pattern observable state, in a directly comparable shape *)
let observe h =
  let reports =
    List.map
      (fun (r : Subset.report) ->
        ( r.seq,
          r.fresh,
          Array.to_list (Array.map (fun (e : Event.t) -> (e.trace, e.index)) r.events) ))
      (Engine.Handle.reports h)
  in
  ( Engine.Handle.matches_found h,
    Engine.Handle.covered_slots h,
    Engine.Handle.seen_slots h,
    reports )

let replay_multi ~config ~names ~nets raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~poet () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      let hs = List.map (fun net -> Engine.add_pattern engine net) nets in
      List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
      List.map observe hs)

let replay_single ~config ~names ~net raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~net ~poet () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
      observe (List.hd (Engine.handles engine)))

(* ------------------------------------------------------------------ *)
(* Equivalence: multi engine == N dedicated engines                    *)
(* ------------------------------------------------------------------ *)

(* Stream each case workload through one engine holding all four case
   patterns, and through four dedicated engines; every per-pattern
   observable must coincide — the dispatch table and the shared history
   store are pure plumbing.  Exercised with pin filtering on and off. *)
let multi_equals_singles =
  QCheck.Test.make ~name:"multi-pattern engine = N single-pattern engines (4 workloads)"
    ~count:3 QCheck.small_int (fun seed ->
      let traces = 6 in
      let nets =
        List.map
          (fun name ->
            net_of (Cases.make name ~traces ~seed:1 ~max_events:1).Workload.pattern)
          Cases.names
      in
      let configs =
        List.map
          (fun pin_filtering ->
            { Engine.default_config with Engine.pin_filtering; record_latency = false })
          [ true; false ]
      in
      List.for_all
        (fun case ->
          let w = Cases.make case ~traces ~seed:(seed + 11) ~max_events:250 in
          let names = Sim.trace_names w.Workload.sim_config in
          let raws = ref [] in
          let _ =
            Sim.run w.Workload.sim_config
              ~sink:(fun r -> raws := r :: !raws)
              ~bodies:w.Workload.bodies
          in
          let raws = List.rev !raws in
          List.for_all
            (fun config ->
              let multi = replay_multi ~config ~names ~nets raws in
              let singles =
                List.map (fun net -> replay_single ~config ~names ~net raws) nets
              in
              if multi <> singles then
                QCheck.Test.fail_reportf
                  "multi diverges from dedicated engines on %s (pin_filtering=%b)" case
                  config.Engine.pin_filtering
              else true)
            configs)
        Cases.names)

(* ------------------------------------------------------------------ *)
(* Registry lifecycle                                                  *)
(* ------------------------------------------------------------------ *)

let names2 = [| "P0"; "P1" |]
let ab = "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;"

let internal poet tr ty =
  ignore
    (Ocep_poet.Poet.ingest poet
       { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal })

let add_remove_re_add () =
  let poet = Poet.create ~trace_names:names2 () in
  let engine = Engine.create ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  check_int "starts empty" 0 (Engine.pattern_count engine);
  let p0 = Engine.add_pattern engine (net_of ab) in
  check "live handle" true (Engine.Handle.is_live p0);
  check_int "one pattern" 1 (Engine.pattern_count engine);
  Engine.Handle.detach p0;
  check_int "empty after detach" 0 (Engine.pattern_count engine);
  check "detached handle is dead" false (Engine.Handle.is_live p0);
  check "double detach rejected" true
    (match Engine.Handle.detach p0 with
    | () -> false
    | exception Ocep_error.Error (Ocep_error.Stale_handle _) -> true);
  check "accessor on dead handle rejected" true
    (match Engine.Handle.matches_found p0 with
    | _ -> false
    | exception Ocep_error.Error (Ocep_error.Stale_handle _) -> true);
  check "remove by unknown id rejected" true
    (match Engine.remove_pattern engine 99 with
    | () -> false
    | exception Ocep_error.Error (Ocep_error.Unknown_pattern _) -> true);
  (* an empty engine ingests as a no-op *)
  internal poet 0 "A";
  (* hot re-add: a fresh id, and matching works on events arriving after *)
  let p1 = Engine.add_pattern engine (net_of ab) in
  check "fresh id" true (Engine.Handle.id p1 <> Engine.Handle.id p0);
  internal poet 0 "A";
  internal poet 0 "B";
  check "re-added pattern matches" true (Engine.Handle.matches_found p1 > 0)

let accessors_on_empty_engine () =
  let poet = Poet.create ~trace_names:names2 () in
  let engine = Engine.create ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  check "net on empty engine rejected" true
    (match Engine.net engine with _ -> false | exception Invalid_argument _ -> true);
  check_int "no matches" 0 (Engine.matches_found engine);
  check_int "no history" 0 (Engine.history_entries engine)

(* Two patterns whose leaves have equal class keys share one physical
   history class: entries are stored once, and the class survives until
   its last subscriber is removed. *)
let shared_class_refcount () =
  let poet = Poet.create ~trace_names:names2 () in
  let engine =
    Engine.create ~config:{ Engine.default_config with Engine.pruning = false } ~poet ()
  in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let p0 = Engine.add_pattern engine (net_of ab) in
  let p1 =
    Engine.add_pattern engine (net_of "X := [_, A, _]; Y := [$p, B, _]; pattern := X || Y;")
  in
  (* A and B each match one class entry, shared by both patterns *)
  internal poet 0 "A";
  internal poet 1 "B";
  check_int "stored once despite two subscribers" 2 (Engine.history_entries engine);
  Engine.Handle.detach p1;
  check_int "classes survive the other subscriber's removal" 2 (Engine.history_entries engine);
  Engine.Handle.detach p0;
  check_int "releasing the last subscriber frees the store" 0 (Engine.history_entries engine)

let dedup_matches_single_engine () =
  (* a two-same-class-leaf pattern stores no more than a one-leaf one *)
  let poet = Poet.create ~trace_names:names2 () in
  let engine =
    Engine.create ~config:{ Engine.default_config with Engine.pruning = false } ~poet ()
  in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let _ =
    Engine.add_pattern engine (net_of "S1 := [_, A, $d]; S2 := [_, A, $d]; pattern := S1 || S2;")
  in
  internal poet 0 "A";
  internal poet 1 "A";
  check_int "same-class leaves share entries" 2 (Engine.history_entries engine)

(* ------------------------------------------------------------------ *)
(* The discrimination network                                          *)
(* ------------------------------------------------------------------ *)

(* remove_pattern is the id-keyed incremental network edit Handle.detach
   delegates to; it must keep agreeing with the handle API *)
let remove_pattern_by_id () =
  let poet = Poet.create ~trace_names:names2 () in
  let engine = Engine.create ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let h = Engine.add_pattern engine (net_of ab) in
  internal poet 0 "A";
  internal poet 0 "B";
  Engine.remove_pattern engine (Engine.Handle.id h);
  check "remove_pattern detaches the handle" false (Engine.Handle.is_live h);
  check_int "no live patterns" 0 (Engine.pattern_count engine);
  check_int "network emptied" 0 (Engine.automaton_nodes engine)

(* equal class keys across patterns collapse into one automaton node,
   and dispatch through a shared node counts its saved evaluations *)
let node_sharing_and_shared_evals () =
  let poet = Poet.create ~trace_names:names2 () in
  let engine = Engine.create ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let h0 = Engine.add_pattern engine (net_of ab) in
  check_int "2 leaves, 2 nodes" 2 (Engine.automaton_nodes engine);
  (* same two class keys: no new nodes at all *)
  let _h1 = Engine.add_pattern engine (net_of ab) in
  check_int "structurally equal pattern adds no node" 2 (Engine.automaton_nodes engine);
  (* one overlapping key ([_, A, _]), one fresh ([_, C, _]) *)
  let _h2 = Engine.add_pattern engine (net_of "X := [_, A, _]; Y := [_, C, _]; pattern := X -> Y;") in
  check_int "only the unseen class allocates" 3 (Engine.automaton_nodes engine);
  check_int "allocation counter agrees" 3 (Engine.automaton_nodes_total engine);
  check_int "no dispatch yet" 0 (Engine.automaton_shared_evals engine);
  (* an A event's only candidate is the [_, A, _] node (exact-type
     dispatch): 3 subscribers ride on 1 test -> 2 saved evals *)
  internal poet 0 "A";
  check_int "shared evals counted per tested node" 2 (Engine.automaton_shared_evals engine);
  (* detaching one subscriber keeps the node but not its saving *)
  Engine.Handle.detach h0;
  check_int "nodes survive while subscribed" 3 (Engine.automaton_nodes engine);
  check_int "released ids are recycled, not reallocated" 3 (Engine.automaton_nodes_total engine)

(* ------------------------------------------------------------------ *)
(* The 62-leaf cap                                                     *)
(* ------------------------------------------------------------------ *)

(* k leaves: k declared instances chained pairwise, so every leaf is
   referenced through its event variable and counted exactly once *)
let chain_pattern k =
  let buf = Buffer.create 1024 in
  for i = 1 to k do
    Buffer.add_string buf (Printf.sprintf "C%d := [_, T%d, _];\nC%d $c%d;\n" i i i i)
  done;
  Buffer.add_string buf "pattern := ";
  for i = 1 to k - 1 do
    if i > 1 then Buffer.add_string buf " && ";
    Buffer.add_string buf (Printf.sprintf "($c%d -> $c%d)" i (i + 1))
  done;
  Buffer.add_string buf ";\n";
  Buffer.contents buf

let leaf_cap_enforced () =
  (* 62 leaves: the matcher's conflict bitsets still fit one word *)
  let net = net_of (chain_pattern Compile.max_leaves) in
  check_int "62 leaves compile" Compile.max_leaves (Compile.size net);
  (* and the registry accepts them *)
  let poet = Poet.create ~trace_names:names2 () in
  let engine = Engine.create ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let h = Engine.add_pattern engine net in
  check_int "registered" 1 (Engine.pattern_count engine);
  Engine.Handle.detach h;
  (* 63 leaves: rejected at compile time with a clear message *)
  match net_of (chain_pattern (Compile.max_leaves + 1)) with
  | _ -> Alcotest.fail "63-leaf pattern should not compile"
  | exception Invalid_argument msg ->
    check "message names the cap" true
      (let cap = string_of_int Compile.max_leaves in
       let rec contains i =
         i + String.length cap <= String.length msg
         && (String.sub msg i (String.length cap) = cap || contains (i + 1))
       in
       contains 0)

(* The same boundary through a template: the cap applies per concrete
   instantiated pattern, and an oversized binding's error names the
   template and the binding (not just the anonymous expansion). *)
let template_chain k =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "template big($t) {\n";
  Buffer.add_string buf "C1 := [_, T1, $t];\nC1 $c1;\n";
  for i = 2 to k do
    Buffer.add_string buf (Printf.sprintf "C%d := [_, T%d, _];\nC%d $c%d;\n" i i i i)
  done;
  Buffer.add_string buf "pattern := ";
  for i = 1 to k - 1 do
    if i > 1 then Buffer.add_string buf " && ";
    Buffer.add_string buf (Printf.sprintf "($c%d -> $c%d)" i (i + 1))
  done;
  Buffer.add_string buf ";\n}\ninstantiate big(x);\n";
  Buffer.contents buf

let contains_sub msg sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

let template_leaf_cap_enforced () =
  (* at the cap: the instance compiles and registers *)
  (match Compile.compile_file (Parser.parse_file (template_chain Compile.max_leaves)) with
  | [ (name, net) ] ->
    Alcotest.(check string) "instance named by binding" "big('x')" name;
    check_int "62-leaf instance compiles" Compile.max_leaves (Compile.size net)
  | _ -> Alcotest.fail "expected exactly one instance");
  (* one past the cap: the error names template, binding and cap *)
  match Compile.compile_file (Parser.parse_file (template_chain (Compile.max_leaves + 1))) with
  | _ -> Alcotest.fail "63-leaf instance should not compile"
  | exception Invalid_argument msg ->
    check "error names the template" true (contains_sub msg "template big");
    check "error names the binding" true (contains_sub msg "('x')");
    check "error names the cap" true (contains_sub msg (string_of_int Compile.max_leaves))

(* ------------------------------------------------------------------ *)
(* Engine config validation                                            *)
(* ------------------------------------------------------------------ *)

let rejects config =
  let poet = Poet.create ~trace_names:names2 () in
  match Engine.create ~config ~net:(net_of ab) ~poet () with
  | _ -> false
  | exception Invalid_argument _ -> true

let config_validation () =
  let d = Engine.default_config in
  check "gc_every = Some 0" true (rejects { d with Engine.gc_every = Some 0 });
  check "gc_every negative" true (rejects { d with Engine.gc_every = Some (-3) });
  check "node_budget = Some 0" true (rejects { d with Engine.node_budget = Some 0 });
  check "max_history = Some 0" true (rejects { d with Engine.max_history_per_trace = Some 0 });
  check "report_cap negative" true (rejects { d with Engine.report_cap = -1 });
  check "default accepted" false (rejects d)

(* ------------------------------------------------------------------ *)
(* GC regression: gc never drops an event a later search needs         *)
(* ------------------------------------------------------------------ *)

(* Engine-wide observables after a single-pattern run: the per-pattern
   state plus the terminating-arrival count. *)
let run_observed ~config ~names ~net raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config ~net ~poet () in
  List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
  (observe (List.hd (Engine.handles engine)), Engine.terminating_arrivals engine)

(* Aggressive GC (every event) must leave every observable of the run —
   matches found, coverage, the report set — untouched, with the
   production config (pruning on): whenever a later (anchored or
   pinned) search would have needed a dropped event, some observable
   diverges. Complements test_engine's oracle-coverage property, which
   runs with pruning off. *)
let gc_equals_no_gc =
  QCheck.Test.make ~name:"gc on every event changes no observable (regression)" ~count:60
    QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 777) in
      let n_traces = 2 + Prng.int prng 3 in
      let names = Array.init n_traces (fun i -> "P" ^ string_of_int i) in
      let raws = Testutil.Gen.computation ~n_traces ~length:(30 + Prng.int prng 30) prng in
      let src = Testutil.Gen.pattern ~n_classes:(2 + Prng.int prng 2) prng in
      match Compile.compile (Parser.parse src) with
      | exception Compile.Compile_error _ -> true
      | net ->
        let cfg gc_every = { Engine.default_config with Engine.gc_every } in
        run_observed ~config:(cfg None) ~names ~net raws
        = run_observed ~config:(cfg (Some 1)) ~names ~net raws)

let () =
  Alcotest.run "multi"
    [
      ("equivalence", [ QCheck_alcotest.to_alcotest multi_equals_singles ]);
      ( "registry",
        [
          Alcotest.test_case "add / remove / re-add" `Quick add_remove_re_add;
          Alcotest.test_case "empty engine accessors" `Quick accessors_on_empty_engine;
          Alcotest.test_case "shared-class refcount" `Quick shared_class_refcount;
          Alcotest.test_case "same-class dedup" `Quick dedup_matches_single_engine;
          Alcotest.test_case "remove_pattern by id" `Quick remove_pattern_by_id;
          Alcotest.test_case "node sharing + shared evals" `Quick node_sharing_and_shared_evals;
        ] );
      ( "leaf cap",
        [
          Alcotest.test_case "62-leaf boundary" `Quick leaf_cap_enforced;
          Alcotest.test_case "62-leaf boundary via template" `Quick template_leaf_cap_enforced;
        ] );
      ("config", [ Alcotest.test_case "invalid configs rejected" `Quick config_validation ]);
      ("gc", [ QCheck_alcotest.to_alcotest gc_equals_no_gc ]);
    ]
