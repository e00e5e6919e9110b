(* The OCEP matcher: hand-built scenarios for every operator, domain
   restriction (Fig. 4), and equivalence with the exhaustive oracle on
   random computations and random patterns. *)

open Ocep_base
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module History = Ocep.History
module Domain = Ocep.Domain
module Matcher = Ocep.Matcher
module Oracle = Ocep_baselines.Oracle
module Build = Testutil.Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let net_of src = Compile.compile (Parser.parse src)

(* Build a History from already-timestamped events. *)
let history_of net ~n_traces events =
  let h = History.create net ~n_traces ~pruning:false () in
  List.iter
    (fun ev ->
      History.note_comm h ev;
      for i = 0 to Compile.size net - 1 do
        if Compile.leaf_matches net i ev then History.add h ~leaf:i ev
      done)
    events;
  h

let inet_of poet net = Compile.intern_net net ~intern:(Symbol.intern (Poet.symbols poet))

let search ?pin ?node_budget net poet events ~anchor_leaf ~anchor =
  let n_traces = Poet.trace_count poet in
  let history = history_of net ~n_traces events in
  Matcher.search ~net:(inet_of poet net) ~history ~n_traces
    ~trace_of_sym:(Poet.trace_of_sym poet)
    ~partner_of:(Poet.find_partner poet) ~anchor_leaf ~anchor ?pin ?node_budget ()

(* ------------------------------------------------------------------ *)
(* Scenario tests                                                      *)
(* ------------------------------------------------------------------ *)

let happens_before_found () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let a = Build.internal b 0 "A" in
  let m, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m in
  let bb = Build.internal b 1 "B" in
  (match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' ->
    check "a bound" true (Event.equal m'.(0) a);
    check "b bound" true (Event.equal m'.(1) bb)
  | _ -> Alcotest.fail "expected a match");
  ignore a

let happens_before_not_found_when_concurrent () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let _a = Build.internal b 0 "A" in
  let bb = Build.internal b 1 "B" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected no match (a || b)"

let concurrency_found () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A || B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let _a = Build.internal b 0 "A" in
  let bb = Build.internal b 1 "B" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found _ -> ()
  | _ -> Alcotest.fail "expected concurrent match"

let concurrency_rejects_ordered () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A || B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let _a = Build.internal b 0 "A" in
  let m, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m in
  let bb = Build.internal b 1 "B" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected no match (a -> b)"

let newest_match_preferred () =
  (* two candidate a's on the same trace: the most recent is returned *)
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let _a1 = Build.internal b 0 "A" in
  let a2 = Build.internal b 0 "A" in
  let m, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m in
  let bb = Build.internal b 1 "B" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' -> check "newest a" true (Event.equal m'.(0) a2)
  | _ -> Alcotest.fail "expected a match"

let partner_operator () =
  let net = net_of "S := [_, S, _]; R := [_, R, _]; pattern := S <> R;" in
  let b = Build.create [| "P0"; "P1" |] in
  (* a decoy unrelated message *)
  let m0, _ = Build.send b ~src:1 ~etype:"S" () in
  let _ = Build.recv b ~dst:0 ~etype:"X" m0 in
  let m, s = Build.send b ~src:0 ~etype:"S" () in
  let r = Build.recv b ~dst:1 ~etype:"R" m in
  (match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:r with
  | Matcher.Found m' ->
    check "send is partner" true (Event.equal m'.(0) s);
    check "recv bound" true (Event.equal m'.(1) r)
  | _ -> Alcotest.fail "expected partner match");
  (* receive whose send has the wrong class finds nothing *)
  let m2, _ = Build.send b ~src:0 ~etype:"Other" () in
  let r2 = Build.recv b ~dst:1 ~etype:"R" m2 in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:r2 with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected no partner match"

let limited_happens_before () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A ~> B;" in
  let b = Build.create [| "P0" |] in
  let a1 = Build.internal b 0 "A" in
  let _a2 = Build.internal b 0 "A" in
  let bb = Build.internal b 0 "B" in
  (* a1 -> a2 -> b: a1 ~> b fails, a2 ~> b holds; matcher must return a2 *)
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' ->
    check "a2 not a1" true (not (Event.equal m'.(0) a1));
    check_int "a2 index" 2 m'.(0).Event.index
  | _ -> Alcotest.fail "expected lim match"

let variable_binding_process () =
  (* $p must bind the same trace name across the two classes *)
  let net = net_of "A := [$p, A, _]; B := [$p, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let _a_wrong = Build.internal b 1 "A" in
  let a_right = Build.internal b 0 "A" in
  let bb = Build.internal b 0 "B" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' -> check "same process" true (Event.equal m'.(0) a_right)
  | _ -> Alcotest.fail "expected match on same process"

let variable_binding_text () =
  let net = net_of "A := [_, A, $t]; B := [_, B, $t]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let _a1 = Build.internal b 0 ~text:"red" "A" in
  let a2 = Build.internal b 0 ~text:"blue" "A" in
  let m, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m in
  let bb = Build.internal b 1 ~text:"blue" "B" in
  (match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' -> check "text matched" true (Event.equal m'.(0) a2)
  | _ -> Alcotest.fail "expected text-bound match");
  let bb2 = Build.internal b 1 ~text:"green" "B" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb2 with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected no match for unseen text"

let event_variable_shared () =
  (* $a -> B && $a -> C: both constraints on the same occurrence *)
  let net =
    net_of "A := [_, A, _]; B := [_, B, _]; C := [_, C, _]; A $a;\npattern := $a -> B && $a -> C;"
  in
  let b = Build.create [| "P0"; "P1"; "P2" |] in
  let _a = Build.internal b 0 "A" in
  let m1, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m1 in
  let _bb = Build.internal b 1 "B" in
  let m2, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:2 m2 in
  let cc = Build.internal b 2 "C" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:2 ~anchor:cc with
  | Matcher.Found _ -> ()
  | _ -> Alcotest.fail "expected shared-variable match"

let pin_forces_trace () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1"; "P2" |] in
  let a0 = Build.internal b 0 "A" in
  let a1 = Build.internal b 1 "A" in
  let m0, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:2 m0 in
  let m1, _ = Build.send b ~src:1 () in
  let _ = Build.recv b ~dst:2 m1 in
  let bb = Build.internal b 2 "B" in
  (match search ~pin:(0, 1) net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' -> check "pinned to P1" true (Event.equal m'.(0) a1)
  | _ -> Alcotest.fail "expected pinned match");
  match search ~pin:(0, 0) net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb with
  | Matcher.Found m' -> check "pinned to P0" true (Event.equal m'.(0) a0)
  | _ -> Alcotest.fail "expected pinned match"

let anchor_must_match () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0" |] in
  let a = Build.internal b 0 "A" in
  (try
     ignore (search net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:a);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let node_budget_aborts () =
  let net =
    net_of
      "A := [_, A, _]; B := [_, B, _]; C := [_, C, _]; A $a; B $b; C $c;\n\
       pattern := $a || $b && $b || $c && $a || $c;"
  in
  let b = Build.create [| "P0"; "P1"; "P3" |] in
  (* C events exist but are all causally before the anchor, so the C level
     keeps wiping out while the A level has plenty of candidates to burn *)
  for _ = 1 to 30 do
    ignore (Build.internal b 0 "A")
  done;
  ignore (Build.internal b 2 "C");
  ignore (Build.internal b 2 "C");
  let m, _ = Build.send b ~src:2 () in
  let _ = Build.recv b ~dst:1 m in
  let anchor = Build.internal b 1 "B" in
  match search ~node_budget:5 net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor with
  | Matcher.Aborted -> ()
  | Matcher.Found _ -> Alcotest.fail "should not find (C ordered before anchor)"
  | Matcher.Not_found -> Alcotest.fail "budget too large for test"

let compound_weak_precedence_match () =
  (* (A -> B) -> (C -> D): needs some forward pair and no backward pair *)
  let net =
    net_of
      "A := [_, A, _]; B := [_, B, _]; C := [_, C, _]; D := [_, D, _];\n\
       pattern := (A -> B) -> (C -> D);"
  in
  let b = Build.create [| "P0"; "P1" |] in
  let _a = Build.internal b 0 "A" in
  let _bb = Build.internal b 0 "B" in
  let m, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m in
  let _c = Build.internal b 1 "C" in
  let d = Build.internal b 1 "D" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:3 ~anchor:d with
  | Matcher.Found _ -> ()
  | _ -> Alcotest.fail "expected compound match"

let strong_precedence_rejects_partial_order () =
  (* (A -> B) => (C -> D) needs every cross pair ordered; one concurrent
     pair breaks it, while weak precedence (->) still matches *)
  let mk op =
    net_of
      (Printf.sprintf
         "A := [_, A, _]; B := [_, B, _]; C := [_, C, _]; D := [_, D, _];\n\
          pattern := (A -> B) %s (C -> D);" op)
  in
  let b = Build.create [| "P0"; "P1" |] in
  let _a = Build.internal b 0 "A" in
  let _bb = Build.internal b 0 "B" in
  let m, _ = Build.send b ~src:0 () in
  (* C happens before the message is received: concurrent with A and B *)
  let _c = Build.internal b 1 "C" in
  let _ = Build.recv b ~dst:1 m in
  let d = Build.internal b 1 "D" in
  (match search (mk "->") (Build.poet b) (Build.events b) ~anchor_leaf:3 ~anchor:d with
  | Matcher.Found _ -> ()
  | _ -> Alcotest.fail "weak precedence should match");
  match search (mk "=>") (Build.poet b) (Build.events b) ~anchor_leaf:3 ~anchor:d with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "strong precedence must reject (c || a)"

let entangled_compounds_match_crossing () =
  let net =
    net_of
      "A := [_, A, _]; B := [_, B, _]; C := [_, C, _]; D := [_, D, _];\n\
       pattern := (A -> B) <-> (C -> D);"
  in
  let b = Build.create [| "P0"; "P1" |] in
  (* crossing: a -> d (via m1), c -> b (via m2) *)
  let _a = Build.internal b 0 "A" in
  let m1, _ = Build.send b ~src:0 () in
  let _c = Build.internal b 1 "C" in
  let m2, _ = Build.send b ~src:1 () in
  let _ = Build.recv b ~dst:0 m2 in
  let _bb = Build.internal b 0 "B" in
  let _ = Build.recv b ~dst:1 m1 in
  let d = Build.internal b 1 "D" in
  (match search net (Build.poet b) (Build.events b) ~anchor_leaf:3 ~anchor:d with
  | Matcher.Found m ->
    (* verify it really crosses per the Compound definitions *)
    let module Compound = Ocep_pattern.Compound in
    check "crosses" true (Compound.crosses [ m.(0); m.(1) ] [ m.(2); m.(3) ])
  | _ -> Alcotest.fail "expected entangled match");
  (* a fully-ordered scenario must not be entangled *)
  let b2 = Build.create [| "P0"; "P1" |] in
  let _ = Build.internal b2 0 "A" in
  let _ = Build.internal b2 0 "B" in
  let m, _ = Build.send b2 ~src:0 () in
  let _ = Build.recv b2 ~dst:1 m in
  let _ = Build.internal b2 1 "C" in
  let d2 = Build.internal b2 1 "D" in
  match search net (Build.poet b2) (Build.events b2) ~anchor_leaf:3 ~anchor:d2 with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "ordered compounds are not entangled"

let compound_exists_rejected_when_all_concurrent () =
  let net =
    net_of
      "A := [_, A, _]; B := [_, B, _]; C := [_, C, _]; D := [_, D, _];\n\
       pattern := (A -> B) -> (C -> D);"
  in
  let b = Build.create [| "P0"; "P1" |] in
  (* A -> B on P0; C -> D on P1; completely concurrent: no forward pair *)
  let _a = Build.internal b 0 "A" in
  let _bb = Build.internal b 0 "B" in
  let _c = Build.internal b 1 "C" in
  let d = Build.internal b 1 "D" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:3 ~anchor:d with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected no match (no existential pair)"

let strong_equals_arrow_on_primitives () =
  (* on primitive operands => and -> coincide *)
  let mk op = net_of (Printf.sprintf "A := [_, A, _]; B := [_, B, _]; pattern := A %s B;" op) in
  let b = Build.create [| "P0"; "P1" |] in
  let _ = Build.internal b 0 "A" in
  let m, _ = Build.send b ~src:0 () in
  let _ = Build.recv b ~dst:1 m in
  let bb = Build.internal b 1 "B" in
  let outcome op = search (mk op) (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:bb in
  (match (outcome "->", outcome "=>") with
  | Matcher.Found m1, Matcher.Found m2 -> check "same event" true (Event.equal m1.(0) m2.(0))
  | _ -> Alcotest.fail "both should find")

let partner_with_pin () =
  let net = net_of "S := [_, S, _]; R := [_, R, _]; pattern := S <> R;" in
  let b = Build.create [| "P0"; "P1"; "P2" |] in
  let m1, _ = Build.send b ~src:0 ~etype:"S" () in
  let r1 = Build.recv b ~dst:1 ~etype:"R" m1 in
  ignore r1;
  let m2, s2 = Build.send b ~src:2 ~etype:"S" () in
  let r2 = Build.recv b ~dst:1 ~etype:"R" m2 in
  (* pin the send leaf to P2: only r2's partner lives there *)
  (match search ~pin:(0, 2) net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:r2 with
  | Matcher.Found m -> check "partner from P2" true (Event.equal m.(0) s2)
  | _ -> Alcotest.fail "expected pinned partner match");
  (* r2's partner is on P2, so pinning the send leaf to P0 must fail *)
  match search ~pin:(0, 0) net (Build.poet b) (Build.events b) ~anchor_leaf:1 ~anchor:r2 with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected failure: partner not on pinned trace"

let three_way_variable_chain () =
  (* $x flows through three classes' text fields *)
  let net =
    net_of
      "A := [_, A, $x]; B := [_, B, $x]; C := [_, C, $x];\n\
       A $a; B $b; C $c; pattern := $a -> $b && $b -> $c;"
  in
  let b = Build.create [| "P0" |] in
  let _ = Build.internal b 0 ~text:"red" "A" in
  let _ = Build.internal b 0 ~text:"blue" "A" in
  let _ = Build.internal b 0 ~text:"blue" "B" in
  let _ = Build.internal b 0 ~text:"red" "B" in
  let c_red = Build.internal b 0 ~text:"red" "C" in
  (match search net (Build.poet b) (Build.events b) ~anchor_leaf:2 ~anchor:c_red with
  | Matcher.Found m ->
    check "all red" true
      (m.(0).Event.text = "red" && m.(1).Event.text = "red" && m.(2).Event.text = "red");
    (* and the causal chain holds on the single trace *)
    check "ordered" true (Event.hb m.(0) m.(1) && Event.hb m.(1) m.(2))
  | _ -> Alcotest.fail "expected red chain");
  (* a green C has no chain *)
  let c_green = Build.internal b 0 ~text:"green" "C" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:2 ~anchor:c_green with
  | Matcher.Not_found -> ()
  | _ -> Alcotest.fail "expected no chain for green"

let single_leaf_pattern () =
  let net = net_of "A := [_, A, 'x']; pattern := A;" in
  let b = Build.create [| "P0" |] in
  let good = Build.internal b 0 ~text:"x" "A" in
  match search net (Build.poet b) (Build.events b) ~anchor_leaf:0 ~anchor:good with
  | Matcher.Found m -> check "self match" true (Event.equal m.(0) good)
  | _ -> Alcotest.fail "single-leaf pattern should match its anchor"

(* Searches reuse one context per domain. A search started while another
   runs on the same domain (here from the outer search's trace-lookup
   callback), a search after one that raised, and searches from
   [enumerate]'s [yield] must all behave as if nothing were shared. *)
let scratch_reuse_is_invisible () =
  let net = net_of "A := ['P1', A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  let a = Build.internal b 1 "A" in
  let m, _ = Build.send b ~src:1 () in
  let _ = Build.recv b ~dst:0 m in
  let bb = Build.internal b 0 "B" in
  let poet = Build.poet b in
  let history = history_of net ~n_traces:2 (Build.events b) in
  let inet = inet_of poet net in
  let partner_of = Poet.find_partner poet in
  let run ?(trace_of_sym = Poet.trace_of_sym poet) ~anchor_leaf anchor =
    Matcher.search ~net:inet ~history ~n_traces:2 ~trace_of_sym ~partner_of ~anchor_leaf ~anchor ()
  in
  let slots m = Array.to_list (Array.map (fun (e : Event.t) -> (e.trace, e.index)) m) in
  let found = function Matcher.Found m -> Some (slots m) | _ -> None in
  let expected = found (run ~anchor_leaf:1 bb) in
  check "plain search" true (expected = Some (slots [| a; bb |]));
  let inner = ref None in
  let nested sym =
    inner := found (run ~anchor_leaf:1 bb);
    Poet.trace_of_sym poet sym
  in
  check "outer search unaffected" true (found (run ~trace_of_sym:nested ~anchor_leaf:1 bb) = expected);
  check "nested search" true (!inner = expected);
  (match run ~anchor_leaf:0 bb with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a B anchor must be rejected on leaf A");
  check "search after a raise" true (found (run ~anchor_leaf:1 bb) = expected);
  let yielded = ref [] in
  Matcher.enumerate ~net:inet ~history ~n_traces:2 ~trace_of_sym:(Poet.trace_of_sym poet)
    ~partner_of ~anchor_leaf:1 ~anchor:bb (fun m ->
      yielded := (Some (slots m), found (run ~anchor_leaf:1 bb)) :: !yielded);
  check "enumerate with a searching yield" true (!yielded = [ (expected, expected) ])

(* ------------------------------------------------------------------ *)
(* Domain restriction (Fig. 4)                                          *)
(* ------------------------------------------------------------------ *)

(* The positions of [hist] left after restricting the full domain by
   each (w, allowed) pair in turn. *)
let restricted hist ~trace rs =
  let d = Domain.create ~capacity:(List.length rs + 1) in
  Domain.set_full d hist;
  List.iter (fun (w, a) -> Domain.restrict d hist ~trace ~w a) rs;
  Domain.elements d

let allowed before after concurrent = { Compile.before; after; concurrent }

let domain_cases () =
  let net = net_of "A := [_, A, _]; B := [_, B, _]; pattern := A -> B;" in
  let b = Build.create [| "P0"; "P1" |] in
  (* P0: a1 a2 | send m | a3 ; P1: recv m, w *)
  let _a1 = Build.internal b 0 "A" in
  let _a2 = Build.internal b 0 "A" in
  let m, _ = Build.send b ~src:0 () in
  let _a3 = Build.internal b 0 "A" in
  let _ = Build.recv b ~dst:1 m in
  let w = Build.internal b 1 "W" in
  let h = history_of net ~n_traces:2 (Build.events b) in
  let hist = History.on h ~leaf:0 ~trace:0 in
  check_int "three As stored" 3 (Vec.length hist);
  let dom a = restricted hist ~trace:0 [ (w, a) ] in
  (* before w: a1, a2 (positions 0,1); a3 is concurrent with w *)
  check "before = {0,1}" true (dom (allowed true false false) = [ 0; 1 ]);
  check "concurrent = {2}" true (dom (allowed false false true) = [ 2 ]);
  check "after = {}" true (dom (allowed false true false) = []);
  (* all three allowed = everything *)
  check "all = {0,1,2}" true (dom (allowed true true true) = [ 0; 1; 2 ]);
  (* two restrictions intersect: before w and after a1 leaves a2 *)
  check "before w, after a1" true
    (restricted hist ~trace:0 [ (w, allowed true false false); (_a1, allowed false true false) ]
    = [ 1 ])

let domain_same_trace_excludes_self () =
  let net = net_of "A := [_, A, _]; pattern := A;" in
  let b = Build.create [| "P0" |] in
  let _ = Build.internal b 0 "A" in
  let a2 = Build.internal b 0 "A" in
  let _ = Build.internal b 0 "A" in
  let h = history_of net ~n_traces:1 (Build.events b) in
  let hist = History.on h ~leaf:0 ~trace:0 in
  let d = Domain.create ~capacity:2 in
  Domain.set_full d hist;
  Domain.restrict d hist ~trace:0 ~w:a2 (allowed true true true);
  check "self excluded" true (Domain.elements d = [ 0; 2 ]);
  check "two intervals" true (Domain.intervals d = [ (0, 0); (2, 2) ]);
  check "max" true (Domain.max_elt d = 2);
  check "next_below 1" true (Domain.next_below d 1 = 0);
  check "next_below -1" true (Domain.next_below d (-1) = -1);
  check "mem" true (Domain.mem d 2 && not (Domain.mem d 1))

(* A random history of one trace (a random subsequence of its events,
   as a class history is) and a random chain of restrictions by random
   events under random allowed-relation sets. *)
let domain_case prng =
  let n_traces = 2 + Prng.int prng 3 in
  let raws = Testutil.Gen.computation ~n_traces ~length:(5 + Prng.int prng 40) prng in
  let names = Array.init n_traces (fun i -> "P" ^ string_of_int i) in
  let _, events = Testutil.ingest_all names raws in
  let trace = Prng.int prng n_traces in
  let hist = Vec.create () in
  List.iter
    (fun (ev : Event.t) ->
      if ev.trace = trace && Prng.int prng 3 > 0 then Vec.push hist { History.ev; epoch = 0 })
    events;
  let evs = Array.of_list events in
  let rs =
    List.init (Prng.int prng 6) (fun _ ->
        let w = evs.(Prng.int prng (Array.length evs)) in
        (w, allowed (Prng.bool prng) (Prng.bool prng) (Prng.bool prng)))
  in
  (hist, trace, rs)

let domain_equals_brute_force =
  QCheck.Test.make ~name:"domain = relation filter of positions" ~count:500
    QCheck.small_int (fun seed ->
      let hist, trace, rs = domain_case (Prng.create (seed + 7)) in
      let brute =
        List.filter
          (fun p ->
            let x = (Vec.get hist p).History.ev in
            List.for_all (fun (w, a) -> Compile.allowed_of_relation (Event.relation x w) a) rs)
          (List.init (Vec.length hist) Fun.id)
      in
      let got = restricted hist ~trace rs in
      if got <> brute then
        QCheck.Test.fail_reportf "domain {%s} <> brute force {%s}"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int brute))
      else true)

let domain_normal_form =
  QCheck.Test.make ~name:"domain intervals disjoint and sorted" ~count:500
    QCheck.small_int (fun seed ->
      let hist, trace, rs = domain_case (Prng.create (seed + 11)) in
      let d = Domain.create ~capacity:(List.length rs + 1) in
      Domain.set_full d hist;
      List.iter (fun (w, a) -> Domain.restrict d hist ~trace ~w a) rs;
      let rec ok = function
        | (lo, hi) :: ((lo', _) :: _ as rest) -> lo <= hi && hi + 1 < lo' && ok rest
        | [ (lo, hi) ] -> lo <= hi
        | [] -> true
      in
      let ivs = Domain.intervals d in
      ok ivs && List.length ivs <= List.length rs + 1)

(* ------------------------------------------------------------------ *)
(* Properties against the oracle                                        *)
(* ------------------------------------------------------------------ *)

(* soundness + anchored completeness: for every event e and terminating
   leaf l that e matches, the matcher finds a match iff the oracle has one
   containing e at l; and any found match is a real match. *)
let matcher_agrees_with_oracle =
  QCheck.Test.make ~name:"matcher = oracle (anchored existence + soundness)" ~count:120
    QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 101) in
      let n_traces = 2 + Prng.int prng 2 in
      let raws = Testutil.Gen.computation ~n_traces ~length:(10 + Prng.int prng 15) prng in
      let names = Array.init n_traces (fun i -> "P" ^ string_of_int i) in
      let poet, events = Testutil.ingest_all names raws in
      let src = Testutil.Gen.pattern ~n_classes:(2 + Prng.int prng 2) prng in
      match Compile.compile (Parser.parse src) with
      | exception Compile.Compile_error _ -> true
      | net ->
        let history = history_of net ~n_traces events in
        let inet = inet_of poet net in
        let oracle_matches = Oracle.all_matches ~net ~events in
        let ok = ref true in
        List.iter
          (fun ev ->
            for leaf = 0 to Compile.size net - 1 do
              if !ok && Compile.leaf_matches net leaf ev then begin
                let outcome =
                  Matcher.search ~net:inet ~history ~n_traces
                    ~trace_of_sym:(Poet.trace_of_sym poet)
                    ~partner_of:(Poet.find_partner poet) ~anchor_leaf:leaf ~anchor:ev ()
                in
                let oracle_has =
                  List.exists (fun m -> Event.equal m.(leaf) ev) oracle_matches
                in
                match outcome with
                | Matcher.Found m ->
                  if not oracle_has then ok := false;
                  if not (Oracle.is_match ~net ~events m) then ok := false;
                  if not (Event.equal m.(leaf) ev) then ok := false
                | Matcher.Not_found -> if oracle_has then ok := false
                | Matcher.Aborted -> ok := false
              end
            done)
          events;
        if not !ok then
          QCheck.Test.fail_reportf "disagreement on pattern:@.%s@.with %d events" src
            (List.length events)
        else true)

(* pinned searches: found iff the oracle has a match with that leaf on that
   trace containing the anchor *)
let pinned_matches_oracle =
  QCheck.Test.make ~name:"pinned search = oracle filtered by slot" ~count:60 QCheck.small_int
    (fun seed ->
      let prng = Prng.create (seed + 500) in
      let n_traces = 2 + Prng.int prng 2 in
      let raws = Testutil.Gen.computation ~n_traces ~length:(10 + Prng.int prng 10) prng in
      let names = Array.init n_traces (fun i -> "P" ^ string_of_int i) in
      let poet, events = Testutil.ingest_all names raws in
      let src = Testutil.Gen.pattern ~n_classes:2 prng in
      match Compile.compile (Parser.parse src) with
      | exception Compile.Compile_error _ -> true
      | net ->
        let history = history_of net ~n_traces events in
        let inet = inet_of poet net in
        let oracle_matches = Oracle.all_matches ~net ~events in
        let k = Compile.size net in
        let ok = ref true in
        List.iter
          (fun ev ->
            for leaf = 0 to k - 1 do
              if !ok && Compile.leaf_matches net leaf ev then
                for pin_leaf = 0 to k - 1 do
                  if pin_leaf <> leaf then
                    for pin_trace = 0 to n_traces - 1 do
                      if !ok then begin
                        let outcome =
                          Matcher.search ~net:inet ~history ~n_traces
                            ~trace_of_sym:(Poet.trace_of_sym poet)
                            ~partner_of:(Poet.find_partner poet) ~anchor_leaf:leaf ~anchor:ev
                            ~pin:(pin_leaf, pin_trace) ()
                        in
                        let oracle_has =
                          List.exists
                            (fun m ->
                              Event.equal m.(leaf) ev && m.(pin_leaf).Event.trace = pin_trace)
                            oracle_matches
                        in
                        match outcome with
                        | Matcher.Found m ->
                          if not (oracle_has && m.(pin_leaf).Event.trace = pin_trace) then
                            ok := false
                        | Matcher.Not_found -> if oracle_has then ok := false
                        | Matcher.Aborted -> ok := false
                      end
                    done
                done
            done)
          events;
        !ok)

let () =
  Alcotest.run "matcher"
    [
      ( "scenarios",
        [
          Alcotest.test_case "happens-before found" `Quick happens_before_found;
          Alcotest.test_case "concurrent rejected for ->" `Quick happens_before_not_found_when_concurrent;
          Alcotest.test_case "concurrency found" `Quick concurrency_found;
          Alcotest.test_case "ordered rejected for ||" `Quick concurrency_rejects_ordered;
          Alcotest.test_case "newest match preferred" `Quick newest_match_preferred;
          Alcotest.test_case "partner operator" `Quick partner_operator;
          Alcotest.test_case "limited happens-before" `Quick limited_happens_before;
          Alcotest.test_case "process variable" `Quick variable_binding_process;
          Alcotest.test_case "text variable" `Quick variable_binding_text;
          Alcotest.test_case "event variable" `Quick event_variable_shared;
          Alcotest.test_case "pin forces trace" `Quick pin_forces_trace;
          Alcotest.test_case "anchor must match" `Quick anchor_must_match;
          Alcotest.test_case "node budget aborts" `Quick node_budget_aborts;
          Alcotest.test_case "compound weak precedence" `Quick compound_weak_precedence_match;
          Alcotest.test_case "strong precedence" `Quick strong_precedence_rejects_partial_order;
          Alcotest.test_case "entanglement" `Quick entangled_compounds_match_crossing;
          Alcotest.test_case "compound existential rejected" `Quick compound_exists_rejected_when_all_concurrent;
          Alcotest.test_case "strong = arrow on primitives" `Quick strong_equals_arrow_on_primitives;
          Alcotest.test_case "partner with pin" `Quick partner_with_pin;
          Alcotest.test_case "three-way variable chain" `Quick three_way_variable_chain;
          Alcotest.test_case "single-leaf pattern" `Quick single_leaf_pattern;
          Alcotest.test_case "scratch reuse is invisible" `Quick scratch_reuse_is_invisible;
        ] );
      ( "domains",
        [
          Alcotest.test_case "Fig 4 cases" `Quick domain_cases;
          Alcotest.test_case "self excluded" `Quick domain_same_trace_excludes_self;
          QCheck_alcotest.to_alcotest domain_equals_brute_force;
          QCheck_alcotest.to_alcotest domain_normal_form;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest matcher_agrees_with_oracle;
          QCheck_alcotest.to_alcotest pinned_matches_oracle;
        ] );
    ]
