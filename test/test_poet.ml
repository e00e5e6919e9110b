(* POET substrate: timestamp correctness against the reachability oracle,
   dump/reload round trips, re-linearization, partner lookup, and the
   subscription interface. *)

open Ocep_base
module Poet = Ocep_poet.Poet
module Linearize = Ocep_poet.Linearize
module Build = Testutil.Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names n = Array.init n (fun i -> "P" ^ string_of_int i)

let timestamps_match_oracle =
  QCheck.Test.make ~name:"vector timestamps encode exactly reachability" ~count:50
    QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 1) in
      let n_traces = 2 + Prng.int prng 4 in
      let raws = Testutil.Gen.computation ~n_traces ~length:40 prng in
      let _, events = Testutil.ingest_all (names n_traces) raws in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Event.equal a b || Event.hb a b = Testutil.hb_oracle events a b)
            events)
        events)

let indices_sequential () =
  let b = Build.create (names 2) in
  let e1 = Build.internal b 0 "A" in
  let e2 = Build.internal b 0 "B" in
  let f1 = Build.internal b 1 "A" in
  check_int "first" 1 e1.Event.index;
  check_int "second" 2 e2.Event.index;
  check_int "other trace restarts" 1 f1.Event.index

let receive_unknown_message () =
  let poet = Poet.create ~trace_names:(names 2) () in
  Alcotest.check_raises "unknown msg" (Failure "Poet.ingest: receive of unknown message 99")
    (fun () ->
      ignore
        (Poet.ingest poet
           { Event.r_trace = 0; r_etype = "R"; r_text = ""; r_kind = Event.Receive { msg = 99 } }))

let trace_out_of_range () =
  let poet = Poet.create ~trace_names:(names 2) () in
  Alcotest.check_raises "bad trace" (Failure "Poet.ingest: trace 7 out of range") (fun () ->
      ignore
        (Poet.ingest poet { Event.r_trace = 7; r_etype = "X"; r_text = ""; r_kind = Event.Internal }))

let subscription_order () =
  let poet = Poet.create ~trace_names:(names 2) () in
  let got = ref [] in
  Poet.subscribe poet (fun ev -> got := ev.Event.etype :: !got);
  List.iter
    (fun ty ->
      ignore (Poet.ingest poet { Event.r_trace = 0; r_etype = ty; r_text = ""; r_kind = Event.Internal }))
    [ "A"; "B"; "C" ];
  check "in order" true (List.rev !got = [ "A"; "B"; "C" ])

(* The engine dispatches from a flat subscription and boxes an event
   with [materialize] only when it needs one, so that view must be what
   a boxed client receives: inside a [subscribe_flat] callback,
   [materialize] rebuilds field by field the event a [subscribe] client
   gets for the same ingest — internal, send and receive events alike. *)
let materialize_equals_boxed =
  QCheck.Test.make ~name:"flat materialize = boxed subscriber event" ~count:100
    QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 4711) in
      let n_traces = 2 + Prng.int prng 4 in
      let raws = Testutil.Gen.computation ~n_traces ~length:60 prng in
      let poet = Poet.create ~trace_names:(names n_traces) () in
      let flat = ref [] and boxed = ref [] in
      Poet.subscribe_flat poet (fun eid -> flat := Poet.materialize poet eid :: !flat);
      Poet.subscribe poet (fun ev -> boxed := ev :: !boxed);
      List.iter (fun r -> ignore (Poet.ingest poet r)) raws;
      let same (a : Event.t) (b : Event.t) =
        a.trace = b.trace && a.index = b.index && a.etype = b.etype && a.text = b.text
        && a.tsym = b.tsym && a.esym = b.esym && a.xsym = b.xsym && a.kind = b.kind
        && Vclock.to_array a.vc = Vclock.to_array b.vc
      in
      if List.length !flat <> List.length raws || List.length !boxed <> List.length raws then
        QCheck.Test.fail_reportf "%d flat, %d boxed callbacks for %d events" (List.length !flat)
          (List.length !boxed) (List.length raws);
      List.iter2
        (fun a b ->
          if not (same a b) then
            QCheck.Test.fail_reportf "materialized %a %a <> boxed %a %a" Event.pp a Vclock.pp
              a.vc Event.pp b Vclock.pp b.vc)
        (List.rev !flat) (List.rev !boxed);
      true)

let partner_lookup () =
  let b = Build.create (names 2) in
  let s, r = Build.message b ~src:0 ~dst:1 in
  let i = Build.internal b 0 "X" in
  let poet = Build.poet b in
  check "send partner" true (match Poet.find_partner poet s with Some e -> Event.equal e r | None -> false);
  check "recv partner" true (match Poet.find_partner poet r with Some e -> Event.equal e s | None -> false);
  check "internal none" true (Poet.find_partner poet i = None)

let retain_required () =
  let poet = Poet.create ~retain:false ~trace_names:(names 1) () in
  Alcotest.check_raises "events_on requires retain"
    (Failure "Poet.events_on: store was created with retain:false") (fun () ->
      ignore (Poet.events_on poet 0))

let dump_reload_roundtrip () =
  let prng = Prng.create 99 in
  let raws = Testutil.Gen.computation ~n_traces:3 ~length:60 prng in
  let file = Filename.temp_file "poet" ".dump" in
  let oc = open_out file in
  Poet.dump_header ~trace_names:(names 3) oc;
  List.iter (Poet.dump_raw oc) raws;
  close_out oc;
  let ic = open_in file in
  let loaded_names, loaded = Poet.load ic in
  close_in ic;
  Sys.remove file;
  check "names" true (loaded_names = names 3);
  check "events" true (loaded = raws)

let dump_reload_same_timestamps () =
  let prng = Prng.create 123 in
  let raws = Testutil.Gen.computation ~n_traces:3 ~length:50 prng in
  let _, ev1 = Testutil.ingest_all (names 3) raws in
  let file = Filename.temp_file "poet" ".dump" in
  let oc = open_out file in
  Poet.dump_header ~trace_names:(names 3) oc;
  List.iter (Poet.dump_raw oc) raws;
  close_out oc;
  let ic = open_in file in
  let loaded_names, loaded = Poet.load ic in
  close_in ic;
  Sys.remove file;
  let _, ev2 = Testutil.ingest_all loaded_names loaded in
  check "same timestamps" true
    (List.for_all2 (fun (a : Event.t) (b : Event.t) -> Vclock.equal a.vc b.vc) ev1 ev2)

let dump_escaping () =
  (* attribute values with spaces, quotes and newlines survive the dump *)
  let raws =
    [
      { Event.r_trace = 0; r_etype = "weird type"; r_text = "a \"quoted\" text"; r_kind = Event.Internal };
      { Event.r_trace = 0; r_etype = "nl"; r_text = "line1\nline2"; r_kind = Event.Internal };
    ]
  in
  let file = Filename.temp_file "poet" ".dump" in
  let oc = open_out file in
  Poet.dump_header ~trace_names:[| "trace zero" |] oc;
  List.iter (Poet.dump_raw oc) raws;
  close_out oc;
  let ic = open_in file in
  let loaded_names, loaded = Poet.load ic in
  close_in ic;
  Sys.remove file;
  check "names escaped" true (loaded_names = [| "trace zero" |]);
  check "events escaped" true (loaded = raws)

let load_rejects_garbage () =
  let file = Filename.temp_file "poet" ".dump" in
  let oc = open_out file in
  output_string oc "not a dump\n";
  close_out oc;
  let ic = open_in file in
  (try
     ignore (Poet.load ic);
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  close_in ic;
  Sys.remove file

let shuffle_is_valid_linearization =
  QCheck.Test.make ~name:"shuffle produces a valid linearization with the same timestamps"
    ~count:40 QCheck.small_int (fun seed ->
      let prng = Prng.create (seed + 5) in
      let raws = Testutil.Gen.computation ~n_traces:3 ~length:40 prng in
      let shuffled = Linearize.shuffle ~seed:(seed * 3 + 1) raws in
      Linearize.is_linearization shuffled
      && List.length shuffled = List.length raws
      &&
      (* same per-trace subsequences *)
      let per_trace l t = List.filter (fun (r : Event.raw) -> r.r_trace = t) l in
      List.for_all (fun t -> per_trace raws t = per_trace shuffled t) [ 0; 1; 2 ]
      &&
      (* identical vector timestamps for corresponding events *)
      let _, ev1 = Testutil.ingest_all (names 3) raws in
      let _, ev2 = Testutil.ingest_all (names 3) shuffled in
      let key (e : Event.t) = (e.trace, e.index) in
      let sorted l = List.sort (fun a b -> compare (key a) (key b)) l in
      List.for_all2
        (fun (a : Event.t) (b : Event.t) -> key a = key b && Vclock.equal a.vc b.vc)
        (sorted ev1) (sorted ev2))

let is_linearization_detects_violation () =
  let bad =
    [
      { Event.r_trace = 0; r_etype = "R"; r_text = ""; r_kind = Event.Receive { msg = 1 } };
      { Event.r_trace = 1; r_etype = "S"; r_text = ""; r_kind = Event.Send { msg = 1 } };
    ]
  in
  check "detected" false (Linearize.is_linearization bad)

(* ------------------------------------------------------------------ *)
(* Dense / spill boundary for per-message-id state                     *)
(* ------------------------------------------------------------------ *)

(* Message ids below [dense_capacity] live in flat arrays; ids at or
   above it (and negative ids) spill to hashtables. The two stores must
   be indistinguishable: clock propagation and partner lookup work the
   same on either side of the boundary, including both in one run. *)

let send poet tr msg =
  ignore (Poet.ingest poet { Event.r_trace = tr; r_etype = "S"; r_text = ""; r_kind = Event.Send { msg } })

let recv poet tr msg =
  Poet.ingest poet { Event.r_trace = tr; r_etype = "R"; r_text = ""; r_kind = Event.Receive { msg } }

let internal poet tr ty =
  Poet.ingest poet { Event.r_trace = tr; r_etype = ty; r_text = ""; r_kind = Event.Internal }

let spill_boundary_clock_propagation () =
  List.iter
    (fun msg ->
      let poet = Poet.create ~partner_index:true ~trace_names:(names 2) () in
      let a = internal poet 0 "A" in
      send poet 0 msg;
      let r = recv poet 1 msg in
      let b = internal poet 1 "B" in
      let label = Printf.sprintf "msg id %d" msg in
      check (label ^ ": A hb recv") true (Event.hb a r);
      check (label ^ ": A hb B across the message") true (Event.hb a b))
    [
      Poet.dense_capacity - 1;  (* last dense id *)
      Poet.dense_capacity;  (* first spilled id *)
      Poet.dense_capacity + 5;
      -3;  (* negative ids always spill *)
    ]

let spill_boundary_partner_lookup () =
  let poet = Poet.create ~partner_index:true ~trace_names:(names 2) () in
  (* one dense and two spilled messages interleaved in a single run *)
  let pairs =
    List.map
      (fun msg ->
        send poet 0 msg;
        let r = recv poet 1 msg in
        let s = match Poet.find_partner poet r with Some s -> s | None -> Alcotest.fail "no send partner" in
        (msg, s, r))
      [ Poet.dense_capacity - 1; Poet.dense_capacity; -1 ]
  in
  List.iter
    (fun (msg, s, r) ->
      let label = Printf.sprintf "msg id %d" msg in
      check (label ^ ": send -> recv") true
        (match Poet.find_partner poet s with Some e -> Event.equal e r | None -> false);
      check (label ^ ": recv -> send") true
        (match Poet.find_partner poet r with Some e -> Event.equal e s | None -> false))
    pairs

let spill_boundary_unknown_still_fails () =
  let poet = Poet.create ~trace_names:(names 2) () in
  send poet 0 Poet.dense_capacity;
  (* a different spilled id is still unknown *)
  Alcotest.check_raises "unknown spilled msg"
    (Failure
       (Printf.sprintf "Poet.ingest: receive of unknown message %d" (Poet.dense_capacity + 1)))
    (fun () -> ignore (recv poet 1 (Poet.dense_capacity + 1)))

(* ------------------------------------------------------------------ *)
(* Diagram                                                             *)
(* ------------------------------------------------------------------ *)

let diagram_renders () =
  let b = Build.create [| "P0"; "P1" |] in
  let a = Build.internal b 0 "A" in
  let _s, _r = Build.message b ~src:0 ~dst:1 in
  let bb = Build.internal b 1 "B" in
  let out =
    Ocep_poet.Diagram.render ~highlight:[ a; bb ] ~trace_names:[| "P0"; "P1" |]
      (Build.events b)
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | l0 :: l1 :: _ ->
    Alcotest.(check string) "row P0" "P0 |#1  " l0;
    Alcotest.(check string) "row P1" "P1 |  1#" l1
  | _ -> Alcotest.fail "expected at least two lines");
  check "legend mentions message" true
    (let rec contains i =
       i + 7 <= String.length out && (String.sub out i 7 = "1=msg#1" || contains (i + 1))
     in
     contains 0);
  check "legend lists highlights" true
    (let rec contains i =
       i + 11 <= String.length out && (String.sub out i 11 = "highlighted" || contains (i + 1))
     in
     contains 0)

let diagram_truncates () =
  let b = Build.create [| "P0" |] in
  for _ = 1 to 100 do
    ignore (Build.internal b 0 "E")
  done;
  let out = Ocep_poet.Diagram.render ~max_events:10 ~trace_names:[| "P0" |] (Build.events b) in
  let first_line = List.hd (String.split_on_char '\n' out) in
  Alcotest.(check int) "width capped" (String.length "P0 |" + 10) (String.length first_line)

let () =
  Alcotest.run "poet"
    [
      ( "timestamps",
        [
          QCheck_alcotest.to_alcotest timestamps_match_oracle;
          Alcotest.test_case "indices sequential" `Quick indices_sequential;
          Alcotest.test_case "receive unknown" `Quick receive_unknown_message;
          Alcotest.test_case "trace out of range" `Quick trace_out_of_range;
        ] );
      ( "clients",
        [
          Alcotest.test_case "subscription order" `Quick subscription_order;
          Alcotest.test_case "partner lookup" `Quick partner_lookup;
          Alcotest.test_case "retain required" `Quick retain_required;
          QCheck_alcotest.to_alcotest materialize_equals_boxed;
        ] );
      ( "dump",
        [
          Alcotest.test_case "roundtrip" `Quick dump_reload_roundtrip;
          Alcotest.test_case "same timestamps" `Quick dump_reload_same_timestamps;
          Alcotest.test_case "escaping" `Quick dump_escaping;
          Alcotest.test_case "rejects garbage" `Quick load_rejects_garbage;
        ] );
      ( "dense spill boundary",
        [
          Alcotest.test_case "clock propagation" `Quick spill_boundary_clock_propagation;
          Alcotest.test_case "partner lookup" `Quick spill_boundary_partner_lookup;
          Alcotest.test_case "unknown spilled id" `Quick spill_boundary_unknown_still_fails;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "renders" `Quick diagram_renders;
          Alcotest.test_case "truncates" `Quick diagram_truncates;
        ] );
      ( "linearize",
        [
          QCheck_alcotest.to_alcotest shuffle_is_valid_linearization;
          Alcotest.test_case "violation detected" `Quick is_linearization_detects_violation;
        ] );
    ]
