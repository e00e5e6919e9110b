module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Ast = Ocep_pattern.Ast
module Gen = Ocep_pattern.Gen
module Engine = Ocep.Engine
module Subset = Ocep.Subset
module Oracle = Ocep_baselines.Oracle
module Inject = Ocep_workloads.Inject
module Wire = Ocep_ingest.Wire
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Source = Ocep_ingest.Source
open Ocep_base

type case = {
  c_seed : int;
  c_traces : string array;
  c_pattern : string;
  c_events : Event.raw list;
  c_faults : Inject.faults;
}

type mutation = No_pinned_searches | Tiny_node_budget | History_cap_one | Lossy_replay

let mutations =
  [
    ("no-pins", No_pinned_searches);
    ("tiny-budget", Tiny_node_budget);
    ("history-cap", History_cap_one);
    ("lossy-replay", Lossy_replay);
  ]

let mutation_name m = fst (List.find (fun (_, x) -> x = m) mutations)
let mutation_of_name n = List.assoc_opt n mutations

type divergence = { d_oracle : string; d_detail : string }
type result = { r_divergence : divergence option; r_oracle_checked : bool }

(* ---------------------------------------------------------------- *)
(* Generation                                                        *)
(* ---------------------------------------------------------------- *)

(* A case's pattern source is a full file: usually one plain pattern,
   and every third draw a template-instantiated registry (2-3 instances
   of one parameterized template, sometimes plus an independent plain
   pattern) — the multi-pattern inputs the automaton-vs-dedicated
   oracle needs. Template instances stay small so the brute-force
   oracle can still afford each expanded pattern. *)
let rec gen_pattern rng u ~tries =
  let src =
    if Prng.int rng 3 = 0 then
      Format.asprintf "%a" Ast.pp_file (Gen.registry rng u ~max_leaves:3)
    else Format.asprintf "%a" Ast.pp (Gen.pattern rng u ~max_leaves:4)
  in
  match Compile.compile_file (Parser.parse_file src) with
  | _ -> src
  | exception (Compile.Compile_error _ | Invalid_argument _) ->
    (* with <= 4 leaves a rejected draw is essentially impossible, but a
       generator bug must not loop the fuzzer forever *)
    if tries >= 20 then failwith "Fuzz.generate: cannot draw a compilable pattern"
    else gen_pattern rng u ~tries:(tries + 1)

(* A random valid linearization: each step picks a trace and either
   receives a message pending for it, sends to a random peer, or acts
   internally. A message becomes receivable only after its send was
   emitted, so ingestion order is always a linearization; unreceived
   sends simply stay in flight. *)
let gen_events rng (u : Gen.universe) ~n_traces:n =
  let count = 24 + Prng.int rng 37 in
  let pending = ref [] in
  let next_msg = ref 0 in
  let evs = ref [] in
  for _ = 1 to count do
    let t = Prng.int rng n in
    let deliverable = List.filter (fun (_, dst) -> dst = t) !pending in
    let kind =
      if deliverable <> [] && Prng.bool rng then begin
        let msg, _ = List.nth deliverable (Prng.int rng (List.length deliverable)) in
        pending := List.filter (fun (m, _) -> m <> msg) !pending;
        Event.Receive { msg }
      end
      else if n > 1 && Prng.int rng 3 = 0 then begin
        let dst = (t + 1 + Prng.int rng (n - 1)) mod n in
        let msg = !next_msg in
        incr next_msg;
        pending := (msg, dst) :: !pending;
        Event.Send { msg }
      end
      else Event.Internal
    in
    evs :=
      {
        Event.r_trace = t;
        r_etype = Prng.pick rng u.Gen.u_etypes;
        r_text = Prng.pick rng u.Gen.u_texts;
        r_kind = kind;
      }
      :: !evs
  done;
  List.rev !evs

(* Restorable faults only (no drops): under them the admission layer
   owes a bit-identical replay, so any digest difference is a bug. Drops
   are introduced solely by the lossy-replay mutation, which must make
   the digest comparison fail. *)
let gen_faults rng =
  {
    Inject.f_reorder = Prng.pick rng [| 0; 0; 2; 4; 8 |];
    f_dup = Prng.pick rng [| 0.; 0.; 0.1; 0.3 |];
    f_drop = 0.;
  }

let generate ~seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 3 in
  let traces = Array.init n (fun i -> "P" ^ string_of_int i) in
  let u = Gen.universe rng ~trace_names:traces in
  {
    c_seed = seed;
    c_traces = traces;
    c_pattern = gen_pattern rng u ~tries:0;
    c_events = gen_events rng u ~n_traces:n;
    c_faults = gen_faults rng;
  }

(* ---------------------------------------------------------------- *)
(* The three oracles                                                 *)
(* ---------------------------------------------------------------- *)

let base_config = { Engine.default_config with Engine.record_latency = false }

let mutate_config cfg = function
  | None | Some Lossy_replay -> cfg
  | Some No_pinned_searches -> { cfg with Engine.pin_searches = false }
  | Some Tiny_node_budget -> { cfg with Engine.node_budget = Some 1 }
  | Some History_cap_one -> { cfg with Engine.max_history_per_trace = Some 1 }

(* Skip the brute-force oracle when the product of per-leaf candidate
   counts — its worst-case enumeration — exceeds this. The generator's
   selective-leaf weighting keeps skips rare. *)
let oracle_budget = 2_000_000.

(* One registry engine with every pattern of the case's source file
   registered, fed the case's events. *)
let build_registry ~config ~traces ?retain nets events =
  let poet = Poet.create ?retain ~trace_names:traces () in
  let engine = Engine.create ~config ~poet () in
  let handles = List.map (fun (_, net) -> Engine.add_pattern engine net) nets in
  List.iter (fun r -> ignore (Engine.feed_raw engine r)) events;
  (poet, engine, handles)

(* A handle's full observable state, directly comparable. *)
let observe_handle h =
  ( Engine.Handle.matches_found h,
    Engine.Handle.covered_slots h,
    Engine.Handle.seen_slots h,
    List.map
      (fun (r : Subset.report) ->
        ( r.Subset.seq,
          r.Subset.fresh,
          Array.to_list
            (Array.map (fun (e : Event.t) -> (e.Event.trace, e.Event.index)) r.Subset.events)
        ))
      (Engine.Handle.reports h) )

let check ?mutation case =
  let nets = Compile.compile_file (Parser.parse_file case.c_pattern) in
  let cfg = mutate_config base_config mutation in
  (* the registry run is the reference every oracle compares against *)
  let poet, engine, handles =
    build_registry ~config:cfg ~traces:case.c_traces ~retain:true nets case.c_events
  in
  let digest_live = Runner.reports_digest engine in
  let events = Poet.all_events poet in
  (* oracle A: automaton vs dedicated dispatch — the registry compiles
     every pattern into one shared discrimination network, and each
     pattern's observables must still be bit-identical to a dedicated
     single-pattern engine fed the same stream (node sharing, the
     touched-pattern worklist and shared plans are pure plumbing) *)
  let divergence =
    if List.length nets < 2 then None
    else
      let rec per_pattern = function
        | [] -> None
        | ((name, net), h) :: rest ->
          let poet_d = Poet.create ~trace_names:case.c_traces () in
          let engine_d = Engine.create ~config:cfg ~net ~poet:poet_d () in
          List.iter (fun r -> ignore (Engine.feed_raw engine_d r)) case.c_events;
          let hd = List.hd (Engine.handles engine_d) in
          if observe_handle hd = observe_handle h then per_pattern rest
          else
            Some
              {
                d_oracle = "automaton-dedicated";
                d_detail =
                  Printf.sprintf
                    "pattern %s: shared-automaton registry diverges from its dedicated engine"
                    name;
              }
      in
      per_pattern (List.combine nets handles)
  in
  (* oracle B: brute-force enumeration, per registered pattern — every
     report is a real match, and the subset covers exactly the slots the
     pattern's full match set covers *)
  let oracle_checked = ref false in
  let divergence =
    match divergence with
    | Some _ -> divergence
    | None ->
      let rec per_pattern = function
        | [] -> None
        | ((name, net), h) :: rest ->
          let k = Compile.size net in
          let empty = Array.make k None in
          let cost = ref 1. in
          for leaf = 0 to k - 1 do
            let c =
              List.fold_left
                (fun n e -> if Oracle.consistent_exposed ~net empty leaf e then n + 1 else n)
                0 events
            in
            cost := !cost *. float_of_int c
          done;
          if !cost > oracle_budget then per_pattern rest
          else begin
            oracle_checked := true;
            let reports = Engine.Handle.reports h in
            let truth = Oracle.true_slots (Oracle.all_matches ~net ~events) in
            match
              List.find_opt
                (fun (r : Subset.report) -> not (Oracle.is_match ~net ~events r.Subset.events))
                reports
            with
            | Some r ->
              Some
                {
                  d_oracle = "oracle-soundness";
                  d_detail =
                    Printf.sprintf "pattern %s: report seq %d is not a match of the pattern"
                      name r.Subset.seq;
                }
            | None ->
              let covered =
                List.sort_uniq compare (List.concat_map (fun r -> r.Subset.fresh) reports)
              in
              if covered = truth then per_pattern rest
              else
                Some
                  {
                    d_oracle = "oracle-coverage";
                    d_detail =
                      Printf.sprintf
                        "pattern %s: engine covered %d (leaf, trace) slots, the oracle's \
                         match set covers %d"
                        name (List.length covered) (List.length truth);
                  }
          end
      in
      per_pattern (List.combine nets handles)
  in
  (* oracle C: record, degrade the transport, replay through admission —
     restorable faults owe a bit-identical digest *)
  let divergence =
    match divergence with
    | Some _ -> divergence
    | None ->
      let faults =
        match mutation with
        | Some Lossy_replay -> { case.c_faults with Inject.f_drop = 0.25 }
        | _ -> case.c_faults
      in
      let seqs = Array.make (Array.length case.c_traces) 0 in
      let frames =
        List.mapi
          (fun i (r : Event.raw) ->
            seqs.(r.Event.r_trace) <- seqs.(r.Event.r_trace) + 1;
            Wire.of_raw ~id:i ~seq:seqs.(r.Event.r_trace) r)
          case.c_events
      in
      let faulted = Inject.apply_faults faults ~seed:case.c_seed frames in
      let tmp = Filename.temp_file "ocep_fuzz" ".wire" in
      Fun.protect ~finally:(fun () -> Sys.remove tmp)
      @@ fun () ->
      let oc = open_out_bin tmp in
      let wr = Framing.create_writer oc ~trace_names:case.c_traces in
      List.iter (Framing.write wr) faulted;
      Framing.flush wr;
      close_out oc;
      let ic = open_in_bin tmp in
      Fun.protect ~finally:(fun () -> close_in ic)
      @@ fun () ->
      let reader = Framing.create_reader ic in
      let poet_r = Poet.create ~trace_names:case.c_traces () in
      let engine_r = Engine.create ~config:cfg ~poet:poet_r () in
      List.iter (fun (_, net) -> ignore (Engine.add_pattern engine_r net)) nets;
      (* patience comfortably above the largest displacement block
         shuffling can produce, so pristine streams always recover and
         lossy ones skip (differing digest) instead of raising *)
      let window = max 16 (4 * faults.Inject.f_reorder) in
      let session_cfg =
        {
          Ocep_ingest.Session.default with
          Ocep_ingest.Session.reorder_window = window;
          gap_policy = Admission.Skip window;
        }
      in
      (match Ocep_ingest.Session.replay ~config:session_cfg ~engine:engine_r reader with
      | (_ : Source.stats) ->
        let digest_replay = Runner.reports_digest engine_r in
        if digest_replay = digest_live then None
        else
          Some
            {
              d_oracle = "record-replay";
              d_detail =
                Format.asprintf "live digest %s <> replay digest %s under faults %a"
                  digest_live digest_replay Inject.pp_faults faults;
            }
      | exception Admission.Gap msg ->
        Some { d_oracle = "record-replay"; d_detail = "unrecoverable gap: " ^ msg })
  in
  { r_divergence = divergence; r_oracle_checked = !oracle_checked }

(* ---------------------------------------------------------------- *)
(* Shrinking                                                         *)
(* ---------------------------------------------------------------- *)

(* Remove event [idx]; removing a send also removes its receive so the
   stream stays a valid linearization (a receive alone may go — its
   message is then merely in flight). *)
let remove_nth case idx =
  let victim = List.nth case.c_events idx in
  let dead_msg =
    match victim.Event.r_kind with Event.Send { msg } -> Some msg | _ -> None
  in
  let events =
    List.filteri
      (fun j (e : Event.raw) ->
        j <> idx
        &&
        match (dead_msg, e.Event.r_kind) with
        | Some m, Event.Receive { msg } when msg = m -> false
        | _ -> true)
      case.c_events
  in
  { case with c_events = events }

let shrink ?mutation case =
  let diverges c = (check ?mutation c).r_divergence <> None in
  let budget = ref 300 in
  let cur = ref case in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    (* back to front, so indices below the cursor stay meaningful after
       a successful removal *)
    let i = ref (List.length (!cur).c_events - 1) in
    while !i >= 0 && !budget > 0 do
      let candidate = remove_nth !cur !i in
      decr budget;
      if diverges candidate then begin
        cur := candidate;
        progress := true
      end;
      decr i
    done
  done;
  (if (!cur).c_faults <> Inject.no_faults && !budget > 0 then
     let candidate = { !cur with c_faults = Inject.no_faults } in
     if diverges candidate then cur := candidate);
  !cur

(* ---------------------------------------------------------------- *)
(* Corpus files                                                      *)
(* ---------------------------------------------------------------- *)

let magic = "ocep-fuzz v1"

let save ~dir ?expect_mutant case =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let name =
    match expect_mutant with
    | Some m -> Printf.sprintf "mutant-%s-seed%d.case" m case.c_seed
    | None -> Printf.sprintf "seed%d.case" case.c_seed
  in
  let path = Filename.concat dir name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc)
  @@ fun () ->
  Printf.fprintf oc "%s\n" magic;
  Printf.fprintf oc "seed: %d\n" case.c_seed;
  (match expect_mutant with
  | Some m -> Printf.fprintf oc "expect-mutant: %s\n" m
  | None -> ());
  Printf.fprintf oc "faults: %s\n" (Format.asprintf "%a" Inject.pp_faults case.c_faults);
  Printf.fprintf oc "traces: %s\n" (String.concat " " (Array.to_list case.c_traces));
  Printf.fprintf oc "events: %d\n" (List.length case.c_events);
  List.iter
    (fun (e : Event.raw) ->
      match e.Event.r_kind with
      | Event.Internal -> Printf.fprintf oc "I %d %S %S\n" e.r_trace e.r_etype e.r_text
      | Event.Send { msg } -> Printf.fprintf oc "S %d %d %S %S\n" e.r_trace msg e.r_etype e.r_text
      | Event.Receive { msg } ->
        Printf.fprintf oc "R %d %d %S %S\n" e.r_trace msg e.r_etype e.r_text)
    case.c_events;
  Printf.fprintf oc "pattern:\n%s" case.c_pattern;
  path

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic)
  @@ fun () ->
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  let line () = try input_line ic with End_of_file -> fail "truncated corpus file" in
  if line () <> magic then fail "not an ocep-fuzz corpus file";
  let seed = ref 0 in
  let expect = ref None in
  let faults = ref Inject.no_faults in
  let traces = ref [||] in
  let events = ref [] in
  let raw trace etype text kind =
    { Event.r_trace = trace; r_etype = etype; r_text = text; r_kind = kind }
  in
  let rec header () =
    let l = line () in
    if l <> "pattern:" then begin
      (match String.index_opt l ':' with
      | None -> fail "malformed header line %S" l
      | Some i ->
        let key = String.sub l 0 i in
        let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
        (match key with
        | "seed" -> seed := int_of_string v
        | "expect-mutant" -> expect := Some v
        | "faults" -> (
          match Inject.parse_faults v with
          | Ok f -> faults := f
          | Error e -> fail "%s" e)
        | "traces" -> traces := Array.of_list (String.split_on_char ' ' v)
        | "events" ->
          for _ = 1 to int_of_string v do
            let el = line () in
            let ev =
              if el = "" then fail "empty event line"
              else
                match el.[0] with
                | 'I' ->
                  Scanf.sscanf el "I %d %S %S" (fun t e x -> raw t e x Event.Internal)
                | 'S' ->
                  Scanf.sscanf el "S %d %d %S %S" (fun t m e x ->
                      raw t e x (Event.Send { msg = m }))
                | 'R' ->
                  Scanf.sscanf el "R %d %d %S %S" (fun t m e x ->
                      raw t e x (Event.Receive { msg = m }))
                | _ -> fail "bad event line %S" el
            in
            events := ev :: !events
          done
        | k -> fail "unknown header key %S" k));
      header ()
    end
  in
  header ();
  (* the pattern is the rest of the file, written verbatim without a
     trailing newline — reassemble it exactly so load (save c) = c *)
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  ( {
      c_seed = !seed;
      c_traces = !traces;
      c_pattern = String.concat "\n" (List.rev !lines);
      c_events = List.rev !events;
      c_faults = !faults;
    },
    !expect )

let load_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (fun f ->
           let case, expect = load (Filename.concat dir f) in
           (f, case, expect))

(* ---------------------------------------------------------------- *)
(* Campaign driver                                                   *)
(* ---------------------------------------------------------------- *)

type summary = {
  s_ran : int;
  s_oracle_checked : int;
  s_failures : (int * divergence) list;
}

let run ?mutation ?corpus_dir ?(log = fun (_ : string) -> ()) ~seeds ~start_seed () =
  let failures = ref [] in
  let checked = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = start_seed + i in
    let case = generate ~seed in
    let res = check ?mutation case in
    if res.r_oracle_checked then incr checked;
    (match res.r_divergence with
    | None -> ()
    | Some d ->
      log (Printf.sprintf "seed %d: %s: %s" seed d.d_oracle d.d_detail);
      let small = shrink ?mutation case in
      let d =
        match (check ?mutation small).r_divergence with Some d' -> d' | None -> d
      in
      (match corpus_dir with
      | Some dir ->
        let path = save ~dir ?expect_mutant:(Option.map mutation_name mutation) small in
        log
          (Printf.sprintf "seed %d: minimized to %d events -> %s" seed
             (List.length small.c_events) path)
      | None -> ());
      failures := (seed, d) :: !failures);
    if (i + 1) mod 200 = 0 then
      log
        (Printf.sprintf "%d/%d seeds, %d divergences, oracle on %d" (i + 1) seeds
           (List.length !failures) !checked)
  done;
  { s_ran = seeds; s_oracle_checked = !checked; s_failures = List.rev !failures }
