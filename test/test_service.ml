(* The service tier: multi-tenant digest parity with dedicated engines,
   quota isolation, mid-stream control-plane edits against a
   restart-free oracle, and the typed error channel over the wire. *)

open Ocep_base
module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Engine = Ocep.Engine
module Workload = Ocep_workloads.Workload
module Cases = Ocep_harness.Cases
module Wire = Ocep_ingest.Wire
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Bqueue = Ocep_ingest.Bqueue
module Session = Ocep_ingest.Session
module Server = Ocep_service.Server
module Client = Ocep_service.Client
module Control = Ocep_service.Control
module Serve = Ocep_obs.Serve

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let with_temp f =
  let tmp = Filename.temp_file "ocep_service_test" ".wire" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () -> f tmp

let record_to ~path (w : Workload.t) =
  let names = Sim.trace_names w.Workload.sim_config in
  let oc = open_out_bin path in
  let wr = Framing.create_writer oc ~trace_names:names in
  ignore
    (Sim.run w.Workload.sim_config
       ~sink:(fun raw -> ignore (Framing.write_raw wr raw))
       ~bodies:w.Workload.bodies);
  Framing.flush wr;
  close_out oc

let read_stream path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let r = Framing.create_reader ic in
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    match Framing.next r with
    | Framing.Frame w -> frames := w :: !frames
    | Framing.Crc_error | Framing.Bad_frame _ -> ()
    | Framing.Truncated | Framing.Eof -> continue := false
  done;
  (Framing.reader_trace_names r, List.rev !frames)

(* mirror the server's per-tenant engine + admission settings exactly *)
let engine_cfg = { Engine.default_config with Engine.latency_sink = Engine.Histogram }
let session_cfg = Server.default_config.Server.session

let oracle_digest ~patterns path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let reader = Framing.create_reader ic in
  let poet = Poet.create ~trace_names:(Framing.reader_trace_names reader) () in
  let engine = Engine.create ~config:engine_cfg ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  List.iter (fun net -> ignore (Engine.add_pattern engine net)) patterns;
  ignore (Session.replay ~config:session_cfg ~engine reader);
  Engine.reports_digest engine

let with_server ?config f =
  let srv = Server.start ?config () in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () -> f srv

let ok_or_fail what = function
  | Result.Ok v -> v
  | Result.Error e -> Alcotest.failf "%s: unexpected error %s" what (Ocep_error.to_string e)

let connect srv ~tenant ~traces ?quota ?policy () =
  ok_or_fail "connect"
    (Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) ~tenant ~traces ?quota ?policy ())

let stream_frames client frames = List.iter (Client.send client) frames

(* ------------------------------------------------------------------ *)
(* Digest parity: two concurrent tenants vs dedicated engines          *)
(* ------------------------------------------------------------------ *)

let two_tenant_parity () =
  let wa = Cases.make "races" ~traces:4 ~seed:11 ~max_events:1500 in
  let wb = Cases.make "atomicity" ~traces:4 ~seed:12 ~max_events:1500 in
  with_temp @@ fun pa ->
  with_temp @@ fun pb ->
  record_to ~path:pa wa;
  record_to ~path:pb wb;
  let net_a = Compile.compile (Parser.parse wa.Workload.pattern) in
  let net_b = Compile.compile (Parser.parse wb.Workload.pattern) in
  let oracle_a = oracle_digest ~patterns:[ net_a ] pa in
  let oracle_b = oracle_digest ~patterns:[ net_b ] pb in
  check "distinct workloads give distinct digests" true (oracle_a <> oracle_b);
  with_server @@ fun srv ->
  let run name path pattern out =
    let traces, frames = read_stream path in
    let c = connect srv ~tenant:name ~traces () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    ignore (ok_or_fail "attach" (Client.attach c ~name:"p" ~source:pattern));
    stream_frames c frames;
    let st = ok_or_fail "drain" (Client.drain c) in
    out := Some (st, List.length frames)
  in
  let ra = ref None and rb = ref None in
  let ta = Thread.create (fun () -> run "tenant-a" pa wa.Workload.pattern ra) () in
  let tb = Thread.create (fun () -> run "tenant-b" pb wb.Workload.pattern rb) () in
  Thread.join ta;
  Thread.join tb;
  (match (!ra, !rb) with
  | Some (sa, na), Some (sb, nb) ->
    checks "tenant A digest matches dedicated engine" oracle_a sa.Control.digest;
    checks "tenant B digest matches dedicated engine" oracle_b sb.Control.digest;
    checki "tenant A admitted everything" na sa.Control.admitted;
    checki "tenant B admitted everything" nb sb.Control.admitted;
    checki "tenant A shed nothing" 0 sa.Control.shed;
    checki "tenant B shed nothing" 0 sb.Control.shed
  | _ -> Alcotest.fail "a client did not finish");
  (* unregistration is asynchronous: the conn thread notices EOF after
     the client's close returns *)
  let rec wait_gone retries =
    if Server.tenant_count srv = 0 then ()
    else if retries = 0 then
      checki "tenants unregistered at close" 0 (Server.tenant_count srv)
    else begin
      Thread.delay 0.02;
      wait_gone (retries - 1)
    end
  in
  wait_gone 150

(* ------------------------------------------------------------------ *)
(* Quota isolation: a shedding tenant degrades only itself             *)
(* ------------------------------------------------------------------ *)

let quota_shed_isolated () =
  let wa = Cases.make "races" ~traces:4 ~seed:21 ~max_events:1200 in
  let wb = Cases.make "races" ~traces:4 ~seed:22 ~max_events:1200 in
  with_temp @@ fun pa ->
  with_temp @@ fun pb ->
  record_to ~path:pa wa;
  record_to ~path:pb wb;
  let net = Compile.compile (Parser.parse wa.Workload.pattern) in
  let oracle_b = oracle_digest ~patterns:[ net ] pb in
  (* what a tenant that admitted nothing reports: pattern attached, zero
     events *)
  let empty_digest =
    let poet = Poet.create ~trace_names:(Sim.trace_names wa.Workload.sim_config) () in
    let engine = Engine.create ~config:engine_cfg ~net ~poet () in
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
    Engine.reports_digest engine
  in
  with_server @@ fun srv ->
  let run name path ?quota ?policy out =
    let traces, frames = read_stream path in
    let c = connect srv ~tenant:name ~traces ?quota ?policy () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    ignore (ok_or_fail "attach" (Client.attach c ~name:"p" ~source:wa.Workload.pattern));
    stream_frames c frames;
    let st = ok_or_fail "drain" (Client.drain c) in
    out := Some (st, List.length frames)
  in
  let ra = ref None and rb = ref None in
  let ta =
    Thread.create (fun () -> run "shedder" pa ~quota:0 ~policy:Bqueue.Shed ra) ()
  in
  let tb = Thread.create (fun () -> run "bystander" pb rb) () in
  Thread.join ta;
  Thread.join tb;
  match (!ra, !rb) with
  | Some (sa, na), Some (sb, _) ->
    checki "shedder admitted nothing" 0 sa.Control.admitted;
    checki "shedder shed every frame" na sa.Control.shed;
    checks "shedder digest is the empty-engine digest" empty_digest sa.Control.digest;
    checks "bystander digest untouched by the shedding tenant" oracle_b sb.Control.digest;
    checki "bystander shed nothing" 0 sb.Control.shed
  | _ -> Alcotest.fail "a client did not finish"

(* ------------------------------------------------------------------ *)
(* ATTACH/DETACH mid-stream vs a restart-free oracle                   *)
(* ------------------------------------------------------------------ *)

(* The oracle drives one dedicated engine through the same admission
   layer and performs the same registry edits at the same stream
   positions — no restart, exactly what the shard does. *)
let oracle_midstream ~traces ~frames ~net ~k1 ~k2 ~k3 =
  let poet = Poet.create ~trace_names:traces () in
  let engine = Engine.create ~config:engine_cfg ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let adm =
    Admission.create
      ~config:
        {
          Admission.reorder_window = session_cfg.Session.reorder_window;
          gap_policy = session_cfg.Session.gap_policy;
        }
      ~n_traces:(Array.length traces)
      ~emit:(fun ~verdict ~decode_us:_ ~admit_us:_ w ->
        Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w))
      ()
  in
  let h1 = ref None in
  List.iteri
    (fun i w ->
      if i = k1 then h1 := Some (Engine.add_pattern engine net);
      if i = k2 then ignore (Engine.add_pattern engine net);
      if i = k3 then
        Engine.remove_pattern engine (Engine.Handle.id (Option.get !h1));
      Admission.push adm w)
    frames;
  Admission.finish adm;
  Engine.reports_digest engine

let attach_detach_midstream () =
  let w = Cases.make "races" ~traces:4 ~seed:31 ~max_events:1800 in
  with_temp @@ fun path ->
  record_to ~path w;
  let traces, frames = read_stream path in
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  let n = List.length frames in
  let k1 = n / 4 and k2 = n / 2 and k3 = 3 * n / 4 in
  let oracle = oracle_midstream ~traces ~frames ~net ~k1 ~k2 ~k3 in
  with_server @@ fun srv ->
  let c = connect srv ~tenant:"editor" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let first = ref None in
  List.iteri
    (fun i fr ->
      if i = k1 then
        first := Some (ok_or_fail "attach 1" (Client.attach c ~name:"p1" ~source:w.Workload.pattern));
      if i = k2 then
        ignore (ok_or_fail "attach 2" (Client.attach c ~name:"p2" ~source:w.Workload.pattern));
      if i = k3 then
        ok_or_fail "detach"
          (Client.detach c ~pattern:(string_of_int (Option.get !first)));
      Client.send c fr)
    frames;
  let st = ok_or_fail "drain" (Client.drain c) in
  checks "mid-stream edits match the restart-free oracle" oracle st.Control.digest;
  checki "everything admitted" n st.Control.admitted;
  (* detach by attach-name exercises the name path too *)
  match Client.detach c ~pattern:"p2" with
  | Result.Error (Ocep_error.Drained _) -> ()
  | Result.Ok () -> Alcotest.fail "detach after drain should report Drained"
  | Result.Error e -> Alcotest.failf "want Drained, got %s" (Ocep_error.to_string e)

(* ------------------------------------------------------------------ *)
(* The typed error channel over the wire                               *)
(* ------------------------------------------------------------------ *)

let raw_exchange ~port ~traces reqs =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let wr = Framing.create_writer oc ~trace_names:traces in
  List.iter (fun f -> Framing.write wr f) reqs;
  Framing.flush wr;
  let rd = Framing.create_reader ic in
  match Framing.next rd with
  | Framing.Frame w -> (
    match Control.parse_response w with
    | Result.Ok r -> r
    | Result.Error e -> Alcotest.failf "undecodable response: %s" (Ocep_error.to_string e))
  | _ -> Alcotest.fail "no response frame"

let expect_err what pred = function
  | Result.Error e when pred e -> ()
  | Result.Error e -> Alcotest.failf "%s: wrong error %s" what (Ocep_error.to_string e)
  | Result.Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" what

let wire_errors () =
  let traces = [| "P0"; "P1" |] in
  let config = { Server.default_config with Server.max_patterns = 1 } in
  with_server ~config @@ fun srv ->
  let port = Server.port srv in
  (* a request before HELLO: Unknown_tenant *)
  (match raw_exchange ~port ~traces [ Control.request_frame ~seq:0 Control.Stats ] with
  | Control.Err (Ocep_error.Unknown_tenant _) -> ()
  | r -> Alcotest.failf "stats before hello: %s" (match r with
      | Control.Ok _ -> "ok?" | Control.Err e -> Ocep_error.to_string e));
  (* a data frame before HELLO too *)
  (match
     raw_exchange ~port ~traces
       [ { Wire.id = 0; trace = 0; seq = 1; etype = "x"; text = ""; kind = Event.Internal } ]
   with
  | Control.Err (Ocep_error.Unknown_tenant _) -> ()
  | _ -> Alcotest.fail "data before hello should be Unknown_tenant");
  (* quota above the server cap: Quota_exceeded at HELLO *)
  (match
     Client.connect ~host:"127.0.0.1" ~port ~tenant:"greedy" ~traces
       ~quota:(Server.default_config.Server.tenant_quota + 1) ()
   with
  | Result.Error (Ocep_error.Quota_exceeded { what = "events"; _ }) -> ()
  | Result.Error e -> Alcotest.failf "quota override: %s" (Ocep_error.to_string e)
  | Result.Ok c -> Client.close c; Alcotest.fail "quota override above cap accepted");
  (* quota 0 under block: Bad_request at HELLO *)
  (match
     Client.connect ~host:"127.0.0.1" ~port ~tenant:"stuck" ~traces ~quota:0
       ~policy:Bqueue.Block ()
   with
  | Result.Error (Ocep_error.Bad_request _) -> ()
  | Result.Error e -> Alcotest.failf "quota 0 block: %s" (Ocep_error.to_string e)
  | Result.Ok c -> Client.close c; Alcotest.fail "quota 0 block accepted");
  let c = connect srv ~tenant:"t" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* duplicate tenant name: Bad_request *)
  (match Client.connect ~host:"127.0.0.1" ~port ~tenant:"t" ~traces () with
  | Result.Error (Ocep_error.Bad_request _) -> ()
  | Result.Error e -> Alcotest.failf "duplicate tenant: %s" (Ocep_error.to_string e)
  | Result.Ok c2 -> Client.close c2; Alcotest.fail "duplicate tenant accepted");
  (* parse and compile failures come back typed *)
  expect_err "bad syntax"
    (function Ocep_error.Parse_error _ -> true | _ -> false)
    (Client.attach c ~name:"bad" ~source:"pattern :=");
  expect_err "undefined class"
    (function Ocep_error.Parse_error _ -> true | _ -> false)
    (Client.attach c ~name:"bad2" ~source:"A := [_, A, _]; pattern := B;");
  expect_err "self-constraint"
    (function Ocep_error.Compile_error _ -> true | _ -> false)
    (Client.attach c ~name:"bad3" ~source:"A := [_, A, _]; A $x; pattern := $x -> $x;");
  expect_err "unknown pattern"
    (function Ocep_error.Unknown_pattern _ -> true | _ -> false)
    (Client.detach c ~pattern:"nope");
  ignore
    (ok_or_fail "attach" (Client.attach c ~name:"p" ~source:"A := [_, Quiet, _]; pattern := A;"));
  (* the per-tenant pattern cap: Quota_exceeded what="patterns" *)
  expect_err "pattern cap"
    (function
      | Ocep_error.Quota_exceeded { what = "patterns"; limit = 1; _ } -> true | _ -> false)
    (Client.attach c ~name:"q" ~source:"A := [_, Quiet, _]; pattern := A;");
  (* double detach by id: the engine's typed Unknown_pattern crosses the wire *)
  ok_or_fail "detach p" (Client.detach c ~pattern:"p");
  expect_err "detach again"
    (function Ocep_error.Unknown_pattern _ -> true | _ -> false)
    (Client.detach c ~pattern:"0");
  (* a frame whose trace id is outside the declared table poisons the
     stream with Trace_mismatch *)
  Client.send c
    { Wire.id = 0; trace = 9; seq = 1; etype = "x"; text = ""; kind = Event.Internal };
  Client.flush c;
  let rec wait_poisoned retries =
    match Client.stats c with
    | Result.Error (Ocep_error.Trace_mismatch _) -> ()
    | Result.Ok _ when retries > 0 ->
      Thread.delay 0.02;
      wait_poisoned (retries - 1)
    | Result.Ok _ -> Alcotest.fail "out-of-range trace id went unnoticed"
    | Result.Error e -> Alcotest.failf "trace mismatch: %s" (Ocep_error.to_string e)
  in
  wait_poisoned 100

let drained_after_drain () =
  let traces = [| "P0" |] in
  with_server @@ fun srv ->
  let c = connect srv ~tenant:"d" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let st = ok_or_fail "drain" (Client.drain c) in
  checki "nothing admitted" 0 st.Control.admitted;
  expect_err "attach after drain"
    (function Ocep_error.Drained _ -> true | _ -> false)
    (Client.attach c ~name:"p" ~source:"A := [_, A, _]; pattern := A;");
  (* STATS still answers after a drain *)
  let st2 = ok_or_fail "stats after drain" (Client.stats c) in
  checks "digest stable after drain" st.Control.digest st2.Control.digest

(* ------------------------------------------------------------------ *)
(* Hostile tenants cannot take a shard down                            *)
(* ------------------------------------------------------------------ *)

(* Run [f] on a thread and wait at most [seconds] for it: a shard that
   died would leave a control call blocked forever. *)
let within ~seconds what f =
  let r = Atomic.make None in
  let th = Thread.create (fun () -> Atomic.set r (Some (try Ok (f ()) with e -> Error e))) () in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get r = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  match Atomic.get r with
  | Some (Ok v) ->
    Thread.join th;
    v
  | Some (Error e) -> raise e
  | None -> Alcotest.failf "%s: no answer within %.0f s" what seconds

(* A second receive of one message reaches neither POET nor the shard:
   admission drops it as an orphan, and a bystander on the same shard
   keeps getting answers. *)
let duplicate_receive_isolated () =
  let traces = [| "P0"; "P1" |] in
  let config = { Server.default_config with Server.shards = 1 } in
  with_server ~config @@ fun srv ->
  let by = connect srv ~tenant:"bystander" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close by) @@ fun () ->
  let c = connect srv ~tenant:"hostile" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let frame id trace seq kind = { Wire.id; trace; seq; etype = "m"; text = ""; kind } in
  stream_frames c
    [
      frame 0 0 1 (Event.Send { msg = 5 });
      frame 1 1 1 (Event.Receive { msg = 5 });
      frame 2 1 2 (Event.Receive { msg = 5 });
    ];
  let st = ok_or_fail "hostile stats" (within ~seconds:10. "hostile STATS" (fun () -> Client.stats c)) in
  checki "three frames seen" 3 st.Control.frames;
  checki "the second receive dropped" 2 st.Control.admitted;
  ignore (ok_or_fail "bystander stats" (within ~seconds:10. "bystander STATS" (fun () -> Client.stats by)))

(* A stream header naming more than [Server.max_traces] traces is
   refused at HELLO, before its tenant's clock rows are allocated; a
   tenant streaming meanwhile is untouched. *)
let trace_cap_at_hello () =
  let w = Cases.make "races" ~traces:4 ~seed:41 ~max_events:1200 in
  with_temp @@ fun path ->
  record_to ~path w;
  let net = Compile.compile (Parser.parse w.Workload.pattern) in
  let oracle = oracle_digest ~patterns:[ net ] path in
  let traces, frames = read_stream path in
  let half = List.length frames / 2 in
  with_server @@ fun srv ->
  let by = connect srv ~tenant:"bystander" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close by) @@ fun () ->
  ignore (ok_or_fail "attach" (Client.attach by ~name:"p" ~source:w.Workload.pattern));
  List.iteri (fun i f -> if i < half then Client.send by f) frames;
  let names n = Array.init n (Printf.sprintf "T%d") in
  (match
     Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) ~tenant:"wide"
       ~traces:(names (Server.max_traces + 1)) ()
   with
  | Result.Error (Ocep_error.Quota_exceeded { what = "traces"; limit; _ }) ->
    checki "limit named" Server.max_traces limit
  | Result.Error e -> Alcotest.failf "wide header: %s" (Ocep_error.to_string e)
  | Result.Ok c ->
    Client.close c;
    Alcotest.fail "a header above the trace cap was accepted");
  Client.close (connect srv ~tenant:"widest allowed" ~traces:(names Server.max_traces) ());
  List.iteri (fun i f -> if i >= half then Client.send by f) frames;
  let st = ok_or_fail "drain" (Client.drain by) in
  checki "bystander admitted everything" (List.length frames) st.Control.admitted;
  checks "bystander digest matches a dedicated engine" oracle st.Control.digest

(* ------------------------------------------------------------------ *)
(* Error and control codecs                                            *)
(* ------------------------------------------------------------------ *)

let all_errors =
  [
    Ocep_error.Stale_handle { pattern = 3 };
    Ocep_error.Unknown_pattern "17";
    Ocep_error.Unknown_tenant "t";
    Ocep_error.Quota_exceeded { tenant = "t"; what = "events"; limit = 42 };
    Ocep_error.Trace_mismatch "want [P0], got [P1]";
    Ocep_error.Parse_error "line 1: syntax";
    Ocep_error.Compile_error "undefined class: B";
    Ocep_error.Decode_error "trailing garbage";
    Ocep_error.Bad_request "no";
    Ocep_error.Drained "t";
  ]

let error_codec () =
  List.iter
    (fun e ->
      check
        (Printf.sprintf "round-trip %s" (Ocep_error.code e))
        true
        (Ocep_error.decode (Ocep_error.encode e) = e))
    all_errors;
  (* unknown codes degrade to Decode_error, readably *)
  (match Ocep_error.decode "from-the-future\x00detail" with
  | Ocep_error.Decode_error m -> check "alien code named" true (String.length m > 0)
  | _ -> Alcotest.fail "alien code should decode as Decode_error");
  (* every error crosses a control response frame intact *)
  List.iter
    (fun e ->
      match Control.parse_response (Control.response_frame ~seq:9 (Control.Err e)) with
      | Result.Ok (Control.Err e') ->
        check (Printf.sprintf "wire round-trip %s" (Ocep_error.code e)) true (e = e')
      | _ -> Alcotest.fail "error response did not round-trip")
    all_errors

let control_codec () =
  let reqs =
    [
      Control.Hello { tenant = "t"; quota = Some 7; policy = Some Bqueue.Shed };
      Control.Hello { tenant = "t"; quota = None; policy = None };
      Control.Attach { name = "p"; source = "A := [_, A, _]; pattern := A;" };
      Control.Detach { pattern = "3" };
      Control.Stats;
      Control.Drain;
    ]
  in
  List.iteri
    (fun i req ->
      let fr = Control.request_frame ~seq:i req in
      check "request frame is control" true (Control.is_control fr);
      match Control.parse_request fr with
      | Result.Ok req' -> check (Printf.sprintf "request %d round-trips" i) true (req = req')
      | Result.Error e -> Alcotest.failf "request %d: %s" i (Ocep_error.to_string e))
    reqs;
  let st = { Control.frames = 5; admitted = 4; shed = 1; matches = 2; digest = "abcd" } in
  (match
     Control.parse_response (Control.response_frame ~seq:0 (Control.Ok (Control.stats_fields st)))
   with
  | Result.Ok (Control.Ok fields) -> (
    match Control.parse_stats fields with
    | Result.Ok st' -> check "stats round-trip" true (st = st')
    | Result.Error e -> Alcotest.failf "stats: %s" (Ocep_error.to_string e))
  | _ -> Alcotest.fail "ok response did not round-trip");
  (* malformed payloads answer typed decode errors *)
  (match
     Control.parse_request
       { Wire.id = 0; trace = 0; seq = 0; etype = Control.ctl_etype; text = "NOPE";
         kind = Event.Internal }
   with
  | Result.Error (Ocep_error.Decode_error _) -> ()
  | _ -> Alcotest.fail "unknown opcode should be Decode_error");
  match
    Control.parse_request
      { Wire.id = 0; trace = 0; seq = 0; etype = Control.ctl_etype;
        text = "HELLO\x00t\x00-4\x00"; kind = Event.Internal }
  with
  | Result.Error (Ocep_error.Bad_request _) -> ()
  | _ -> Alcotest.fail "negative quota should be Bad_request"

(* ------------------------------------------------------------------ *)
(* Per-tenant metrics over the HTTP endpoint                           *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let metrics_endpoint () =
  let w = Cases.make "races" ~traces:4 ~seed:41 ~max_events:600 in
  with_temp @@ fun path ->
  record_to ~path w;
  let traces, frames = read_stream path in
  let config = { Server.default_config with Server.metrics_port = Some 0 } in
  with_server ~config @@ fun srv ->
  let mport = match Server.metrics_port srv with Some p -> p | None -> Alcotest.fail "no port" in
  let c = connect srv ~tenant:"mt" ~traces () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (ok_or_fail "attach" (Client.attach c ~name:"p" ~source:w.Workload.pattern));
  stream_frames c frames;
  let st = ok_or_fail "drain" (Client.drain c) in
  checki "all admitted" (List.length frames) st.Control.admitted;
  (* the publisher refreshes a few times a second; wait for the tenant's
     series to appear *)
  let rec scrape retries =
    let status, body = Serve.http_get ~host:"127.0.0.1" ~port:mport ~path:"/metrics" () in
    if
      status = 200
      && contains ~needle:(Printf.sprintf "ocep_tenant_events_total{tenant=\"mt\"} %d"
                             st.Control.admitted)
           body
    then body
    else if retries = 0 then
      Alcotest.failf "tenant series missing after drain (status %d):\n%s" status body
    else begin
      Thread.delay 0.1;
      scrape (retries - 1)
    end
  in
  let body = scrape 30 in
  check "shard depth gauge present" true (contains ~needle:"ocep_shard_queue_depth" body);
  check "tenant gauge present" true (contains ~needle:"ocep_service_tenants" body)

let () =
  Alcotest.run "service"
    [
      ( "codec",
        [
          Alcotest.test_case "typed errors round-trip" `Quick error_codec;
          Alcotest.test_case "control frames round-trip" `Quick control_codec;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "two tenants, digest parity" `Quick two_tenant_parity;
          Alcotest.test_case "quota shed isolates" `Quick quota_shed_isolated;
          Alcotest.test_case "attach/detach mid-stream" `Quick attach_detach_midstream;
          Alcotest.test_case "duplicate receive isolated" `Quick duplicate_receive_isolated;
        ] );
      ( "errors",
        [
          Alcotest.test_case "typed errors over the wire" `Quick wire_errors;
          Alcotest.test_case "drain freezes the stream" `Quick drained_after_drain;
          Alcotest.test_case "trace cap at hello" `Quick trace_cap_at_hello;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "per-tenant metrics endpoint" `Quick metrics_endpoint ] );
    ]
