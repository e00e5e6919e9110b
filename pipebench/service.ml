(* The service workloads: an in-process [Server] with 2 shards, driven
   over loopback by at most 2 client threads (one connection each).

   service-stream: two tenants, pinned to different shards, each stream
   a long recording of a different case (races, atomicity) with the
   case's pattern plus one template instance per trace. Closed loop:
   send one pre-framed chunk, then STATS, wait for the reply, repeat; a
   chunk's latency runs from the start of its send to its STATS reply,
   i.e. until the tenant can see that chunk's matches.

   service-churn: tenants run back to back, one session per tenant on
   each of the 2 threads: connect+HELLO, ATTACH, a ~150-event stream,
   DRAIN, close. A session's latency runs from connect to the DRAIN
   reply.

   A run is one untimed warm-up round, then rounds until the time is up;
   every round starts a fresh server (its setup) and stops it at the end,
   so domain-wide allocation counters are exact. In a traced run every
   other round records spans from the client threads. *)

module Clock = Ocep_base.Clock
module Ocep_error = Ocep_base.Ocep_error
module Server = Ocep_service.Server
module Client = Ocep_service.Client
module Control = Ocep_service.Control

let host = "127.0.0.1"

let server_config =
  { Server.default_config with Server.shards = 2; max_patterns = 64; metrics_port = Some 0 }

type tenant = {
  name : string;
  names : string array;  (* trace names, sent in the stream header *)
  sources : string list;  (* ATTACHed in order *)
  chunks : string array;  (* pre-framed frames, no header *)
  chunk_events : int array;
  events : int;
  oracle : string;
  oracle_cpu_s : float;
}

let prepare_tenant ~work ~name ~chunk ~oracle_digest ~sources (r : Inputs.recording) =
  let nets = Inputs.compile_all sources in
  let digest, cpu = Inputs.oracle ~names:r.Inputs.names ~nets r.Inputs.raws in
  let n = Array.length r.Inputs.raws in
  let chunks = Inputs.framed_chunks ~work ~chunk ~names:r.Inputs.names r.Inputs.wires in
  {
    name;
    names = r.Inputs.names;
    sources;
    chunks;
    chunk_events = Array.mapi (fun j _ -> min chunk (n - (j * chunk))) chunks;
    events = n;
    oracle = Option.value oracle_digest ~default:digest;
    oracle_cpu_s = cpu;
  }

(* What one client thread measured in one round. *)
type thread_result = {
  lat : Measure.samples;  (* us *)
  mutable failures : int;
  mutable attempts : int;
  mutable admitted : int;
  mutable notes : string list;
}

let thread_result () =
  { lat = Measure.samples ~capacity:4096 (); failures = 0; attempts = 0; admitted = 0; notes = [] }

let fail res fmt =
  Printf.ksprintf
    (fun s ->
      res.failures <- res.failures + 1;
      if List.length res.notes < 5 then res.notes <- s :: res.notes)
    fmt

let check_final res (t : tenant) (st : Control.stats) =
  res.admitted <- res.admitted + st.Control.admitted;
  if st.Control.digest <> t.oracle then
    fail res "%s: digest %s <> oracle %s" t.name st.Control.digest t.oracle
  else if st.Control.admitted <> t.events then
    fail res "%s: admitted %d of %d" t.name st.Control.admitted t.events
  else if st.Control.shed > 0 then fail res "%s: %d frames shed" t.name st.Control.shed

let connect ~port (t : tenant) = Client.connect ~host ~port ~tenant:t.name ~traces:t.names ()

let attach_all c (t : tenant) =
  List.fold_left
    (fun acc (i, source) ->
      match acc with
      | Error _ -> acc
      | Ok () -> Result.map ignore (Client.attach c ~name:(Printf.sprintf "p%d" i) ~source))
    (Ok ())
    (List.mapi (fun i s -> (i, s)) t.sources)

(* one round's aggregate, before medians *)
type round = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  alloc_b : float;
  rss_mb : float;
  events : int;
  results : thread_result list;
}

let per_event (r : round) v = v /. float_of_int (max 1 r.events)
let median f rs = Measure.median_of_list (List.map f rs)
let ratio a b = if b > 0. then a /. b else 0.

(* Poll the server's /metrics endpoint for the peak shard queue depth
   until [stop] is set. *)
let http_get ~port path =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  ignore (Unix.write_substring s req 0 (String.length req));
  let buf = Buffer.create 4096 and b = Bytes.create 4096 in
  let rec go () =
    let k = Unix.read s b 0 4096 in
    if k > 0 then begin
      Buffer.add_subbytes buf b 0 k;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let queue_depth_poller ~port stop peak =
  Thread.create
    (fun () ->
      while not (Atomic.get stop) do
        (match http_get ~port "/metrics" with
        | body ->
          List.iter
            (fun line ->
              if String.length line > 22 && String.sub line 0 22 = "ocep_shard_queue_depth" then
                match String.rindex_opt line ' ' with
                | Some i -> (
                  match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                  | Some v -> if v > Atomic.get peak then Atomic.set peak v
                  | None -> ())
                | None -> ())
            (String.split_on_char '\n' body)
        | exception Unix.Unix_error _ -> ());
        Thread.delay 0.05
      done)
    ()

(* Run [body] for each of the client threads against a fresh server:
   the shared shape of both workloads' rounds. [setup] runs after the
   server starts and before the clock starts; it is part of setup_s. *)
let round ~setup ~threads ~body =
  Gc.full_major ();
  let t_setup = Clock.now_us () in
  let srv = Server.start ~config:server_config () in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  let ctx = setup srv in
  let setup_s = (Clock.now_us () -. t_setup) /. 1e6 in
  let results = List.init threads (fun _ -> thread_result ()) in
  let c0 = Measure.cpu_s () and b0 = Measure.allocated_bytes () in
  let t0 = Clock.now_us () in
  let ths = List.mapi (fun i res -> Thread.create (fun () -> body ~port ctx i res) ()) results in
  List.iter Thread.join ths;
  let wall_s = (Clock.now_us () -. t0) /. 1e6 in
  let cpu_s = Measure.cpu_s () -. c0 in
  let rss_mb = Measure.rss_mb () -. Measure.start_rss_mb in
  Server.stop srv;
  let alloc_b = Measure.allocated_bytes () -. b0 in
  let events = List.fold_left (fun acc r -> acc + r.admitted) 0 results in
  { setup_s; wall_s; cpu_s; alloc_b; rss_mb; events; results }

(* Rounds until the time is up, alternating plain and traced rounds in a
   traced run. *)
let rounds ~trace ~seconds run_round =
  let warm = run_round ~traced:false in
  let deadline = Clock.now_us () +. (seconds *. 1e6) in
  let plain = ref [] and with_spans = ref [] and i = ref 0 in
  while Clock.now_us () < deadline || !plain = [] || (trace && !with_spans = []) do
    if trace && !i mod 2 = 1 then with_spans := run_round ~traced:true :: !with_spans
    else plain := run_round ~traced:false :: !plain;
    incr i
  done;
  (warm, List.rev !plain, List.rev !with_spans)

let summarize ~warm ~plain ~with_spans ~lat_unit_us ~extra_lines =
  let all = (warm :: plain) @ with_spans in
  let results = List.concat_map (fun r -> r.results) all in
  let lat = Measure.samples () in
  List.iter
    (fun r -> List.iter (fun t -> for i = 0 to t.lat.Measure.n - 1 do Measure.add lat t.lat.Measure.a.(i) done) r.results)
    plain;
  let sorted = Measure.sorted lat in
  let n = Array.length sorted in
  let q, tail = Measure.tail ~q:0.95 sorted in
  let ev_s rs = median (fun r -> float_of_int r.events /. r.wall_s) rs in
  let e2e =
    [
      ("setup_s", median (fun r -> r.setup_s) plain);
      ("events_per_s", ev_s plain);
      ("cpu_us_per_event", median (fun r -> per_event r r.cpu_s *. 1e6) plain);
      ("alloc_bytes_per_event", median (fun r -> per_event r r.alloc_b) plain);
      ("rss_mb", median (fun r -> r.rss_mb) plain);
      ("latency_p50_us", Measure.quantile sorted 0.5);
      ("latency_tail_us", tail);
    ]
  in
  let attempted = List.fold_left (fun acc t -> acc + t.attempts) 0 results in
  let failed = List.fold_left (fun acc t -> acc + t.failures) 0 results in
  let lines =
    [
      Printf.sprintf "rounds: %d timed (+1 warm-up, %d traced); setup_s is the median of %d"
        (List.length plain) (List.length with_spans) (List.length plain);
      Printf.sprintf "%s: %d samples, tail reported at p%g" lat_unit_us n (q *. 100.);
    ]
    @ extra_lines
    @ List.concat_map (fun t -> List.rev t.notes) results
  in
  (e2e, attempted, failed, lines, ev_s, n)

(* The self-check for client-side spans: the named spans' self times
   against the client threads' wall time; [glue] layers are the
   benchmark's own loop. *)
let self_check ~glue ~self ~wall_us =
  let glue_us = List.fold_left (fun acc l -> acc +. self.(l)) 0. glue in
  let unattributed = ratio glue_us wall_us in
  let bad = unattributed > Report.unattributed_tolerance in
  ( unattributed,
    bad,
    Printf.sprintf
      "self-check: layer self times cover %.2f%% of the client threads' traced wall time \
       (tolerance %.0f%%)%s"
      ((1. -. unattributed) *. 100.) (Report.unattributed_tolerance *. 100.)
      (if bad then "  FAILED" else "") )

let write_spans ~work ~label trs =
  let path = Filename.concat work ("spans-" ^ label ^ ".tsv") in
  let oc = open_out path in
  List.iteri
    (fun i tr ->
      Printf.fprintf oc "# thread %d\n" i;
      Span.write tr oc)
    trs;
  close_out oc;
  Printf.sprintf "spans of the last traced round written to %s" path

(* ------------------------------------------------------------------ *)
(* service-stream                                                      *)
(* ------------------------------------------------------------------ *)

let s_tenant = 0
let s_client = 1
let s_stats = 2
let s_drain = 3
let stream_layers = [| "tenant"; "service.client"; "service.stats"; "service.drain" |]

(* tenant names the server's hash pins to shard 0 and shard 1 *)
let name_on_shard prefix shard =
  let rec go k =
    let n = Printf.sprintf "%s%d" prefix k in
    if Hashtbl.hash n mod server_config.Server.shards = shard then n else go (k + 1)
  in
  go 0

let stream ~work ~seed ~oracle_digest ~seconds ~trace ~events =
  let chunk = 2048 in
  let races = Inputs.record ~case:"races" ~traces:8 ~seed ~max_events:events in
  let atom = Inputs.record ~case:"atomicity" ~traces:6 ~seed:(seed + 1) ~max_events:events in
  let names (r : Inputs.recording) = Array.to_list r.Inputs.names in
  let tenants =
    [|
      prepare_tenant ~work ~name:(name_on_shard "stream-races-" 0) ~chunk ~oracle_digest
        ~sources:
          (Inputs.with_family ~names:(names races) races.Inputs.pattern
             ~template:
               "template fam($p) {\n  T := [$p, Token_Recv, _];\n  S := [$p, MPI_Send, _];\n  pattern := T -> S;\n}\n")
        races;
      prepare_tenant ~work ~name:(name_on_shard "stream-atomicity-" 1) ~chunk ~oracle_digest
        ~sources:
          (Inputs.with_family ~names:(names atom) atom.Inputs.pattern
             ~template:
               "template fam($p) {\n  E := [$p, CS_Enter, _];\n  X := [$p, CS_Exit, _];\n  pattern := E -> X;\n}\n")
        atom;
    |]
  in
  let trs = Array.init 2 (fun _ -> Span.create ~capacity:4096 stream_layers) in
  let self = Array.make (Array.length stream_layers) 0. in
  let traced_wall = ref 0. and traced_events = ref 0 in
  let peak_depth = Atomic.make 0. and skew = ref [] in
  let run_round ~traced =
    let setup ~port =
      Array.map
        (fun t ->
          match connect ~port t with
          | Error e -> Error (Ocep_error.to_string e)
          | Ok c -> (
            match attach_all c t with
            | Error e ->
              Client.close c;
              Error (Ocep_error.to_string e)
            | Ok () -> Ok c))
        tenants
    in
    let stop = Atomic.make false in
    let body ~port:_ clients i res =
      let t = tenants.(i) in
      res.attempts <- res.attempts + 1;
      match clients.(i) with
      | Error e -> fail res "%s: setup failed: %s" t.name e
      | Ok c -> (
        let tr = trs.(i) in
        if traced then Span.clear tr;
        let root = if traced then Span.enter tr s_tenant else 0 in
        if Client.shard c <> i then fail res "%s: pinned to shard %d, expected %d" t.name (Client.shard c) i;
        let sent = ref 0 in
        (try
           Array.iteri
             (fun j bytes ->
               res.attempts <- res.attempts + 1;
               let t0 = Clock.now_us () in
               let s = if traced then Span.enter tr s_client else 0 in
               Client.send_encoded c bytes;
               Client.flush c;
               if traced then Span.exit tr s;
               sent := !sent + t.chunk_events.(j);
               let s = if traced then Span.enter tr s_stats else 0 in
               let reply = Client.stats c in
               if traced then Span.exit tr s;
               match reply with
               | Ok st ->
                 Measure.add res.lat (Clock.now_us () -. t0);
                 if st.Control.admitted <> !sent then
                   fail res "%s: STATS after chunk %d shows %d admitted of %d sent" t.name j
                     st.Control.admitted !sent
                 else if st.Control.shed > 0 then fail res "%s: %d frames shed" t.name st.Control.shed
               | Error e -> fail res "%s: STATS error %s" t.name (Ocep_error.to_string e))
             t.chunks;
           let s = if traced then Span.enter tr s_drain else 0 in
           let reply = Client.drain c in
           if traced then Span.exit tr s;
           match reply with
           | Ok st -> check_final res t st
           | Error e -> fail res "%s: DRAIN error %s" t.name (Ocep_error.to_string e)
         with e -> fail res "%s: transport failure %s" t.name (Printexc.to_string e));
        if traced then Span.exit tr root;
        Client.close c)
    in
    let poller = ref None in
    let setup srv =
      if traced then
        Option.iter
          (fun mp -> poller := Some (queue_depth_poller ~port:mp stop peak_depth))
          (Server.metrics_port srv);
      setup ~port:(Server.port srv)
    in
    let r = round ~setup ~threads:2 ~body in
    Atomic.set stop true;
    Option.iter Thread.join !poller;
    if traced then begin
      Array.iter
        (fun tr ->
          Span.add_into self tr;
          if tr.Span.n > 0 then traced_wall := !traced_wall +. Span.duration tr 0)
        trs;
      traced_events := !traced_events + r.events;
      let per_shard = List.map (fun t -> float_of_int t.admitted) r.results in
      let mean = List.fold_left ( +. ) 0. per_shard /. 2. in
      skew := ratio (List.fold_left max 0. per_shard) mean :: !skew
    end;
    r
  in
  let warm, plain, with_spans = rounds ~trace ~seconds run_round in
  let e2e, attempted, failed, lines, ev_s, n =
    summarize ~warm ~plain ~with_spans ~lat_unit_us:"report latency (chunk send to STATS reply)"
      ~extra_lines:
        (Array.to_list
           (Array.map
              (fun t ->
                Printf.sprintf "tenant %s: %d traces, %d events in %d chunks, %d patterns" t.name
                  (Array.length t.names) t.events (Array.length t.chunks) (List.length t.sources))
              tenants))
  in
  let layers, bad, trace_lines =
    if not trace then ([], 0, [])
    else
      let unattributed, bad, check = self_check ~glue:[ s_tenant ] ~self ~wall_us:!traced_wall in
      let oracle_cpu_us_per_event =
        Array.fold_left (fun acc t -> acc +. t.oracle_cpu_s) 0. tenants
        *. 1e6
        /. float_of_int (Array.fold_left (fun acc (t : tenant) -> acc + t.events) 0 tenants)
      in
      ( [
          ("service.client.ns_per_event", ratio (self.(s_client) *. 1000.) (float_of_int !traced_events));
          ( "service.server.overhead_us_per_event",
            List.assoc "cpu_us_per_event" e2e -. oracle_cpu_us_per_event );
          ("service.server.queue_depth_max", Atomic.get peak_depth);
          ("service.server.shard_skew", Measure.median_of_list !skew);
          ("trace.unattributed_frac", unattributed);
          ("trace.overhead_frac", ratio (ev_s plain) (ev_s with_spans) -. 1.);
          ("samples.latency", float_of_int n);
          ("samples.setup", float_of_int (List.length plain));
        ],
        (if bad then 1 else 0),
        [ check; write_spans ~work ~label:"service-stream" (Array.to_list trs) ] )
  in
  { Report.attempted; failed = failed + bad; e2e; layers; lines = lines @ trace_lines }

(* ------------------------------------------------------------------ *)
(* service-churn                                                       *)
(* ------------------------------------------------------------------ *)

let c_worker = 0
let c_session = 1
let c_connect = 2
let c_attach = 3
let c_stream = 4
let c_drain = 5
let c_close = 6

let churn_layers =
  [| "worker"; "session"; "connect"; "attach"; "stream"; "drain"; "close" |]

let churn ~work ~seed ~oracle_digest ~seconds ~trace ~scale =
  let sessions_per_thread = max 4 (int_of_float (24. *. scale)) in
  let cases = [| "races"; "atomicity"; "deadlock"; "ordering" |] in
  let recordings =
    Array.init 8 (fun k ->
        let case = cases.(k mod 4) in
        let r = Inputs.record ~case ~traces:6 ~seed:(seed + k) ~max_events:150 in
        prepare_tenant ~work ~name:case ~chunk:max_int ~oracle_digest ~sources:[ r.Inputs.pattern ] r)
  in
  let trs = Array.init 2 (fun _ -> Span.create ~capacity:(8 * sessions_per_thread) churn_layers) in
  let self = Array.make (Array.length churn_layers) 0. in
  let traced_wall = ref 0. and traced_events = ref 0 in
  let phases = Array.init (Array.length churn_layers) (fun _ -> Measure.samples ()) in
  let round_no = ref 0 in
  let run_round ~traced =
    incr round_no;
    let rno = !round_no in
    let body ~port () i res =
      let tr = trs.(i) in
      if traced then Span.clear tr;
      let root = if traced then Span.enter tr c_worker else 0 in
      let span l f =
        if traced then begin
          let s = Span.enter tr l in
          let v = f () in
          Span.exit tr s;
          v
        end
        else f ()
      in
      for k = 0 to sessions_per_thread - 1 do
        let idx = (k * 2) + i in
        let p = recordings.(idx mod Array.length recordings) in
        let t = { p with name = Printf.sprintf "churn-%d-%d" rno idx } in
        res.attempts <- res.attempts + 1;
        let t0 = Clock.now_us () in
        try
          span c_session (fun () ->
              match span c_connect (fun () -> connect ~port t) with
              | Error e -> fail res "%s: HELLO error %s" t.name (Ocep_error.to_string e)
              | Ok c ->
                Fun.protect
                  ~finally:(fun () -> span c_close (fun () -> Client.close c))
                  (fun () ->
                    match span c_attach (fun () -> attach_all c t) with
                    | Error e -> fail res "%s: ATTACH error %s" t.name (Ocep_error.to_string e)
                    | Ok () -> (
                      span c_stream (fun () ->
                          Array.iter (Client.send_encoded c) t.chunks;
                          Client.flush c);
                      match span c_drain (fun () -> Client.drain c) with
                      | Ok st ->
                        Measure.add res.lat (Clock.now_us () -. t0);
                        check_final res t st
                      | Error e -> fail res "%s: DRAIN error %s" t.name (Ocep_error.to_string e))))
        with e -> fail res "%s: transport failure %s" t.name (Printexc.to_string e)
      done;
      if traced then Span.exit tr root
    in
    let r = round ~setup:(fun _ -> ()) ~threads:2 ~body in
    if traced then begin
      Array.iter
        (fun tr ->
          Span.add_into self tr;
          if tr.Span.n > 0 then traced_wall := !traced_wall +. Span.duration tr 0;
          for i = 0 to tr.Span.n - 1 do
            Measure.add phases.(tr.Span.layer.(i)) (Span.duration tr i)
          done)
        trs;
      traced_events := !traced_events + r.events
    end;
    r
  in
  let warm, plain, with_spans = rounds ~trace ~seconds run_round in
  let e2e, attempted, failed, lines, ev_s, n =
    summarize ~warm ~plain ~with_spans ~lat_unit_us:"session latency (connect to DRAIN reply)"
      ~extra_lines:
        [
          Printf.sprintf "%d sessions per round on 2 threads, %d recordings of %d-%d events"
            (2 * sessions_per_thread) (Array.length recordings)
            (Array.fold_left (fun acc (t : tenant) -> min acc t.events) max_int recordings)
            (Array.fold_left (fun acc (t : tenant) -> max acc t.events) 0 recordings);
        ]
  in
  let layers, bad, trace_lines =
    if not trace then ([], 0, [])
    else
      let unattributed, bad, check =
        self_check ~glue:[ c_worker; c_session ] ~self ~wall_us:!traced_wall
      in
      let median_ms l = Measure.quantile (Measure.sorted phases.(l)) 0.5 /. 1000. in
      ( [
          ("service.client.ns_per_event", ratio (self.(c_stream) *. 1000.) (float_of_int !traced_events));
          ("service.session.connect_ms", median_ms c_connect);
          ("service.session.attach_ms", median_ms c_attach);
          ("service.session.stream_ms", median_ms c_stream);
          ("service.session.drain_ms", median_ms c_drain);
          ("service.session.sessions_per_s", median (fun r -> float_of_int (2 * sessions_per_thread) /. r.wall_s) plain);
          ("trace.unattributed_frac", unattributed);
          ("trace.overhead_frac", ratio (ev_s plain) (ev_s with_spans) -. 1.);
          ("samples.latency", float_of_int n);
          ("samples.setup", float_of_int (List.length plain));
        ],
        (if bad then 1 else 0),
        [ check; write_spans ~work ~label:"service-churn" (Array.to_list trs) ] )
  in
  { Report.attempted; failed = failed + bad; e2e; layers; lines = lines @ trace_lines }
