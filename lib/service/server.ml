module Wire = Ocep_ingest.Wire
module Framing = Ocep_ingest.Framing
module Admission = Ocep_ingest.Admission
module Bqueue = Ocep_ingest.Bqueue
module Session = Ocep_ingest.Session
module Engine = Ocep.Engine
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Metrics = Ocep_obs.Metrics
module Serve = Ocep_obs.Serve
module Snapshot = Ocep_obs.Snapshot
module Error = Ocep_base.Ocep_error

type config = {
  host : string;
  port : int;
  shards : int;
  tenant_quota : int;
  quota_policy : Bqueue.policy;
  session : Session.config;
  max_patterns : int;
  metrics_port : int option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    shards = 2;
    tenant_quota = 4096;
    quota_policy = Bqueue.Block;
    (* a shed frame is a hole in the tenant's record-id sequence; Skip
       lets the tenant's own admission layer absorb it instead of
       wedging on Wait *)
    session = { Session.default with Session.gap_policy = Admission.Skip 64 };
    max_patterns = 64;
    metrics_port = None;
  }

(* ---------------------------------------------------------------- *)
(* Tenants                                                           *)
(* ---------------------------------------------------------------- *)

type tenant = {
  t_name : string;
  t_shard : int;
  t_quota : int;
  t_policy : Bqueue.policy;
  t_engine : Engine.t;
  t_adm : Admission.t;
  (* shard-domain-only state *)
  t_names : (string, int) Hashtbl.t;  (* attach name -> pattern id *)
  mutable t_drained : bool;
  mutable t_failed : Error.t option;
  (* router increments, shard decrements; the Block policy parks the
     router on [t_cond] until the shard catches up *)
  t_inflight : int Atomic.t;
  t_mu : Mutex.t;
  t_cond : Condition.t;
  (* mirrors for STATS and the metrics publisher *)
  t_frames : int Atomic.t;
  t_admitted : int Atomic.t;
  t_shed : int Atomic.t;
  t_matches : int Atomic.t;
  (* response channel back to the tenant's connection *)
  t_wmu : Mutex.t;
  t_wr : Framing.writer;
}

type item =
  | Data of tenant * Wire.t array
  | Ctl of tenant * int * Control.request
  | Bye of tenant

type shard = { s_q : item Bqueue.t; mutable s_dom : unit Domain.t option }

type t = {
  cfg : config;
  fd : Unix.file_descr;
  srv_port : int;
  shards : shard array;
  reg_mu : Mutex.t;
  tenants : (string, tenant) Hashtbl.t;  (* live, keyed by name *)
  mutable ever : tenant list;  (* every session, for monotone per-tenant series *)
  mutable conns : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  serve : Serve.t option;
  mutable pub_thread : Thread.t option;
}

let engine_config =
  (* one engine per tenant, pinned to its shard domain: matching is
     sequential per tenant, so the shard domains are the service's only
     parallelism, and the bounded histogram sink keeps a long-lived
     tenant's memory flat *)
  { Engine.default_config with Engine.latency_sink = Engine.Histogram }

let make_tenant cfg ~name ~traces ~quota ~policy ~wr =
  let poet = Poet.create ~trace_names:traces () in
  let engine = Engine.create ~config:engine_config ~poet () in
  let admitted = Atomic.make 0 in
  let adm =
    Admission.create
      ~config:
        {
          Admission.reorder_window = cfg.session.Session.reorder_window;
          gap_policy = cfg.session.Session.gap_policy;
        }
      ~n_traces:(Array.length traces)
      ~emit:(fun ~verdict ~decode_us:_ ~admit_us:_ w ->
        Atomic.incr admitted;
        Engine.feed_wire engine ~id:w.Wire.id ~verdict (Wire.to_raw w))
      ()
  in
  {
    t_name = name;
    t_shard = Hashtbl.hash name mod cfg.shards;
    t_quota = quota;
    t_policy = policy;
    t_engine = engine;
    t_adm = adm;
    t_names = Hashtbl.create 8;
    t_drained = false;
    t_failed = None;
    t_inflight = Atomic.make 0;
    t_mu = Mutex.create ();
    t_cond = Condition.create ();
    t_frames = Atomic.make 0;
    t_admitted = admitted;
    t_shed = Atomic.make 0;
    t_matches = Atomic.make 0;
    t_wmu = Mutex.create ();
    t_wr = wr;
  }

let respond t ~seq resp =
  Mutex.lock t.t_wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.t_wmu)
    (fun () ->
      Framing.write t.t_wr (Control.response_frame ~seq resp);
      Framing.flush t.t_wr)

(* ---------------------------------------------------------------- *)
(* Shard domains                                                     *)
(* ---------------------------------------------------------------- *)

let release t n =
  ignore (Atomic.fetch_and_add t.t_inflight (-n));
  Mutex.lock t.t_mu;
  Condition.broadcast t.t_cond;
  Mutex.unlock t.t_mu

let shard_data t frames =
  (if (not t.t_drained) && t.t_failed = None then
     try
       Array.iter (fun w -> Admission.push t.t_adm w) frames;
       Atomic.set t.t_matches (Engine.matches_found t.t_engine)
     with
     | Admission.Gap m -> t.t_failed <- Some (Error.Bad_request ("unrecoverable gap: " ^ m))
     | Invalid_argument m -> t.t_failed <- Some (Error.Trace_mismatch m));
  release t (Array.length frames)

let tenant_stats t =
  {
    Control.frames = Atomic.get t.t_frames;
    admitted = Atomic.get t.t_admitted;
    shed = Atomic.get t.t_shed;
    matches = Engine.matches_found t.t_engine;
    digest = Engine.reports_digest t.t_engine;
  }

let do_attach cfg t name source =
  if Hashtbl.length t.t_names >= cfg.max_patterns then
    Control.Err
      (Error.Quota_exceeded { tenant = t.t_name; what = "patterns"; limit = cfg.max_patterns })
  else
    match Compile.compile (Parser.parse source) with
    | net -> (
      match Engine.add_pattern t.t_engine net with
      | h ->
        let id = Engine.Handle.id h in
        Hashtbl.replace t.t_names name id;
        Control.Ok [ string_of_int id ]
      | exception Invalid_argument m -> Control.Err (Error.Compile_error m))
    | exception Parser.Parse_error m -> Control.Err (Error.Parse_error m)
    | exception Compile.Compile_error m -> Control.Err (Error.Compile_error m)

let do_detach t pattern =
  let id =
    match int_of_string_opt pattern with
    | Some id -> Some id
    | None -> Hashtbl.find_opt t.t_names pattern
  in
  match id with
  | None -> Control.Err (Error.Unknown_pattern pattern)
  | Some id -> (
    match Engine.remove_pattern t.t_engine id with
    | () ->
      let stale = Hashtbl.fold (fun n i acc -> if i = id then n :: acc else acc) t.t_names [] in
      List.iter (Hashtbl.remove t.t_names) stale;
      Control.Ok []
    | exception Error.Error e -> Control.Err e)

let shard_ctl cfg t seq req =
  let resp =
    match t.t_failed with
    | Some e -> Control.Err e
    | None -> (
      match req with
      | Control.Hello _ -> Control.Err (Error.Bad_request "HELLO: already identified")
      | Control.Stats -> Control.Ok (Control.stats_fields (tenant_stats t))
      | _ when t.t_drained -> Control.Err (Error.Drained t.t_name)
      | Control.Attach { name; source } -> do_attach cfg t name source
      | Control.Detach { pattern } -> do_detach t pattern
      | Control.Drain -> (
        match Admission.finish t.t_adm with
        | () ->
          t.t_drained <- true;
          Atomic.set t.t_matches (Engine.matches_found t.t_engine);
          Control.Ok (Control.stats_fields (tenant_stats t))
        | exception Admission.Gap m ->
          t.t_drained <- true;
          Control.Err (Error.Bad_request ("unrecoverable gap at drain: " ^ m))))
  in
  try respond t ~seq resp with _ -> ()

let shard_loop cfg sh =
  let rec go () =
    match Bqueue.pop sh.s_q with
    | None -> ()
    | Some (Data (t, frames)) ->
      shard_data t frames;
      go ()
    | Some (Ctl (t, seq, req)) ->
      shard_ctl cfg t seq req;
      go ()
    | Some (Bye t) ->
      if (not t.t_drained) && t.t_failed = None then
        (try Admission.finish t.t_adm with Admission.Gap _ -> ());
      t.t_drained <- true;
      Atomic.set t.t_matches (Engine.matches_found t.t_engine);
      Engine.shutdown t.t_engine;
      go ()
  in
  go ()

(* ---------------------------------------------------------------- *)
(* Connection threads                                                *)
(* ---------------------------------------------------------------- *)

let batch_cap = 256

(* Route one identified tenant's stream until EOF: data frames through
   the quota into [Data] batches, control frames as [Ctl] items — a
   control frame flushes the pending batch first, so its effect lands at
   its exact stream position. *)
let stream srv t reader =
  let sh = srv.shards.(t.t_shard) in
  let pending = ref [] in
  let npending = ref 0 in
  let flush () =
    if !npending > 0 then begin
      let arr = Array.of_list (List.rev !pending) in
      pending := [];
      npending := 0;
      ignore (Bqueue.push sh.s_q (Data (t, arr)))
    end
  in
  let enqueue w =
    Atomic.incr t.t_inflight;
    pending := w :: !pending;
    incr npending;
    if !npending >= batch_cap then flush ()
  in
  let offer w =
    Atomic.incr t.t_frames;
    match t.t_policy with
    | Bqueue.Shed ->
      if Atomic.get t.t_inflight >= t.t_quota then Atomic.incr t.t_shed else enqueue w
    | Bqueue.Block ->
      if Atomic.get t.t_inflight >= t.t_quota then begin
        (* our own unsent batch holds quota; push it before parking *)
        flush ();
        Mutex.lock t.t_mu;
        while Atomic.get t.t_inflight >= t.t_quota && not srv.stopping do
          Condition.wait t.t_cond t.t_mu
        done;
        Mutex.unlock t.t_mu
      end;
      enqueue w
  in
  let continue = ref true in
  while !continue do
    match Framing.next reader with
    | Framing.Frame w when Control.is_control w -> (
      flush ();
      match Control.parse_request w with
      | Result.Ok req -> ignore (Bqueue.push sh.s_q (Ctl (t, w.Wire.id, req)))
      | Result.Error e -> ( try respond t ~seq:w.Wire.id (Control.Err e) with _ -> ()))
    | Framing.Frame w -> offer w
    | Framing.Crc_error | Framing.Bad_frame _ -> ()
    | Framing.Truncated | Framing.Eof -> continue := false
  done;
  flush ();
  ignore (Bqueue.push sh.s_q (Bye t))

(* POET keeps one live clock row per trace, each as long as the trace
   table: 8 MB of rows at this cap *)
let max_traces = 1024

let hello srv ~traces ~wr = function
  | Control.Hello { tenant = name; quota; policy } -> (
    let cfg = srv.cfg in
    let policy = Option.value policy ~default:cfg.quota_policy in
    let quota_r =
      if Array.length traces > max_traces then
        Result.Error (Error.Quota_exceeded { tenant = name; what = "traces"; limit = max_traces })
      else
        match quota with
        | None -> Result.Ok cfg.tenant_quota
        | Some q when q > cfg.tenant_quota ->
          Result.Error
            (Error.Quota_exceeded { tenant = name; what = "events"; limit = cfg.tenant_quota })
        | Some q -> Result.Ok q
    in
    match quota_r with
    | Result.Error _ as e -> e
    | Result.Ok quota ->
      if quota = 0 && policy = Bqueue.Block then
        Result.Error
          (Error.Bad_request "HELLO: quota 0 under policy block would stall forever; use shed")
      else begin
        Mutex.lock srv.reg_mu;
        let r =
          if srv.stopping then Result.Error (Error.Bad_request "server is shutting down")
          else if Hashtbl.mem srv.tenants name then
            Result.Error
              (Error.Bad_request (Printf.sprintf "tenant %S is already connected" name))
          else begin
            let t = make_tenant cfg ~name ~traces ~quota ~policy ~wr in
            Hashtbl.replace srv.tenants name t;
            srv.ever <- t :: srv.ever;
            Result.Ok t
          end
        in
        Mutex.unlock srv.reg_mu;
        r
      end)
  | _ -> Result.Error (Error.Unknown_tenant "no HELLO yet: identify before any other request")

let conn_loop srv fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  match Framing.create_reader ic with
  | exception (Framing.Bad_header _ | End_of_file | Sys_error _) -> ()
  | reader -> (
    let traces = Framing.reader_trace_names reader in
    let wr = Framing.create_writer oc ~trace_names:traces in
    Framing.flush wr;
    (* no concurrent writer exists until the tenant is registered, so
       pre-Hello responses go straight through [wr] *)
    let rsp ~seq resp =
      Framing.write wr (Control.response_frame ~seq resp);
      Framing.flush wr
    in
    match Framing.next reader with
    | Framing.Frame w when w.Wire.etype = Control.ctl_etype -> (
      match Control.parse_request w with
      | Result.Error e -> rsp ~seq:w.Wire.id (Control.Err e)
      | Result.Ok req -> (
        match hello srv ~traces ~wr req with
        | Result.Error e -> rsp ~seq:w.Wire.id (Control.Err e)
        | Result.Ok t ->
          rsp ~seq:w.Wire.id (Control.Ok [ string_of_int t.t_shard ]);
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock srv.reg_mu;
              Hashtbl.remove srv.tenants t.t_name;
              Mutex.unlock srv.reg_mu)
            (fun () -> stream srv t reader)))
    | Framing.Frame w ->
      rsp ~seq:w.Wire.id (Control.Err (Error.Unknown_tenant "data frame before HELLO"))
    | Framing.Crc_error | Framing.Bad_frame _ | Framing.Truncated | Framing.Eof -> ())

let conn_main srv fd =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock srv.reg_mu;
      srv.conns <- List.filter (fun f -> f != fd) srv.conns;
      Mutex.unlock srv.reg_mu;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try conn_loop srv fd with Sys_error _ | End_of_file | Unix.Unix_error _ -> ())

(* ---------------------------------------------------------------- *)
(* Accept loop, telemetry, lifecycle                                 *)
(* ---------------------------------------------------------------- *)

let accept_loop srv =
  while not srv.stopping do
    match Unix.select [ srv.fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept srv.fd with
      | fd, _ ->
        Mutex.lock srv.reg_mu;
        if srv.stopping then begin
          Mutex.unlock srv.reg_mu;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          srv.conns <- fd :: srv.conns;
          let th = Thread.create (fun () -> conn_main srv fd) () in
          srv.conn_threads <- th :: srv.conn_threads;
          Mutex.unlock srv.reg_mu
        end
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

let publish_loop srv serve =
  (* this thread owns the service-level registry outright — shards and
     routers only touch the tenants' Atomic mirrors — so the
     single-domain Metrics contract holds by construction *)
  let m = Metrics.create () in
  let tenants_g = Metrics.gauge m ~help:"Currently connected tenants" "ocep_service_tenants" in
  Serve.set_health serve Serve.Serving;
  Serve.set_ready serve true;
  while not srv.stopping do
    Mutex.lock srv.reg_mu;
    let ever = srv.ever in
    let live = Hashtbl.length srv.tenants in
    Mutex.unlock srv.reg_mu;
    Metrics.set tenants_g (float_of_int live);
    List.iter
      (fun t ->
        let c name help v =
          Metrics.set_counter
            (Metrics.counter m ~help (Metrics.with_labels name [ ("tenant", t.t_name) ]))
            v
        in
        c "ocep_tenant_frames_total" "Data frames accepted from the tenant"
          (Atomic.get t.t_frames);
        c "ocep_tenant_events_total" "Events admitted to the tenant's engine"
          (Atomic.get t.t_admitted);
        c "ocep_tenant_shed_total" "Frames dropped by the tenant's quota"
          (Atomic.get t.t_shed);
        c "ocep_tenant_matches_total" "Matches found for the tenant" (Atomic.get t.t_matches))
      ever;
    Array.iteri
      (fun i sh ->
        Metrics.set
          (Metrics.gauge m ~help:"Items queued toward the shard"
             (Metrics.with_labels "ocep_shard_queue_depth" [ ("shard", string_of_int i) ]))
          (float_of_int (Bqueue.length sh.s_q)))
      srv.shards;
    Serve.publish serve ~metrics:(Snapshot.prometheus m) ~snapshot:(Snapshot.json m);
    Thread.delay 0.2
  done;
  Serve.set_health serve (Serve.Not_serving "stopping");
  Serve.set_ready serve false

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      invalid_arg (Printf.sprintf "Server.start: cannot resolve host %s" host))

let start ?(config = default_config) () =
  if config.shards <= 0 then
    invalid_arg (Printf.sprintf "Server.start: shards must be > 0, got %d" config.shards);
  if config.tenant_quota < 0 then
    invalid_arg
      (Printf.sprintf "Server.start: tenant_quota must be >= 0, got %d" config.tenant_quota);
  let addr = resolve config.host in
  let fd =
    Unix.socket (Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, config.port))) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (addr, config.port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 128;
  let srv_port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> config.port in
  let shards =
    Array.init config.shards (fun _ ->
        { s_q = Bqueue.create ~capacity:(max 16 config.tenant_quota) (); s_dom = None })
  in
  let serve =
    match config.metrics_port with
    | Some p -> Some (Serve.start ~host:"127.0.0.1" ~port:p ())
    | None -> None
  in
  let srv =
    {
      cfg = config;
      fd;
      srv_port;
      shards;
      reg_mu = Mutex.create ();
      tenants = Hashtbl.create 64;
      ever = [];
      conns = [];
      conn_threads = [];
      stopping = false;
      accept_thread = None;
      serve;
      pub_thread = None;
    }
  in
  Array.iter (fun sh -> sh.s_dom <- Some (Domain.spawn (fun () -> shard_loop config sh))) shards;
  srv.accept_thread <- Some (Thread.create accept_loop srv);
  (match serve with
  | Some s -> srv.pub_thread <- Some (Thread.create (fun () -> publish_loop srv s) ())
  | None -> ());
  srv

let port t = t.srv_port
let metrics_port t = match t.serve with Some s -> Some (Serve.port s) | None -> None

let tenant_count t =
  Mutex.lock t.reg_mu;
  let n = Hashtbl.length t.tenants in
  Mutex.unlock t.reg_mu;
  n

let stop srv =
  let proceed =
    Mutex.lock srv.reg_mu;
    let p = not srv.stopping in
    srv.stopping <- true;
    Mutex.unlock srv.reg_mu;
    p
  in
  if proceed then begin
    (match srv.accept_thread with Some th -> Thread.join th | None -> ());
    srv.accept_thread <- None;
    (try Unix.close srv.fd with Unix.Unix_error _ -> ());
    (* unblock connection readers, then wait them out *)
    Mutex.lock srv.reg_mu;
    let conns = srv.conns in
    Mutex.unlock srv.reg_mu;
    List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) conns;
    (* a router parked on a Block quota re-checks [stopping] on wakeup *)
    Mutex.lock srv.reg_mu;
    Hashtbl.iter
      (fun _ t ->
        Mutex.lock t.t_mu;
        Condition.broadcast t.t_cond;
        Mutex.unlock t.t_mu)
      srv.tenants;
    let ths = srv.conn_threads in
    srv.conn_threads <- [];
    Mutex.unlock srv.reg_mu;
    List.iter Thread.join ths;
    Array.iter (fun sh -> Bqueue.close sh.s_q) srv.shards;
    Array.iter
      (fun sh ->
        match sh.s_dom with
        | Some d ->
          Domain.join d;
          sh.s_dom <- None
        | None -> ())
      srv.shards;
    (match srv.pub_thread with Some th -> Thread.join th | None -> ());
    srv.pub_thread <- None;
    match srv.serve with Some s -> Serve.stop s | None -> ()
  end
