(* Workload inputs: recorded case streams, their framed wire logs, and the
   digest oracle. Everything here is a pure function of the seed; none of
   it is timed. *)

module Sim = Ocep_sim.Sim
module Poet = Ocep_poet.Poet
module Parser = Ocep_pattern.Parser
module Compile = Ocep_pattern.Compile
module Ast = Ocep_pattern.Ast
module Engine = Ocep.Engine
module Event = Ocep_base.Event
module Workload = Ocep_workloads.Workload
module Inject = Ocep_workloads.Inject
module Cases = Ocep_harness.Cases
module Wire = Ocep_ingest.Wire
module Framing = Ocep_ingest.Framing
module Server = Ocep_service.Server

(* The per-tenant engine settings of [Server] (default config with the
   bounded histogram latency sink), so replay and oracle engines are
   configured exactly like a service shard's. *)
let engine_config = { Engine.default_config with Engine.latency_sink = Engine.Histogram }

let admission_config =
  let s = Server.default_config.Server.session in
  {
    Ocep_ingest.Admission.reorder_window = s.Ocep_ingest.Session.reorder_window;
    gap_policy = s.Ocep_ingest.Session.gap_policy;
  }

type recording = {
  case : string;
  names : string array;
  pattern : string;  (* the case's own pattern source *)
  raws : Event.raw array;
  wires : Wire.t array;  (* [raws] stamped as a recorder would *)
}

let record ~case ~traces ~seed ~max_events =
  let w = Cases.make case ~traces ~seed ~max_events in
  let names = Sim.trace_names w.Workload.sim_config in
  let acc = ref [] in
  ignore (Sim.run w.Workload.sim_config ~sink:(fun r -> acc := r :: !acc) ~bodies:w.Workload.bodies);
  let raws = Array.of_list (List.rev !acc) in
  let seqs = Array.make (Array.length names) 0 in
  let wires =
    Array.mapi
      (fun i (r : Event.raw) ->
        seqs.(r.Event.r_trace) <- seqs.(r.Event.r_trace) + 1;
        Wire.of_raw ~id:i ~seq:seqs.(r.Event.r_trace) r)
      raws
  in
  { case; names; pattern = w.Workload.pattern; raws; wires }

let busiest_trace r =
  let c = Array.make (Array.length r.names) 0 in
  Array.iter (fun (x : Event.raw) -> c.(x.Event.r_trace) <- c.(x.Event.r_trace) + 1) r.raws;
  Array.fold_left max 0 c

(* Transport degradation applied once at record time: the frame
   sequence a reordering, duplicating (but lossless) network delivers. *)
let degrade ~seed frames =
  Array.of_list
    (Inject.apply_faults
       { Inject.f_reorder = 8; f_dup = 0.05; f_drop = 0. }
       ~seed (Array.to_list frames))

(* Frame [frames] into [path]. Returns the file offsets of the chunk
   boundaries: the end of the header, then every [chunk] frames and the
   end of the stream. *)
let write_log ?(chunk = max_int) path ~names frames =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let wr = Framing.create_writer oc ~trace_names:names in
  Framing.flush wr;
  let marks = ref [ pos_out oc ] in
  let n = Array.length frames in
  Array.iteri
    (fun i w ->
      Framing.write wr w;
      if (i + 1) mod chunk = 0 || i = n - 1 then begin
        Framing.flush wr;
        marks := pos_out oc :: !marks
      end)
    frames;
  Framing.flush wr;
  List.rev !marks

(* Pre-framed chunks (frames only, no magic or header) for
   [Client.send_encoded]. *)
let framed_chunks ~work ~chunk ~names frames =
  let path = Filename.concat work "chunks.wire" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let marks = write_log ~chunk path ~names frames in
  let ic = open_in_bin path in
  let data = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let rec slices = function
    | a :: (b :: _ as rest) -> String.sub data a (b - a) :: slices rest
    | _ -> []
  in
  Array.of_list (slices marks)

(* A case's pattern followed by one instance per trace of a template
   keyed on the trace name, all as source text (what ATTACH carries).
   The instances give the discrimination network one node per
   (trace, class) pair, so dispatch does real work on every event. *)
let with_family ~template ~names pattern =
  let file =
    Parser.parse_file
      (template ^ String.concat "" (List.map (Printf.sprintf "instantiate fam(%s);\n") names))
  in
  pattern
  :: List.map (fun (_, ast) -> Format.asprintf "%a" Ast.pp ast) (Compile.expand_file file)

let compile_all sources = List.map (fun s -> Compile.compile (Parser.parse s)) sources

(* The oracle: a dedicated engine, the same registrations in the same
   order, fed the clean raws directly in one block. Returns the digest
   and the CPU seconds the feeding took. *)
let oracle ~names ~nets raws =
  let poet = Poet.create ~trace_names:names () in
  let engine = Engine.create ~config:engine_config ~poet () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  List.iter (fun net -> ignore (Engine.add_pattern engine net)) nets;
  let c0 = Measure.cpu_s () in
  Engine.feed_block engine raws;
  let cpu = Measure.cpu_s () -. c0 in
  (Engine.reports_digest engine, cpu)

(* a digest that cannot match any real one: the self-test's broken oracle *)
let wrong_digest = "0000000000000000"
