(** The control plane's frame codec.

    Control messages ride the same CRC-framed transport as event data
    ({!Ocep_ingest.Framing}): a control message is a {!Ocep_ingest.Wire.t}
    whose [etype] is one of two reserved names ({!ctl_etype} for
    client→server requests, {!rsp_etype} for server→client responses) and
    whose [text] carries the NUL-joined payload fields. Reusing the event
    framing means the service needs exactly one parser, one CRC check and
    one reader loop per connection — a control frame is just a frame the
    router peels off before admission — and any future transport that can
    carry the recorder's log format can carry the control plane for free.

    The reserved names start with ['!'], which the pattern language's
    identifier grammar rejects, so no real workload event can collide
    with them.

    Requests and responses are strictly 1:1 and ordered per connection:
    the [id] field of a request frame is the connection's control
    sequence number, echoed in the matching response. *)

module Wire = Ocep_ingest.Wire
module Bqueue = Ocep_ingest.Bqueue

val ctl_etype : string
val rsp_etype : string

val is_control : Wire.t -> bool
(** True on both request and response frames. *)

(** What a tenant can ask of the server.

    [Hello] must be the first frame after the stream header and
    identifies the tenant; [quota]/[policy] lower the server's
    per-tenant in-flight quota or choose its enforcement policy for this
    session (a request {e above} the server's cap is refused with
    [Quota_exceeded], as is a stream header naming more than 1,024
    traces). [Attach] registers a pattern from source text at
    runtime and answers its pattern id; [Detach] removes one by id or by
    the name given at attach. [Stats] answers live counters plus the
    report digest; [Drain] flushes admission, freezes the stream and
    answers the final digest — the tenant's bit-identity witness. *)
type request =
  | Hello of { tenant : string; quota : int option; policy : Bqueue.policy option }
  | Attach of { name : string; source : string }
  | Detach of { pattern : string }  (** a pattern id in decimal, or an attach name *)
  | Stats
  | Drain

(** [Ok fields] with the request-specific payload, or [Err] carrying the
    typed error ({!Ocep_base.Ocep_error.t}) the operation raised
    server-side. *)
type response = Ok of string list | Err of Ocep_base.Ocep_error.t

val request_frame : seq:int -> request -> Wire.t
(** Raises [Invalid_argument] if any field contains a NUL byte. *)

val parse_request : Wire.t -> (request, Ocep_base.Ocep_error.t) result
(** [Error (Decode_error _)] on an unknown opcode or missing fields,
    [Error (Bad_request _)] on fields that parse but make no sense
    (e.g. a negative quota). *)

val response_frame : seq:int -> response -> Wire.t

val parse_response : Wire.t -> (response, Ocep_base.Ocep_error.t) result

(** Decoded [Stats]/[Drain] payload. *)
type stats = {
  frames : int;  (** data frames the router accepted from this tenant *)
  admitted : int;  (** events released to the tenant's engine *)
  shed : int;  (** frames dropped by the tenant's quota *)
  matches : int;
  digest : string;  (** {!Ocep.Engine.reports_digest} of the tenant's engine *)
}

val stats_fields : stats -> string list
val parse_stats : string list -> (stats, Ocep_base.Ocep_error.t) result
