open Ocep_base

type t = {
  id : int;
  trace : int;
  seq : int;
  etype : string;
  text : string;
  kind : Event.kind;
}

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* LEB128: 7 value bits per byte, high bit = continuation. *)
let put_uvarint buf n =
  if n < 0 then invalid_arg "Wire.put_uvarint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* zigzag maps small-magnitude ints of either sign to small naturals:
   0 -> 0, -1 -> 1, 1 -> 2, ... Message ids may be negative (spill
   range), so they take this path. *)
let put_varint buf n = put_uvarint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_string buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

(* kind tags; stable on-disk values *)
let tag_internal = 0
let tag_send = 1
let tag_receive = 2

let encode buf e =
  put_uvarint buf e.id;
  put_uvarint buf e.trace;
  put_uvarint buf e.seq;
  put_string buf e.etype;
  put_string buf e.text;
  match e.kind with
  | Event.Internal -> put_uvarint buf tag_internal
  | Event.Send { msg } ->
    put_uvarint buf tag_send;
    put_varint buf msg
  | Event.Receive { msg } ->
    put_uvarint buf tag_receive;
    put_varint buf msg

(* Decoding threads a plain byte position instead of a cursor record,
   so that [decode] allocates nothing but the event it returns: each
   field is read by [get_uvarint] and then skipped by [varint_end]. *)

(* The unsigned varint starting at [pos]; fails if it runs past [stop]
   or is wider than an OCaml int. *)
let rec uvarint b pos stop shift acc =
  if pos >= stop then fail "truncated varint";
  if shift >= Sys.int_size - 1 then fail "varint overflows int";
  let byte = Char.code (Bytes.unsafe_get b pos) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else uvarint b (pos + 1) stop (shift + 7) acc

let get_uvarint b pos stop = uvarint b pos stop 0 0

(* The position just past the varint at [pos], once [get_uvarint] has
   validated it. *)
let rec varint_end b pos =
  if Char.code (Bytes.unsafe_get b pos) land 0x80 = 0 then pos + 1 else varint_end b (pos + 1)

let get_varint b pos stop =
  let n = get_uvarint b pos stop in
  (n lsr 1) lxor (-(n land 1))

(* A length-prefixed string; it ends at [varint_end b pos] plus its length. *)
let get_string b pos stop =
  let len = get_uvarint b pos stop in
  let start = varint_end b pos in
  if len > stop - start then fail "truncated string (%d bytes wanted)" len;
  Bytes.sub_string b start len

let decode bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Wire.decode: slice out of bounds";
  let stop = pos + len in
  let id = get_uvarint bytes pos stop in
  let pos = varint_end bytes pos in
  let trace = get_uvarint bytes pos stop in
  let pos = varint_end bytes pos in
  let seq = get_uvarint bytes pos stop in
  let pos = varint_end bytes pos in
  let etype = get_string bytes pos stop in
  let pos = varint_end bytes pos + String.length etype in
  let text = get_string bytes pos stop in
  let pos = varint_end bytes pos + String.length text in
  let tag = get_uvarint bytes pos stop in
  let pos = varint_end bytes pos in
  let kind =
    match tag with
    | 0 -> Event.Internal
    | 1 -> Event.Send { msg = get_varint bytes pos stop }
    | 2 -> Event.Receive { msg = get_varint bytes pos stop }
    | t -> fail "unknown kind tag %d" t
  in
  let pos = if tag = 0 then pos else varint_end bytes pos in
  if pos <> stop then fail "%d trailing bytes after event" (stop - pos);
  { id; trace; seq; etype; text; kind }

let to_raw e =
  { Event.r_trace = e.trace; r_etype = e.etype; r_text = e.text; r_kind = e.kind }

let of_raw ~id ~seq (r : Event.raw) =
  { id; trace = r.Event.r_trace; seq; etype = r.Event.r_etype; text = r.Event.r_text;
    kind = r.Event.r_kind }

let pp ppf e =
  let kind =
    match e.kind with
    | Event.Internal -> "internal"
    | Event.Send { msg } -> Printf.sprintf "send %d" msg
    | Event.Receive { msg } -> Printf.sprintf "recv %d" msg
  in
  Format.fprintf ppf "#%d t%d.%d %s %s [%s]" e.id e.trace e.seq e.etype e.text kind
