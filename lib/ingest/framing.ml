let magic = "OCEPWIR1"
let max_frame = 1 lsl 20

(* ---------------------------------------------------------------- *)
(* Frame primitives                                                  *)
(* ---------------------------------------------------------------- *)

let put_le32 oc v =
  for i = 0 to 3 do
    output_char oc (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let write_frame oc payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Framing: frame exceeds max_frame";
  put_le32 oc len;
  put_le32 oc (Crc32.string payload);
  output_string oc payload

(* ---------------------------------------------------------------- *)
(* Writer                                                            *)
(* ---------------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  buf : Buffer.t;
  mutable next_id : int;
  trace_seq : int array;  (* next local-clock position per trace, 1-based *)
}

let header_payload ~trace_names =
  let b = Buffer.create 64 in
  Wire.encode b
    { Wire.id = Array.length trace_names; trace = 0; seq = 0; etype = "traces";
      text = String.concat "\x00" (Array.to_list trace_names); kind = Ocep_base.Event.Internal };
  Buffer.contents b

let create_writer oc ~trace_names =
  output_string oc magic;
  write_frame oc (header_payload ~trace_names);
  { oc; buf = Buffer.create 64; next_id = 0; trace_seq = Array.map (fun _ -> 1) trace_names }

let write w e =
  Buffer.clear w.buf;
  Wire.encode w.buf e;
  write_frame w.oc (Buffer.contents w.buf);
  w.next_id <- max w.next_id (e.Wire.id + 1)

let write_raw w (r : Ocep_base.Event.raw) =
  let trace = r.Ocep_base.Event.r_trace in
  if trace < 0 || trace >= Array.length w.trace_seq then
    invalid_arg (Printf.sprintf "Framing.write_raw: trace %d out of range" trace);
  let e = Wire.of_raw ~id:w.next_id ~seq:w.trace_seq.(trace) r in
  w.trace_seq.(trace) <- w.trace_seq.(trace) + 1;
  write w e;
  e

let written w = w.next_id
let flush w = flush w.oc

(* ---------------------------------------------------------------- *)
(* Reader                                                            *)
(* ---------------------------------------------------------------- *)

type item =
  | Frame of Wire.t
  | Crc_error
  | Bad_frame of string
  | Truncated
  | Eof

type reader = {
  ic : in_channel;
  traces : string array;
  hdr : Bytes.t;  (* 8-byte scratch for the length/CRC prefix *)
  mutable scratch : Bytes.t;  (* payload scratch, grown on demand *)
  mutable crc : int;  (* claimed CRC of the frame last read *)
  mutable dead : bool;  (* Truncated was reported; everything after is Eof *)
}

exception Bad_header of string

(* Read up to [len - off] more bytes into [buf] from [off], returning
   how many of the [len] arrived before EOF. *)
let rec input_upto ic buf off len =
  if off = len then len
  else
    match input ic buf off (len - off) with
    | 0 -> off
    | n -> input_upto ic buf (off + n) len

(* unsigned little-endian 32-bit field at [off] *)
let le32 b off =
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

(* [read_frame]'s results other than a payload length *)
let frame_eof = -1
let frame_broken = -2

(* Read one complete raw frame into the reader's scratch buffers and
   return its payload length, leaving the claimed (not yet verified) CRC
   in [r.crc]; [frame_eof] on a clean EOF before the frame,
   [frame_broken] when it is truncated or its length implausible. Only
   ints cross the call, so the frame loop allocates nothing here. *)
let read_frame r =
  match input_upto r.ic r.hdr 0 8 with
  | 0 -> frame_eof
  | n when n < 8 -> frame_broken
  | _ ->
    (* the length field is a signed 32-bit value: a prefix with the top
       bit set reads as negative rather than as a huge length *)
    let len = (le32 r.hdr 0 lsl (Sys.int_size - 32)) asr (Sys.int_size - 32) in
    r.crc <- le32 r.hdr 4;
    if len < 0 || len > max_frame then frame_broken
    else begin
      if Bytes.length r.scratch < len then
        r.scratch <- Bytes.create (max len (2 * Bytes.length r.scratch));
      if input_upto r.ic r.scratch 0 len < len then frame_broken else len
    end

let create_reader ic =
  let m = Bytes.create (String.length magic) in
  (match really_input ic m 0 (String.length magic) with
  | exception End_of_file -> raise (Bad_header "stream shorter than the magic")
  | () -> ());
  if Bytes.to_string m <> magic then raise (Bad_header "bad magic");
  let r =
    { ic; traces = [||]; hdr = Bytes.create 8; scratch = Bytes.create 256; crc = 0; dead = false }
  in
  let len = read_frame r in
  if len < 0 then raise (Bad_header "missing or truncated header frame");
  if Crc32.bytes r.scratch ~pos:0 ~len <> r.crc then raise (Bad_header "header CRC mismatch");
  match Wire.decode r.scratch ~pos:0 ~len with
  | exception Wire.Decode_error e -> raise (Bad_header ("undecodable header: " ^ e))
  | h ->
    if h.Wire.etype <> "traces" then raise (Bad_header "header frame is not a trace table");
    let traces =
      if h.Wire.text = "" then [||] else Array.of_list (String.split_on_char '\x00' h.Wire.text)
    in
    if Array.length traces <> h.Wire.id then
      raise (Bad_header "trace table length disagrees with its count");
    { r with traces }

let reader_trace_names r = r.traces

let next r =
  if r.dead then Eof
  else
    let len = read_frame r in
    if len = frame_eof then Eof
    else if len = frame_broken then begin
      r.dead <- true;
      Truncated
    end
    else if Crc32.bytes r.scratch ~pos:0 ~len <> r.crc then Crc_error
    else
      match Wire.decode r.scratch ~pos:0 ~len with
      | e -> Frame e
      | exception Wire.Decode_error msg -> Bad_frame msg
