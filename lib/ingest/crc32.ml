(* Reflected table-driven CRC-32. The table entry for byte [b] is the
   CRC of that byte alone (without pre/post conditioning); the loop is
   the textbook crc = table[(crc xor byte) land 0xff] xor (crc >> 8).

   The arithmetic runs on the native [int] — every intermediate stays
   within 32 bits, and unlike [Int32] the operations neither box nor
   allocate, which matters at one table lookup per payload byte on the
   ingest hot path. The digest is returned as an unboxed native int
   too, so the frame loop compares it without allocating. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := (if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1)
         done;
         !c))

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: slice out of bounds";
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
           lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
