(* Wire codec for S&F messages.

   An S&F message is two id instances (the sender's reinforcement id and
   the forwarded mixing id); fire-and-forget datagrams match the protocol's
   semantics exactly — no retransmission, no acknowledgement, loss allowed.

   Two wire versions share the magic byte and diverge at the version byte:

   v1 — one message per datagram (little-endian, 66 bytes):
     offset 0   magic        0xF5
     offset 1   version      1
     offset 2   reinforcement.id      int64
     offset 10  reinforcement.serial  int64
     offset 18  reinforcement.anchor  int64 (-1 encodes None)
     offset 26  reinforcement.born    int64
     offset 34  mixing.id             int64
     offset 42  mixing.serial         int64
     offset 50  mixing.anchor         int64 (-1 encodes None)
     offset 58  mixing.born           int64

   v2 — batched datagrams behind the same magic, with a kind byte:
     offset 0   magic        0xF5
     offset 1   version      2
     offset 2   kind         0 = hello, 1 = batch

   hello (7 bytes): a version advertisement used for per-peer negotiation.
   The sender declares that every UDP port in [lo, hi] on this machine
   speaks v2, so one datagram upgrades a whole node-host at the receiver:
     offset 3   lo           u16
     offset 5   hi           u16

   batch (4 + 68·count bytes): up to [max_batch] messages per datagram,
   each in its own CRC-guarded frame so one corrupted frame rejects that
   frame alone, not the datagram:
     offset 3   count        u8, in [1, max_batch]
     offset 4   frames[count], each 68 bytes:
       +0   the 64-byte v1 message payload (two entries of 32 bytes)
       +64  CRC-32 (IEEE, reflected) of the 64 payload bytes, u32

   The v1 encoder is bit-for-bit the historical one — a v2 host falling
   back to v1 for an old peer emits datagrams indistinguishable from a
   real v1 host's. *)

let magic = '\xf5'
let version = '\x01'
let message_size = 66
let payload_size = 64

(* v2 framing. *)
let kind_hello = '\x00'
let kind_batch = '\x01'
let hello_size = 7
let batch_header_size = 4
let frame_size = payload_size + 4
let max_batch = 16
let max_datagram_size = batch_header_size + (max_batch * frame_size)

(* One byte of headroom past the largest datagram either version can
   produce: POSIX recvfrom silently truncates a UDP payload to the buffer,
   so a buffer of exactly the maximum size cannot distinguish a valid
   maximal datagram from the prefix of an oversized one.  With the extra
   byte, [length > max_datagram_size] identifies foreign traffic, and a
   full-batch v2 datagram (which the historical one-message-plus-one-byte
   buffer would have truncated and dropped as oversized) fits whole. *)
let recv_buffer_size = max_datagram_size + 1

type error =
  | Too_short of int
  | Bad_magic of char
  | Unsupported_version of char
  | Oversized of int
  | Bad_kind of char
  | Bad_count of int
  | Bad_entry

let pp_error ppf = function
  | Too_short n -> Fmt.pf ppf "datagram too short (%d bytes)" n
  | Bad_magic c -> Fmt.pf ppf "bad magic byte 0x%02x" (Char.code c)
  | Unsupported_version c -> Fmt.pf ppf "unsupported version %d" (Char.code c)
  | Oversized n -> Fmt.pf ppf "datagram longer than its version allows (%d bytes)" n
  | Bad_kind c -> Fmt.pf ppf "unknown v2 datagram kind %d" (Char.code c)
  | Bad_count n -> Fmt.pf ppf "batch count %d outside [1, %d]" n max_batch
  | Bad_entry -> Fmt.pf ppf "entry outside the range a view can hold"

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), one table lookup per
   byte.  The 256-entry table is built once into an immutable string (four
   little-endian bytes per entry), so the module holds no shared mutable
   state. *)
let rec crc_shift c bits =
  if bits = 0 then c
  else crc_shift (if c land 1 = 1 then 0xEDB88320 lxor (c lsr 1) else c lsr 1) (bits - 1)

let crc_table =
  String.init (256 * 4) (fun k ->
      Char.chr ((crc_shift (k / 4) 8 lsr (8 * (k land 3))) land 0xFF))

let crc32 buffer ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let k = (!crc lxor Char.code (Bytes.get buffer i)) land 0xFF in
    let entry = Int32.to_int (String.get_int32_le crc_table (4 * k)) land 0xFFFFFFFF in
    crc := entry lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let write_entry buffer ~offset (e : Sf_core.View.entry) =
  Bytes.set_int64_le buffer offset (Int64.of_int e.Sf_core.View.id);
  Bytes.set_int64_le buffer (offset + 8) (Int64.of_int e.Sf_core.View.serial);
  Bytes.set_int64_le buffer (offset + 16)
    (match e.Sf_core.View.anchor with
    | None -> -1L
    | Some a -> Int64.of_int a);
  Bytes.set_int64_le buffer (offset + 24) (Int64.of_int e.Sf_core.View.born)

let read_entry buffer ~offset =
  let id = Int64.to_int (Bytes.get_int64_le buffer offset) in
  let serial = Int64.to_int (Bytes.get_int64_le buffer (offset + 8)) in
  let anchor =
    match Bytes.get_int64_le buffer (offset + 16) with
    | -1L -> None
    | a -> Some (Int64.to_int a)
  in
  let born = Int64.to_int (Bytes.get_int64_le buffer (offset + 24)) in
  { Sf_core.View.id; serial; anchor; born }

(* The int64 at [pos] as an int, or [min_int] when it does not fit in 63
   bits ([Int64.to_int] would wrap it, possibly into range). *)
let wire_int buffer pos =
  let x = Bytes.get_int64_le buffer pos in
  if Int64.equal (Int64.of_int (Int64.to_int x)) x then Int64.to_int x else min_int

(* Whether the 32-byte entry at [offset] is one a view store can hold. *)
let storable_entry buffer ~offset =
  Sf_core.View.Flat.holds ~id:(wire_int buffer offset)
    ~anchor:(wire_int buffer (offset + 16))
    ~born:(wire_int buffer (offset + 24))

let storable_payload buffer ~offset =
  storable_entry buffer ~offset && storable_entry buffer ~offset:(offset + 32)

let write_payload buffer ~offset (message : Sf_core.Protocol.message) =
  write_entry buffer ~offset message.Sf_core.Protocol.reinforcement;
  write_entry buffer ~offset:(offset + 32) message.Sf_core.Protocol.mixing

let read_payload buffer ~offset =
  {
    Sf_core.Protocol.reinforcement = read_entry buffer ~offset;
    mixing = read_entry buffer ~offset:(offset + 32);
  }

let encode (message : Sf_core.Protocol.message) =
  let buffer = Bytes.create message_size in
  Bytes.set buffer 0 magic;
  Bytes.set buffer 1 version;
  write_payload buffer ~offset:2 message;
  buffer

let decode buffer ~length =
  if length < message_size then Error (Too_short length)
  else if Bytes.get buffer 0 <> magic then Error (Bad_magic (Bytes.get buffer 0))
  else if Bytes.get buffer 1 <> version then
    Error (Unsupported_version (Bytes.get buffer 1))
  else if not (storable_payload buffer ~offset:2) then Error Bad_entry
  else Ok (read_payload buffer ~offset:2)

(* --- v2 encoding --- *)

let frame_offset i = batch_header_size + (i * frame_size)

let encode_batch_exact messages count =
  let buffer = Bytes.create (batch_header_size + (count * frame_size)) in
  Bytes.set buffer 0 magic;
  Bytes.set buffer 1 '\x02';
  Bytes.set buffer 2 kind_batch;
  Bytes.set buffer 3 (Char.chr count);
  List.iteri
    (fun i message ->
      let offset = frame_offset i in
      write_payload buffer ~offset message;
      Bytes.set_int32_le buffer (offset + payload_size)
        (Int32.of_int (crc32 buffer ~pos:offset ~len:payload_size)))
    messages;
  buffer

(* Oversized batches split greedily into full datagrams plus a remainder:
   every emitted datagram carries at most [max_batch] frames. *)
let encode_batch messages =
  let rec chunks acc current k = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | m :: rest ->
      if k = max_batch then chunks (List.rev current :: acc) [ m ] 1 rest
      else chunks acc (m :: current) (k + 1) rest
  in
  List.map
    (fun chunk -> encode_batch_exact chunk (List.length chunk))
    (chunks [] [] 0 messages)

let corrupt_frame buffer index =
  let offset = frame_offset index in
  if offset + frame_size <= Bytes.length buffer then
    Bytes.set buffer offset
      (Char.chr (Char.code (Bytes.get buffer offset) lxor 0xff))

let encode_hello ~lo ~hi =
  if lo < 0 || hi < lo || hi > 0xFFFF then invalid_arg "Codec.encode_hello: bad range";
  let buffer = Bytes.create hello_size in
  Bytes.set buffer 0 magic;
  Bytes.set buffer 1 '\x02';
  Bytes.set buffer 2 kind_hello;
  Bytes.set_uint16_le buffer 3 lo;
  Bytes.set_uint16_le buffer 5 hi;
  buffer

(* --- Version-dispatching decoder --- *)

type batch = {
  messages : Sf_core.Protocol.message list;  (* clean frames, in order *)
  bad_crc : int;
  bad_entry : int;
  truncated : bool;
}

type datagram =
  | Msg_v1 of Sf_core.Protocol.message
  | Batch of batch
  | Hello of { lo : int; hi : int }

let decode_batch buffer ~length =
  let count = Char.code (Bytes.get buffer 3) in
  if count < 1 || count > max_batch then Error (Bad_count count)
  else begin
    let expected = batch_header_size + (count * frame_size) in
    if length > expected then Error (Oversized length)
    else begin
      (* A short datagram still yields every complete frame it carries;
         only the torn tail is rejected. *)
      let complete = min count ((length - batch_header_size) / frame_size) in
      let truncated = length < expected in
      let bad_crc = ref 0 and bad_entry = ref 0 in
      let messages = ref [] in
      for i = complete - 1 downto 0 do
        let offset = frame_offset i in
        let stored = Int32.to_int (Bytes.get_int32_le buffer (offset + payload_size)) land 0xFFFFFFFF in
        if stored <> crc32 buffer ~pos:offset ~len:payload_size then incr bad_crc
        else if not (storable_payload buffer ~offset) then incr bad_entry
        else messages := read_payload buffer ~offset :: !messages
      done;
      Ok
        (Batch
           { messages = !messages; bad_crc = !bad_crc; bad_entry = !bad_entry; truncated })
    end
  end

let decode_datagram ?(max_version = 2) buffer ~length =
  let length = max 0 (min length (Bytes.length buffer)) in
  if length < 2 then Error (Too_short length)
  else if Bytes.get buffer 0 <> magic then Error (Bad_magic (Bytes.get buffer 0))
  else
    match Char.code (Bytes.get buffer 1) with
    | 1 ->
      if length < message_size then Error (Too_short length)
      else if length > message_size then Error (Oversized length)
      else if not (storable_payload buffer ~offset:2) then Error Bad_entry
      else Ok (Msg_v1 (read_payload buffer ~offset:2))
    | 2 when max_version >= 2 -> (
      if length < 3 then Error (Too_short length)
      else
        match Bytes.get buffer 2 with
        | c when c = kind_hello ->
          if length < hello_size then Error (Too_short length)
          else if length > hello_size then Error (Oversized length)
          else
            Ok
              (Hello
                 {
                   lo = Bytes.get_uint16_le buffer 3;
                   hi = Bytes.get_uint16_le buffer 5;
                 })
        | c when c = kind_batch ->
          if length < batch_header_size then Error (Too_short length)
          else decode_batch buffer ~length
        | c -> Error (Bad_kind c))
    | _ -> Error (Unsupported_version (Bytes.get buffer 1))
