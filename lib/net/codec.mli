(** Binary wire codec for S&F messages carried as UDP datagrams.

    Two versions behind one magic byte.  v1 is the historical
    one-message-per-datagram layout, preserved bit-for-bit ({!encode} is
    the v1 encoder).  v2 batches up to {!max_batch} messages per datagram
    in CRC-guarded frames — a corrupted frame rejects that frame alone —
    and adds a tiny hello datagram advertising a port range as v2-capable,
    the unit of per-peer version negotiation. *)

val message_size : int
(** v1 encoded size in bytes (66). *)

val payload_size : int
(** The version-independent message payload (64 bytes: two 32-byte
    entries). *)

val hello_size : int
(** v2 hello datagram size (7). *)

val batch_header_size : int
(** v2 batch header: magic, version, kind, count (4). *)

val frame_size : int
(** One v2 batch frame: payload + CRC-32 (68). *)

val max_batch : int
(** Most messages per v2 datagram (16). *)

val max_datagram_size : int
(** The largest datagram either version produces: a full v2 batch
    ([batch_header_size + max_batch * frame_size]). *)

val recv_buffer_size : int
(** [max_datagram_size + 1]: the receive-buffer size that lets a receiver
    hold any valid datagram whole and still detect oversized foreign
    traffic — recvfrom truncates a UDP payload to the buffer, so the
    one-byte headroom makes [length > max_datagram_size] observable. *)

val frame_offset : int -> int
(** Byte offset of batch frame [i] inside a v2 batch datagram. *)

type error =
  | Too_short of int             (** shorter than its layout requires *)
  | Bad_magic of char
  | Unsupported_version of char  (** version byte above the decoder's ceiling *)
  | Oversized of int             (** longer than its version's layout allows *)
  | Bad_kind of char             (** v2 kind byte neither hello nor batch *)
  | Bad_count of int             (** batch count outside [1, max_batch] *)
  | Bad_entry
      (** an entry no view can hold ({!Sf_core.View.Flat.holds}): id or
          born outside [[0, 2{^31})], anchor outside [[-1, 2{^31})] *)

val pp_error : Format.formatter -> error -> unit

val crc32 : bytes -> pos:int -> len:int -> int
(** CRC-32 (IEEE, reflected) of a byte range, as used by v2 frames. *)

(** {2 v1 (historical layout, byte-identical)} *)

val encode : Sf_core.Protocol.message -> bytes

val decode : bytes -> length:int -> (Sf_core.Protocol.message, error) result
(** Decode the first [length] bytes of a received v1 datagram (the
    historical decoder: under-length datagrams are [Too_short]; trailing
    bytes are ignored, as before the v2 layer existed; an entry no view
    can hold is [Bad_entry]). *)

(** {2 v2} *)

val encode_batch : Sf_core.Protocol.message list -> bytes list
(** Encode messages as v2 batch datagrams, splitting greedily so every
    datagram carries at most {!max_batch} frames; [[]] maps to [[]]. *)

val encode_hello : lo:int -> hi:int -> bytes
(** Advertise UDP ports [lo..hi] as v2 speakers.  Raises
    [Invalid_argument] outside [0, 65535] or when [hi < lo]. *)

val corrupt_frame : bytes -> int -> unit
(** Flip one payload byte of frame [i] in an encoded batch — the fault
    injector's hook for corruption that must reject exactly one frame. *)

type batch = {
  messages : Sf_core.Protocol.message list;
      (** clean frames, in batch order *)
  bad_crc : int;      (** frames rejected by their CRC *)
  bad_entry : int;
      (** CRC-clean frames rejected for an entry no view can hold *)
  truncated : bool;   (** datagram shorter than its declared count *)
}

type datagram =
  | Msg_v1 of Sf_core.Protocol.message
  | Batch of batch
  | Hello of { lo : int; hi : int }

val decode_datagram :
  ?max_version:int -> bytes -> length:int -> (datagram, error) result
(** Version-dispatching decoder.  [max_version] (default 2) is the
    receiving host's ceiling: a v1-configured host passes 1 and sees v2
    traffic as [Unsupported_version], exactly as a historical binary
    would.  [length] is clamped to [[0, Bytes.length buffer]].  A
    truncated batch still yields its complete frames with
    [truncated = true]; CRC-rejected frames and frames carrying an entry
    no view can hold are counted, not fatal.  A v1 datagram carrying such
    an entry is [Error Bad_entry].  Every message decoded is safe to hand
    to {!Sf_core.Protocol.receive}.  Never raises. *)
