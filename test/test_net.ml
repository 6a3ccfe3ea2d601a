(* Tests for the UDP deployment layer: the wire codec and the socket-based
   cluster driver. *)

module Codec = Sf_net.Codec
module Driver = Sf_net.Driver
module View = Sf_core.View
module Protocol = Sf_core.Protocol

let entry ?(serial = 0) ?(anchor = None) ?(born = 0) id =
  { View.id; serial; anchor; born }

let message ?(anchor = None) () =
  {
    Protocol.reinforcement = entry ~serial:123 ~anchor ~born:42 7;
    mixing = entry ~serial:456 ~born:43 9;
  }

(* --- Codec --- *)

let test_codec_roundtrip () =
  let m = message ~anchor:(Some 5) () in
  let encoded = Codec.encode m in
  Alcotest.(check int) "size" Codec.message_size (Bytes.length encoded);
  match Codec.decode encoded ~length:(Bytes.length encoded) with
  | Ok decoded ->
    Alcotest.(check bool) "roundtrip" true (decoded = m)
  | Error e -> Alcotest.failf "decode failed: %a" Codec.pp_error e

let test_codec_none_anchor () =
  let m = message () in
  match Codec.decode (Codec.encode m) ~length:Codec.message_size with
  | Ok decoded ->
    Alcotest.(check bool) "anchor None survives" true
      (decoded.Protocol.reinforcement.View.anchor = None)
  | Error e -> Alcotest.failf "decode failed: %a" Codec.pp_error e

let test_codec_truncated () =
  let encoded = Codec.encode (message ()) in
  (match Codec.decode encoded ~length:10 with
  | Error (Codec.Too_short 10) -> ()
  | _ -> Alcotest.fail "short datagram must be rejected")

let test_codec_bad_magic () =
  let encoded = Codec.encode (message ()) in
  Bytes.set encoded 0 'x';
  (match Codec.decode encoded ~length:Codec.message_size with
  | Error (Codec.Bad_magic 'x') -> ()
  | _ -> Alcotest.fail "bad magic must be rejected")

let test_codec_bad_version () =
  let encoded = Codec.encode (message ()) in
  Bytes.set encoded 1 '\x7f';
  (match Codec.decode encoded ~length:Codec.message_size with
  | Error (Codec.Unsupported_version _) -> ()
  | _ -> Alcotest.fail "unknown version must be rejected")

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      let entry_gen =
        map2
          (fun (id, serial) (anchor, born) ->
            { View.id; serial; anchor = (if anchor < 0 then None else Some anchor); born })
          (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
          (pair (int_range (-1) 1_000_000) (int_range 0 1_000_000))
      in
      map2
        (fun reinforcement mixing -> { Protocol.reinforcement; mixing })
        entry_gen entry_gen)
  in
  QCheck.Test.make ~name:"codec roundtrip" ~count:300 (QCheck.make gen) (fun m ->
      match Codec.decode (Codec.encode m) ~length:Codec.message_size with
      | Ok decoded -> decoded = m
      | Error _ -> false)

(* --- Whole-space driver --- *)

let config = Protocol.make_config ~view_size:12 ~lower_threshold:4

let make_cluster ?(n = 24) ?(loss = 0.) ~base_port () =
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  Driver.create ~period:0.002 ~base_port ~n ~config ~loss_rate:loss ~seed:6 ~topology ()

let test_cluster_runs_and_converges () =
  let c = make_cluster ~base_port:48100 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      Driver.run c ~duration:1.5;
      let stats = Driver.statistics c in
      Alcotest.(check bool) "actions happened" true (stats.Driver.actions > 500);
      Alcotest.(check bool) "datagrams flowed" true (stats.Driver.datagrams_sent > 100);
      Alcotest.(check int) "no decode errors" 0 stats.Driver.decode_errors;
      Alcotest.(check int) "no send errors" 0 stats.Driver.send_errors;
      (* Without injected loss every sent datagram arrives on loopback. *)
      Alcotest.(check int) "conservation"
        (stats.Driver.datagrams_sent - stats.Driver.datagrams_dropped)
        stats.Driver.datagrams_received;
      Alcotest.(check bool) "connected" true (Driver.is_weakly_connected c);
      (* Observation 5.1 holds over the real transport too. *)
      let outs = Driver.outdegree_summary c in
      Alcotest.(check bool) "degrees bounded" true
        (Sf_stats.Summary.min_value outs >= 0. && Sf_stats.Summary.max_value outs <= 12.))

let test_cluster_injected_loss_rate () =
  let c = make_cluster ~n:32 ~loss:0.2 ~base_port:48200 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      Driver.run c ~duration:1.5;
      let stats = Driver.statistics c in
      let observed =
        float_of_int stats.Driver.datagrams_dropped
        /. float_of_int (max 1 stats.Driver.datagrams_sent)
      in
      Alcotest.(check bool)
        (Printf.sprintf "observed loss %.3f near 0.2" observed)
        true
        (Float.abs (observed -. 0.2) < 0.05);
      (* Duplication compensates: degrees stay at/above dL. *)
      let outs = Driver.outdegree_summary c in
      Alcotest.(check bool) "degrees survive loss" true
        (Sf_stats.Summary.mean outs >= 4.))

(* Regression for the select-loop hardening: a SIGALRM firing every few
   milliseconds interrupts [Unix.select] with EINTR throughout the run.
   The driver must treat that as "try again", not an error — before the
   hardening this aborted the run with [Unix.Unix_error (EINTR, ...)]. *)
let test_cluster_survives_signals () =
  let fired = ref 0 in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr fired))
  in
  let previous_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_interval = 0.01; it_value = 0.01 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL previous_timer);
      Sys.set_signal Sys.sigalrm previous)
    (fun () ->
      let c = make_cluster ~base_port:48300 () in
      Fun.protect
        ~finally:(fun () -> Driver.shutdown c)
        (fun () ->
          Driver.run c ~duration:1.0;
          Alcotest.(check bool)
            (Printf.sprintf "signals actually fired (%d)" !fired)
            true (!fired > 10);
          let stats = Driver.statistics c in
          Alcotest.(check bool) "the run kept making progress" true
            (stats.Driver.actions > 200);
          Alcotest.(check int) "no decode errors" 0 stats.Driver.decode_errors))

(* Crash-restart with state recovery: under a resilience policy a crash
   window really closes the victim's socket, and leaving the window
   rebinds a fresh socket on the same port and rejoins from the saved
   snapshot.  The cluster must finish with every node live, views sound
   and the rejoins counted. *)
let test_cluster_crash_rebind () =
  let policy =
    Sf_resil.Policy.make ~retune:false ~recover:false
      ~solve:(fun ~loss:_ -> (4, 12))
      ()
  in
  let scenario =
    match Sf_faults.Scenario.of_string "crash@100-200:0-3" with
    | Ok sc -> sc
    | Error e -> Alcotest.fail ("scenario parse: " ^ e)
  in
  let n = 24 in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  let c =
    Driver.create ~period:0.002 ~scenario ~resilience:policy ~base_port:48350 ~n
      ~config ~loss_rate:0. ~seed:6 ~topology ()
  in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown c)
    (fun () ->
      (* period 2 ms: the crash window spans 0.2 s - 0.4 s of a 1.2 s run,
         so every victim crashes and rejoins well before the end. *)
      Driver.run c ~duration:1.2;
      let stats = Driver.statistics c in
      Alcotest.(check bool)
        (Printf.sprintf "rejoins counted (%d)" stats.Driver.rejoins)
        true
        (stats.Driver.rejoins >= 1);
      Alcotest.(check int) "nothing stayed crashed" 0
        (Seq.fold_left
           (fun acc (id, _) -> if Driver.is_crashed c id then acc + 1 else acc)
           0 (Driver.views c));
      (* Every view — including the rejoined victims' — is structurally
         sound, inside M1 bounds and even (Observation 5.1). *)
      Seq.iter
        (fun (id, view) ->
          (match Sf_check.Invariant.check_view view with
          | Some v ->
            Alcotest.failf "node %d: %a" id Sf_check.Invariant.pp_violation v
          | None -> ());
          let d = View.degree view in
          Alcotest.(check bool)
            (Printf.sprintf "node %d outdegree %d within [0, 12] and even" id d)
            true
            (d >= 0 && d <= 12 && d mod 2 = 0))
        (Driver.views c);
      (* The victims rejoined with usable views. *)
      Seq.iter
        (fun (id, view) ->
          if id <= 3 then
            Alcotest.(check bool)
              (Printf.sprintf "victim %d has a non-empty view" id)
              true (View.degree view > 0))
        (Driver.views c))

(* --- Codec v2 --- *)

(* The historical v1 layout, reconstructed independently of the encoder:
   magic, version, then two entries of four int64 LE fields each
   (id, serial, anchor with None as -1, born).  Any drift in the v1
   encoder — including drift introduced by the v2 layer sharing its
   entry writer — breaks byte identity with deployed binaries. *)
let test_v1_golden_bytes () =
  let expected = Bytes.create Codec.message_size in
  Bytes.set expected 0 '\xf5';
  Bytes.set expected 1 '\x01';
  let put off v = Bytes.set_int64_le expected off (Int64.of_int v) in
  (* reinforcement = { id = 7; serial = 123; anchor = Some 5; born = 42 } *)
  put 2 7;
  put 10 123;
  put 18 5;
  put 26 42;
  (* mixing = { id = 9; serial = 456; anchor = None; born = 43 } *)
  put 34 9;
  put 42 456;
  Bytes.set_int64_le expected 50 (-1L);
  put 58 43;
  let encoded = Codec.encode (message ~anchor:(Some 5) ()) in
  Alcotest.(check string)
    "v1 frame is byte-identical to the historical layout"
    (Bytes.to_string expected) (Bytes.to_string encoded)

let nth_message i =
  {
    Protocol.reinforcement =
      entry ~serial:(1000 + i) ~anchor:(if i mod 2 = 0 then Some i else None)
        ~born:i (2 * i);
    mixing = entry ~serial:(2000 + i) ~born:(i + 1) ((2 * i) + 1);
  }

let messages k = List.init k nth_message

let one_packet msgs =
  match Codec.encode_batch msgs with
  | [ packet ] -> packet
  | packets -> Alcotest.failf "expected 1 datagram, got %d" (List.length packets)

let decode_one_batch packet =
  match Codec.decode_datagram packet ~length:(Bytes.length packet) with
  | Ok (Codec.Batch b) -> b
  | Ok _ -> Alcotest.fail "expected a batch datagram"
  | Error e -> Alcotest.failf "batch decode failed: %a" Codec.pp_error e

let test_v2_batch_roundtrip () =
  List.iter
    (fun k ->
      match Codec.encode_batch (messages k) with
      | [ packet ] ->
        Alcotest.(check int)
          (Printf.sprintf "batch of %d size" k)
          (Codec.batch_header_size + (k * Codec.frame_size))
          (Bytes.length packet);
        let b = decode_one_batch packet in
        Alcotest.(check bool)
          (Printf.sprintf "batch of %d roundtrips" k)
          true
          (b.Codec.messages = messages k && b.Codec.bad_crc = 0
         && not b.Codec.truncated)
      | packets ->
        Alcotest.failf "batch of %d encoded to %d datagrams" k
          (List.length packets))
    [ 1; 2; Codec.max_batch ];
  Alcotest.(check (list string)) "empty batch encodes to nothing" []
    (List.map Bytes.to_string (Codec.encode_batch []))

let test_v2_batch_split () =
  let k = Codec.max_batch + 3 in
  match Codec.encode_batch (messages k) with
  | [ full; rest ] ->
    Alcotest.(check int) "first datagram is a full batch" Codec.max_datagram_size
      (Bytes.length full);
    let b1 = decode_one_batch full and b2 = decode_one_batch rest in
    Alcotest.(check int) "first carries max_batch" Codec.max_batch
      (List.length b1.Codec.messages);
    Alcotest.(check int) "second carries the remainder" 3
      (List.length b2.Codec.messages);
    Alcotest.(check bool) "order is preserved across the split" true
      (b1.Codec.messages @ b2.Codec.messages = messages k)
  | packets -> Alcotest.failf "expected 2 datagrams, got %d" (List.length packets)

let test_v2_truncated_batch () =
  let packet = one_packet (messages 3) in
  (* Cut mid-way through the third frame: the two complete frames must
     still decode, flagged truncated. *)
  let cut = Codec.frame_offset 2 + 10 in
  (match Codec.decode_datagram packet ~length:cut with
  | Ok (Codec.Batch b) ->
    Alcotest.(check bool) "complete frames survive truncation" true
      (b.Codec.messages = messages 2 && b.Codec.truncated)
  | _ -> Alcotest.fail "truncated batch must still yield complete frames");
  (* Cut inside the header: nothing to salvage. *)
  match Codec.decode_datagram packet ~length:3 with
  | Error (Codec.Too_short 3) -> ()
  | _ -> Alcotest.fail "header-truncated batch must be Too_short"

let test_v2_bad_crc () =
  let packet = one_packet (messages 3) in
  Codec.corrupt_frame packet 1;
  let b = decode_one_batch packet in
  Alcotest.(check bool)
    "corruption rejects exactly the corrupted frame" true
    (b.Codec.messages = [ nth_message 0; nth_message 2 ]
    && b.Codec.bad_crc = 1
    && not b.Codec.truncated)

(* The downgrade matrix: each side of a mixed v1/v2 cluster must see the
   other's traffic exactly as negotiation assumes. *)
let test_v2_downgrade_matrix () =
  (* v2 reader, v1 frame: accepted as a v1 message. *)
  let v1 = Codec.encode (message ()) in
  (match Codec.decode_datagram v1 ~length:(Bytes.length v1) with
  | Ok (Codec.Msg_v1 m) ->
    Alcotest.(check bool) "v2 reader accepts v1 frames" true (m = message ())
  | _ -> Alcotest.fail "v2 reader must accept v1 frames");
  (* v1 reader, v2 batch: unsupported version, datagram dropped whole. *)
  let batch = one_packet (messages 2) in
  (match Codec.decode_datagram ~max_version:1 batch ~length:(Bytes.length batch) with
  | Error (Codec.Unsupported_version '\x02') -> ()
  | _ -> Alcotest.fail "v1 reader must reject v2 batches by version");
  (* v1 reader, v2 hello: same rejection — a silent peer, so the sender
     downgrades at the hello cap. *)
  let hello = Codec.encode_hello ~lo:48000 ~hi:48031 in
  (match Codec.decode_datagram ~max_version:1 hello ~length:(Bytes.length hello) with
  | Error (Codec.Unsupported_version '\x02') -> ()
  | _ -> Alcotest.fail "v1 reader must reject hellos by version");
  (* v2 reader, hello: the advertised range roundtrips. *)
  match Codec.decode_datagram hello ~length:(Bytes.length hello) with
  | Ok (Codec.Hello { lo = 48000; hi = 48031 }) -> ()
  | _ -> Alcotest.fail "hello range must roundtrip"

let test_recv_buffer_size () =
  Alcotest.(check int) "max datagram is a full batch"
    (Codec.batch_header_size + (Codec.max_batch * Codec.frame_size))
    Codec.max_datagram_size;
  Alcotest.(check int) "recv buffer holds any datagram plus headroom"
    (Codec.max_datagram_size + 1) Codec.recv_buffer_size;
  Alcotest.(check bool) "v1 frames fit too" true
    (Codec.message_size < Codec.recv_buffer_size)

(* --- Driver slices and v2 interop --- *)

let make_slice ?(version = 2) ?(n = 16) ?(count = 8) ~first ~base_port () =
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 5) ~n ~out_degree:4 in
  Driver.create ~period:0.002 ~version ~first ~count ~serial_stride:2
    ~serial_offset:(first / count) ~base_port ~n ~config ~loss_rate:0. ~seed:6
    ~topology ()

(* Regression for the select-loop hardening (EAGAIN/ECONNREFUSED): a
   driver owning half the id space keeps sending to the other half's
   ports.  One of those ports is bound by a plain socket that closes
   mid-run, so the kernel starts answering with ICMP port-unreachable
   while the loop is hot.  The run must complete without an exception
   and without the send path wedging. *)
let test_driver_closed_ports () =
  let base_port = 49000 in
  let foreign = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind foreign (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 12));
  let foreign_open = ref true in
  let close_foreign () =
    if !foreign_open then begin
      foreign_open := false;
      Unix.close foreign
    end
  in
  let d = make_slice ~first:0 ~base_port () in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown d;
      close_foreign ())
    (fun () ->
      Driver.add_periodic d ~every:0.3 close_foreign;
      Driver.run d ~duration:0.8;
      let stats = Driver.statistics d in
      Alcotest.(check bool) "the run kept going" true (stats.Driver.actions > 100);
      Alcotest.(check bool) "datagrams kept flowing" true
        (stats.Driver.datagrams_emitted > 0);
      Alcotest.(check int) "no decode errors" 0 stats.Driver.decode_errors)

(* Two v2 slices in sibling domains: per-peer negotiation must upgrade
   both directions and batched traffic must flow across the slice
   boundary. *)
let test_driver_v2_interop () =
  let base_port = 49050 in
  let a = make_slice ~first:0 ~base_port () in
  let b = make_slice ~first:8 ~base_port () in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown a;
      Driver.shutdown b)
    (fun () ->
      let slices = [| a; b |] in
      Sf_engine.Par.run ~domains:2 ~tasks:2 (fun i ->
          Driver.run slices.(i) ~duration:1.0);
      Array.iter
        (fun d ->
          let s = Driver.statistics d in
          Alcotest.(check bool) "hellos were exchanged" true
            (s.Driver.hellos_sent > 0 && s.Driver.hellos_received > 0);
          Alcotest.(check bool) "batches flowed after the upgrade" true
            (s.Driver.batches_sent > 0);
          Alcotest.(check bool) "messages were delivered" true
            (s.Driver.messages_received > 0);
          Alcotest.(check int) "no decode errors between v2 peers" 0
            s.Driver.decode_errors)
        slices)

(* A v2 slice against a v1 slice: the v2 side must keep the v1 peer on
   v1 frames (traffic flows both ways), and the v1 side must reject the
   capped hellos by version — the exact signal a historical binary would
   produce. *)
let test_driver_v1_v2_interop () =
  let base_port = 49100 in
  let a = make_slice ~version:2 ~first:0 ~base_port () in
  let b = make_slice ~version:1 ~first:8 ~base_port () in
  Fun.protect
    ~finally:(fun () ->
      Driver.shutdown a;
      Driver.shutdown b)
    (fun () ->
      let slices = [| a; b |] in
      Sf_engine.Par.run ~domains:2 ~tasks:2 (fun i ->
          Driver.run slices.(i) ~duration:1.0);
      let sa = Driver.statistics a and sb = Driver.statistics b in
      Alcotest.(check bool) "both sides delivered messages" true
        (sa.Driver.messages_received > 0 && sb.Driver.messages_received > 0);
      Alcotest.(check bool) "the v2 side probed with hellos" true
        (sa.Driver.hellos_sent > 0);
      Alcotest.(check bool) "the v1 side rejected hellos by version" true
        (sb.Driver.decode_errors > 0);
      Alcotest.(check int) "the v1 side never spoke v2" 0
        (sb.Driver.hellos_sent + sb.Driver.batches_sent))

(* --- Node-host and spawner --- *)

module Nodehost = Sf_net.Nodehost
module Spawner = Sf_net.Spawner

let test_nodehost_commands () =
  let d = make_slice ~first:0 ~count:8 ~n:8 ~base_port:49200 () in
  Fun.protect
    ~finally:(fun () -> Driver.shutdown d)
    (fun () ->
      let replies = ref [] in
      let reply m = replies := m :: !replies in
      Nodehost.handle_command d ~reply "ping";
      (match !replies with
      | [ pong ] ->
        Alcotest.(check string) "pong carries our pid"
          (Printf.sprintf "pong %d" (Unix.getpid ()))
          pong
      | _ -> Alcotest.fail "ping must produce exactly one reply");
      replies := [];
      Nodehost.handle_command d ~reply "snapshot";
      let lines = List.rev !replies in
      Alcotest.(check int) "snapshot reports every owned node and a terminator" 9
        (List.length lines);
      Alcotest.(check bool) "snapshot lines are view lines" true
        (List.for_all
           (fun l -> String.length l >= 4 && String.sub l 0 4 = "view")
           (List.filteri (fun i _ -> i < 8) lines));
      (match List.rev lines with
      | "end" :: _ -> ()
      | _ -> Alcotest.fail "snapshot must end with end");
      replies := [];
      Nodehost.handle_command d ~reply "filter 2";
      Nodehost.handle_command d ~reply "filter off";
      Alcotest.(check int) "filter commands are silent" 0 (List.length !replies);
      Nodehost.handle_command d ~reply "bogus nonsense";
      Alcotest.(check (list string)) "unknown commands answer err"
        [ "err unknown-command" ] !replies)

let test_nodehost_view_line () =
  let view = View.create 4 in
  Alcotest.(check string) "empty view renders as a dash" "view 3 -"
    (Nodehost.view_line 3 view);
  View.set view 0 (entry ~serial:123 ~anchor:(Some 5) ~born:42 7);
  View.set view 2 (entry ~serial:456 ~born:43 9);
  Alcotest.(check string) "entries render id:serial:anchor:born"
    "view 3 7:123:5:42,9:456:-1:43"
    (Nodehost.view_line 3 view)

let test_line_reader () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  let lines = ref [] and eofs = ref 0 in
  let reader =
    Nodehost.line_reader r
      ~on_line:(fun l -> lines := l :: !lines)
      ~on_eof:(fun () -> incr eofs)
  in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  write "one\ntw";
  reader ();
  Alcotest.(check (list string)) "complete lines fire, partials wait" [ "one" ]
    (List.rev !lines);
  write "o\nthree\n";
  reader ();
  Alcotest.(check (list string)) "split lines reassemble"
    [ "one"; "two"; "three" ] (List.rev !lines);
  Unix.close w;
  reader ();
  reader ();
  Alcotest.(check int) "eof fires exactly once" 1 !eofs;
  Unix.close r

(* End-to-end process smoke: fork two real node-hosts through the
   spawner, let them gossip briefly, and check the merged outcome —
   the stop protocol completed, every node reported a view, and
   heartbeats arrived. *)
let test_spawner_smoke () =
  let cfg =
    Spawner.make_config ~hosts:2 ~nodes_per_host:4 ~base_port:49160
      ~scenario:Sf_faults.Scenario.default ~seed:11 ~duration:0.6
      ~heartbeat:0.1 ~hb_timeout:5.0 ()
  in
  let o = Spawner.run cfg in
  Alcotest.(check int) "two hosts ran" 2 (List.length o.Spawner.hosts);
  Alcotest.(check bool) "both hosts completed the stop protocol" true
    (List.for_all (fun h -> h.Spawner.bye) o.Spawner.hosts);
  Alcotest.(check int) "every node reported a final view" 8
    (List.length o.Spawner.merged_views);
  Alcotest.(check bool) "heartbeats arrived" true (o.Spawner.heartbeats > 0);
  Alcotest.(check int) "nothing was killed" 0 o.Spawner.kills;
  Alcotest.(check int) "nothing died unexpectedly" 0 o.Spawner.unexpected_deaths;
  List.iter
    (fun (id, entries) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d view within M1 bounds and even" id)
        true
        (List.length entries <= 12 && List.length entries mod 2 = 0))
    o.Spawner.merged_views

let test_cluster_port_validation () =
  Alcotest.(check bool) "privileged ports rejected" true
    (match make_cluster ~base_port:80 () with
    | exception Invalid_argument _ -> true
    | c ->
      Driver.shutdown c;
      false)

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec None anchor" `Quick test_codec_none_anchor;
    Alcotest.test_case "codec truncated" `Quick test_codec_truncated;
    Alcotest.test_case "codec bad magic" `Quick test_codec_bad_magic;
    Alcotest.test_case "codec bad version" `Quick test_codec_bad_version;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "cluster converges (real UDP)" `Quick test_cluster_runs_and_converges;
    Alcotest.test_case "cluster loss injection" `Quick test_cluster_injected_loss_rate;
    Alcotest.test_case "cluster survives SIGALRM storms (EINTR)" `Quick
      test_cluster_survives_signals;
    Alcotest.test_case "cluster crash-restart rebinds and rejoins" `Quick
      test_cluster_crash_rebind;
    Alcotest.test_case "cluster port validation" `Quick test_cluster_port_validation;
    Alcotest.test_case "codec v1 golden bytes" `Quick test_v1_golden_bytes;
    Alcotest.test_case "codec v2 batch roundtrip" `Quick test_v2_batch_roundtrip;
    Alcotest.test_case "codec v2 oversized batch splits" `Quick test_v2_batch_split;
    Alcotest.test_case "codec v2 truncated batch" `Quick test_v2_truncated_batch;
    Alcotest.test_case "codec v2 bad CRC rejects one frame" `Quick test_v2_bad_crc;
    Alcotest.test_case "codec v1/v2 downgrade matrix" `Quick test_v2_downgrade_matrix;
    Alcotest.test_case "codec recv buffer size" `Quick test_recv_buffer_size;
    Alcotest.test_case "driver survives closed ports mid-run" `Quick
      test_driver_closed_ports;
    Alcotest.test_case "driver v2<->v2 negotiation and batching" `Quick
      test_driver_v2_interop;
    Alcotest.test_case "driver v2<->v1 per-peer downgrade" `Quick
      test_driver_v1_v2_interop;
    Alcotest.test_case "nodehost control commands" `Quick test_nodehost_commands;
    Alcotest.test_case "nodehost view report line" `Quick test_nodehost_view_line;
    Alcotest.test_case "nodehost line reader" `Quick test_line_reader;
    Alcotest.test_case "spawner forks real node-host processes" `Quick
      test_spawner_smoke;
  ]
