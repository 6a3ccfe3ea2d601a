(* cluster-sat: Sf_net.Spawner forking sf_nodehost processes (each a
   Sf_net.Driver select loop speaking Sf_net.Codec wire v2) at a timer
   period short enough to keep every host busy. *)

module Spawner = Sf_net.Spawner
module Codec = Sf_net.Codec
module View = Sf_core.View
open Common

let hosts = 2
let per_host = 64
let nodes = hosts * per_host
(* The paper's thresholds (s = 40, dL = 18), as in seq-audit-1k.  At the
   `sfg cluster` defaults (s = 12, dL = 4) a saturated run makes ~10^4
   rounds per window under this loss, and the merged overlay is then
   often not weakly connected. *)
let view_size = 40
let lower_threshold = 18
let period = 1e-4
let loss = "ge:0.15:6"

(* Below the Linux ephemeral range, spread by pid so a run never meets the
   sockets of another benchmark process. *)
let base_port () = 20_000 + (128 * (Unix.getpid () mod 90))

let stat key (h : Spawner.host_outcome) =
  match List.assoc_opt key h.Spawner.stats with Some v -> v | None -> 0.

let total key (o : Spawner.outcome) =
  List.fold_left (fun acc h -> acc +. stat key h) 0. o.Spawner.hosts

(* A host is ready once it answers [ping] on its control socket, which it
   binds after every node socket.  Returns the hosts' pids (from their
   "pong PID" replies), or None on a 10 s timeout. *)
let wait_ready ~base_port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) (fun () ->
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let control idx = base_port - 2 - idx in
      let pending = Array.make hosts true and pids = Array.make hosts 0 in
      let ping = Bytes.of_string "ping\n" and buf = Bytes.create 256 in
      let deadline = wall () +. 10. in
      while Array.exists Fun.id pending && wall () < deadline do
        Array.iteri
          (fun idx p ->
            if p then
              try
                ignore
                  (Unix.sendto sock ping 0 (Bytes.length ping) []
                     (Unix.ADDR_INET (Unix.inet_addr_loopback, control idx)))
              with Unix.Unix_error _ -> ())
          pending;
        match Unix.select [ sock ] [] [] 0.002 with
        | [], _, _ -> ()
        | _ -> (
          match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
          | k, Unix.ADDR_INET (_, port) ->
            let pid =
              match String.split_on_char ' ' (String.trim (Bytes.sub_string buf 0 k)) with
              | [ "pong"; pid ] -> int_of_string_opt pid
              | _ -> None
            in
            Array.iteri
              (fun idx _ ->
                match pid with
                | Some pid when control idx = port ->
                  pending.(idx) <- false;
                  pids.(idx) <- pid
                | _ -> ())
              pending
          | _ -> ()
          | exception Unix.Unix_error _ -> ())
      done;
      if Array.exists Fun.id pending then None else Some (Array.to_list pids))

(* The merged post-run state: every host said bye, every node reported a
   sound view with even, M1-bounded outdegree, and the overlay is weakly
   connected — the gate `sfg cluster` applies, minus its crash-window
   evidence (this workload has no crash window). *)
let gate checks (o : Spawner.outcome) =
  let byes = List.length (List.filter (fun h -> h.Spawner.bye) o.Spawner.hosts) in
  check checks "every node-host completed the stop protocol" (byes = hosts);
  check checks "every node reported a final view"
    (List.length o.Spawner.merged_views = nodes);
  let graph = Sf_graph.Digraph.create () in
  let views =
    List.map
      (fun (id, entries) ->
        Sf_graph.Digraph.ensure_vertex graph id;
        let view = View.create view_size in
        List.iteri
          (fun slot e ->
            if slot < view_size then begin
              View.set view slot e;
              Sf_graph.Digraph.add_edge graph id e.View.id
            end)
          entries;
        (id, view, List.length entries))
      o.Spawner.merged_views
  in
  check checks "every view sound, outdegree even and within M1 bounds"
    (List.for_all
       (fun (_, v, k) ->
         let d = View.degree v in
         k <= view_size && d mod 2 = 0 && Sf_check.Invariant.check_view v = None)
       views);
  check checks "merged overlay weakly connected"
    (Sf_graph.Digraph.is_weakly_connected graph);
  (Sf_core.Census.of_views (List.to_seq (List.map (fun (id, v, _) -> (id, v)) views)))
    .Sf_core.Census.alpha

(* Operations the hosts themselves report as failed. *)
let errors (o : Spawner.outcome) =
  Float.to_int
    (List.fold_left
       (fun acc k -> acc +. total k o)
       0.
       [ "decode_errors"; "send_errors"; "truncated"; "oversized"; "crc_rejected" ])
  + o.Spawner.unexpected_deaths

type rep = {
  o : Spawner.outcome;
  setup_s : float;   (* Spawner.run entered -> every host ready *)
  active_s : float;  (* every host ready -> stop requested *)
  cpu_user : float;  (* reaped node-host CPU *)
  cpu_sys : float;
  alpha : float;
  peak_mb : float;  (* node-host resident high-water marks, summed *)
}

let rep ?tracer ~seed ~duration checks =
  let base_port = base_port () in
  let start = wall () in
  let ready = ref nan and stop = ref nan and pids = ref [] and peak_mb = ref 0. in
  (* [?log] is called synchronously: "spawned ..." right after the hosts
     are forked, "stopping node-hosts" when the measured window ends and
     every host is still alive. *)
  let log line =
    if String.starts_with ~prefix:"spawned " line then begin
      let ready_pids = wait_ready ~base_port in
      check checks "every node-host answered ping" (ready_pids <> None);
      pids := Option.value ready_pids ~default:[];
      ready := wall ()
    end
    else if line = "stopping node-hosts" then begin
      stop := wall ();
      peak_mb :=
        sum (List.map (fun pid -> hwm_mb (Fmt.str "/proc/%d/status" pid)) !pids)
    end
  in
  let cfg =
    Spawner.make_config ~view_size ~lower_threshold ~loss_rate:0.01 ~period
      ~hosts ~nodes_per_host:per_host ~base_port ~scenario:(scenario loss) ~seed
      ~duration ~log ()
  in
  let c0 = Unix.times () in
  let o = Tracer.span tracer "Spawner.run" (fun () -> Spawner.run cfg) in
  let c1 = Unix.times () in
  let alpha = gate checks o in
  {
    o;
    setup_s = !ready -. start;
    active_s = !stop -. !ready;
    cpu_user = c1.Unix.tms_cutime -. c0.Unix.tms_cutime;
    cpu_sys = c1.Unix.tms_cstime -. c0.Unix.tms_cstime;
    alpha;
    peak_mb = !peak_mb;
  }

let reps = 5

let pass ?tracer ~seed ~seconds checks =
  let duration = Float.max 1.0 ((seconds /. float_of_int reps) -. 0.4) in
  repeat reps (fun k -> rep ?tracer ~seed:(seed + k) ~duration checks)

let rate key r = total key r.o /. r.active_s
let med f reps = median (List.map f reps)

let outcome ~checks reps =
  let offered = float_of_int nodes /. period in
  let achieved = med (rate "actions") reps in
  Fmt.pr "  offered %.0f actions/s (nodes / period), achieved %.0f (%.1f%%)@."
    offered achieved (100. *. achieved /. offered);
  {
    metrics =
      [
        ("setup_s", med (fun r -> r.setup_s) reps);
        ("peak_rss_mb", med (fun r -> r.peak_mb) reps);
        ("actions_per_s", achieved);
        ("sends_per_s", med (rate "sent") reps);
        ("msgs_delivered_per_s", med (rate "messages") reps);
        ("alpha", med (fun r -> r.alpha) reps);
      ];
    attempted = Float.to_int (sum (List.map (fun r -> total "emitted" r.o) reps));
    errors = sumi (fun r -> errors r.o) reps;
    failures = checks.failed;
    fingerprint = None;
  }

let run ~seed ~seconds =
  let checks = checks () in
  outcome ~checks (pass ~seed ~seconds checks)

(* --- codec, timed outside the cluster on the batch fill it achieved --- *)

let messages ~seed k =
  let rng = Sf_prng.Rng.create seed in
  let entry () =
    {
      View.id = Sf_prng.Rng.int rng nodes;
      serial = Sf_prng.Rng.int rng 1_000_000;
      anchor = (if Sf_prng.Rng.bool rng then Some (Sf_prng.Rng.int rng nodes) else None);
      born = Sf_prng.Rng.int rng 100_000;
    }
  in
  List.init k (fun _ ->
      let reinforcement = entry () in
      { Sf_core.Protocol.reinforcement; mixing = entry () })

let rec groups k = function
  | [] -> []
  | xs ->
    let g = List.filteri (fun i _ -> i < k) xs in
    g :: groups k (List.filteri (fun i _ -> i >= k) xs)

let codec_layers tracer checks ~seed ~fill =
  let count = 4096 and passes = 50 in
  let batches = groups fill (messages ~seed count) in
  let per_msg t = 1e9 *. t /. float_of_int (count * passes) in
  let timed name f =
    let t0 = wall () in
    let r = Tracer.span (Some tracer) name (fun () -> repeat passes (fun _ -> f ())) in
    (wall () -. t0, List.hd r)
  in
  let encode_s, datagrams =
    timed "Codec.encode_batch" (fun () -> List.map Codec.encode_batch batches)
  in
  let decode_s, decoded =
    timed "Codec.decode_datagram" (fun () ->
        List.map
          (List.map (fun b -> Codec.decode_datagram b ~length:(Bytes.length b)))
          datagrams)
  in
  check checks "codec round trip returns every message"
    (List.for_all2
       (fun batch ds ->
         List.concat_map
           (function Ok (Codec.Batch b) -> b.Codec.messages | _ -> [])
           ds
         = batch)
       batches decoded);
  let bytes = List.fold_left (fun a b -> a + Bytes.length b) 0 (List.concat datagrams) in
  [
    ("codec.encode_ns_per_msg", per_msg encode_s);
    ("codec.decode_ns_per_msg", per_msg decode_s);
    ("codec.wire_bytes_per_msg", float_of_int bytes /. float_of_int count);
  ]

let traced tracer ~seed ~seconds =
  let delivered reps = med (rate "messages") reps in
  let untraced = delivered (pass ~seed ~seconds (checks ())) in
  let checks = checks () in
  let reps = pass ~tracer ~seed ~seconds checks in
  let sum_all key = sum (List.map (fun r -> total key r.o) reps) in
  let msgs_per_datagram = ratio (sum_all "frames") (sum_all "batches") in
  let cpu = sum (List.map (fun r -> r.cpu_user +. r.cpu_sys) reps) in
  let codec =
    codec_layers tracer checks ~seed
      ~fill:(max 1 (Float.to_int (Float.round msgs_per_datagram)))
  in
  let o = outcome ~checks reps in
  {
    o with
    failures = checks.failed;
    metrics =
      codec
      @ [
          ("driver.msgs_per_datagram", msgs_per_datagram);
          ("nodehost.cpu_us_per_msg", 1e6 *. ratio cpu (sum_all "messages"));
          ( "nodehost.busy",
            ratio cpu
              (float_of_int hosts *. sum (List.map (fun r -> r.o.Spawner.wall_seconds) reps)) );
          ("nodehost.sys_share", ratio (sum (List.map (fun r -> r.cpu_sys) reps)) cpu);
          ("spawner.startup_s", med (fun r -> r.setup_s) reps);
        ]
      @ trace_layers tracer ~untraced ~traced:(delivered reps);
  }
