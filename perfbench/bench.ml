(* The repository benchmark.  One workload per run:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   It times calls into the public functions of each layer from outside —
   no tracing lives inside lib/ — checks the outputs of every run, and
   prints as its last line one JSON object with the metrics, the counts
   of attempted and failed operations, and the run's fingerprint (equal
   seeds and seconds must reproduce it; perfbench/run.py compares it
   across runs).

   --trace 0 reports the end-to-end metrics.  --trace 1 repeats the
   untraced measurement, then a traced pass that records spans around
   every layer call (written to DIR/spans-NAME-SEED.jsonl at the end),
   then the workload's twins, and reports the per-layer metrics and the
   tracing overhead.  A layer a workload bypasses reports 0 for its
   metrics.  perfbench/manifest.json maps every metric to its layer and
   workload.

     bench.exe --workload NAME --seed N --setup-probe K

   is the set-up probe the chaos-audit-10k and seq-audit-1k runs start
   between their units (Common.probe_setups): it prints K set-up times. *)

open Common

type workload = {
  name : string;
  run : seed:int -> seconds:float -> outcome;
  traced : Tracer.t -> seed:int -> seconds:float -> outcome;
  time_setup : (seed:int -> float) option;  (* what a set-up probe times *)
}

let workloads =
  [
    {
      name = "membership-1m";
      run = Wl_sharded.membership;
      traced = Wl_sharded.membership_traced;
      time_setup = None;
    };
    {
      name = Wl_sharded.chaos_name;
      run = Wl_sharded.chaos;
      traced = Wl_sharded.chaos_traced;
      time_setup = Some Wl_sharded.chaos_time_setup;
    };
    { name = "spread-1m"; run = Wl_spread.run; traced = Wl_spread.traced; time_setup = None };
    { name = "cluster-sat"; run = Wl_cluster.run; traced = Wl_cluster.traced; time_setup = None };
    { name = Wl_seq.name; run = Wl_seq.run; traced = Wl_seq.traced; time_setup = Some Wl_seq.time_setup };
  ]

(* Units, in the order printed. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("actions_per_s", "1/s");
    ("sends_per_s", "1/s");
    ("msgs_delivered_per_s", "1/s");
    ("alpha", "ratio");
  ]

let per_layer_units =
  [
    ("sharded.round_ms.p50", "ms");
    ("sharded.round_ms.p90", "ms");
    ("sharded.cpu_per_wall", "ratio");
    ("sharded.minor_words_per_action", "words");
    ("sharded.domain_speedup", "ratio");
    ("sharded.first_round_s", "s");
    ("sharded.heap_bytes_per_node", "bytes");
    ("sharded.self_loop_share", "ratio");
    ("sharded.chaos_overhead", "ratio");
    ("invariant.scan_sharded_ms", "ms");
    ("invariant.sharded_audit_share", "ratio");
    ("invariant.seq_audit_us_per_action", "us");
    ("runner.step_us", "us");
    ("census.of_flat_s", "s");
    ("spread.round_ms.p50", "ms");
    ("spread.engine_share", "ratio");
    ("spread.minor_words_per_msg", "words");
    ("spread.duplicate_share", "ratio");
    ("spread.lost_share", "ratio");
    ("spread.rounds_to_target", "count");
    ("spread.messages_to_target", "count");
    ("codec.encode_ns_per_msg", "ns");
    ("codec.decode_ns_per_msg", "ns");
    ("codec.wire_bytes_per_msg", "bytes");
    ("driver.msgs_per_datagram", "ratio");
    ("nodehost.cpu_us_per_msg", "us");
    ("nodehost.busy", "ratio");
    ("nodehost.sys_share", "ratio");
    ("spawner.startup_s", "s");
    ("trace.overhead", "ratio");
    ("trace.spans", "count");
  ]

let l3_bytes () =
  match
    In_channel.with_open_text "/sys/devices/system/cpu/cpu0/cache/index3/size"
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | s -> (
    let s = String.trim s in
    let scaled k =
      Option.map (( * ) k) (int_of_string_opt (String.sub s 0 (String.length s - 1)))
    in
    match s.[String.length s - 1] with
    | 'K' -> scaled 1024
    | 'M' -> scaled (1024 * 1024)
    | _ -> int_of_string_opt s)

let usage () =
  Fmt.epr "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1 [--out DIR]@."
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

(* The result line, hand-written so every value keeps 17 significant
   digits. *)
let print_result ~failed ~attempted ~units ~value fingerprint =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
     \"fingerprint\": %s}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, u) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              (value name) u)
          units))
    (match fingerprint with Some f -> Printf.sprintf "\"%s\"" f | None -> "null")

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and out = ref "perfbench/out" and probe = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--setup-probe" :: v :: rest -> probe := int_of_string_opt v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = List.find_opt (fun w -> w.name = !workload) workloads in
  match (w, !seed, !seconds, !trace, !probe) with
  | Some { time_setup = Some time_setup; _ }, Some seed, _, _, Some reps when reps > 0 ->
    probe_main ~reps (fun () -> time_setup ~seed)
  | Some w, Some seed, Some seconds, Some traced, None when seconds > 0. ->
    Fmt.pr "%s seed=%d seconds=%g trace=%d  (nproc=%d, OCaml %s, L3=%s)@." w.name seed
      seconds (Bool.to_int traced)
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (match l3_bytes () with Some b -> Fmt.str "%d MiB" (b / 1048576) | None -> "?");
    let tracer = Tracer.create () in
    let o = if traced then w.traced tracer ~seed ~seconds else w.run ~seed ~seconds in
    if traced then begin
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      Tracer.write tracer
        (Filename.concat !out (Fmt.str "spans-%s-%d.jsonl" w.name seed))
    end;
    let units = if traced then per_layer_units else end_to_end_units in
    let value name = Option.value (List.assoc_opt name o.metrics) ~default:0. in
    List.iter (fun (name, u) -> Fmt.pr "  %-36s %16.6g %s@." name (value name) u) units;
    (* A metric a run could not measure (no samples) fails the run. *)
    let not_finite = List.filter (fun (name, _) -> not (Float.is_finite (value name))) units in
    List.iter (fun (name, _) -> Fmt.pr "  metric %s is not finite@." name) not_finite;
    let failed = o.errors + List.length o.failures + List.length not_finite in
    Fmt.pr "  attempted %d, failed %d@." o.attempted failed;
    print_result ~failed ~attempted:(max 1 o.attempted) ~units
      ~value:(fun name -> if Float.is_finite (value name) then value name else 0.)
      o.fingerprint
  | _ -> usage ()
