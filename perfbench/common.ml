(* Clocks, order statistics and the result record every workload returns. *)

let wall = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Minor-heap words allocated so far, by every domain: [Gc.quick_stat]
   folds in the counts of domains that have already terminated, which is
   where the sharded engine's per-round worker domains end up.
   [Gc.minor_words] would count the calling domain only. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Resident bytes of this process now (Linux: /proc/self/statm, 4 KiB
   pages); 0 where the file is missing. *)
let resident_bytes () =
  match In_channel.with_open_text "/proc/self/statm" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s -> (
    match String.split_on_char ' ' s with
    | _ :: resident :: _ -> float_of_string resident *. 4096.
    | _ -> 0.)

(* A process's resident high-water mark (VmHWM of a /proc status file),
   in MiB; 0 where the file is missing. *)
let hwm_mb status =
  match In_channel.with_open_text status In_channel.input_lines with
  | exception Sys_error _ -> 0.
  | lines -> (
    match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
    | None -> 0.
    | Some l -> (
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | _ :: kib :: _ -> float_of_string (String.trim kib) /. 1024.
      | _ -> 0.))

(* Restart this process's high-water mark at its current resident size
   (Linux: "5" to /proc/self/clear_refs), so a unit reads its own peak,
   not the run's so far. *)
let reset_peak () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Linear-interpolated quantile, [nan] on no samples. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b

(* Work units sized from [--seconds] by a fixed per-unit cost: the same
   [--seconds] always gives the same amount of work, so every run of one
   seed computes the same fingerprint. *)
let units ~seconds ~unit_s ~min = max min (Float.to_int (Float.round (seconds /. unit_s)))

let scenario spec =
  match Sf_faults.Scenario.of_string spec with
  | Ok sc -> sc
  | Error e -> invalid_arg ("scenario " ^ spec ^ ": " ^ e)

(* A run's result: end-to-end metrics (untraced runs) or per-layer
   metrics (traced runs), the operations attempted, the operations the
   program itself reports as failed, the output checks that failed, and
   the run's deterministic fingerprint (None where the run is not
   deterministic: the UDP cluster). *)
type outcome = {
  metrics : (string * float) list;
  attempted : int;
  errors : int;
  failures : string list;
  fingerprint : string option;
}

(* Output checks: collect failures instead of stopping, so a failed check
   is counted rather than timed. *)
type checks = { mutable failed : string list }

let checks () = { failed = [] }

let check c what ok =
  Fmt.pr "  check %-52s %s@." what (if ok then "ok" else "FAILED");
  if not ok then c.failed <- what :: c.failed

(* One timed unit of work (a round, an audited chunk, a spreading round)
   with the world counters, process CPU time and minor words it moved, and
   the process's resident high-water mark during it. *)
type sample = {
  dt : float;
  peak_mb : float;
  cpu_s : float;
  words : float;
  actions : int;
  sends : int;
  receipts : int;
  self_loops : int;
}

let sample ~(counters : unit -> Sf_core.Runner.world_counters) f =
  let c0 = counters () in
  reset_peak ();
  let cpu0 = cpu () and w0 = minor_words () in
  let t0 = wall () in
  f ();
  let dt = wall () -. t0 in
  let cpu_s = cpu () -. cpu0 and words = minor_words () -. w0 in
  let peak_mb = hwm_mb "/proc/self/status" in
  let c1 = counters () in
  let open Sf_core.Runner in
  {
    dt;
    peak_mb;
    cpu_s;
    words;
    actions = c1.actions - c0.actions;
    sends = c1.sends - c0.sends;
    receipts = c1.receipts - c0.receipts;
    self_loops = c1.self_loops - c0.self_loops;
  }

(* [repeat k f] runs [f 0 .. f (k - 1)] in order and lists the results. *)
let repeat k f =
  let rec go i acc = if i = k then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let total_s samples = sum (List.map (fun s -> s.dt) samples)

(* Several units as one: times, counts and words add up, the peak is the
   highest. *)
let merge samples =
  let add f = sum (List.map f samples) and addi f = sumi f samples in
  {
    dt = add (fun s -> s.dt);
    peak_mb = List.fold_left (fun m s -> Float.max m s.peak_mb) 0. samples;
    cpu_s = add (fun s -> s.cpu_s);
    words = add (fun s -> s.words);
    actions = addi (fun s -> s.actions);
    sends = addi (fun s -> s.sends);
    receipts = addi (fun s -> s.receipts);
    self_loops = addi (fun s -> s.self_loops);
  }

(* [groups xs] deals [xs], in time order, round-robin into at most five
   groups, so each group spans the whole run.

   The shared 2-vCPU host of perfbench/manifest.json switches between a
   fast and a ~1.4x slower speed every few seconds.  A median of single
   samples lands on one speed or the other, and jumps between them from
   run to run when a run's split is near even; a group's mean moves with
   the split instead.  The median over groups (median of means) still
   discounts a stall that hits one group.  Over 15 s windows of a 180 s
   loop of set-ups and audited units there, it had about half the spread
   of a plain median. *)
let groups xs =
  let k = min 5 (List.length xs) in
  List.init k (fun g -> List.filteri (fun i _ -> i mod k = g) xs)

let median_of_means xs =
  median (List.map (fun g -> sum g /. float_of_int (List.length g)) (groups xs))

(* Throughput over like units as (actions, sends, receipts) per second:
   per group of units, counts over time; then the median over groups. *)
let rates units =
  let r f =
    median
      (List.map
         (fun g -> float_of_int (sumi f g) /. total_s g)
         (groups units))
  in
  (r (fun s -> s.actions), r (fun s -> s.sends), r (fun s -> s.receipts))

(* The end-to-end metrics of a simulator run over its measured units.  The
   peak is the median unit's, so garbage the collector happens to leave
   for one unit does not decide it. *)
let end_to_end ~setup_s ~units ~alpha =
  let a, s, r = rates units in
  [
    ("setup_s", setup_s);
    ("peak_rss_mb", median (List.map (fun u -> u.peak_mb) units));
    ("actions_per_s", a);
    ("sends_per_s", s);
    ("msgs_delivered_per_s", r);
    ("alpha", alpha);
  ]

let actions_rate (a, _, _) = a

(* Set-up is timed several times and reported as the median of means:
   once for the measured world (the first thing its process builds),
   then on [extra] fresh worlds, in the order they were built. *)
let with_setup_times extra o =
  let first = List.assoc "setup_s" o.metrics in
  {
    o with
    metrics =
      ("setup_s", median_of_means (first :: extra)) :: List.remove_assoc "setup_s" o.metrics;
  }

(* [reps - 1] more set-ups after the measured world is gone, each
   collected before the next, so one world is resident at a time. *)
let with_setup_reps ~reps ~time_setup o =
  Gc.full_major ();
  let extra =
    repeat (reps - 1) (fun _ ->
        let t = time_setup () in
        Gc.full_major ();
        t)
  in
  with_setup_times extra o

(* Set-up timed between measured units instead, for worlds of a few
   milliseconds' set-up.  The host's speed drifts over seconds, so
   set-ups taken in one burst read one moment of that drift; taken across
   the run they read the same host the units do.  They are timed in a
   probe process ([bench.exe ... --setup-probe K], see [probe_main]) that
   this one starts and waits for, so the probe worlds never share the
   measured world's heap or resident size. *)

(* The probe: one untimed world first, which pays the fresh process's
   heap page faults, then [reps] timed ones, each collected before the
   next; the times go to stdout on one line. *)
let probe_main ~reps time_setup =
  ignore (time_setup ());
  Gc.full_major ();
  let ts =
    repeat reps (fun _ ->
        let t = time_setup () in
        Gc.full_major ();
        t)
  in
  print_endline (String.concat " " (List.map (Printf.sprintf "%.17g") ts))

let probe_setups ~workload ~seed ~reps =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed;
         "--setup-probe"; string_of_int reps |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
    List.filter_map float_of_string_opt (String.split_on_char ' ' (String.trim out))
  | _ -> failwith "set-up probe failed"

(* One probe of [reps] set-ups after every [every]-th unit. *)
type setups = { probe : unit -> float list; every : int; mutable times : float list }

let setups ~every ~workload ~seed ~reps =
  { probe = (fun () -> probe_setups ~workload ~seed ~reps); every; times = [] }

let after_unit s i = if (i + 1) mod s.every = 0 then s.times <- s.times @ s.probe ()
let with_setups s o = with_setup_times s.times o

(* Shared per-layer numbers of a list of rounds. *)
let sharded_round_layers samples =
  let ms = List.map (fun s -> s.dt *. 1e3) samples in
  let actions = float_of_int (sumi (fun s -> s.actions) samples) in
  [
    ("sharded.round_ms.p50", median ms);
    ("sharded.round_ms.p90", quantile 0.9 ms);
    ("sharded.cpu_per_wall", ratio (sum (List.map (fun s -> s.cpu_s) samples)) (total_s samples));
    ("sharded.minor_words_per_action", ratio (sum (List.map (fun s -> s.words) samples)) actions);
    ("sharded.self_loop_share", ratio (float_of_int (sumi (fun s -> s.self_loops) samples)) actions);
  ]

(* Tracing overhead: how much slower the traced pass ran than the
   untraced pass of the same run, as a share of the traced rate. *)
let trace_layers tracer ~untraced ~traced =
  [ ("trace.overhead", ratio untraced traced -. 1.); ("trace.spans", float_of_int (Tracer.count tracer)) ]
