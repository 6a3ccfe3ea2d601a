(* Allocation gate for the hot paths: the random draws, the flat store's
   empty-slot pick, a sharded membership round and a push-pull or Direct
   spread round allocate nothing per draw, action or message.  Each figure is the
   calling domain's [Gc.minor_words] delta over many calls; the engines
   run with [~domains:1], so all their work happens on that domain. *)

module Rng = Sf_prng.Rng
module Sharded = Sf_core.Runner.Sharded
module Flat = Sf_core.View.Flat

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let calls = 100_000

(* Words per call of [f], run [calls] times.  The few words of the
   measurement itself spread over the calls, far below the bound. *)
let per_call f = words (fun () -> for _ = 1 to calls do f () done) /. float_of_int calls

let zero name w =
  if w > 0.001 then Alcotest.failf "%s: %.4f minor words per call, want 0" name w

let sink = ref 0

let test_draws () =
  let rng = Rng.create 3 in
  zero "Rng.int 17" (per_call (fun () -> sink := !sink + Rng.int rng 17));
  zero "Rng.int max_int" (per_call (fun () -> sink := !sink + Rng.int rng max_int));
  (* A float result is boxed at every call the caller cannot inline, and
     dune's default (dev) profile compiles with -opaque, so no caller
     inlines across modules: [Rng.float] costs exactly its 2-word box (the
     header and the double).  [bernoulli] runs the same draw inside the
     module and returns an immediate. *)
  let w = per_call (fun () -> if Rng.float rng < 0.5 then incr sink) in
  if w > 2.001 then
    Alcotest.failf "Rng.float: %.4f minor words per call, want its 2-word result" w;
  zero "Rng.bool" (per_call (fun () -> if Rng.bool rng then incr sink));
  zero "Rng.bernoulli"
    (per_call (fun () -> if Rng.bernoulli rng 0.3 then incr sink));
  zero "Rng.int_except"
    (per_call (fun () -> sink := !sink + Rng.int_except rng 16 3))

let test_random_empty_slot () =
  let nodes = 64 and s = 16 in
  let store = Flat.create ~nodes ~view_size:s in
  let rng = Rng.create 4 in
  for u = 0 to nodes - 1 do
    (* Node u holds u mod s entries, so the free counts vary. *)
    for k = 0 to (u mod s) - 1 do
      Flat.set store u (2 * k mod s) ~id:k ~serial:k ~anchor:(-1) ~born:0
    done
  done;
  let u = ref 0 in
  zero "Flat.random_empty_slot"
    (per_call (fun () ->
         sink := !sink + Flat.random_empty_slot store !u rng;
         u := (!u + 1) mod nodes))

let config = Sf_core.Protocol.make_config ~view_size:16 ~lower_threshold:4

let scenario spec =
  match Sf_faults.Scenario.of_string spec with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "scenario %S: %s" spec e

let world ?scenario () =
  Sharded.create ~loss_rate:0.01 ~init:Sharded.Scatter ?scenario ~seed:5
    ~n:10_000 ~config ()

let actions w = (Sharded.world_counters w).Sf_core.Runner.actions

(* One warm-up round first: the message arenas grow to their working
   size once and are reused after. *)
let sharded_words_per_action ?scenario () =
  let w = world ?scenario () in
  Sharded.run_round w ~domains:1;
  let a0 = actions w in
  let used = words (fun () -> Sharded.run_rounds w ~domains:1 10) in
  used /. float_of_int (actions w - a0)

let at_most_one name w =
  if w > 1. then Alcotest.failf "%s: %.3f minor words, want <= 1" name w

let test_sharded_round () =
  at_most_one "Sharded.run_round, i.i.d. loss, per action"
    (sharded_words_per_action ());
  at_most_one "Sharded.run_round, ge:0.2:8, per action"
    (sharded_words_per_action ~scenario:(scenario "ge:0.2:8") ())

let spread_words_per_message strategy =
  let w = world ~scenario:(scenario "ge:0.2:8") () in
  let sp = Sf_spread.Flat.create ~strategy ~source:0 ~seed:6 w in
  let rounds k =
    for _ = 1 to k do
      Sf_spread.Flat.run_round sp ~domains:1
    done
  in
  rounds 10;
  let messages () = (Sf_spread.Flat.report sp).Sf_spread.Report.messages in
  let m0 = messages () in
  let used = words (fun () -> rounds 3) in
  used /. float_of_int (messages () - m0)

(* The world's own membership round runs inside each spread round and is
   counted too.  Each round allocates ~180 words whatever its traffic (the
   phase closures, the coverage history), so the measured rounds come
   after ten warm-up rounds, once a Direct rumor (which starts from one
   informed node) sends thousands of messages per round. *)
let test_spread_round () =
  at_most_one "Sf_spread.Flat.run_round push-pull, per message"
    (spread_words_per_message Sf_spread.Strategy.Push_pull);
  at_most_one "Sf_spread.Flat.run_round direct, per message"
    (spread_words_per_message Sf_spread.Strategy.Direct)

let suite =
  [
    Alcotest.test_case "Rng draws allocate nothing" `Quick test_draws;
    Alcotest.test_case "Flat.random_empty_slot allocates nothing" `Quick
      test_random_empty_slot;
    Alcotest.test_case "sharded round: <= 1 word per action" `Quick
      test_sharded_round;
    Alcotest.test_case "spread round: <= 1 word per message" `Quick
      test_spread_round;
  ]
