(* Tests for the deterministic PRNG substrate. *)

module Rng = Sf_prng.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_split_independence () =
  let parent = Rng.create 7 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  Alcotest.(check bool) "children differ"
    true
    (not (Int64.equal (Rng.next_int64 child1) (Rng.next_int64 child2)))

let test_copy_preserves_state () =
  let a = Rng.create 9 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.next_int64 a) (Rng.next_int64 b)

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_float_mean () =
  let rng = Rng.create 4 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds_rejected () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create 6 in
  let counts = Array.make 10 0. in
  for _ = 1 to 50_000 do
    let k = Rng.int rng 10 in
    counts.(k) <- counts.(k) +. 1.
  done;
  let r = Sf_stats.Hypothesis.chi_square_uniform counts in
  Alcotest.(check bool) "uniform by chi-square" true
    (r.Sf_stats.Hypothesis.p_value > 0.001)

let test_int_range () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.int_range rng (-5) 5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_bernoulli_extremes () =
  let rng = Rng.create 10 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)

let test_bernoulli_rate () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_distinct_pair () =
  let rng = Rng.create 12 in
  for _ = 1 to 10_000 do
    let i, j = Rng.distinct_pair rng 6 in
    Alcotest.(check bool) "distinct and in range" true
      (i <> j && i >= 0 && i < 6 && j >= 0 && j < 6)
  done

let test_distinct_pair_covers_all_ordered_pairs () =
  let rng = Rng.create 13 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 5_000 do
    Hashtbl.replace seen (Rng.distinct_pair rng 3) ()
  done;
  Alcotest.(check int) "all 6 ordered pairs of 3 occur" 6 (Hashtbl.length seen)

let test_shuffle_is_permutation () =
  let rng = Rng.create 14 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_sample_indices_distinct () =
  let rng = Rng.create 15 in
  for _ = 1 to 500 do
    let picks = Rng.sample_indices rng ~n:20 ~k:7 in
    let set = List.sort_uniq compare (Array.to_list picks) in
    Alcotest.(check int) "7 distinct" 7 (List.length set);
    List.iter
      (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20))
      set
  done

let test_exponential_mean () =
  let rng = Rng.create 16 in
  let sum = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 2.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_geometric_mean () =
  let rng = Rng.create 17 in
  let sum = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* mean of failures-before-success = (1-p)/p = 3 *)
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.1)

let test_categorical_weights () =
  let rng = Rng.create 18 in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let k = Rng.categorical rng [| 1.; 2.; 3. |] in
    counts.(k) <- counts.(k) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "weight 1/6" true (Float.abs (frac 0 -. (1. /. 6.)) < 0.01);
  Alcotest.(check bool) "weight 2/6" true (Float.abs (frac 1 -. (2. /. 6.)) < 0.01);
  Alcotest.(check bool) "weight 3/6" true (Float.abs (frac 2 -. (3. /. 6.)) < 0.01)

let test_choose_singleton () =
  let rng = Rng.create 19 in
  Alcotest.(check int) "only element" 5 (Rng.choose rng [| 5 |])

let test_int_range_overflow () =
  let rng = Rng.create 20 in
  let too_wide = Invalid_argument "Rng.int_range: range holds more than max_int values" in
  Alcotest.check_raises "0 .. max_int" too_wide (fun () ->
      ignore (Rng.int_range rng 0 max_int));
  Alcotest.check_raises "min_int .. max_int" too_wide (fun () ->
      ignore (Rng.int_range rng min_int max_int));
  Alcotest.check_raises "min_int .. -1" too_wide (fun () ->
      ignore (Rng.int_range rng min_int (-1)));
  (* The widest legal ranges hold exactly max_int values. *)
  for _ = 1 to 100 do
    let x = Rng.int_range rng 0 (max_int - 1) in
    Alcotest.(check bool) "0 .. max_int - 1" true (x >= 0 && x < max_int);
    let y = Rng.int_range rng (min_int + 1) (-1) in
    Alcotest.(check bool) "min_int + 1 .. -1" true (y > min_int && y < 0)
  done

(* --- Golden streams ---

   The first outputs of every draw for two seeds.  Every recorded run in
   the repository replays from its seed through these functions, so any
   change to a value below breaks bit-for-bit replay everywhere. *)

let golden_bounds =
  [ 1; 2; 3; 15; 16; 17; 40; 1_000_003; (1 lsl 31) + 1; 1 lsl 61; max_int ]

let golden_ranges =
  [ (-5, 5); (0, 0); (-1_000_000, 1_000_000); ((min_int / 2) + 1, max_int / 2);
    (1, max_int); (7, 8) ]

let golden_pair_sizes = [ 2; 2; 3; 16; 16; 40; 1_000_003 ]

type golden = {
  seed : int;
  next : int64 list;  (* next_int64 *)
  ints : int list;  (* int over golden_bounds, twice *)
  ranges : int list;  (* int_range over golden_ranges *)
  floats : float list;
  bools : string;  (* 32 bool draws, '1' = true *)
  bernoullis : string;  (* 32 bernoulli 0.3 draws *)
  pairs : (int * int) list;  (* distinct_pair over golden_pair_sizes *)
  shuffled : int array;  (* shuffle of [|0; ...; 11|] *)
}

let goldens =
  [
    {
      seed = 1;
      next =
        [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
          7218738570589545383L; -5586072249713871245L; 2648436617965840162L ];
      ints =
        [ 0; 0; 2; 6; 13; 1; 16; 141009; 1468042711; 286704370062562085;
          1484150211974036615; 0; 1; 1; 9; 1; 2; 10; 993212; 165573287;
          1926416709288835536; 21086365730482213 ];
      ranges = [ 0; 0; -326956; 301209542948463528; 3637299787140904564; 7 ];
      floats =
        [ 0x1.67e55eda1f8e2p-1; 0x1.0a76ab2c8e6c9p-1; 0x1.25f12eac10548p-1;
          0x1.90b871ef099a8p-2 ];
      bools = "10011001101011111101111000101110";
      bernoullis = "00000110000000001011000001000010";
      pairs = [ (1, 0); (0, 1); (2, 1); (1, 0); (1, 7); (23, 38); (556167, 79919) ];
      shuffled = [| 6; 8; 9; 0; 1; 11; 2; 3; 7; 4; 10; 5 |];
    };
    {
      seed = 20090810;
      next =
        [ -8074212027933263383L; 1235451564687114108L; 4625460980564558579L;
          4558192974110517125L; -5080782419096081552L; -9065953308610979223L ];
      ints =
        [ 0; 1; 1; 0; 9; 15; 23; 887307; 689674795; 816922968349729660;
          3037188304387481420; 0; 0; 0; 7; 11; 9; 19; 675886; 308069835;
          926860377487961137; 3240137868733830768 ];
      ranges = [ 4; 0; 770227; 2252349964896823174; 4142589617758694257; 8 ];
      floats =
        [ 0x1.1fe545e113b3fp-1; 0x1.12534a7026038p-4; 0x1.00c3c10533ecp-2;
          0x1.fa0fa2e07c4fp-3 ];
      bools = "10110111111100110001110110011010";
      bernoullis = "01110000001010110000001001100000";
      pairs = [ (1, 0); (1, 0); (1, 2); (3, 8); (11, 1); (12, 37); (852636, 983688) ];
      shuffled = [| 4; 2; 8; 11; 7; 6; 10; 1; 0; 5; 3; 9 |];
    };
  ]

let bits n f = String.init n (fun _ -> if f () then '1' else '0')

let test_golden_streams () =
  List.iter
    (fun g ->
      let fresh () = Rng.create g.seed in
      let name what = Printf.sprintf "seed %d: %s" g.seed what in
      let r = fresh () in
      Alcotest.(check (list int64)) (name "next_int64") g.next
        (List.map (fun _ -> Rng.next_int64 r) g.next);
      let r = fresh () in
      Alcotest.(check (list int)) (name "int") g.ints
        (List.map (Rng.int r) (golden_bounds @ golden_bounds));
      let r = fresh () in
      Alcotest.(check (list int)) (name "int_range") g.ranges
        (List.map (fun (lo, hi) -> Rng.int_range r lo hi) golden_ranges);
      let r = fresh () in
      Alcotest.(check (list int64)) (name "float bits")
        (List.map Int64.bits_of_float g.floats)
        (List.map (fun _ -> Int64.bits_of_float (Rng.float r)) g.floats);
      let r = fresh () in
      Alcotest.(check string) (name "bool") g.bools (bits 32 (fun () -> Rng.bool r));
      let r = fresh () in
      Alcotest.(check string) (name "bernoulli 0.3") g.bernoullis
        (bits 32 (fun () -> Rng.bernoulli r 0.3));
      let r = fresh () in
      Alcotest.(check (list (pair int int))) (name "distinct_pair") g.pairs
        (List.map (Rng.distinct_pair r) golden_pair_sizes);
      let r = fresh () in
      let a = Array.init 12 Fun.id in
      Rng.shuffle r a;
      Alcotest.(check (array int)) (name "shuffle") g.shuffled a)
    goldens

(* --- Differential check against an Int64 reference ---

   The reference restates each draw over [next_int64] of a [Rng.copy], in
   plain boxed Int64 arithmetic: the smallest all-ones mask covering
   [bound - 1], unsigned rejection of masked outputs at or above [bound];
   the top 53 bits for floats; the low bit for bools.  Both generators must
   return the same value and leave the same state behind. *)

let reference_int r bound =
  let bound64 = Int64.of_int bound in
  let rec mask m =
    if Int64.unsigned_compare m (Int64.pred bound64) >= 0 then m
    else mask (Int64.logor (Int64.shift_left m 1) 1L)
  in
  let m = mask 1L in
  let rec draw () =
    let v = Int64.logand (Rng.next_int64 r) m in
    if Int64.unsigned_compare v bound64 < 0 then Int64.to_int v else draw ()
  in
  draw ()

let reference_float r =
  Int64.to_float (Int64.shift_right_logical (Rng.next_int64 r) 11) *. 0x1p-53

let reference_bool r = Int64.logand (Rng.next_int64 r) 1L <> 0L

let differential_bounds =
  [ 1; 2; 3; 15; 16; 17; 40; 1_000_003; (1 lsl 31) + 1; 1 lsl 61; max_int ]

let test_differential () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let same what expected actual =
        Alcotest.(check int64) (Printf.sprintf "seed %d: %s" seed what) expected actual
      in
      for _ = 1 to 200 do
        List.iter
          (fun bound ->
            let r = Rng.copy rng in
            let expected = reference_int r bound in
            same (Printf.sprintf "int %d" bound) (Int64.of_int expected)
              (Int64.of_int (Rng.int rng bound));
            (* Equal consumption: the two states still agree. *)
            same "state after int" (Rng.next_int64 r) (Rng.next_int64 rng))
          differential_bounds;
        let r = Rng.copy rng in
        same "float" (Int64.bits_of_float (reference_float r))
          (Int64.bits_of_float (Rng.float rng));
        let r = Rng.copy rng in
        same "bool" (if reference_bool r then 1L else 0L) (if Rng.bool rng then 1L else 0L);
        let r = Rng.copy rng in
        let p = 0.37 in
        same "bernoulli"
          (if reference_float r < p then 1L else 0L)
          (if Rng.bernoulli rng p then 1L else 0L);
        same "state after float/bool/bernoulli" (Rng.next_int64 r) (Rng.next_int64 rng)
      done)
    [ 1; 20090810; -7 ]

(* Property tests *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_distinct_pair =
  QCheck.Test.make ~name:"distinct_pair yields distinct indices" ~count:500
    QCheck.(pair small_int (int_range 2 100))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let i, j = Rng.distinct_pair rng n in
      i <> j && i < n && j < n)

let prop_sample_indices =
  QCheck.Test.make ~name:"sample_indices are distinct and bounded" ~count:200
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k = 1 + (seed mod n) in
      let picks = Rng.sample_indices rng ~n ~k in
      Array.length picks = k
      && List.length (List.sort_uniq compare (Array.to_list picks)) = k
      && Array.for_all (fun x -> x >= 0 && x < n) picks)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy preserves state" `Quick test_copy_preserves_state;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "int bound validation" `Quick test_int_bounds_rejected;
    Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "int_range bounds" `Quick test_int_range;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "distinct_pair validity" `Quick test_distinct_pair;
    Alcotest.test_case "distinct_pair coverage" `Quick test_distinct_pair_covers_all_ordered_pairs;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sample_indices distinct" `Quick test_sample_indices_distinct;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "categorical weights" `Quick test_categorical_weights;
    Alcotest.test_case "choose singleton" `Quick test_choose_singleton;
    Alcotest.test_case "int_range overflow" `Quick test_int_range_overflow;
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
    Alcotest.test_case "Int64 reference differential" `Quick test_differential;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_distinct_pair;
    QCheck_alcotest.to_alcotest prop_sample_indices;
  ]
