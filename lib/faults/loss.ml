(* Stateful loss processes: i.i.d. (the paper's model), Gilbert-Elliott
   bursty loss, and per-link asymmetric loss.  See the .mli for the
   stationary-mean mapping that keeps bursty runs comparable to the paper's
   uniform [loss] parameter. *)

type ge = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  loss_good : float;
  loss_bad : float;
}

type model =
  | Iid
  | Gilbert_elliott of ge
  | Per_link of (int -> int -> float)

let check_probability name p =
  if p < 0. || p > 1. || Float.is_nan p then
    invalid_arg (Fmt.str "Loss.gilbert_elliott: %s = %g outside [0,1]" name p)

let gilbert_elliott ?(loss_good = 0.) ?(loss_bad = 1.) ~mean_loss ~mean_burst () =
  check_probability "loss_good" loss_good;
  check_probability "loss_bad" loss_bad;
  check_probability "mean_loss" mean_loss;
  if not (loss_good <= mean_loss && mean_loss < loss_bad) then
    invalid_arg
      (Fmt.str
         "Loss.gilbert_elliott: need loss_good <= mean_loss < loss_bad, got %g <= %g < %g"
         loss_good mean_loss loss_bad);
  if mean_burst < 1. then
    invalid_arg (Fmt.str "Loss.gilbert_elliott: mean_burst %g < 1" mean_burst);
  let p_bad_to_good = 1. /. mean_burst in
  let p_good_to_bad =
    p_bad_to_good *. (mean_loss -. loss_good) /. (loss_bad -. mean_loss)
  in
  check_probability "implied p_good_to_bad" p_good_to_bad;
  { p_good_to_bad; p_bad_to_good; loss_good; loss_bad }

let stationary_loss g =
  let denom = g.p_good_to_bad +. g.p_bad_to_good in
  if denom <= 0. then g.loss_good
  else
    let pi_bad = g.p_good_to_bad /. denom in
    ((1. -. pi_bad) *. g.loss_good) +. (pi_bad *. g.loss_bad)

let mean_burst_length g =
  if g.p_bad_to_good <= 0. then infinity else 1. /. g.p_bad_to_good

(* The Gilbert-Elliott probabilities are copied out of [ge] (whose
   all-float fields are stored unboxed, so each read passed to
   [Rng.bernoulli] would box a fresh float per send) into this mixed
   record, whose float fields are boxed once at [create]. *)
type t = {
  spec : model;
  mutable bad : bool;  (* Gilbert-Elliott chain position; starts Good *)
  leave_good : float;  (* the ge fields; 0. for the other models *)
  leave_bad : float;
  drop_good : float;
  drop_bad : float;
}

let create spec =
  match spec with
  | Gilbert_elliott g ->
    {
      spec;
      bad = false;
      leave_good = g.p_good_to_bad;
      leave_bad = g.p_bad_to_good;
      drop_good = g.loss_good;
      drop_bad = g.loss_bad;
    }
  | Iid | Per_link _ ->
    { spec; bad = false; leave_good = 0.; leave_bad = 0.; drop_good = 0.; drop_bad = 0. }

let model t = t.spec

let drop t rng ~chance ~src ~dst =
  match t.spec with
  | Iid -> Sf_prng.Rng.bernoulli rng chance
  | Per_link f -> Sf_prng.Rng.bernoulli rng (f src dst)
  | Gilbert_elliott _ ->
    if Sf_prng.Rng.bernoulli rng (if t.bad then t.leave_bad else t.leave_good) then
      t.bad <- not t.bad;
    Sf_prng.Rng.bernoulli rng (if t.bad then t.drop_bad else t.drop_good)

let in_burst t = t.bad
