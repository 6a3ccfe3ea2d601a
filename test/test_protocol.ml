(* Tests for views and the S&F protocol steps, including the four
   transformation outcomes of the paper's Figure 5.2. *)

module View = Sf_core.View
module Protocol = Sf_core.Protocol

let entry ?(serial = 0) ?(anchor = None) ?(born = 0) id =
  { View.id; serial; anchor; born }

(* --- View --- *)

let test_view_create () =
  let v = View.create 6 in
  Alcotest.(check int) "size" 6 (View.size v);
  Alcotest.(check int) "degree 0" 0 (View.degree v);
  Alcotest.(check int) "free" 6 (View.free_slots v);
  Alcotest.(check bool) "not full" false (View.is_full v)

let test_view_set_get_clear () =
  let v = View.create 4 in
  View.set v 2 (entry 7);
  Alcotest.(check int) "degree" 1 (View.degree v);
  (match View.get v 2 with
  | Some e -> Alcotest.(check int) "stored id" 7 e.View.id
  | None -> Alcotest.fail "expected entry");
  View.set v 2 (entry 8);
  Alcotest.(check int) "overwrite keeps degree" 1 (View.degree v);
  View.clear v 2;
  Alcotest.(check int) "cleared" 0 (View.degree v);
  View.clear v 2;
  Alcotest.(check int) "double clear harmless" 0 (View.degree v)

let test_view_random_empty_slot () =
  let v = View.create 4 in
  let rng = Sf_prng.Rng.create 1 in
  View.set v 0 (entry 1);
  View.set v 2 (entry 2);
  for _ = 1 to 100 do
    match View.random_empty_slot v rng with
    | Some i -> Alcotest.(check bool) "empty slot" true (i = 1 || i = 3)
    | None -> Alcotest.fail "expected empty slot"
  done;
  View.set v 1 (entry 3);
  View.set v 3 (entry 4);
  Alcotest.(check bool) "full view" true (View.random_empty_slot v rng = None)

let test_view_random_empty_slot_uniform () =
  let v = View.create 4 in
  let rng = Sf_prng.Rng.create 2 in
  View.set v 1 (entry 9);
  let counts = Array.make 4 0 in
  for _ = 1 to 30_000 do
    match View.random_empty_slot v rng with
    | Some i -> counts.(i) <- counts.(i) + 1
    | None -> ()
  done;
  Alcotest.(check int) "occupied never chosen" 0 counts.(1);
  List.iter
    (fun i ->
      let frac = float_of_int counts.(i) /. 30_000. in
      Alcotest.(check bool) "near 1/3" true (Float.abs (frac -. (1. /. 3.)) < 0.02))
    [ 0; 2; 3 ]

let test_view_queries () =
  let v = View.create 6 in
  View.set v 0 (entry 5);
  View.set v 1 (entry 5);
  View.set v 2 (entry 9);
  Alcotest.(check (list int)) "ids in slot order" [ 5; 5; 9 ] (View.ids v);
  Alcotest.(check bool) "mem" true (View.mem v 5);
  Alcotest.(check bool) "not mem" false (View.mem v 6);
  Alcotest.(check int) "count 5" 2 (View.count_id v 5);
  Alcotest.(check int) "entries" 3 (List.length (View.entries v));
  View.clear_all v;
  Alcotest.(check int) "clear_all" 0 (View.degree v)

(* --- Protocol config --- *)

let test_config_validation () =
  let ok = Protocol.make_config ~view_size:8 ~lower_threshold:2 in
  Alcotest.(check int) "s" 8 ok.Protocol.view_size;
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "s too small" (fun () -> Protocol.make_config ~view_size:4 ~lower_threshold:0);
  expect_invalid "odd s" (fun () -> Protocol.make_config ~view_size:7 ~lower_threshold:0);
  expect_invalid "dL too large" (fun () -> Protocol.make_config ~view_size:8 ~lower_threshold:4);
  expect_invalid "odd dL" (fun () -> Protocol.make_config ~view_size:10 ~lower_threshold:3);
  expect_invalid "negative dL" (fun () -> Protocol.make_config ~view_size:8 ~lower_threshold:(-2))

(* --- Protocol steps --- *)

let make_node ?(view_size = 8) ?(lower_threshold = 2) ids =
  let config = Protocol.make_config ~view_size ~lower_threshold in
  let node = Protocol.create_node ~config ~node_id:100 in
  List.iteri (fun i id -> View.set node.Protocol.view i (entry ~serial:(1000 + i) id)) ids;
  (config, node)

let serial_counter () = { View.next = 10_001; stride = 1 }

let run_initiate config node =
  let rng = Sf_prng.Rng.create 5 in
  Protocol.initiate config rng ~serials:(serial_counter ()) ~clock:0 node

let test_initiate_empty_view_is_self_loop () =
  let config, node = make_node [] in
  (match run_initiate config node with
  | Protocol.Self_loop -> ()
  | Protocol.Send _ -> Alcotest.fail "empty view must not send");
  Alcotest.(check int) "self loop counted" 1 node.Protocol.self_loop_actions

let test_initiate_sparse_view_can_self_loop () =
  (* With 2 of 8 slots filled, most selections hit an empty slot. *)
  let config, node = make_node [ 1; 2 ] in
  let self_loops = ref 0 and sends = ref 0 in
  let rng = Sf_prng.Rng.create 6 in
  let fresh = serial_counter () in
  for _ = 1 to 2000 do
    (* Refill to keep the state constant. *)
    View.clear_all node.Protocol.view;
    View.set node.Protocol.view 0 (entry 1);
    View.set node.Protocol.view 1 (entry 2);
    match Protocol.initiate config rng ~serials:fresh ~clock:0 node with
    | Protocol.Self_loop -> incr self_loops
    | Protocol.Send _ -> incr sends
  done;
  (* P(both nonempty) = d(d-1)/(s(s-1)) = 2/56. *)
  let rate = float_of_int !sends /. 2000. in
  Alcotest.(check bool) "send rate near 2/56" true (Float.abs (rate -. (2. /. 56.)) < 0.02)

(* Figure 5.2(b): no duplication, no deletion. *)
let test_fig_5_2_normal_transformation () =
  (* A full view guarantees the slot pair is non-empty, so the action always
     sends. *)
  let config, sender = make_node ~lower_threshold:2 [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  match run_initiate config sender with
  | Protocol.Self_loop -> Alcotest.fail "full view must send"
  | Protocol.Send { destination; message; duplicated } ->
    Alcotest.(check bool) "no duplication above dL" false duplicated;
    Alcotest.(check int) "sender cleared two entries" 6 (Protocol.degree sender);
    Alcotest.(check int) "reinforcement is sender id" 100
      message.Protocol.reinforcement.View.id;
    let initial_ids = [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
    Alcotest.(check bool) "destination was in view" true (List.mem destination initial_ids);
    Alcotest.(check bool) "payload was in view" true
      (List.mem message.Protocol.mixing.View.id initial_ids);
    (* The moved instance keeps its serial and stays unanchored. *)
    Alcotest.(check bool) "moved instance keeps serial" true
      (message.Protocol.mixing.View.serial >= 1000
      && message.Protocol.mixing.View.serial < 1010);
    Alcotest.(check bool) "unanchored" true (message.Protocol.mixing.View.anchor = None);
    (* Receiver with room accepts both (Fig 5.2(b) right side). *)
    let receiver = Protocol.create_node ~config ~node_id:destination in
    let rng = Sf_prng.Rng.create 7 in
    (match Protocol.receive config rng receiver message with
    | Protocol.Accepted -> ()
    | Protocol.Deleted -> Alcotest.fail "receiver had room");
    Alcotest.(check int) "receiver gained two" 2 (Protocol.degree receiver);
    Alcotest.(check bool) "receiver knows sender" true (View.mem receiver.Protocol.view 100)

(* Figure 5.2(c): duplication at the sender. *)
let test_fig_5_2_duplication () =
  let config, sender = make_node ~lower_threshold:2 [ 1; 2 ] in
  (* With only 2 of 8 slots filled, selections often hit an empty slot —
     keep drawing from one rng until the action sends. *)
  let rng = Sf_prng.Rng.create 5 in
  let fresh = serial_counter () in
  let rec attempt k =
    if k = 0 then Alcotest.fail "no send in 1000 tries"
    else
      match Protocol.initiate config rng ~serials:fresh ~clock:0 sender with
      | Protocol.Self_loop -> attempt (k - 1)
      | Protocol.Send { message; duplicated; _ } ->
        Alcotest.(check bool) "duplicated at threshold" true duplicated;
        Alcotest.(check int) "entries kept" 2 (Protocol.degree sender);
        Alcotest.(check bool) "copies anchored at sender" true
          (message.Protocol.mixing.View.anchor = Some 100
          && message.Protocol.reinforcement.View.anchor = Some 100);
        Alcotest.(check bool) "copy got a fresh serial" true
          (message.Protocol.mixing.View.serial >= 10_000)
  in
  attempt 1000

(* Figure 5.2(d): deletion at a full receiver. *)
let test_fig_5_2_deletion () =
  let config, receiver = make_node [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  Alcotest.(check bool) "receiver full" true (View.is_full receiver.Protocol.view);
  let rng = Sf_prng.Rng.create 8 in
  let message = { Protocol.reinforcement = entry 50; mixing = entry 51 } in
  (match Protocol.receive config rng receiver message with
  | Protocol.Deleted -> ()
  | Protocol.Accepted -> Alcotest.fail "full receiver must delete");
  Alcotest.(check int) "degree unchanged" 8 (Protocol.degree receiver);
  Alcotest.(check int) "deletion counted" 1 receiver.Protocol.deletions;
  Alcotest.(check bool) "ids not installed" true
    ((not (View.mem receiver.Protocol.view 50)) && not (View.mem receiver.Protocol.view 51))

let test_receive_places_in_empty_slots () =
  let config, receiver = make_node [ 1; 2 ] in
  let rng = Sf_prng.Rng.create 9 in
  let message = { Protocol.reinforcement = entry 50; mixing = entry 51 } in
  (match Protocol.receive config rng receiver message with
  | Protocol.Accepted -> ()
  | Protocol.Deleted -> Alcotest.fail "room available");
  Alcotest.(check int) "degree +2" 4 (Protocol.degree receiver);
  Alcotest.(check bool) "originals untouched" true
    (View.mem receiver.Protocol.view 1 && View.mem receiver.Protocol.view 2)

(* Observation 5.1: outdegree stays even through random protocol activity. *)
let prop_degree_parity_invariant =
  QCheck.Test.make ~name:"Observation 5.1: outdegree parity and bounds" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let config = Protocol.make_config ~view_size:10 ~lower_threshold:2 in
      let rng = Sf_prng.Rng.create seed in
      let nodes =
        Array.init 5 (fun node_id ->
            let node = Protocol.create_node ~config ~node_id in
            (* Even initial degree at every node. *)
            View.set node.Protocol.view 0 (entry ((node_id + 1) mod 5));
            View.set node.Protocol.view 1 (entry ((node_id + 2) mod 5));
            node)
      in
      let fresh = { View.next = 1; stride = 1 } in
      let ok = ref true in
      for clock = 1 to 500 do
        let u = nodes.(Sf_prng.Rng.int rng 5) in
        (match Protocol.initiate config rng ~serials:fresh ~clock u with
        | Protocol.Self_loop -> ()
        | Protocol.Send { destination; message; _ } ->
          (* Deliver unconditionally (loss handled elsewhere). *)
          ignore (Protocol.receive config rng nodes.(destination) message));
        Array.iter
          (fun node -> if not (Protocol.invariant_holds config node) then ok := false)
          nodes
      done;
      !ok)

(* The serial-tracking discipline: a no-duplication send conserves the
   number of live instances (sender clears 2, receiver gains 2). *)
let test_instance_conservation_without_loss () =
  let config, sender = make_node ~lower_threshold:2 [ 1; 2; 3; 4; 5; 6; 7; 9 ] in
  let receiver = Protocol.create_node ~config ~node_id:1 in
  let rng = Sf_prng.Rng.create 10 in
  let total () = Protocol.degree sender + Protocol.degree receiver in
  let before = total () in
  (match run_initiate config sender with
  | Protocol.Send { message; duplicated; _ } ->
    Alcotest.(check bool) "no dup" false duplicated;
    ignore (Protocol.receive config rng receiver message)
  | Protocol.Self_loop -> Alcotest.fail "expected send");
  Alcotest.(check int) "instances conserved" before (total ())

(* A retuned s below the allocation bounds acceptance: at degree 5 under
   s = 6 there is no room for two more ids, so the message is deleted and
   the outdegree stays within s (Observation 5.1). *)
let test_receive_respects_retuned_s () =
  let _, receiver = make_node ~view_size:16 [ 1; 2; 3; 4; 5 ] in
  let retuned = Protocol.make_config ~view_size:6 ~lower_threshold:0 in
  let rng = Sf_prng.Rng.create 12 in
  let message = { Protocol.reinforcement = entry 50; mixing = entry 51 } in
  (match Protocol.receive retuned rng receiver message with
  | Protocol.Deleted -> ()
  | Protocol.Accepted -> Alcotest.fail "no room for two ids under s = 6");
  Alcotest.(check int) "degree unchanged" 5 (Protocol.degree receiver)

(* --- One step rule: Protocol on a view vs View.Flat on a shared store ---

   The same initiate/receive pair run twice from equal seeds: through the
   Protocol adapters on two single views, and through View.Flat directly
   on nodes 3 (sender) and 1 (receiver) of a five-node store whose other
   rows hold unrelated instances.  Slot contents, serials, anchors, born
   stamps, outcomes, mint positions and RNG streams must agree, and the
   other rows must not move. *)

module Flat = View.Flat

let alloc = 16
let store_nodes = 5
let sender_row = 3
let receiver_row = 1
let sender_id = 42

(* [k] random slots of row [w] get random instances. *)
let fill rng store w ~k =
  Array.iter
    (fun slot ->
      let anchor = if Sf_prng.Rng.bool rng then Sf_prng.Rng.int rng 100 else -1 in
      Flat.set store w slot ~id:(Sf_prng.Rng.int rng 100)
        ~serial:(Sf_prng.Rng.int rng 1000) ~anchor ~born:(Sf_prng.Rng.int rng 50))
    (Sf_prng.Rng.sample_indices rng ~n:alloc ~k)

let row_equal a ua b ub =
  Flat.degree a ua = Flat.degree b ub
  && List.for_all
       (fun slot ->
         Flat.id_at a ua slot = Flat.id_at b ub slot
         && Flat.serial_at a ua slot = Flat.serial_at b ub slot
         && Flat.anchor_at a ua slot = Flat.anchor_at b ub slot
         && Flat.born_at a ua slot = Flat.born_at b ub slot)
       (List.init alloc Fun.id)

(* The world both paths start from: a five-node store and, for the
   Protocol path, two nodes whose views copy its sender and receiver rows. *)
let world seed ~sender_degree ~receiver_degree =
  let rng = Sf_prng.Rng.create seed in
  let store = Flat.create ~nodes:store_nodes ~view_size:alloc in
  for w = 0 to store_nodes - 1 do
    let k =
      if w = sender_row then sender_degree
      else if w = receiver_row then receiver_degree
      else Sf_prng.Rng.int rng (alloc + 1)
    in
    fill rng store w ~k
  done;
  let base = Protocol.make_config ~view_size:alloc ~lower_threshold:0 in
  let node_of row node_id =
    let node = Protocol.create_node ~config:base ~node_id in
    for slot = 0 to alloc - 1 do
      let id = Flat.id_at store row slot in
      if id >= 0 then
        Flat.set node.Protocol.view 0 slot ~id
          ~serial:(Flat.serial_at store row slot)
          ~anchor:(Flat.anchor_at store row slot)
          ~born:(Flat.born_at store row slot)
    done;
    node
  in
  (store, node_of sender_row sender_id, node_of receiver_row 7)

let check_step_rule ~sender_degree ~receiver_degree ~dl ~s =
  let config = Protocol.make_config ~view_size:s ~lower_threshold:dl in
  for seed = 1 to 200 do
    let store, sender, receiver = world seed ~sender_degree ~receiver_degree in
    let untouched, _, _ = world seed ~sender_degree ~receiver_degree in
    let rng_a = Sf_prng.Rng.create (seed + 1000)
    and rng_b = Sf_prng.Rng.create (seed + 1000) in
    let serials_a = { View.next = 5000; stride = 3 }
    and serials_b = { View.next = 5000; stride = 3 } in
    let outcome_a =
      match Protocol.initiate config rng_a ~serials:serials_a ~clock:77 sender with
      | Protocol.Self_loop -> None
      | Protocol.Send { destination; message; duplicated } ->
        let accepted = Protocol.receive config rng_a receiver message = Protocol.Accepted in
        Some (destination, duplicated, accepted)
    in
    let p = Flat.packet () in
    let outcome_b =
      if
        Flat.initiate store sender_row ~self:sender_id rng_b ~dl ~serials:serials_b
          ~born:77 p
      then Some (p.Flat.dst, p.Flat.dup, Flat.receive store receiver_row rng_b ~s p)
      else None
    in
    let ctx what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check (option (triple int bool bool))) (ctx "outcome") outcome_a outcome_b;
    Alcotest.(check bool) (ctx "sender rows") true
      (row_equal sender.Protocol.view 0 store sender_row);
    Alcotest.(check bool) (ctx "receiver rows") true
      (row_equal receiver.Protocol.view 0 store receiver_row);
    Alcotest.(check int) (ctx "mint positions") serials_a.View.next serials_b.View.next;
    Alcotest.(check int64) (ctx "RNG streams") (Sf_prng.Rng.next_int64 rng_a)
      (Sf_prng.Rng.next_int64 rng_b);
    for w = 0 to store_nodes - 1 do
      if w <> sender_row && w <> receiver_row then
        Alcotest.(check bool) (ctx "other rows untouched") true
          (row_equal store w untouched w)
    done
  done

let test_step_rule_empty_slots () =
  check_step_rule ~sender_degree:6 ~receiver_degree:4 ~dl:2 ~s:alloc

let test_step_rule_at_dl () =
  check_step_rule ~sender_degree:6 ~receiver_degree:4 ~dl:6 ~s:alloc

let test_step_rule_full_views () =
  check_step_rule ~sender_degree:alloc ~receiver_degree:alloc ~dl:4 ~s:alloc

let test_step_rule_retuned_s () =
  List.iter
    (fun receiver_degree ->
      check_step_rule ~sender_degree:8 ~receiver_degree ~dl:0 ~s:6)
    [ 2; 4; 5; 6 ]

let suite =
  [
    Alcotest.test_case "view create" `Quick test_view_create;
    Alcotest.test_case "view set/get/clear" `Quick test_view_set_get_clear;
    Alcotest.test_case "view random empty slot" `Quick test_view_random_empty_slot;
    Alcotest.test_case "view empty slot uniformity" `Quick test_view_random_empty_slot_uniform;
    Alcotest.test_case "view queries" `Quick test_view_queries;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "initiate on empty view" `Quick test_initiate_empty_view_is_self_loop;
    Alcotest.test_case "self-loop rate" `Quick test_initiate_sparse_view_can_self_loop;
    Alcotest.test_case "Fig 5.2(b): normal transformation" `Quick test_fig_5_2_normal_transformation;
    Alcotest.test_case "Fig 5.2(c): duplication" `Quick test_fig_5_2_duplication;
    Alcotest.test_case "Fig 5.2(d): deletion" `Quick test_fig_5_2_deletion;
    Alcotest.test_case "receive into empty slots" `Quick test_receive_places_in_empty_slots;
    Alcotest.test_case "instance conservation" `Quick test_instance_conservation_without_loss;
    Alcotest.test_case "receive respects a retuned s" `Quick
      test_receive_respects_retuned_s;
    Alcotest.test_case "step rule: views with empty slots" `Quick
      test_step_rule_empty_slots;
    Alcotest.test_case "step rule: d = dL" `Quick test_step_rule_at_dl;
    Alcotest.test_case "step rule: full views" `Quick test_step_rule_full_views;
    Alcotest.test_case "step rule: retuned s below the allocation" `Quick
      test_step_rule_retuned_s;
    QCheck_alcotest.to_alcotest prop_degree_parity_invariant;
  ]
