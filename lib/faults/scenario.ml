(* Declarative fault plans: a loss process plus timed fault windows, with a
   compact textual syntax shared by `sfg storm`, `sfg check --scenario`,
   the bench harness and the CI fault matrix.  Window times are in rounds
   (the paper's unit); the drivers map their own clocks onto rounds. *)

type fault =
  | Partition of { parts : int }
  | Crash of { first : int; last : int }
  | Delay of { factor : float }
  | Corrupt of { rate : float }

type window = { start : float; stop : float; fault : fault }

type t = { loss : Loss.model; windows : window list }

let default = { loss = Loss.Iid; windows = [] }

(* Partition block of an id: contiguous blocks of the initial id space
   [0, n); other ids (joiners, and negative ids) wrap into it mod n. *)
let block ~n ~parts id =
  let id = ((id mod n) + n) mod n in
  min (parts - 1) (id * parts / n)

let validate_window w =
  if w.start < 0. || Float.is_nan w.start then
    invalid_arg (Fmt.str "Scenario: window start %g negative" w.start);
  if not (w.stop > w.start) then
    invalid_arg (Fmt.str "Scenario: window [%g, %g) is empty" w.start w.stop);
  match w.fault with
  | Partition { parts } ->
    if parts < 2 then invalid_arg (Fmt.str "Scenario: partition into %d parts" parts)
  | Crash { first; last } ->
    if first < 0 || last < first then
      invalid_arg (Fmt.str "Scenario: crash range %d-%d" first last)
  | Delay { factor } ->
    if not (factor > 0.) then
      invalid_arg (Fmt.str "Scenario: delay factor %g not positive" factor)
  | Corrupt { rate } ->
    if rate < 0. || rate > 1. || Float.is_nan rate then
      invalid_arg (Fmt.str "Scenario: corruption rate %g outside [0,1]" rate)

(* --- Rendering --- *)

let fault_to_string = function
  | Partition { parts } -> Fmt.str "%d" parts
  | Crash { first; last } -> Fmt.str "%d-%d" first last
  | Delay { factor } -> Fmt.str "%g" factor
  | Corrupt { rate } -> Fmt.str "%g" rate

let fault_kind = function
  | Partition _ -> "partition"
  | Crash _ -> "crash"
  | Delay _ -> "delay"
  | Corrupt _ -> "corrupt"

let window_to_string w =
  Fmt.str "%s@%g-%g:%s" (fault_kind w.fault) w.start w.stop (fault_to_string w.fault)

(* List-level validation: windows of the same class are allowed to overlap
   in time — active partitions compose by OR, delay factors multiply,
   corruption takes the max, and the recovery tests pin that semantics —
   {e except} when both windows carry a node range ([Crash]) and the
   ranges intersect too: two crash windows freezing an overlapping id
   range over an overlapping interval are almost always a typo for one
   window, and the "resume at window end" rule would silently wake nodes
   the other window still holds down. *)
let validate_windows windows =
  List.iter validate_window windows;
  let times_overlap a b = a.start < b.stop && b.start < a.stop in
  let rec pairwise = function
    | [] -> ()
    | w :: rest ->
      List.iter
        (fun w' ->
          match (w.fault, w'.fault) with
          | Crash { first; last }, Crash { first = first'; last = last' }
            when times_overlap w w' && first <= last' && first' <= last ->
            invalid_arg
              (Fmt.str
                 "Scenario: crash windows %s and %s overlap in time on \
                  intersecting node ranges"
                 (window_to_string w) (window_to_string w'))
          | _ -> ())
        rest;
      pairwise rest
  in
  pairwise windows

let make ?(loss = Loss.Iid) ?(windows = []) () =
  validate_windows windows;
  { loss; windows }

let loss_to_string = function
  | Loss.Iid -> "iid"
  | Loss.Gilbert_elliott g ->
    Fmt.str "ge:%g:%g" (Loss.stationary_loss g) (Loss.mean_burst_length g)
  | Loss.Per_link _ -> "per-link"

let to_string t =
  String.concat ";" (loss_to_string t.loss :: List.map window_to_string t.windows)

let pp ppf t = Fmt.string ppf (to_string t)

(* --- Parsing --- *)

let split_on sep s = String.split_on_char sep s |> List.map String.trim

let parse_float name s =
  match float_of_string_opt s with
  | Some f when not (Float.is_nan f) -> Ok f
  | _ -> Error (Fmt.str "%s: not a number (%S)" name s)

let parse_int name s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Fmt.str "%s: not an integer (%S)" name s)

let ( let* ) = Result.bind

let parse_range name s =
  match split_on '-' s with
  | [ a; b ] ->
    let* lo = parse_int name a in
    let* hi = parse_int name b in
    Ok (lo, hi)
  | _ -> Error (Fmt.str "%s: expected LO-HI, got %S" name s)

(* Structural parsing only: shapes and number syntax.  All semantic range
   checks (empty windows, parts < 2, inverted crash ranges, ...) run
   through {!validate_window} below, so parsing and programmatic
   construction share one validation path and one set of messages. *)
let parse_fault kind params =
  match kind with
  | "partition" ->
    let* parts = parse_int "partition parts" params in
    Ok (Partition { parts })
  | "crash" ->
    let* first, last = parse_range "crash range" params in
    Ok (Crash { first; last })
  | "delay" ->
    let* factor = parse_float "delay factor" params in
    Ok (Delay { factor })
  | "corrupt" ->
    let* rate = parse_float "corruption rate" params in
    Ok (Corrupt { rate })
  | other -> Error (Fmt.str "unknown fault kind %S" other)

let checked f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let parse_window item =
  match split_on '@' item with
  | [ kind; rest ] -> (
    match split_on ':' rest with
    | [ times; params ] ->
      let* start, stop =
        match split_on '-' times with
        | [ a; b ] ->
          let* start = parse_float "window start" a in
          let* stop = parse_float "window stop" b in
          Ok (start, stop)
        | _ -> Error (Fmt.str "window times: expected START-STOP, got %S" times)
      in
      let* fault = parse_fault kind params in
      let w = { start; stop; fault } in
      let* () = checked (fun () -> validate_window w) in
      Ok w
    | _ -> Error (Fmt.str "window %S: expected KIND@START-STOP:PARAMS" item))
  | _ -> Error (Fmt.str "item %S: expected KIND@START-STOP:PARAMS" item)

let parse_loss item =
  match split_on ':' item with
  | [ "iid" ] -> Some (Ok Loss.Iid)
  | "ge" :: rest -> (
    match rest with
    | [ mean; burst ] ->
      Some
        (let* mean_loss = parse_float "ge mean loss" mean in
         let* mean_burst = parse_float "ge mean burst" burst in
         match Loss.gilbert_elliott ~mean_loss ~mean_burst () with
         | ge -> Ok (Loss.Gilbert_elliott ge)
         | exception Invalid_argument m -> Error m)
    | _ -> Some (Error (Fmt.str "ge: expected ge:MEAN:BURST, got %S" item)))
  | _ -> None

let of_string s =
  let items = split_on ';' s |> List.filter (fun i -> i <> "") in
  let rec go loss windows = function
    | [] ->
      let windows = List.rev windows in
      let* () = checked (fun () -> validate_windows windows) in
      Ok { loss = Option.value loss ~default:Loss.Iid; windows }
    | item :: rest -> (
      match parse_loss item with
      | Some (Error e) -> Error e
      | Some (Ok l) ->
        if Option.is_some loss then Error "more than one loss model in scenario"
        else go (Some l) windows rest
      | None ->
        let* w = parse_window item in
        go loss (w :: windows) rest)
  in
  go None [] items
