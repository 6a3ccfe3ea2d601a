(* The flat-state spreading engine: rumor rounds layered on the sharded
   million-node runner.

   The engine owns NO membership state.  It reads the world through the
   public [Runner.Sharded] surface — the packed view store for sampling,
   the liveness map, the round-stable crash/partition windows — and keeps
   its own per-shard spread state partitioned by the world's own
   [shard_of] map, so the owner-only write discipline (and with it the
   domain-count invariance) carries over: per-shard infection bitmaps,
   per-shard RNG streams split from the engine's own seed in shard order
   (the world's streams are untouched, so the membership replay is
   bit-for-bit unchanged), per-shard loss-chain instances, and a message
   arena matrix of 3-int rows (dst, src, carried address).

   One spreading round = one membership round of the world, then a
   bulk-synchronous spread schedule over the same logical shards:

     I.   generate — each shard walks its owned slots in order: clears
          infection bits of slots that died in this round's churn,
          censuses live/crashed/informed, and emits this round's
          messages.  The verdict pipeline (destination crash window,
          partition, loss chain) runs at send time with the sending
          shard's RNG; surviving messages land in the arena row owned by
          (source shard, destination shard).
     II.  deliver — each shard drains the rows addressed to it, source
          shards in index order, messages in generation order: infect /
          count duplicate / count to-dead, absorb Direct addresses.
          Push-pull responses are generated here (judged with the
          responder shard's RNG, in drain order) into a second matrix.
     III. deliver-responses (push-pull only) — drain the response rows.

   Every phase reads foreign state only through round-stable world
   queries and writes only shard-owned state, so any [domains] value
   replays the single-domain run bit-for-bit; [equal] is the oracle. *)

module Sharded = Sf_core.Runner.Sharded
module VFlat = Sf_core.View.Flat
module Rng = Sf_prng.Rng
module Loss = Sf_faults.Loss

(* Message rows: destination, source, carried address (-1 when none). *)
let fields = 3

type arena = { mutable buf : int array; mutable len : int }

let arena_create () = { buf = Array.make (fields * 64) 0; len = 0 }
let arena_clear a = a.len <- 0

let arena_push a ~dst ~src ~carried =
  let need = a.len + fields in
  if need > Array.length a.buf then begin
    let grown = Array.make (max need (2 * Array.length a.buf)) 0 in
    Array.blit a.buf 0 grown 0 a.len;
    a.buf <- grown
  end;
  let b = a.buf and i = a.len in
  b.(i) <- dst;
  b.(i + 1) <- src;
  b.(i + 2) <- carried;
  a.len <- need

(* All mutable per-shard spread state: written only by the domain
   currently running this shard, reduced by the coordinator between
   barriers. *)
type sshard = {
  sp_owned : int array;  (* owned slots, ascending (the world's order) *)
  sp_rng : Rng.t;
  sp_loss : Loss.t option;  (* private chain; None on the Iid fast path *)
  sp_inf : Bytes.t;  (* infection bit per owned slot *)
  sp_out : arena array;  (* rumor rows, one per destination shard *)
  sp_req : arena array;  (* pull-request rows (push-pull) *)
  sp_resp : arena array;  (* pull-response rows (push-pull) *)
  (* Direct-strategy rings, one per owned slot (no rings for the other
     strategies); see {!Rings}. *)
  sp_leads : Rings.t;
  sp_recent : Rings.t;
  mutable sp_infected : int;  (* infected among live owned slots *)
  mutable sp_live : int;  (* censused in generate *)
  mutable sp_frozen : int;  (* live but inside a crash window *)
  mutable sp_messages : int;
  mutable sp_pushes : int;
  mutable sp_requests : int;
  mutable sp_duplicates : int;
  mutable sp_lost : int;
  mutable sp_to_dead : int;
}

type t = {
  world : Sharded.t;
  strategy : Strategy.t;
  fanout : int;
  coverage_target : float;
  chance : float;
  shard_count : int;
  sshards : sshard array;
  pos : int array;  (* slot -> index within its owner's [sp_owned] *)
  g_coverage : Sf_obs.Metrics.gauge;
  mutable rounds : int;
  mutable cov_rev : float list;
  mutable half_at : int option;
  mutable target_at : int option;
}

let inf_get sh p = Char.code (Bytes.get sh.sp_inf p) <> 0
let inf_set sh p = Bytes.set sh.sp_inf p '\001'
let inf_clear sh p = Bytes.set sh.sp_inf p '\000'

let create ?(coverage_target = 0.99) ?(fanout = 2) ?metrics ~strategy ~source
    ~seed world =
  if fanout < 1 then invalid_arg "Sf_spread.Flat.create: fanout must be positive";
  if coverage_target <= 0. || coverage_target > 1. then
    invalid_arg "Sf_spread.Flat.create: coverage_target must lie in (0, 1]";
  if not (Sharded.is_live world source) then
    invalid_arg "Sf_spread.Flat.create: source is not a live node";
  let shards = Sharded.shard_count world in
  let capacity = Sharded.capacity world in
  let counts = Array.make shards 0 in
  for u = 0 to capacity - 1 do
    let s = Sharded.shard_of world u in
    counts.(s) <- counts.(s) + 1
  done;
  let owned = Array.init shards (fun i -> Array.make counts.(i) 0) in
  let pos = Array.make capacity 0 in
  let fill = Array.make shards 0 in
  (* Ascending slot scan reproduces the world's own owned order:
     lo..hi-1 first, then the strided headroom slots in ascending
     stride. *)
  for u = 0 to capacity - 1 do
    let s = Sharded.shard_of world u in
    owned.(s).(fill.(s)) <- u;
    pos.(u) <- fill.(s);
    fill.(s) <- fill.(s) + 1
  done;
  let loss_model =
    match Sharded.scenario world with
    | Some sc -> (
      match sc.Sf_faults.Scenario.loss with Loss.Iid -> None | m -> Some m)
    | None -> None
  in
  (* The engine's streams split from its own root in shard order — same
     discipline as the world's, fully independent of it. *)
  let root = Rng.create seed in
  let direct = strategy = Strategy.Direct in
  let sshards =
    Array.init shards (fun i ->
        let olen = Array.length owned.(i) in
        let rings = if direct then olen else 0 in
        {
          sp_owned = owned.(i);
          sp_rng = Rng.split root;
          sp_loss = Option.map Loss.create loss_model;
          sp_inf = Bytes.make olen '\000';
          sp_out = Array.init shards (fun _ -> arena_create ());
          sp_req = Array.init shards (fun _ -> arena_create ());
          sp_resp = Array.init shards (fun _ -> arena_create ());
          sp_leads = Rings.create ~rings ~cap:Strategy.lead_capacity;
          sp_recent = Rings.create ~rings ~cap:Strategy.recent_capacity;
          sp_infected = 0;
          sp_live = 0;
          sp_frozen = 0;
          sp_messages = 0;
          sp_pushes = 0;
          sp_requests = 0;
          sp_duplicates = 0;
          sp_lost = 0;
          sp_to_dead = 0;
        })
  in
  let s0 = Sharded.shard_of world source in
  let sh0 = sshards.(s0) in
  inf_set sh0 pos.(source);
  sh0.sp_infected <- 1;
  let m = match metrics with Some m -> m | None -> Sf_obs.Metrics.create () in
  {
    world;
    strategy;
    fanout;
    coverage_target;
    chance = Sharded.loss_rate world;
    shard_count = shards;
    sshards;
    pos;
    g_coverage = Sf_obs.Metrics.gauge m "spread_coverage";
    rounds = 0;
    cov_rev = [];
    half_at = None;
    target_at = None;
  }

(* One uniformly random non-self id from [u]'s current view, or [-1]:
   the two-pass scan of [Sampling.sample], run inside the unit that owns
   the packed store.  A successful draw consumes exactly one [Rng.int]; a
   [-1] result consumes none. *)
let sample_view t rng u = VFlat.sample_id (Sharded.store t.world) u rng

(* The per-message verdict, judged at send time with the sending shard's
   RNG: destination crash window, partition window (both round-stable
   world queries, safe from any domain), then the loss process. *)
let judge t sh ~src ~dst =
  sh.sp_messages <- sh.sp_messages + 1;
  if Sharded.is_crashed t.world dst then begin
    sh.sp_lost <- sh.sp_lost + 1;
    false
  end
  else if Sharded.partitioned t.world ~src ~dst then begin
    sh.sp_lost <- sh.sp_lost + 1;
    false
  end
  else begin
    let dropped =
      match sh.sp_loss with
      | Some chain -> Loss.drop chain sh.sp_rng ~chance:t.chance ~src ~dst
      | None -> t.chance > 0. && Rng.bernoulli sh.sp_rng t.chance
    in
    if dropped then begin
      sh.sp_lost <- sh.sp_lost + 1;
      false
    end
    else true
  end

let dst_shard t dst = Sharded.shard_of t.world dst

(* Direct-ring accessors: ring [p] of the shard's banks. *)
let recent_mem sh p v = Rings.mem sh.sp_recent p v
let recent_add sh p v = if not (recent_mem sh p v) then Rings.add sh.sp_recent p v
let lead_mem sh p v = Rings.mem sh.sp_leads p v

let lead_push sh p v =
  if not (lead_mem sh p v) && not (recent_mem sh p v) then Rings.add sh.sp_leads p v

let lead_pop sh p = Rings.pop sh.sp_leads p

let lead_reset sh p =
  Rings.reset sh.sp_leads p;
  Rings.reset sh.sp_recent p

let emit_push t sh u =
  for _ = 1 to t.fanout do
    let dst = sample_view t sh.sp_rng u in
    if dst >= 0 then begin
      sh.sp_pushes <- sh.sp_pushes + 1;
      if judge t sh ~src:u ~dst then
        arena_push sh.sp_out.(dst_shard t dst) ~dst ~src:u ~carried:(-1)
    end
  done

let emit_requests t sh u =
  for _ = 1 to t.fanout do
    let dst = sample_view t sh.sp_rng u in
    if dst >= 0 then begin
      sh.sp_requests <- sh.sp_requests + 1;
      if judge t sh ~src:u ~dst then
        arena_push sh.sp_req.(dst_shard t dst) ~dst ~src:u ~carried:(-1)
    end
  done

let direct_send t sh u dst =
  (* Rumor messages carry one freshly sampled view address; receivers
     absorb it as a lead, letting the frontier outrun the views. *)
  let c = sample_view t sh.sp_rng u in
  let carried = if c >= 0 && c <> dst then c else -1 in
  sh.sp_pushes <- sh.sp_pushes + 1;
  if judge t sh ~src:u ~dst then
    arena_push sh.sp_out.(dst_shard t dst) ~dst ~src:u ~carried

let emit_direct t sh u p =
  let budget = ref t.fanout in
  (* Learned addresses first: direct contacts, possibly outside the
     current view.  Stale leads (already contacted) cost no budget. *)
  let exhausted = ref false in
  while !budget > 0 && not !exhausted do
    let v = lead_pop sh p in
    if v < 0 then exhausted := true
    else if v <> u && not (recent_mem sh p v) then begin
      recent_add sh p v;
      direct_send t sh u v;
      decr budget
    end
  done;
  (* Fill the remainder from the live view; an attempt landing on a
     recently contacted peer is throttled (consumes the attempt). *)
  for _ = 1 to !budget do
    let v = sample_view t sh.sp_rng u in
    if v >= 0 && not (recent_mem sh p v) then begin
      recent_add sh p v;
      direct_send t sh u v
    end
  done

(* Phase I: census, clear infections of slots that died in this round's
   churn, and emit this round's messages.  Infection status is read from
   the shard's own bitmap as it stood at round start (deliveries only
   land in phase II), so the classification is a round-start snapshot by
   construction — no copy needed. *)
let generate t sh =
  Array.iter arena_clear sh.sp_out;
  Array.iter arena_clear sh.sp_req;
  Array.iter arena_clear sh.sp_resp;
  sh.sp_live <- 0;
  sh.sp_frozen <- 0;
  let world = t.world in
  let olen = Array.length sh.sp_owned in
  for p = 0 to olen - 1 do
    let u = sh.sp_owned.(p) in
    if not (Sharded.is_live world u) then begin
      if inf_get sh p then begin
        inf_clear sh p;
        sh.sp_infected <- sh.sp_infected - 1;
        (* A reincarnated slot must start unlearned too. *)
        if t.strategy = Strategy.Direct then lead_reset sh p
      end
    end
    else begin
      sh.sp_live <- sh.sp_live + 1;
      if Sharded.is_crashed world u then sh.sp_frozen <- sh.sp_frozen + 1
      else begin
        let informed = inf_get sh p in
        match t.strategy with
        | Strategy.Push -> if informed then emit_push t sh u
        | Strategy.Push_pull ->
          if informed then emit_push t sh u else emit_requests t sh u
        | Strategy.Direct -> if informed then emit_direct t sh u p
      end
    end
  done

(* Phase II: drain the rumor rows addressed to this shard — source
   shards in index order, rows in generation order — then answer the
   pull requests (push-pull), judging each response with this (the
   responder's) shard's RNG. *)
let deliver t i sh =
  let world = t.world in
  for src_shard = 0 to t.shard_count - 1 do
    let a = t.sshards.(src_shard).sp_out.(i) in
    let rows = a.len / fields in
    for r = 0 to rows - 1 do
      let base = r * fields in
      let dst = a.buf.(base) in
      let src = a.buf.(base + 1) in
      let carried = a.buf.(base + 2) in
      if not (Sharded.is_live world dst) then
        sh.sp_to_dead <- sh.sp_to_dead + 1
      else begin
        let p = t.pos.(dst) in
        if inf_get sh p then sh.sp_duplicates <- sh.sp_duplicates + 1
        else begin
          inf_set sh p;
          sh.sp_infected <- sh.sp_infected + 1
        end;
        if t.strategy = Strategy.Direct then begin
          (* The sender is informed: never contact it back. *)
          recent_add sh p src;
          if carried >= 0 && carried <> dst then lead_push sh p carried
        end
      end
    done
  done;
  if t.strategy = Strategy.Push_pull then
    for src_shard = 0 to t.shard_count - 1 do
      let a = t.sshards.(src_shard).sp_req.(i) in
      let rows = a.len / fields in
      for r = 0 to rows - 1 do
        let base = r * fields in
        let responder = a.buf.(base) in
        let requester = a.buf.(base + 1) in
        if not (Sharded.is_live world responder) then
          sh.sp_to_dead <- sh.sp_to_dead + 1
        else if inf_get sh t.pos.(responder) then begin
          sh.sp_pushes <- sh.sp_pushes + 1;
          if judge t sh ~src:responder ~dst:requester then
            arena_push
              sh.sp_resp.(dst_shard t requester)
              ~dst:requester ~src:responder ~carried:(-1)
        end
      done
    done

(* Phase III (push-pull only): drain the response rows. *)
let deliver_responses t i sh =
  let world = t.world in
  for src_shard = 0 to t.shard_count - 1 do
    let a = t.sshards.(src_shard).sp_resp.(i) in
    let rows = a.len / fields in
    for r = 0 to rows - 1 do
      let base = r * fields in
      let dst = a.buf.(base) in
      if not (Sharded.is_live world dst) then
        sh.sp_to_dead <- sh.sp_to_dead + 1
      else begin
        let p = t.pos.(dst) in
        if inf_get sh p then sh.sp_duplicates <- sh.sp_duplicates + 1
        else begin
          inf_set sh p;
          sh.sp_infected <- sh.sp_infected + 1
        end
      end
    done
  done

let infected_count t =
  Array.fold_left (fun acc sh -> acc + sh.sp_infected) 0 t.sshards

let coverage_now t =
  match t.cov_rev with [] -> 0. | f :: _ -> f

let run_round t ~domains =
  Sharded.run_round t.world ~domains;
  Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
      generate t t.sshards.(i));
  Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
      deliver t i t.sshards.(i));
  if t.strategy = Strategy.Push_pull then
    Sf_engine.Par.run ~domains ~tasks:t.shard_count (fun i ->
        deliver_responses t i t.sshards.(i));
  t.rounds <- t.rounds + 1;
  let live = ref 0 and frozen = ref 0 in
  Array.iter
    (fun sh ->
      live := !live + sh.sp_live;
      frozen := !frozen + sh.sp_frozen)
    t.sshards;
  let f =
    Float.min 1.
      (float_of_int (infected_count t)
      /. float_of_int (max 1 (!live - !frozen)))
  in
  t.cov_rev <- f :: t.cov_rev;
  Sf_obs.Metrics.set t.g_coverage f;
  if t.half_at = None && f >= 0.5 then t.half_at <- Some t.rounds;
  if t.target_at = None && f >= t.coverage_target then
    t.target_at <- Some t.rounds

let report t =
  let messages = ref 0
  and pushes = ref 0
  and requests = ref 0
  and duplicates = ref 0
  and lost = ref 0
  and to_dead = ref 0 in
  Array.iter
    (fun sh ->
      messages := !messages + sh.sp_messages;
      pushes := !pushes + sh.sp_pushes;
      requests := !requests + sh.sp_requests;
      duplicates := !duplicates + sh.sp_duplicates;
      lost := !lost + sh.sp_lost;
      to_dead := !to_dead + sh.sp_to_dead)
    t.sshards;
  {
    Report.strategy = t.strategy;
    fanout = t.fanout;
    rounds = t.rounds;
    rounds_to_half = t.half_at;
    rounds_to_target = t.target_at;
    coverage = Array.of_list (List.rev t.cov_rev);
    messages = !messages;
    pushes = !pushes;
    requests = !requests;
    duplicates = !duplicates;
    lost = !lost;
    to_dead = !to_dead;
  }

let run ?(max_rounds = 200) ~domains t =
  while t.target_at = None && t.rounds < max_rounds do
    run_round t ~domains
  done;
  report t

let world t = t.world
let rounds t = t.rounds
let reached t = t.target_at <> None

(* Bit-for-bit engine equality: the membership worlds (the sharded
   runner's own oracle) plus every piece of spread state — infection
   bitmaps and counts, per-shard counters, Direct rings, loss-chain
   positions, coverage history and milestone rounds. *)
let equal a b =
  Sharded.equal a.world b.world
  && a.strategy = b.strategy && a.fanout = b.fanout
  && a.rounds = b.rounds
  && a.cov_rev = b.cov_rev
  && a.half_at = b.half_at && a.target_at = b.target_at
  && Array.length a.sshards = Array.length b.sshards
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      let y = b.sshards.(i) in
      if
        not
          (Bytes.equal x.sp_inf y.sp_inf
          && x.sp_infected = y.sp_infected
          && x.sp_live = y.sp_live && x.sp_frozen = y.sp_frozen
          && x.sp_messages = y.sp_messages
          && x.sp_pushes = y.sp_pushes
          && x.sp_requests = y.sp_requests
          && x.sp_duplicates = y.sp_duplicates
          && x.sp_lost = y.sp_lost && x.sp_to_dead = y.sp_to_dead
          && Rings.equal x.sp_leads y.sp_leads
          && Rings.equal x.sp_recent y.sp_recent
          && (match (x.sp_loss, y.sp_loss) with
             | None, None -> true
             | Some lx, Some ly -> Loss.in_burst lx = Loss.in_burst ly
             | _ -> false))
      then ok := false)
    a.sshards;
  !ok
