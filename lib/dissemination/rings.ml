(* Fixed-capacity id rings for the Direct strategy: a [leads] ring of
   learned, not-yet-contacted addresses and a [recent] ring of recently
   contacted / known-informed ids (the repeat-contact throttle).  Both
   engines share this layout: the sequential engine keeps a bank of one
   ring per node, the flat engine one bank per shard with a ring per
   owned slot, so sequential and flat runs of one workload learn
   identically.

   A bank of [k] rings of capacity [cap] is two flat arrays: ring [r]'s
   cells are [cells.(r * cap) .. cells.(r * cap + cap - 1)] and its head
   and length are [cursors.(2 * r)] and [cursors.(2 * r + 1)].  Every
   operation updates the bank in place, so none allocates.

   Capacities are small constants ({!Strategy.lead_capacity},
   {!Strategy.recent_capacity}); membership scans are linear over the
   occupied prefix.  Empty cells hold [-1]; ids are non-negative. *)

type t = { cap : int; cells : int array; cursors : int array }

let create ~rings ~cap =
  { cap; cells = Array.make (rings * cap) (-1); cursors = Array.make (2 * rings) 0 }

let mem b r v =
  let off = r * b.cap and head = b.cursors.(2 * r) in
  let found = ref false in
  for i = 0 to b.cursors.((2 * r) + 1) - 1 do
    if b.cells.(off + ((head + i) mod b.cap)) = v then found := true
  done;
  !found

(* Append [v]; when full, overwrite the oldest cell and advance the head.
   Callers check {!mem} first. *)
let add b r v =
  let off = r * b.cap and head = b.cursors.(2 * r) and len = b.cursors.((2 * r) + 1) in
  if len < b.cap then begin
    b.cells.(off + ((head + len) mod b.cap)) <- v;
    b.cursors.((2 * r) + 1) <- len + 1
  end
  else begin
    b.cells.(off + head) <- v;
    b.cursors.(2 * r) <- (head + 1) mod b.cap
  end

(* Pop the oldest element, or [-1] when empty. *)
let pop b r =
  let len = b.cursors.((2 * r) + 1) in
  if len = 0 then -1
  else begin
    let off = r * b.cap and head = b.cursors.(2 * r) in
    let v = b.cells.(off + head) in
    b.cells.(off + head) <- -1;
    b.cursors.(2 * r) <- (head + 1) mod b.cap;
    b.cursors.((2 * r) + 1) <- len - 1;
    v
  end

let reset b r =
  Array.fill b.cells (r * b.cap) b.cap (-1);
  b.cursors.(2 * r) <- 0;
  b.cursors.((2 * r) + 1) <- 0

let equal a b = a.cap = b.cap && a.cells = b.cells && a.cursors = b.cursors
