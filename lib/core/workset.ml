type victim_policy = Lightest_pair | Heaviest_pair | First_last

(* Canonical ascending order: weight first, then the structural order.
   Total on distinct hypotheses: [compare_full] = 0 only for duplicates,
   so the binary search that finds a slot also finds a duplicate. *)
let canonical h h' =
  let c = Int.compare (Hypothesis.weight h) (Hypothesis.weight h') in
  if c <> 0 then c else Hypothesis.compare_full h h'

type t = {
  bound : int;
  (* Sorted descending under [canonical], so the default eviction
     (lightest pair) is a pop off the end. Empty until the first
     insertion (OCaml arrays need a witness element). *)
  mutable data : Hypothesis.t array;
  mutable len : int;
}

let create ~bound = { bound; data = [||]; len = 0 }

let length t = t.len

let clear t = t.len <- 0

(* Binary search of [data.(lo) .. data.(hi - 1)] (descending): the index
   of [h] if present, otherwise [-1 - slot], where [slot] is the smallest
   index whose element is canonically below [h]. *)
let rec search data h lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = canonical data.(mid) h in
    if c = 0 then mid
    else if c > 0 then search data h (mid + 1) hi
    else search data h lo mid

let mem t h = search t.data h 0 t.len >= 0

let ensure_capacity t h =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max (t.bound + 1) (max 4 (2 * cap)) in
    let nd = Array.make ncap h in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

(* One search is both the dedup test and the slot. The shift is a loop,
   not [Array.blit]: at small bounds it moves a slot or two, and the loop
   saves a C call on the learner's per-child hot path. *)
let add t h =
  let i = search t.data h 0 t.len in
  if i >= 0 then false
  else begin
    let pos = -1 - i in
    ensure_capacity t h;
    let d = t.data in
    for j = t.len downto pos + 1 do d.(j) <- d.(j - 1) done;
    d.(pos) <- h;
    t.len <- t.len + 1;
    true
  end

let insert t h =
  if not (add t h) then invalid_arg "Workset.insert: duplicate hypothesis"

let extract_pair t policy =
  if t.len < 2 then invalid_arg "Workset.extract_pair: fewer than 2 elements";
  let d = t.data and n = t.len in
  t.len <- n - 2;
  match policy with
  | Lightest_pair ->
    (* Last two slots; no shifting. *)
    (d.(n - 1), d.(n - 2))
  | Heaviest_pair ->
    let a = d.(0) and b = d.(1) in
    Array.blit d 2 d 0 (n - 2);
    (a, b)
  | First_last ->
    let a = d.(n - 1) and z = d.(0) in
    Array.blit d 1 d 0 (n - 2);
    (a, z)

let to_list t =
  let acc = ref [] in
  for i = 0 to t.len - 1 do acc := t.data.(i) :: !acc done;
  !acc

let to_array t = Array.init t.len (fun i -> t.data.(t.len - 1 - i))
