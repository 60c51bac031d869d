module Dv = Rt_lattice.Depval
module Df = Rt_lattice.Depfun

type t = {
  dep : Df.t;
  mutable weight : int;
  mutable hash : int;
  mutable a_hash : int;  (* order-independent hash of the assumption set *)
  mutable assumptions : (int * int) list;
}

(* A structural hash of the matrix, maintained incrementally on every
   cell mutation so set-membership tests almost never fall back to the
   O(n²) matrix comparison. Each cell position gets a fixed mixing
   weight; the hash is the sum of [position_weight * value_code]. *)
let position_weight n a b = (((a * n) + b + 1) * 0x9E3779B1) land max_int

let value_code = function
  | Dv.Par -> 1
  | Dv.Fwd -> 2
  | Dv.Bwd -> 3
  | Dv.Bi -> 4
  | Dv.Fwd_maybe -> 5
  | Dv.Bwd_maybe -> 6
  | Dv.Bi_maybe -> 7

(* Flat per-size mixing-weight table: entry [a * n + b] is
   [position_weight n a b], zeroed on the diagonal so a whole-matrix sum
   over the flat cell array equals the off-diagonal-only definition above
   (the diagonal is pinned to [Par] anyway). The cache is domain-local:
   whole learner runs may execute on pool domains (e.g. the benchmark's
   bound sweep), and a shared [Hashtbl] would race; one tiny table per
   domain costs nothing and needs no lock. *)
let pw_cache_key : (int, int array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let position_weights n =
  let cache = Domain.DLS.get pw_cache_key in
  match Hashtbl.find_opt cache n with
  | Some a -> a
  | None ->
    let a =
      Array.init (n * n) (fun i ->
          if i mod (n + 1) = 0 then 0
          else ((i + 1) * 0x9E3779B1) land max_int)
    in
    Hashtbl.add cache n a;
    a

(* [value_code v = Depval.index v + 1], so a matrix byte codes straight
   into the hash. *)
let full_hash d =
  let cells = Df.cells d in
  let pw = position_weights (Df.size d) in
  let h = ref 0 in
  for i = 0 to Bytes.length cells - 1 do
    h := !h + (Array.unsafe_get pw i * (Char.code (Bytes.unsafe_get cells i) + 1))
  done;
  !h land max_int

(* Assumption sets are duplicate-free, so a commutative sum of per-pair
   mixes hashes the set independently of insertion order. *)
let pair_mix (s, r) = (((s * 8191) + r + 1) * 0x9E3779B1) land max_int

let assumptions_hash l =
  List.fold_left (fun acc pair -> (acc + pair_mix pair) land max_int) 0 l

let bottom n =
  let dep = Df.create n in
  { dep; weight = 0; hash = full_hash dep; a_hash = 0; assumptions = [] }

let of_depfun d =
  let dep = Df.copy d in
  { dep; weight = Df.weight dep; hash = full_hash dep; a_hash = 0; assumptions = [] }

let depfun h = h.dep

let weight h = h.weight

let assumptions h = h.assumptions

let assumed h s r = List.mem (s, r) h.assumptions

(* Mutate cell (a,b), keeping the cached weight and hash exact. *)
let update_cell h a b old v' =
  Df.set h.dep a b v';
  h.weight <- h.weight - Dv.distance old + Dv.distance v';
  let pw = position_weight (Df.size h.dep) a b in
  h.hash <- (h.hash + (pw * (value_code v' - value_code old))) land max_int

let join_cell h a b v =
  let old = Df.get h.dep a b in
  let v' = Dv.join old v in
  if not (Dv.equal v' old) then update_cell h a b old v'

(* Assumption lists are kept sorted so that hypotheses with identical
   matrices and identical assumption sets compare equal and can be
   unified mid-period. *)
let insert_sorted p l =
  let rec go = function
    | [] -> [ p ]
    | q :: rest as all -> if p <= q then p :: all else q :: go rest
  in
  go l

let generalize_message h ~sender ~receiver =
  if sender = receiver then invalid_arg "Hypothesis.generalize_message: sender = receiver";
  if assumed h sender receiver then None
  else begin
    let h' =
      { dep = Df.copy h.dep;
        weight = h.weight;
        hash = h.hash;
        a_hash = (h.a_hash + pair_mix (sender, receiver)) land max_int;
        assumptions = insert_sorted (sender, receiver) h.assumptions }
    in
    join_cell h' sender receiver Dv.Fwd;
    join_cell h' receiver sender Dv.Bwd;
    Some h'
  end

let weaken_violations_count h ~violated =
  let n = ref 0 in
  Df.iter_pairs (fun a b v ->
      if Dv.is_definite v && violated.(a).(b) then begin
        update_cell h a b v (Dv.weaken v);
        incr n
      end)
    h.dep;
  !n

let weaken_violations h ~violated = ignore (weaken_violations_count h ~violated)

let clear_assumptions h =
  h.assumptions <- [];
  h.a_hash <- 0

(* Merged assumptions are the intersection: a pair only stays blocked if
   both parents used it. Union would starve later messages of candidates
   and kill the merged hypothesis, losing the soundness the heuristic
   promises; intersection can at worst re-join evidence for a pair, which
   is idempotent and only makes the result more general. *)
(* The single hottest operation of the bounded learner: at bound b it
   runs once per forced merge, which is nearly once per generated child.
   Joined cells, the Definition-8 weight and the structural hash are all
   produced in one pass over the flat cell arrays (the separate
   join/weight/hash passes of the naive version tripled the memory
   traffic); the resulting hash is bit-identical to [full_hash]. *)
let join_ix = Dv.join_ix_tbl
let dist_ix = Dv.dist_ix_tbl

let merge_lub h1 h2 =
  let n = Df.size h1.dep in
  if Df.size h2.dep <> n then invalid_arg "Hypothesis.merge_lub: size mismatch";
  let dep = Df.create n in
  let c1 = Df.cells h1.dep and c2 = Df.cells h2.dep and c = Df.cells dep in
  let pw = position_weights n in
  let w = ref 0 and h = ref 0 in
  for i = 0 to (n * n) - 1 do
    let j =
      Array.unsafe_get join_ix
        (((Char.code (Bytes.unsafe_get c1 i)) * 7)
         + Char.code (Bytes.unsafe_get c2 i))
    in
    Bytes.unsafe_set c i (Char.unsafe_chr j);
    w := !w + Array.unsafe_get dist_ix j;
    h := !h + (Array.unsafe_get pw i * (j + 1))
  done;
  let inter = List.filter (fun p -> List.mem p h2.assumptions) h1.assumptions in
  { dep; weight = !w; hash = !h land max_int;
    a_hash = assumptions_hash inter; assumptions = inter }

let equal h1 h2 = Df.equal h1.dep h2.dep

let compare h1 h2 = Df.compare h1.dep h2.dep

let hash h = h.hash

let compare_assumption (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let compare_full h1 h2 =
  let c = Int.compare h1.hash h2.hash in
  if c <> 0 then c
  else
    let c = Int.compare h1.a_hash h2.a_hash in
    if c <> 0 then c
    else
      let c = Df.compare h1.dep h2.dep in
      if c <> 0 then c
      else List.compare compare_assumption h1.assumptions h2.assumptions

let leq h1 h2 = Df.leq h1.dep h2.dep

let pp ?names ppf h = Df.pp ?names ppf h.dep
