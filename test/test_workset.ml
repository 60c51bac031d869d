(* The working-set contract: the array-backed {!Rt_learn.Workset} must
   behave op for op like a plain list sorted by [canonical], and the
   learner on top of it must be observably indistinguishable from the
   seed's sorted-list implementation (kept verbatim as
   {!Rt_learn.Reference}) — same dedup decisions, same eviction victims,
   same merge counts, same final D* — for every merge policy and bound.
   The perf work is only legitimate because these properties hold. *)

module W = Rt_learn.Workset
module Hy = Rt_learn.Hypothesis
module H = Rt_learn.Heuristic
module R = Rt_learn.Reference
module Df = Rt_lattice.Depfun

let hyp : Hy.t Alcotest.testable =
  Alcotest.testable (Hy.pp ?names:None) (fun a b -> Hy.compare_full a b = 0)

(* Distinct fixtures: each [generalize_message] step joins a Fwd and a
   Bwd cell, so the weight grows by 2 per fresh pair. *)
let mk n pairs =
  List.fold_left
    (fun h (s, r) ->
       if s = r then h
       else
         match Hy.generalize_message h ~sender:s ~receiver:r with
         | Some h' -> h'
         | None -> h)
    (Hy.bottom n) pairs

let h1 = mk 5 [ (0, 1) ]                    (* weight 2 *)
let h2 = mk 5 [ (0, 1); (2, 3) ]            (* weight 4 *)
let h3 = mk 5 [ (0, 1); (2, 3); (1, 4) ]    (* weight 6 *)

let filled () =
  let t = W.create ~bound:10 in
  List.iter (W.insert t) [ h2; h3; h1 ];
  t

let test_sorted_ascending () =
  let t = filled () in
  Alcotest.(check int) "length" 3 (W.length t);
  Alcotest.(check (list hyp)) "to_list lightest first" [ h1; h2; h3 ]
    (W.to_list t);
  Alcotest.(check (array hyp)) "to_array agrees" [| h1; h2; h3 |]
    (W.to_array t)

let test_dedup () =
  let t = filled () in
  Alcotest.(check bool) "mem" true (W.mem t h2);
  Alcotest.(check bool) "add duplicate refused" false (W.add t h2);
  Alcotest.(check int) "length unchanged" 3 (W.length t);
  Alcotest.check_raises "insert duplicate raises"
    (Invalid_argument "Workset.insert: duplicate hypothesis")
    (fun () -> W.insert t h2);
  Alcotest.(check bool) "fresh element accepted" true
    (W.add t (mk 5 [ (3, 4) ]))

let test_extract_lightest () =
  let t = filled () in
  let a, b = W.extract_pair t W.Lightest_pair in
  Alcotest.(check hyp) "lightest first" h1 a;
  Alcotest.(check hyp) "second lightest" h2 b;
  Alcotest.(check (list hyp)) "rest" [ h3 ] (W.to_list t);
  Alcotest.(check bool) "victims no longer members" false (W.mem t h1)

let test_extract_heaviest () =
  let t = filled () in
  let a, b = W.extract_pair t W.Heaviest_pair in
  Alcotest.(check hyp) "heaviest first" h3 a;
  Alcotest.(check hyp) "second heaviest" h2 b;
  Alcotest.(check (list hyp)) "rest" [ h1 ] (W.to_list t)

let test_extract_first_last () =
  let t = filled () in
  let a, b = W.extract_pair t W.First_last in
  Alcotest.(check hyp) "lightest" h1 a;
  Alcotest.(check hyp) "heaviest" h3 b;
  Alcotest.(check (list hyp)) "rest" [ h2 ] (W.to_list t)

let test_extract_underflow () =
  let t = W.create ~bound:4 in
  W.insert t h1;
  Alcotest.check_raises "needs two elements"
    (Invalid_argument "Workset.extract_pair: fewer than 2 elements")
    (fun () -> ignore (W.extract_pair t W.Lightest_pair))

let test_clear_reuse () =
  let t = filled () in
  W.clear t;
  Alcotest.(check int) "emptied" 0 (W.length t);
  Alcotest.(check bool) "cleared set has no members" false (W.mem t h1);
  W.insert t h3;
  Alcotest.(check (list hyp)) "reusable" [ h3 ] (W.to_list t)

(* Inserting any bag of generated hypotheses leaves exactly the
   first-occurrence representatives, in canonical order. *)
let qc_canonical_order =
  Test_support.qcheck_case "to_list = sort canonical (dedup kept)" ~count:200
    QCheck.(small_list (small_list (pair (int_range 0 4) (int_range 0 4))))
    (fun pairlists ->
       let hs = List.map (mk 5) pairlists in
       let t = W.create ~bound:1000 in
       let kept = List.filter (W.add t) hs in
       W.to_list t = List.sort W.canonical kept)

(* --- the one representation against a sorted-list model --- *)

type op =
  | Add of (int * int) list * (int * int) list option
      (* the fixture of the first pair list, joined with the second's *)
  | Extract
  | Clear

let policy_name = function
  | W.Lightest_pair -> "lightest" | W.Heaviest_pair -> "heaviest"
  | W.First_last -> "first-last"

let print_op =
  let pairs = QCheck.Print.(list (pair int int)) in
  function
  | Add (p, q) -> "add " ^ pairs p ^ QCheck.Print.option pairs q
  | Extract -> "extract"
  | Clear -> "clear"

let arb_ops =
  let open QCheck.Gen in
  let pairs = small_list (pair (int_range 0 4) (int_range 0 4)) in
  let op =
    frequency
      [ (6, map2 (fun p q -> Add (p, q)) pairs (opt pairs));
        (2, return Extract);
        (1, return Clear) ]
  in
  QCheck.make
    ~print:(fun (pol, bound, ops) ->
        Printf.sprintf "%s, bound %d: %s" (policy_name pol) bound
          (String.concat "; " (List.map print_op ops)))
    (triple
       (oneofl [ W.Lightest_pair; W.Heaviest_pair; W.First_last ])
       (oneofl [ 1; 2; 1000 ])
       (list_size (int_range 0 60) op))

(* The model: a list sorted ascending by [canonical]; victims are taken
   from its ends as the policy says. *)
let model_extract policy l =
  let n = List.length l in
  let nth = List.nth l in
  let keep lo hi = List.filteri (fun i _ -> i >= lo && i < hi) l in
  match policy with
  | W.Lightest_pair -> ((nth 0, nth 1), keep 2 n)
  | W.Heaviest_pair -> ((nth (n - 1), nth (n - 2)), keep 0 (n - 2))
  | W.First_last -> ((nth 0, nth (n - 1)), keep 1 (n - 1))

(* Every [add] result, both victims, [to_list], [to_array], [length] and
   [mem] agree with the model after every op. At bounds 1 and 2 the set
   outgrows its first allocation, which exercises the growth path. The
   stored hypotheses must be the first-added representatives, so lists
   are compared physically. *)
let qc_model =
  Test_support.qcheck_case "ops match a sorted-list model" ~count:300 arb_ops
    (fun (policy, bound, ops) ->
       let t = W.create ~bound in
       let same = List.equal ( == ) in
       let step model op =
         let model, ok =
           match op with
           | Add (p, q) ->
             let h = mk 5 p in
             let h =
               match q with Some q -> Hy.merge_lub h (mk 5 q) | None -> h
             in
             let fresh =
               not (List.exists (fun h' -> W.canonical h h' = 0) model)
             in
             let model =
               if fresh then List.sort W.canonical (h :: model) else model
             in
             (model, W.add t h = fresh && W.mem t h)
           | Extract when List.length model < 2 ->
             (model,
              match W.extract_pair t policy with
              | _ -> false
              | exception Invalid_argument _ -> true)
           | Extract ->
             let (ma, mb), rest = model_extract policy model in
             let a, b = W.extract_pair t policy in
             (rest, a == ma && b == mb && not (W.mem t a || W.mem t b))
           | Clear -> W.clear t; ([], true)
         in
         ( model,
           ok
           && W.length t = List.length model
           && same (W.to_list t) model
           && same (Array.to_list (W.to_array t)) model
           && List.for_all (W.mem t) model )
       in
       let rec go model = function
         | [] -> true
         | op :: ops ->
           let model, ok = step model op in
           ok && go model ops
       in
       go [] ops)

(* --- the headline property: learner equivalence with the seed --- *)

let policies = [| H.Lightest_pair; H.Heaviest_pair; H.First_last |]

let same_outcome (a : H.outcome) (b : H.outcome) =
  List.length a.hypotheses = List.length b.hypotheses
  && List.for_all2 Df.equal a.hypotheses b.hypotheses
  && a.stats = b.stats

let qc_equivalence =
  Test_support.qcheck_case
    "heuristic(workset) = reference(seed list): D*, victims, stats" ~count:60
    QCheck.(
      triple (int_range 0 11) (int_range 0 2)
        (frequency [ (3, int_range 1 24); (1, oneofl [ 63; 64; 150 ]) ]))
    (fun (seed, pol_ix, bound) ->
       let trace =
         Test_support.simulate ~periods:6 ~seed (Test_support.small_design seed)
       in
       let policy = policies.(pol_ix) in
       same_outcome
         (H.run ~policy ~bound trace)
         (R.run ~policy ~bound trace))

(* Fixed-seed smoke of the same property on every policy at a bound that
   forces heavy merging, so a qcheck distribution quirk can never skip
   the interesting regime. *)
let test_equivalence_all_policies () =
  let trace = Test_support.simulate ~periods:8 ~seed:5 (Test_support.small_design 5) in
  Array.iter (fun policy ->
      List.iter (fun bound ->
          Alcotest.(check bool) "same outcome" true
            (same_outcome
               (H.run ~policy ~bound trace)
               (R.run ~policy ~bound trace)))
        [ 1; 2; 3; 8; 64; 150 ])
    policies

let () =
  Alcotest.run "workset"
    [
      ( "structure",
        [
          Alcotest.test_case "sorted ascending" `Quick test_sorted_ascending;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "extract lightest pair" `Quick test_extract_lightest;
          Alcotest.test_case "extract heaviest pair" `Quick test_extract_heaviest;
          Alcotest.test_case "extract first+last" `Quick test_extract_first_last;
          Alcotest.test_case "extract underflow" `Quick test_extract_underflow;
          Alcotest.test_case "clear and reuse" `Quick test_clear_reuse;
          qc_canonical_order;
        ] );
      ("representation", [ qc_model ]);
      ( "equivalence",
        [
          qc_equivalence;
          Alcotest.test_case "all policies, merge-heavy bounds" `Quick
            test_equivalence_all_policies;
        ] );
    ]
