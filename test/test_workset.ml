(* The PR-1 rewrite contract: the array-backed {!Rt_learn.Workset} and
   the learner on top of it must be observably indistinguishable from the
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
  Alcotest.(check bool) "victims dropped from index" false (W.mem t h1)

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
  Alcotest.(check bool) "index emptied" false (W.mem t h1);
  W.insert t h3;
  Alcotest.(check (list hyp)) "reusable" [ h3 ] (W.to_list t)

let test_of_list () =
  let t = W.of_list ~bound:4 [ h3; h1; h2 ] in
  Alcotest.(check (list hyp)) "canonically sorted" [ h1; h2; h3 ] (W.to_list t);
  Alcotest.(check bool) "indexed" true (W.mem t h2)

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

(* --- representation auto-selection (the measured crossover) --- *)

let test_crossover_selection () =
  Alcotest.(check bool) "crossover bound is positive" true
    (W.crossover_bound > 1);
  Alcotest.(check bool) "small bound -> seed list" true
    (W.uses_list_repr (W.create ~bound:1));
  Alcotest.(check bool) "just below crossover -> seed list" true
    (W.uses_list_repr (W.create ~bound:(W.crossover_bound - 1)));
  Alcotest.(check bool) "at crossover -> array" false
    (W.uses_list_repr (W.create ~bound:W.crossover_bound));
  Alcotest.(check bool) "large bound -> array" false
    (W.uses_list_repr (W.create ~bound:150));
  Alcotest.(check bool) "forced list stays list" true
    (W.uses_list_repr (W.create_with ~repr:`List ~bound:150));
  Alcotest.(check bool) "forced array stays array" false
    (W.uses_list_repr (W.create_with ~repr:`Array ~bound:1))

(* Both representations, driven through the same insert/extract
   sequence, must agree on every observation — the auto-selection can
   never change results, only constants. *)
let qc_repr_equivalence =
  Test_support.qcheck_case "list repr = array repr, op for op" ~count:100
    QCheck.(
      pair
        (small_list (small_list (pair (int_range 0 4) (int_range 0 4))))
        (int_range 0 2))
    (fun (pairlists, pol_ix) ->
       let policy =
         [| W.Lightest_pair; W.Heaviest_pair; W.First_last |].(pol_ix)
       in
       let drive repr =
         let t = W.create_with ~repr ~bound:1000 in
         let kept = List.map (fun h -> W.add t h) (List.map (mk 5) pairlists) in
         let extracted =
           if W.length t >= 2 then Some (W.extract_pair t policy) else None
         in
         (kept, extracted, W.to_list t, W.length t)
       in
       drive `List = drive `Array)

(* --- the headline property: learner equivalence with the seed --- *)

let policies = [| H.Lightest_pair; H.Heaviest_pair; H.First_last |]

let same_outcome (a : H.outcome) (b : H.outcome) =
  List.length a.hypotheses = List.length b.hypotheses
  && List.for_all2 Df.equal a.hypotheses b.hypotheses
  && a.stats = b.stats

let qc_equivalence =
  Test_support.qcheck_case
    "heuristic(workset) = reference(seed list): D*, victims, stats" ~count:60
    QCheck.(triple (int_range 0 11) (int_range 0 2) (int_range 1 24))
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
        [ 1; 2; 3; 8; 64 ])
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
          Alcotest.test_case "of_list" `Quick test_of_list;
          qc_canonical_order;
        ] );
      ( "representation",
        [
          Alcotest.test_case "crossover auto-selection" `Quick
            test_crossover_selection;
          qc_repr_equivalence;
        ] );
      ( "equivalence",
        [
          qc_equivalence;
          Alcotest.test_case "all policies, merge-heavy bounds" `Quick
            test_equivalence_all_policies;
        ] );
    ]
