(* The semantic checker (Rt_check): lattice-law self-audit, the lenient
   model reader, per-model and answer-set rules — each law-shaped rule
   cross-checked against an independent naive reference on random
   matrices — plus the broken-model fixtures with their exact rule
   ids. *)

module Dv = Rt_lattice.Depval
module Df = Rt_lattice.Depfun
module F = Rt_check.Finding
module Mc = Rt_check.Model_check

let has rule fs = List.exists (fun (f : F.t) -> f.rule = rule) fs

let rules_of fs =
  List.sort_uniq String.compare (List.map (fun (f : F.t) -> f.rule) fs)

let errors_of fs =
  List.filter (fun (f : F.t) -> f.severity = F.Error) fs

(* --- the lattice laws hold on this build --- *)

let test_laws () =
  Alcotest.(check (list string)) "no law violations" []
    (List.map (fun (f : F.t) -> f.message) (Mc.check_laws ()))

(* --- findings core --- *)

let test_rule_registry () =
  let ids = List.map (fun (r : F.rule_info) -> r.id) F.rules in
  Alcotest.(check int) "ids unique"
    (List.length (List.sort_uniq String.compare ids))
    (List.length ids);
  List.iter
    (fun id -> Alcotest.(check bool) id true (List.mem id ids))
    [ "RTL000"; "RTL001"; "RTL005"; "RTL999"; "RTC001"; "RTC101"; "RTC103";
      "RTC106"; "RTC201"; "RTC203" ];
  Alcotest.(check string) "lookup by id" "no-poly-compare"
    (F.rule_name "RTL002");
  Alcotest.(check string) "unknown id falls back" "XYZ999"
    (F.rule_name "XYZ999")

let test_exit_codes () =
  let module Ec = Rt_check.Exit_code in
  Alcotest.(check int) "ok wins nothing" Ec.findings
    (Ec.combine Ec.ok Ec.findings);
  Alcotest.(check int) "input error beats findings" Ec.input_error
    (Ec.combine Ec.findings Ec.input_error);
  Alcotest.(check int) "internal beats all" Ec.internal_error
    (Ec.combine Ec.internal_error Ec.input_error);
  let warning = F.v ~rule:"RTC102" ~severity:F.Warning "w" in
  let error = F.v ~rule:"RTC101" ~severity:F.Error "e" in
  Alcotest.(check int) "warnings exit 0" Ec.ok (F.exit_code [ warning ]);
  Alcotest.(check int) "errors exit 1" Ec.findings
    (F.exit_code [ warning; error ])

let test_renderers () =
  let f =
    F.v
      ~pos:(F.at ~file:"m.model" ~line:3 ~col:1)
      ~rule:"RTC101" ~severity:F.Error "diagonal broken"
  in
  let text = F.render ~tool:"t" ~format:F.Text [ f ] in
  Alcotest.(check bool) "text has position" true
    (Astring.String.is_infix ~affix:"m.model:3:1" text);
  let json = F.render ~tool:"t" ~format:F.Json_format [ f ] in
  Alcotest.(check bool) "json schema tag" true
    (Astring.String.is_infix ~affix:"\"schema\": \"rtgen-findings\"" json);
  let sarif = F.render ~tool:"t" ~format:F.Sarif [ f ] in
  Alcotest.(check bool) "sarif version" true
    (Astring.String.is_infix ~affix:"\"version\": \"2.1.0\"" sarif);
  Alcotest.(check bool) "sarif result ruleId" true
    (Astring.String.is_infix ~affix:"\"ruleId\": \"RTC101\"" sarif)

(* --- model reader --- *)

let test_parse_round_trip () =
  let d = Df.create 3 in
  Df.set d 0 1 Dv.Fwd;
  Df.set d 1 0 Dv.Bwd;
  Df.set d 1 2 Dv.Fwd_maybe;
  Df.set d 2 1 Dv.Bwd_maybe;
  let text = Df.to_string ~names:[| "A"; "B"; "C" |] d in
  match Mc.parse_model ~source:"<test>" text with
  | Error m -> Alcotest.fail m
  | Ok m ->
    (match Mc.to_depfun m with
     | None -> Alcotest.fail "diagonal lost in round trip"
     | Some d' -> Alcotest.(check bool) "round trip" true (Df.equal d d'))

let test_parse_rejects_garbage () =
  (match Mc.parse_model ~source:"<test>" "not a matrix\nat all\n" with
   | Ok _ -> Alcotest.fail "garbage accepted"
   | Error _ -> ());
  match Mc.parse_model ~source:"<test>" "" with
  | Ok _ -> Alcotest.fail "empty accepted"
  | Error m ->
    Alcotest.(check string) "empty message" "empty model file" m

(* --- random models: cycle rule vs. naive reference --- *)

let model_of_flat n flat =
  let cells =
    Array.init n (fun a ->
        Array.init n (fun b ->
            if a = b then Dv.Par else Dv.of_index flat.((a * n) + b)))
  in
  {
    Mc.source = "<random>";
    names = Array.init n (fun i -> Printf.sprintf "t%d" (i + 1));
    cells;
    row_lines = Array.make n 0;
  }

let gen_model =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    array_size (return (n * n)) (int_range 0 6) >>= fun flat ->
    return (model_of_flat n flat))

let print_model (m : Mc.model) =
  String.concat "\n"
    (Array.to_list
       (Array.map (fun row ->
            String.concat " "
              (Array.to_list (Array.map Dv.to_string row)))
          m.Mc.cells))

let arb_model = QCheck.make ~print:print_model gen_model

(* Reference: definite edges (a→b from →, b→a from ←; ↔ none), cycle
   by plain recursive DFS with a recursion stack. *)
let ref_has_cycle (m : Mc.model) =
  let n = Mc.size m in
  let adj = Array.make_matrix n n false in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        if Dv.equal m.Mc.cells.(a).(b) Dv.Fwd then adj.(a).(b) <- true;
        if Dv.equal m.Mc.cells.(a).(b) Dv.Bwd then adj.(b).(a) <- true
      end
    done
  done;
  let visited = Array.make n false and on_stack = Array.make n false in
  let found = ref false in
  let rec dfs v =
    visited.(v) <- true;
    on_stack.(v) <- true;
    for w = 0 to n - 1 do
      if adj.(v).(w) then
        if on_stack.(w) then found := true
        else if not visited.(w) then dfs w
    done;
    on_stack.(v) <- false
  in
  for v = 0 to n - 1 do
    if not visited.(v) then dfs v
  done;
  !found

let prop_cycle =
  QCheck.Test.make ~count:500 ~name:"RTC103 iff naive DFS finds a cycle"
    arb_model (fun m -> has "RTC103" (Mc.check_model m) = ref_has_cycle m)

(* --- random answer sets: minimality/duplicates vs. reference --- *)

let depfun_of_flat n flat =
  let d = Df.create n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then Df.set d a b (Dv.of_index flat.((a * n) + b))
    done
  done;
  d

let gen_answer_set =
  QCheck.Gen.(
    int_range 2 4 >>= fun n ->
    list_size (int_range 2 4)
      (array_size (return (n * n)) (int_range 0 6))
    >>= fun flats -> return (n, flats))

let arb_answer_set =
  QCheck.make
    ~print:(fun (n, flats) ->
      Printf.sprintf "%d tasks, %d hypotheses" n (List.length flats))
    gen_answer_set

let prop_answer_set =
  QCheck.Test.make ~count:300
    ~name:"RTC201/RTC202 iff naive pairwise comparison says so"
    arb_answer_set (fun (n, flats) ->
      let ds = List.map (depfun_of_flat n) flats in
      let models = List.map (fun d -> Mc.model_of_depfun d) ds in
      let fs = Mc.check_answer_set models in
      let dup = ref false and nonmin = ref false in
      List.iteri (fun i di ->
          List.iteri (fun j dj ->
              if i < j && Df.equal di dj then dup := true;
              if i <> j && Df.leq di dj && not (Df.equal di dj) then
                nonmin := true)
            ds)
        ds;
      has "RTC201" fs = !dup && has "RTC202" fs = !nonmin)

(* --- model vs. trace (RTC105 / RTC106) --- *)

let paper_trace = lazy (Rt_case.Paper_example.trace ())

let learned_model () =
  let trace = Lazy.force paper_trace in
  let o = Rt_learn.Exact.run trace in
  let lub = Df.lub o.Rt_learn.Exact.hypotheses in
  let names = Rt_task.Task_set.names trace.Rt_trace.Trace.task_set in
  (trace, Mc.model_of_depfun ~names lub)

let test_learned_model_conforms () =
  let trace, m = learned_model () in
  Alcotest.(check (list string)) "no errors against its own trace" []
    (List.map (fun (f : F.t) -> f.rule)
       (errors_of (Mc.check_against_trace m trace)));
  Alcotest.(check (list string)) "no per-model errors" []
    (List.map (fun (f : F.t) -> f.rule) (errors_of (Mc.check_model m)))

let test_trace_conformance_violation () =
  let trace, m = learned_model () in
  (* Forge a definite claim some period contradicts: a pair (a, b)
     where a ran without b. *)
  let periods = Rt_trace.Trace.periods trace in
  let n = Mc.size m in
  let forged = ref false in
  (try
     List.iter (fun (p : Rt_trace.Period.t) ->
         for a = 0 to n - 1 do
           for b = 0 to n - 1 do
             if a <> b && p.executed.(a) && not p.executed.(b) then begin
               m.Mc.cells.(a).(b) <- Dv.Fwd;
               forged := true;
               raise Exit
             end
           done
         done)
       periods
   with Exit -> ());
  if not !forged then Alcotest.fail "no forgeable pair in the paper trace"
  else begin
    let fs = Mc.check_against_trace m trace in
    Alcotest.(check bool) "RTC106 raised" true (has "RTC106" fs)
  end

let test_task_set_mismatch () =
  let trace, _ = learned_model () in
  let small = Mc.model_of_depfun (Df.create 2) in
  Alcotest.(check bool) "RTC105 on size mismatch" true
    (has "RTC105" (Mc.check_against_trace small trace));
  let n = Rt_trace.Trace.task_count trace in
  let wrong_names =
    Mc.model_of_depfun
      ~names:(Array.init n (fun i -> Printf.sprintf "ghost%d" i))
      (Df.create n)
  in
  Alcotest.(check bool) "RTC105 on unknown task name" true
    (has "RTC105" (Mc.check_against_trace wrong_names trace))

(* --- checkpoints --- *)

let test_checkpoint_audit () =
  let trace = Lazy.force paper_trace in
  let st =
    Rt_learn.Heuristic.init ~bound:4
      ~ntasks:(Rt_trace.Trace.task_count trace) ()
  in
  List.iter (Rt_learn.Heuristic.feed st) (Rt_trace.Trace.periods trace);
  let data = Rt_learn.Heuristic.checkpoint st in
  (match Mc.check_checkpoint ~source:"<ck>" data with
   | Error (m, _) -> Alcotest.fail m
   | Ok fs ->
     Alcotest.(check (list string)) "healthy checkpoint has no errors" []
       (List.map (fun (f : F.t) -> f.rule) (errors_of fs)));
  (match Mc.check_checkpoint ~source:"<ck>" "garbage bytes" with
   | Ok _ -> Alcotest.fail "garbage checkpoint accepted"
   | Error (_, f) ->
     Alcotest.(check string) "unreadable checkpoint carries RTC203" "RTC203"
       f.F.rule);
  (* Integrity trailer: a truncated or bit-flipped checkpoint is caught
     by the checksum, as a clean error, never an exception. *)
  let truncated = String.sub data 0 (String.length data - 7) in
  (match Mc.check_checkpoint ~source:"<ck>" truncated with
   | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
   | Error (_, f) ->
     Alcotest.(check string) "truncation is RTC203" "RTC203" f.F.rule);
  let flipped = Bytes.of_string data in
  Bytes.set flipped (String.length data / 2)
    (Char.chr (Char.code (Bytes.get flipped (String.length data / 2)) lxor 1));
  match Mc.check_checkpoint ~source:"<ck>" (Bytes.to_string flipped) with
  | Ok _ -> Alcotest.fail "bit-flipped checkpoint accepted"
  | Error (_, f) ->
    Alcotest.(check string) "bit flip is RTC203" "RTC203" f.F.rule

(* A checkpoint stripped of its 32-byte integrity trailer is a file
   cut at the payload's end: refused, not loaded unverified. *)
let test_checkpoint_without_trailer () =
  let trace = Lazy.force paper_trace in
  let eng =
    Rt_engine.Engine.create ~ntasks:(Rt_trace.Trace.task_count trace)
      (Rt_engine.Engine.Heuristic { bound = 4 })
  in
  List.iter (Rt_engine.Engine.feed eng) (Rt_trace.Trace.periods trace);
  let data =
    match Rt_engine.Engine.checkpoint eng with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let bare = String.sub data 0 (String.length data - 32) in
  (match Rt_engine.Engine.resume bare with
   | Ok _ -> Alcotest.fail "trailer-less checkpoint resumed"
   | Error _ -> ());
  match Mc.check_checkpoint ~source:"<ck>" bare with
  | Ok _ -> Alcotest.fail "trailer-less checkpoint audited"
  | Error (_, f) ->
    Alcotest.(check string) "missing trailer is RTC203" "RTC203" f.F.rule

(* --- the broken-model fixtures carry their documented rule ids --- *)

let fixture name = Filename.concat "fixtures/models" name

let load_fixture name =
  match Mc.load_model (fixture name) with
  | Ok m -> m
  | Error m -> Alcotest.failf "%s: %s" name m

let test_fixtures () =
  let expect =
    [ ("ok.model", []);
      ("bad_diag.model", [ "RTC101" ]);
      ("bad_cycle.model", [ "RTC103" ]);
      ("bad_bi.model", [ "RTC102" ]);
      ("bad_mirror.model", [ "RTC104" ]) ]
  in
  List.iter (fun (name, rules) ->
      let m = load_fixture name in
      Alcotest.(check (list string)) name rules (rules_of (Mc.check_model m)))
    expect;
  Alcotest.(check (list string)) "duplicate pair" [ "RTC201" ]
    (rules_of
       (Mc.check_answer_set [ load_fixture "dup_a.model";
                              load_fixture "dup_b.model" ]));
  Alcotest.(check (list string)) "non-minimal pair" [ "RTC202" ]
    (rules_of
       (Mc.check_answer_set [ load_fixture "nonminimal_a.model";
                              load_fixture "nonminimal_b.model" ]));
  match Mc.load_model (fixture "garbage.model") with
  | Ok _ -> Alcotest.fail "garbage.model parsed"
  | Error _ -> ()

let () =
  Alcotest.run "check"
    [
      ( "laws",
        [
          Alcotest.test_case "lattice laws hold" `Quick test_laws;
          QCheck_alcotest.to_alcotest prop_cycle;
          QCheck_alcotest.to_alcotest prop_answer_set;
        ] );
      ( "findings",
        [
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "renderers" `Quick test_renderers;
        ] );
      ( "models",
        [
          Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
          Alcotest.test_case "garbage rejected" `Quick
            test_parse_rejects_garbage;
          Alcotest.test_case "learned model conforms" `Quick
            test_learned_model_conforms;
          Alcotest.test_case "forged definite flagged" `Quick
            test_trace_conformance_violation;
          Alcotest.test_case "task set mismatch" `Quick test_task_set_mismatch;
          Alcotest.test_case "checkpoint audit" `Quick test_checkpoint_audit;
          Alcotest.test_case "trailer-less checkpoint" `Quick
            test_checkpoint_without_trailer;
          Alcotest.test_case "fixtures" `Quick test_fixtures;
        ] );
    ]
