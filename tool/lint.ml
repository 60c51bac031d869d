(* The rtlint engine: parses .ml files with the in-tree compiler
   front-end (compiler-libs, version-matched by construction) and runs
   syntactic rules that guard the invariants the learner's hot path
   depends on.  No typing pass: every rule is decidable on the
   Parsetree plus a little per-file context (local [compare]
   rebindings, Domain_pool aliases, directory scoping). *)

module F = Rt_check.Finding

(* The seven-value dependency lattice; a pattern naming one of these is
   how we recognise a match over [Depval.t] without type information. *)
let depval_ctors =
  [ "Par"; "Fwd"; "Bwd"; "Bi"; "Fwd_maybe"; "Bwd_maybe"; "Bi_maybe" ]

let wall_clock_idents =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ];
    [ "Random"; "self_init" ] ]

let poly_hash_idents =
  [ [ "Hashtbl"; "hash" ]; [ "Hashtbl"; "seeded_hash" ];
    [ "Hashtbl"; "hash_param" ] ]

let mutating_idents =
  [ [ "Array"; "set" ]; [ "Array"; "unsafe_set" ]; [ "Array"; "fill" ];
    [ "Array"; "blit" ]; [ "Bytes"; "set" ]; [ "Bytes"; "unsafe_set" ];
    [ "Bytes"; "fill" ]; [ "Bytes"; "blit" ]; [ "String"; "set" ] ]

(* RTL007: every durable file the tools publish (models, checkpoints,
   traces, reports) must go through the atomic temp-and-rename funnel,
   so a crash mid-write never leaves a truncated file for a reader.
   [Rt_util.Atomic_file] and the store own the raw syscalls; direct
   [open_out]/[Sys.rename] anywhere else is a finding. *)
let persist_write_idents =
  [ [ "open_out" ]; [ "open_out_bin" ]; [ "open_out_gen" ];
    [ "Sys"; "rename" ] ]

type ctx = {
  file : string;
  mutable findings : F.t list;
  allow_wall_clock : bool;   (* lib/obs and lib/sim own the clock *)
  check_pool_rule : bool;    (* off inside domain_pool.ml itself *)
  check_ingest_rule : bool;  (* only in the ingest path's files *)
  check_persist_rule : bool; (* off in atomic_file.ml and lib/store *)
  mutable defines_compare : bool;
  mutable pool_aliases : string list;
}

let pos_of_loc file (loc : Location.t) =
  let p = loc.loc_start in
  F.at ~file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol)

let emit ctx ?(severity = F.Error) ~loc rule fmt =
  Printf.ksprintf
    (fun message ->
      ctx.findings <-
        F.v ~pos:(pos_of_loc ctx.file loc) ~rule ~severity message
        :: ctx.findings)
    fmt

(* Suffix match so [Stdlib.Hashtbl.hash] still counts as
   [Hashtbl.hash]. *)
let path_ends_with suffix path =
  let ls = List.length suffix and lp = List.length path in
  lp >= ls
  && (let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      drop (lp - ls) path = suffix)

let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let rec strip_constraint (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_constraint e
  | _ -> e

(* {2 Pattern helpers} *)

let pat_bound_names (p : Parsetree.pattern) =
  let acc = ref [] in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

let rec pat_mentions_depval (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      List.mem (Longident.last txt) depval_ctors
      || (match arg with
         | Some (_, p) -> pat_mentions_depval p
         | None -> false)
  | Ppat_or (a, b) -> pat_mentions_depval a || pat_mentions_depval b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p)
  | Ppat_exception p | Ppat_lazy p ->
      pat_mentions_depval p
  | Ppat_tuple ps | Ppat_array ps -> List.exists pat_mentions_depval ps
  | Ppat_record (fields, _) ->
      List.exists (fun (_, p) -> pat_mentions_depval p) fields
  | _ -> false

let rec pat_is_catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_is_catch_all p
  | _ -> false

let expr_is_depval_ctor (e : Parsetree.expression) =
  match (strip_constraint e).pexp_desc with
  | Pexp_construct ({ txt; _ }, _) ->
      List.mem (Longident.last txt) depval_ctors
  | _ -> false

(* {2 RTL004: closures handed to Domain_pool}

   Two over-approximating passes over the closure: first collect every
   name the closure binds anywhere (parameters, lets, match cases);
   then flag any mutation whose target is not one of those — i.e. a
   captured ref/array/bytes, or module-level state.  Results computed
   on pool domains must flow back through return values only. *)

let closure_local_names (e : Parsetree.expression) =
  let acc = ref [] in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.expr it e;
  !acc

let mutation_target (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some path -> (
          let arg1 () =
            match args with (_, a) :: _ -> Some (strip_constraint a) | [] -> None
          in
          if path_ends_with [ ":=" ] path || path_ends_with [ "incr" ] path
             || path_ends_with [ "decr" ] path
          then arg1 ()
          else if List.exists (fun m -> path_ends_with m path) mutating_idents
          then arg1 ()
          else None)
      | None -> None)
  | Pexp_setfield (obj, _, _) -> Some (strip_constraint obj)
  | _ -> None

let check_pool_closure ctx (closure : Parsetree.expression) =
  let locals = closure_local_names closure in
  let expr it (e : Parsetree.expression) =
    (match mutation_target e with
    | Some target -> (
        match target.pexp_desc with
        | Pexp_ident { txt = Longident.Lident name; _ }
          when List.mem name locals ->
            ()
        | Pexp_ident { txt; _ } ->
            emit ctx ~loc:e.pexp_loc "RTL004"
              "closure passed to Domain_pool mutates captured state \
               (%s); pool results must flow back through return values"
              (String.concat "." (Longident.flatten txt))
        | _ ->
            emit ctx ~loc:e.pexp_loc "RTL004"
              "closure passed to Domain_pool mutates state it did not \
               allocate; pool results must flow back through return values")
    | None -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it closure

let is_pool_call ctx (f : Parsetree.expression) =
  match ident_path f with
  | Some path ->
      List.mem "Domain_pool" path
      || (match path with
         | m :: _ :: _ -> List.mem m ctx.pool_aliases
         | _ -> false)
  | None -> false

let rec is_fun_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) -> is_fun_literal e
  | _ -> false

(* {2 RTL006: heap allocation in the ingest hot loop}

   Ingest runs once per line of every trace: a loop there that builds a
   record or tuple per iteration churns the minor heap in proportion to
   the trace. The rule is syntactic and scoped: direct
   [Pexp_record]/[Pexp_tuple] construction anywhere inside a
   [while]/[for] body, in the files of the ingest path — the trace
   parser and its strict-load entry point. Error raises allocate too,
   but only once per failed load, so constructions whose enclosing
   expression is a [raise] application are exempt. *)

let ingest_hot_files = [ "mmap_io.ml"; "stream_io.ml" ]

let rec is_raise_apply (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some path ->
          path_ends_with [ "raise" ] path
          || path_ends_with [ "failwith" ] path
          || path_ends_with [ "invalid_arg" ] path
          || (match List.rev path with
             | last :: _ -> last = "fail"
             | [] -> false)
      | None -> false)
  | Pexp_constraint (e, _) -> is_raise_apply e
  | _ -> false

let check_hot_loop_body ctx (body : Parsetree.expression) =
  let expr it (e : Parsetree.expression) =
    if is_raise_apply e then ()  (* error paths may box their payload *)
    else
      match e.pexp_desc with
      (* A nested loop's body is flagged once, by its own visit in the
         main pass; only its condition/bounds belong to this body. *)
      | Pexp_while (cond, _) -> it.Ast_iterator.expr it cond
      | Pexp_for (_, lo, hi, _, _) ->
          it.Ast_iterator.expr it lo;
          it.Ast_iterator.expr it hi
      | desc ->
          (match desc with
          | Pexp_record _ ->
              emit ctx ~loc:e.pexp_loc "RTL006"
                "record construction in an ingest loop allocates per \
                 event; keep loop state in scalar refs"
          | Pexp_tuple _ ->
              emit ctx ~loc:e.pexp_loc "RTL006"
                "tuple construction in an ingest loop allocates per \
                 event; keep loop state in scalar refs"
          | _ -> ());
          Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body

(* {2 The main per-expression rule pass} *)

let check_cases ctx kind (cases : Parsetree.case list) =
  let over_depval =
    List.exists (fun (c : Parsetree.case) -> pat_mentions_depval c.pc_lhs) cases
  in
  if over_depval then
    List.iter
      (fun (c : Parsetree.case) ->
        if pat_is_catch_all c.pc_lhs then
          emit ctx ~loc:c.pc_lhs.ppat_loc "RTL005"
            "wildcard in a %s over the dependency lattice: enumerate \
             all 7 Depval constructors so new values cannot be \
             silently misclassified"
            kind)
      cases

let check_expr ctx (e : Parsetree.expression) =
  (match ident_path e with
  | Some path ->
      if List.exists (fun p -> path_ends_with p path) poly_hash_idents then
        emit ctx ~loc:e.pexp_loc "RTL001"
          "%s is the polymorphic hash: on lattice and hypothesis \
           values it hashes structure, not identity; use a dedicated \
           hash over Depval.index"
          (String.concat "." path);
      if path_ends_with [ "Stdlib"; "compare" ] path
         || path_ends_with [ "Pervasives"; "compare" ] path
         || (path = [ "compare" ] && not ctx.defines_compare)
      then
        emit ctx ~loc:e.pexp_loc "RTL002"
          "polymorphic compare: on lattice and hypothesis values its \
           order is representation-dependent and it boxes; use a \
           monomorphic comparison";
      if (not ctx.allow_wall_clock)
         && List.exists (fun p -> path_ends_with p path) wall_clock_idents
      then
        emit ctx ~loc:e.pexp_loc "RTL003"
          "%s reads the wall clock: timing must come from the trace \
           or Rt_obs.Registry.now_ns so runs stay reproducible"
          (String.concat "." path);
      if ctx.check_persist_rule
         && List.exists (fun p -> path_ends_with p path) persist_write_idents
      then
        emit ctx ~loc:e.pexp_loc "RTL007"
          "direct %s on a persistence path: route whole-file writes \
           through Rt_util.Atomic_file (or the store) so a crash never \
           publishes a truncated file"
          (String.concat "." path)
  | None -> ());
  match e.pexp_desc with
  | Pexp_apply (f, args) ->
      (match ident_path f with
      | Some [ op ] when op = "=" || op = "<>" ->
          let ctor_operand =
            List.exists (fun (_, a) -> expr_is_depval_ctor a) args
          in
          if ctor_operand then
            emit ctx ~loc:e.pexp_loc "RTL002"
              "polymorphic (%s) against a Depval constructor; use \
               Depval.equal (or match) so the comparison stays \
               monomorphic"
              op
      | _ -> ());
      if ctx.check_pool_rule && is_pool_call ctx f then
        List.iter
          (fun (_, a) -> if is_fun_literal a then check_pool_closure ctx a)
          args
  | Pexp_match (_, cases) -> check_cases ctx "match" cases
  | Pexp_function cases -> check_cases ctx "function" cases
  | Pexp_while (_, body) when ctx.check_ingest_rule ->
      check_hot_loop_body ctx body
  | Pexp_for (_, _, _, _, body) when ctx.check_ingest_rule ->
      check_hot_loop_body ctx body
  | _ -> ()

(* {2 Per-file prescan: local [compare] rebindings, pool aliases} *)

let prescan ctx (str : Parsetree.structure) =
  let value_binding it (vb : Parsetree.value_binding) =
    if List.mem "compare" (pat_bound_names vb.pvb_pat) then
      ctx.defines_compare <- true;
    Ast_iterator.default_iterator.value_binding it vb
  in
  let module_binding it (mb : Parsetree.module_binding) =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Pmod_ident { txt; _ }
      when List.mem "Domain_pool" (Longident.flatten txt) ->
        ctx.pool_aliases <- name :: ctx.pool_aliases
    | _ -> ());
    Ast_iterator.default_iterator.module_binding it mb
  in
  let it =
    { Ast_iterator.default_iterator with value_binding; module_binding }
  in
  it.structure it str

(* {2 Suppression comments}

   [(* rtlint: allow RTL003 <why it is safe here> *)] on the flagged
   line, or on any line of the run of allow-comments immediately above
   it (so one site can suppress several rules), suppresses that rule
   at that site.  A suppression without a reason does not document why
   the invariant holds, so it is replaced by an RTL000 error instead
   of silencing anything for free.  Consumed suppression sites are
   reported back so the deep pass can flag stale ones (RTL998). *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

type suppression = { s_line : int; s_rule : string; s_reason : string }

(* Returns [Some (rule, reason)] when [line] carries an allow-comment;
   the reason may be empty.  The rule token must look like a real rule
   id and the reason must not be a <placeholder> — that keeps prose
   and message templates that merely quote the syntax from counting
   as suppressions (and so from tripping RTL998). *)
let is_rule_id s =
  String.length s = 6
  && s.[0] = 'R' && s.[1] = 'T'
  && (s.[2] = 'L' || s.[2] = 'C')
  && (let digit c = c >= '0' && c <= '9' in
      digit s.[3] && digit s.[4] && digit s.[5])

let parse_allow line =
  match find_sub line "rtlint: allow " with
  | None -> None
  | Some i ->
      let rest =
        String.sub line (i + 14) (String.length line - i - 14)
        |> String.trim
      in
      let stop =
        let n = String.length rest in
        let rec go j =
          if j >= n || rest.[j] = ' ' || rest.[j] = '*' then j else go (j + 1)
        in
        go 0
      in
      if stop = 0 then None
      else
        let rule = String.sub rest 0 stop in
        let after = String.sub rest stop (String.length rest - stop) in
        let reason =
          match find_sub after "*)" with
          | Some j -> String.trim (String.sub after 0 j)
          | None -> String.trim after
        in
        if (not (is_rule_id rule)) || (reason <> "" && reason.[0] = '<')
        then None
        else Some (rule, reason)

let scan_suppressions text =
  let lines = String.split_on_char '\n' text in
  List.mapi (fun i l -> (i + 1, parse_allow l)) lines
  |> List.filter_map (fun (n, p) ->
         Option.map
           (fun (rule, reason) ->
             { s_line = n; s_rule = rule; s_reason = reason })
           p)

let apply_suppressions ~file ~text findings =
  let lines = String.split_on_char '\n' text |> Array.of_list in
  let line_at n =
    if n >= 1 && n <= Array.length lines then lines.(n - 1) else ""
  in
  let is_allow n = Option.is_some (parse_allow (line_at n)) in
  let allow_for n rule =
    match parse_allow (line_at n) with
    | Some (r, reason) when r = rule -> Some reason
    | _ -> None
  in
  let consumed = ref [] in
  let kept =
    List.concat_map
      (fun (f : F.t) ->
        match f.pos with
        | None -> [ f ]
        | Some p -> (
            let rec above n acc =
              if n >= 1 && is_allow n then above (n - 1) (n :: acc) else acc
            in
            let cands = p.line :: above (p.line - 1) [] in
            let hit =
              List.find_map
                (fun n ->
                  Option.map (fun reason -> (n, reason)) (allow_for n f.rule))
                cands
            in
            match hit with
            | None -> [ f ]
            | Some (line, reason) ->
                consumed := (line, f.rule) :: !consumed;
                if String.length reason > 0 then []
                else
                  [ F.v
                      ~pos:(F.at ~file ~line ~col:0)
                      ~rule:"RTL000" ~severity:F.Error
                      (Printf.sprintf
                         "suppression of %s without a justification; write \
                          (* rtlint: allow %s <reason> *)"
                         f.rule f.rule) ]))
      findings
  in
  let cmp (l1, r1) (l2, r2) =
    if l1 < l2 then -1
    else if l1 > l2 then 1
    else String.compare r1 r2
  in
  (kept, List.sort_uniq cmp !consumed)

(* {2 Entry points} *)

let contains_dir path dir =
  Option.is_some (find_sub path dir)

let lint_raw ~file text =
  let ctx =
    {
      file;
      findings = [];
      allow_wall_clock =
        contains_dir file "lib/obs/" || contains_dir file "lib/sim/";
      check_pool_rule = not (contains_dir file "domain_pool.ml");
      check_ingest_rule =
        List.mem (Filename.basename file) ingest_hot_files;
      check_persist_rule =
        (not (contains_dir file "lib/store/"))
        && Filename.basename file <> "atomic_file.ml";
      defines_compare = false;
      pool_aliases = [];
    }
  in
  (match
     let lexbuf = Lexing.from_string text in
     Location.init lexbuf file;
     Parse.implementation lexbuf
   with
  | str ->
      prescan ctx str;
      let expr it (e : Parsetree.expression) =
        check_expr ctx e;
        Ast_iterator.default_iterator.expr it e
      in
      let it = { Ast_iterator.default_iterator with expr } in
      it.structure it str
  | exception exn ->
      let loc, msg =
        match exn with
        | Syntaxerr.Error err ->
            (Syntaxerr.location_of_error err, "syntax error")
        | _ -> (Location.in_file file, Printexc.to_string exn)
      in
      emit ctx ~loc "RTL999" "cannot parse: %s" msg);
  ctx.findings

let lint_source ~file text =
  fst (apply_suppressions ~file ~text (lint_raw ~file text)) |> F.sort

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path = lint_source ~file:path (read_file path)

let skip_dirs = [ "_build"; ".git"; "fixtures" ]

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if List.mem entry skip_dirs then acc
           else collect_ml acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let ml_files_under paths =
  match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some missing -> Error (Printf.sprintf "no such file or directory: %s" missing)
  | None -> Ok (List.fold_left collect_ml [] paths |> List.rev)

let lint_paths paths =
  Result.map
    (fun files -> List.concat_map lint_file files |> F.sort)
    (ml_files_under paths)
