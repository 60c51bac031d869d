(* The findings record shared by the two static-analysis prongs: rtlint
   (AST rules over the codebase) and rtgen check (semantic rules over
   learned models). One record type, one rule registry, three renderers
   (human text, JSON, SARIF) — so CI consumes both tools identically. *)

module Json = Rt_obs.Json

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* SARIF calls the middle level "warning" too but spells info "note". *)
let severity_to_sarif = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

type pos = { file : string; line : int; col : int }

type t = {
  rule : string;
  severity : severity;
  pos : pos option;
  message : string;
}

let v ?pos ~rule ~severity message = { rule; severity; pos; message }

let at ~file ~line ~col = { file; line; col }

(* --- rule registry --- *)

type rule_info = { id : string; name : string; summary : string }

(* Rule ids are stable API: tests, CI greps and suppression comments all
   key on them. RTL* are source-lint rules, RTC0* lattice-law
   self-checks, RTC1* per-model rules, RTC2* answer-set/checkpoint
   rules. *)
let rules =
  [
    { id = "RTL000"; name = "suppression-needs-reason";
      summary = "a 'rtlint: allow' comment must carry a justification" };
    { id = "RTL001"; name = "no-poly-hash";
      summary = "Hashtbl.hash / seeded_hash are banned: hashes feed \
                 deterministic dedup indexes and must stay structural \
                 and incremental" };
    { id = "RTL002"; name = "no-poly-compare";
      summary = "polymorphic compare/equality on lattice or hypothesis \
                 values; use the monomorphic Depval/Depfun/Hypothesis \
                 operations" };
    { id = "RTL003"; name = "no-wall-clock";
      summary = "wall-clock or ambient-randomness primitive outside \
                 lib/obs and the simulator; deterministic paths must \
                 use Rt_obs.Registry.now_ns or Rt_util.Pcg32" };
    { id = "RTL004"; name = "no-captured-mutation";
      summary = "mutation of state captured by a closure handed to \
                 Domain_pool; parallel tasks must write only \
                 task-partitioned slots or locally-bound state" };
    { id = "RTL005"; name = "depval-wildcard";
      summary = "wildcard match arm over the 7-value dependency \
                 lattice; enumerate the constructors so adding a value \
                 is a compile error" };
    { id = "RTL006"; name = "no-hot-loop-alloc";
      summary = "record or tuple construction inside a while/for body \
                 of the ingest path (stream_io, mmap_io); a per-line \
                 allocation churns the minor heap in proportion to the \
                 trace — keep loop state in scalar refs" };
    { id = "RTL101"; name = "pool-race-write";
      summary = "top-level mutable state is written (directly or through \
                 calls) by a closure submitted to Domain_pool or \
                 Domain.spawn without flowing through Atomic or Mutex; \
                 concurrent writes tear and break run reproducibility" };
    { id = "RTL102"; name = "pool-race-read";
      summary = "top-level mutable state written elsewhere in the \
                 project is read by a closure submitted to Domain_pool \
                 or Domain.spawn without Atomic/Mutex; the read races \
                 the writer" };
    { id = "RTL201"; name = "clock-taints-artifact";
      summary = "a wall-clock read (or clock-bearing callee) flows into \
                 data handed to Atomic_file, the store or a codec; \
                 persisted artifacts must be byte-reproducible" };
    { id = "RTL202"; name = "hash-order-taints-artifact";
      summary = "Hashtbl.iter/fold/to_seq iteration order flows into \
                 data handed to Atomic_file, the store or a codec; \
                 hash-bucket order is not part of the repro contract — \
                 sort before rendering (and say so in a suppression)" };
    { id = "RTL203"; name = "marshal-on-artifact";
      summary = "Marshal on a path that reaches persisted bytes; its \
                 output depends on compiler version and sharing — use \
                 the canonical codecs" };
    { id = "RTL204"; name = "poly-hash-taints-artifact";
      summary = "polymorphic hash/compare flows into data handed to a \
                 persistence sink; representation-dependent order must \
                 not reach persisted bytes" };
    { id = "RTL301"; name = "close-not-protected";
      summary = "a channel/fd is opened and closed in the same function \
                 but the close is not under Fun.protect ~finally, so \
                 any exception between open and close leaks the handle" };
    { id = "RTL302"; name = "resource-leak";
      summary = "a channel/fd is opened but never closed, returned or \
                 handed off; every call leaks a descriptor" };
    { id = "RTL998"; name = "unused-suppression";
      summary = "a 'rtlint: allow' comment that no longer matches any \
                 finding on its line; stale annotations hide future \
                 regressions and must be removed" };
    { id = "RTL999"; name = "parse-error";
      summary = "the source file could not be parsed" };
    { id = "RTC001"; name = "law-idempotence";
      summary = "lattice law: v \xe2\x8a\x94 v = v and v \xe2\x8a\x93 v = v" };
    { id = "RTC002"; name = "law-commutativity";
      summary = "lattice law: \xe2\x8a\x94 and \xe2\x8a\x93 are commutative" };
    { id = "RTC003"; name = "law-absorption";
      summary = "lattice law: a \xe2\x8a\x94 (a \xe2\x8a\x93 b) = a and \
                 a \xe2\x8a\x93 (a \xe2\x8a\x94 b) = a" };
    { id = "RTC004"; name = "law-monotonicity";
      summary = "lattice law: a \xe2\x8a\x91 b implies a \xe2\x8a\x94 c \
                 \xe2\x8a\x91 b \xe2\x8a\x94 c; weaken and covers move up" };
    { id = "RTC005"; name = "law-order";
      summary = "lattice law: \xe2\x8a\x91 is a partial order consistent \
                 with \xe2\x8a\x94/\xe2\x8a\x93 and the tabulated kernels" };
    { id = "RTC101"; name = "diagonal-not-par";
      summary = "d(t,t) must be \xe2\x80\x96: a task has no dependency on \
                 itself" };
    { id = "RTC102"; name = "bi-unobservable";
      summary = "\xe2\x86\x94 exists for lattice completeness and is never \
                 produced by single-message evidence; its presence \
                 deserves a second look" };
    { id = "RTC103"; name = "definite-cycle";
      summary = "definite precedences (\xe2\x86\x92/\xe2\x86\x90) form a \
                 cycle, which no single period can schedule" };
    { id = "RTC104"; name = "mirror-inconsistency";
      summary = "a definite dependency without any converse evidence in \
                 the mirror cell; message evidence always writes both" };
    { id = "RTC105"; name = "task-mismatch";
      summary = "the model's task set does not match the reference \
                 trace or task model" };
    { id = "RTC106"; name = "conformance-violation";
      summary = "a definite cell is contradicted by an observed period; \
                 post-processing must have weakened it to the ?-form" };
    { id = "RTC201"; name = "duplicate-hypothesis";
      summary = "the answer set contains the same dependency function \
                 twice; post-processing unifies duplicates" };
    { id = "RTC202"; name = "non-minimal-hypothesis";
      summary = "a hypothesis has a strictly more specific peer; the \
                 answer set must contain only most specific elements" };
    { id = "RTC203"; name = "bound-overflow";
      summary = "a checkpointed working set is larger than its bound, or \
                 the checkpoint failed its integrity check (truncated, \
                 torn or bit-flipped)" };
    { id = "RTC999"; name = "model-parse-error";
      summary = "the model, checkpoint or trace could not be parsed" };
  ]

let rule_info id = List.find_opt (fun r -> r.id = id) rules

let rule_name id =
  match rule_info id with Some r -> r.name | None -> id

(* --- aggregation --- *)

let count sev fs = List.length (List.filter (fun f -> f.severity = sev) fs)

let has_errors fs = List.exists (fun f -> f.severity = Error) fs

let exit_code fs = if has_errors fs then Exit_code.findings else Exit_code.ok

(* Stable report order: by file, then line/col, then rule id. Findings
   never depend on traversal order, so reports diff cleanly. *)
let compare_keys (f1, l1, c1, r1, m1) (f2, l2, c2, r2, m2) =
  let c = String.compare f1 f2 in
  if c <> 0 then c
  else
    let c = Int.compare l1 l2 in
    if c <> 0 then c
    else
      let c = Int.compare c1 c2 in
      if c <> 0 then c
      else
        let c = String.compare r1 r2 in
        if c <> 0 then c else String.compare m1 m2

let sort fs =
  let key f =
    match f.pos with
    | Some p -> (p.file, p.line, p.col, f.rule, f.message)
    | None -> ("", 0, 0, f.rule, f.message)
  in
  List.sort (fun a b -> compare_keys (key a) (key b)) fs

(* --- renderers --- *)

let pp_text ppf f =
  let pos =
    match f.pos with
    | Some p -> Printf.sprintf "%s:%d:%d: " p.file p.line p.col
    | None -> ""
  in
  Format.fprintf ppf "%s%s[%s %s] %s" pos
    (severity_to_string f.severity) f.rule (rule_name f.rule) f.message

let to_text fs =
  let b = Buffer.create 256 in
  List.iter (fun f -> Buffer.add_string b (Format.asprintf "%a@." pp_text f))
    (sort fs);
  Buffer.contents b

let summary_line ~tool fs =
  Printf.sprintf "%s: %d error(s), %d warning(s), %d info" tool
    (count Error fs) (count Warning fs) (count Info fs)

(* JSON follows the metrics.schema.json conventions: a schema tag and
   version first, then the payload; findings.schema.json pins the
   shape and scripts/check_findings.py validates it in CI. *)
let to_json ~tool fs =
  let finding f =
    let base =
      [ ("rule", Json.String f.rule);
        ("name", Json.String (rule_name f.rule));
        ("severity", Json.String (severity_to_string f.severity));
        ("message", Json.String f.message) ]
    in
    let pos =
      match f.pos with
      | None -> []
      | Some p ->
        [ ("file", Json.String p.file);
          ("line", Json.Int p.line);
          ("col", Json.Int p.col) ]
    in
    Json.Obj (base @ pos)
  in
  Json.Obj
    [ ("schema", Json.String "rtgen-findings");
      ("version", Json.Int 1);
      ("tool", Json.String tool);
      ("errors", Json.Int (count Error fs));
      ("warnings", Json.Int (count Warning fs));
      ("findings", Json.List (List.map finding (sort fs))) ]

(* Minimal SARIF 2.1.0: enough for GitHub code-scanning upload and for
   generic SARIF viewers — tool.driver with the rule catalogue, one
   result per finding. *)
let to_sarif ~tool fs =
  let rule r =
    Json.Obj
      [ ("id", Json.String r.id);
        ("name", Json.String r.name);
        ("shortDescription", Json.Obj [ ("text", Json.String r.summary) ]) ]
  in
  let result f =
    let location =
      match f.pos with
      | None -> []
      | Some p ->
        [ ( "locations",
            Json.List
              [ Json.Obj
                  [ ( "physicalLocation",
                      Json.Obj
                        [ ( "artifactLocation",
                            Json.Obj [ ("uri", Json.String p.file) ] );
                          ( "region",
                            Json.Obj
                              [ ("startLine", Json.Int p.line);
                                ("startColumn", Json.Int (p.col + 1)) ] ) ] )
                  ] ] ) ]
    in
    Json.Obj
      ( [ ("ruleId", Json.String f.rule);
          ("level", Json.String (severity_to_sarif f.severity));
          ("message", Json.Obj [ ("text", Json.String f.message) ]) ]
        @ location )
  in
  Json.Obj
    [ ("$schema",
       Json.String
         "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
          Schemata/sarif-schema-2.1.0.json");
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [ Json.Obj
              [ ( "tool",
                  Json.Obj
                    [ ( "driver",
                        Json.Obj
                          [ ("name", Json.String tool);
                            ("informationUri",
                             Json.String "https://github.com/rtgen/rtgen");
                            ("rules", Json.List (List.map rule rules)) ] ) ] );
                ("results", Json.List (List.map result (sort fs))) ] ] ) ]

type format = Text | Json_format | Sarif

let render ~tool ~format fs =
  match format with
  | Text ->
    let body = to_text fs in
    if body = "" then summary_line ~tool fs ^ "\n"
    else body ^ summary_line ~tool fs ^ "\n"
  | Json_format -> Json.to_string ~pretty:true (to_json ~tool fs) ^ "\n"
  | Sarif -> Json.to_string ~pretty:true (to_sarif ~tool fs) ^ "\n"
