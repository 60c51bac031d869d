(* The trace text parser: the strict error contract of its string and
   file entry points, and the file loader the benchmark probe calls. *)

module T = Rt_trace.Trace
module Io = Rt_trace.Trace_io
open Test_support

(* --- The strict parser's error contract ---

   Pinned outcomes of the trace text parser: every refusal's exact line
   and message, and every accepted input's canonical rendering, through
   both entry points — an in-memory string and a file on disk. *)

let with_text_file text f =
  let path = Filename.temp_file "rtgen_strict" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Out_channel.with_open_bin path (fun oc -> output_string oc text);
       f path)

let load_text text = with_text_file text Io.load

let outcome = function
  | Ok (t, _) -> Ok (Io.to_string t)
  | Error (e : Io.parse_error) -> Error (e.line, e.message)

let check_strict name text expected =
  let t = Alcotest.(result string (pair int string)) in
  Alcotest.check t (name ^ " (of_string)") expected (outcome (Io.of_string text));
  Alcotest.check t (name ^ " (load)") expected (outcome (load_text text))

let canonical body = Ok ("# rtgen-trace v1\n" ^ body)

let malformed =
  [ ("empty file", "", Error (1, "missing tasks line"));
    ("blank only", "\n\n# c\n", Error (4, "missing tasks line"));
    ("tasks without names", "tasks\n", Error (1, "tasks line without names"));
    ("duplicate tasks", "tasks a b\ntasks c\n", Error (2, "duplicate tasks line"));
    ("duplicate task name", "tasks a a\n",
     Error (1, "Task_set.of_names: duplicate name a"));
    ("period before tasks", "period 0\n100 rise 0x1\n200 fall 0x1\n",
     Error (4, "period before tasks line"));
    ("bad period index", "tasks a\nperiod x\n", Error (2, "bad period index: x"));
    ("event before period", "tasks a\n100 start a\n",
     Error (2, "event before a period line"));
    ("bad timestamp", "tasks a\nperiod 0\nfoo start a\n",
     Error (3, "bad timestamp: foo"));
    ("three-token period", "tasks a\nperiod 1 2\n",
     Error (2, "event before a period line"));
    ("negative timestamp", "tasks a\nperiod 0\n-5 start a\n",
     Error (3, "negative timestamp"));
    ("unknown verb", "tasks a\nperiod 0\n100 boing a\n",
     Error (3, "unknown event kind: boing"));
    ("unknown task", "tasks a\nperiod 0\n100 start b\n",
     Error (3, "unknown task: b"));
    ("bad message id", "tasks a\nperiod 0\n100 rise zz\n",
     Error (3, "bad message id: zz"));
    ("unparseable", "tasks a\nperiod 0\nfoo bar\n",
     Error (3, "unparseable line: foo bar"));
    ("tab-joined tokens", "tasks a\nperiod 0\n100\tstart\ta\n",
     Error (3, "unparseable line: 100\tstart\ta"));
    (* Period.make orders events, so file order alone is no damage. *)
    ("out-of-order period", "tasks a\nperiod 0\n200 end a\n100 start a\n",
     canonical "tasks a\nperiod 0\n100 start a\n200 end a\n");
    ("unpaired rise",
     "tasks a\nperiod 0\n100 start a\n150 rise 0x1\n200 end a\n",
     Error (6, "invalid period 0: rising edge of 0x1 without falling edge"));
    ("huge timestamp", "tasks a\nperiod 0\n99999999999999999999 start a\n",
     Error (3, "bad timestamp: 99999999999999999999"));
  ]

let test_strict_malformed () =
  List.iter (fun (name, text, expected) -> check_strict name text expected)
    malformed

let test_strict_valid () =
  check_strict "paper example" fig2_trace_text
    (Ok (Io.to_string (fig2_trace ())));
  let sim = Io.to_string (simulate ~periods:10 ~seed:6 (pipeline_design 4)) in
  check_strict "simulated" sim (Ok sim);
  check_strict "no trailing newline" "tasks a b\nperiod 0"
    (canonical "tasks a b\nperiod 0\n");
  check_strict "hex and underscores"
    "tasks a b\nperiod 0\n0x64 start a\n1_50 end a\n160 rise 0x1_0\n\
     +200 fall 0x10\n210 start b\n250 end b\n"
    (canonical
       "tasks a b\nperiod 0\n100 start a\n150 end a\n160 rise 0x10\n\
        200 fall 0x10\n210 start b\n250 end b\n");
  check_strict "crlf and comments"
    "# header\r\ntasks a\r\n\r\nperiod 0\r\n100 start a\r\n150 end a\r\n"
    (canonical "tasks a\nperiod 0\n100 start a\n150 end a\n");
  check_strict "indented lines"
    "  tasks a  \nperiod 0\n  100 start a\n  150   end   a  \n"
    (canonical "tasks a\nperiod 0\n100 start a\n150 end a\n")

(* Timestamps past 2^41 — beyond any packed encoding — are plain ints
   to the parser. *)
let test_strict_wide_timestamps () =
  let t0 = 1 lsl 41 in
  let body = Printf.sprintf "tasks a\nperiod 0\n%d start a\n%d end a\n" t0 (t0 + 1) in
  check_strict "2^41" body (canonical body)

(* A file cut mid-record — a writer died between bytes — at every byte
   of a valid trace. The pinned outcome per cut point is in
   fixtures/strict_truncation.txt: ["CUT ok PERIODS"] or
   ["CUT error LINE MESSAGE"]. *)
let test_strict_truncated () =
  let text =
    "tasks a b\nperiod 0\n100 start a\n120 rise 0x10\n140 fall 0x10\n\
     150 end a\n160 start b\n200 end b\n"
  in
  let pins =
    In_channel.with_open_bin "fixtures/strict_truncation.txt"
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one pin per cut" (String.length text) (List.length pins);
  List.iteri
    (fun cut pin ->
       let cut_text = String.sub text 0 cut in
       let render r =
         match r with
         | Ok (t, _) -> Printf.sprintf "%d ok %d" cut (T.period_count t)
         | Error (e : Io.parse_error) ->
           Printf.sprintf "%d error %d %s" cut e.line e.message
       in
       Alcotest.(check string) "of_string" pin (render (Io.of_string cut_text));
       Alcotest.(check string) "load" pin (render (load_text cut_text)))
    pins

let qc_load_equals_of_string =
  qcheck_case "load = of_string on simulated" ~count:25
    QCheck.(pair (int_range 0 11) (int_range 1 10))
    (fun (seed, periods) ->
       let text =
         Io.to_string (simulate ~periods ~seed (small_design seed))
       in
       outcome (load_text text) = Ok text && outcome (Io.of_string text) = Ok text)

(* Recover mode's output is a trace the strict parser takes back
   unchanged, even when every period needed repair. *)
let test_recovered_reloads_strict () =
  let text =
    "tasks t1 t2\nperiod 0\n100 start t1\n200 end t1\n210 rise 0x10\n\
     260 start t2\n300 end t2\nperiod 1\n100 start t1\n150 end t1\n"
  in
  match Io.of_string ~mode:`Recover text with
  | Error e -> Alcotest.failf "recover load failed: %s" e.message
  | Ok (t, q) ->
    Alcotest.(check bool) "something was quarantined" true
      (q.repaired <> [] || q.dropped <> []);
    let rendered = Io.to_string t in
    check_strict "recovered trace" rendered (Ok rendered)

(* --- Mmap_io ---

   The benchmark probe loads traces through Mmap_io.load; it must accept
   and refuse exactly what Trace_io.load does, with the same pins. *)

let mmap_outcome path =
  match Rt_trace.Mmap_io.load path with
  | Ok ({ trace }, _) -> Ok (Io.to_string trace)
  | Error (e : Io.parse_error) -> Error (e.line, e.message)

let check_mmap name text expected =
  let t = Alcotest.(result string (pair int string)) in
  with_text_file text (fun path ->
      Alcotest.check t (name ^ " (Mmap_io)") expected (mmap_outcome path);
      Alcotest.check t (name ^ " (Trace_io)") expected (outcome (Io.load path)))

let test_mmap_empty_file () =
  check_mmap "zero bytes" "" (Error (1, "missing tasks line"))

let test_mmap_malformed () =
  List.iter (fun (name, text, expected) -> check_mmap name text expected)
    malformed

let () =
  Alcotest.run "rt_parser"
    [
      ( "strict parser",
        [
          Alcotest.test_case "malformed traces" `Quick test_strict_malformed;
          Alcotest.test_case "valid traces" `Quick test_strict_valid;
          Alcotest.test_case "wide timestamps" `Quick
            test_strict_wide_timestamps;
          Alcotest.test_case "truncated mid-record" `Quick test_strict_truncated;
          qc_load_equals_of_string;
          Alcotest.test_case "recovered trace reloads" `Quick
            test_recovered_reloads_strict;
        ] );
      ( "mmap reader parity",
        [
          Alcotest.test_case "empty file" `Quick test_mmap_empty_file;
          Alcotest.test_case "malformed traces" `Quick test_mmap_malformed;
        ] );
    ]
