(* perfbench probe: the in-process half of the benchmark.

     probe address FILE...                 MD5 content address of each input
     probe verify-table1 TRACE MODEL...    each MODEL = canonical bound-1 model
     probe verify-fleet SPOOL (OUT STORE)...
                                           each served model, in OUT and in
                                           STORE, = learn --stream --mode
                                           recover of its trace
     probe trace-table1 TRACE BOUND SHARDS JOBS SPANS
     probe trace-fleet SPOOL RATE UNTRACED_OUT WORK SPANS

   Every subcommand prints one JSON object on stdout: [failures] (a list
   of strings, empty when every output checked out), [attempted] (how
   many checks ran) and, for the trace-* commands, the per-layer
   [metrics]. run.py drives it; it never produces end-to-end numbers. *)

module H = Rt_learn.Heuristic
module Df = Rt_lattice.Depfun
module Eng = Rt_engine.Engine
module Sio = Rt_trace.Stream_io
module Store = Rt_store.Store
module Codec = Rt_store.Codec
module Json = Rt_obs.Json

let now = Spans.now_ns

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Printf.ksprintf failwith fmt

let print_result ?(metrics = []) ~attempted failures =
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("attempted", Json.Int attempted);
            ("failures", Json.List (List.map (fun s -> Json.String s) failures));
            ("metrics",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics)) ]))

let model_text ~names hs = Df.to_string ~names (Df.lub hs) ^ "\n"

let load_trace path =
  match Rt_trace.Mmap_io.load path with
  | Ok (m, _) -> m.Rt_trace.Mmap_io.trace
  | Error e -> fail "%s: line %d: %s" path e.Sio.line e.Sio.message

let names_of trace = Rt_task.Task_set.names trace.Rt_trace.Trace.task_set

(* The model `learn -o` writes at bound 1 — which Lemma 4 (and the
   shard exchange law) make the expected output at every bound. *)
let canonical_model trace =
  model_text ~names:(names_of trace) (H.run ~bound:1 trace).H.hypotheses

(* Every period of a recover-mode parser, salvaged as `learn --stream
   --mode recover` and the daemon's streams do before feeding. *)
let salvaged_periods ~what parser =
  let rec go acc =
    match Sio.next parser with
    | Error e -> fail "%s: line %d: %s" what e.Sio.line e.Sio.message
    | Ok None -> List.rev acc
    | Ok (Some p) ->
      (match Rt_trace.Trace_io.salvage_period p with
       | `Clean -> go (p :: acc)
       | `Excised (p', _) -> go (p' :: acc)
       | `Dropped -> go acc)
  in
  go []

let recover_parser lines = Sio.create ~mode:`Recover ~eps:0 lines

let task_names parser = Rt_task.Task_set.names (Option.get (Sio.task_set parser))

(* `rtgen learn --stream --mode recover` of one file, in process. *)
let learn_stream_recover path =
  In_channel.with_open_bin path (fun ic ->
      let parser = recover_parser (Sio.lines_of_channel ic) in
      match salvaged_periods ~what:path parser with
      | [] -> fail "%s: no usable periods" path
      | ps ->
        let names = task_names parser in
        let e = Eng.create ~ntasks:(Array.length names) (Eng.Heuristic { bound = 1 }) in
        List.iter (Eng.feed e) ps;
        model_text ~names (Eng.finalize e).Eng.hypotheses)

let spool_traces dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".trace")
  |> List.sort String.compare
  |> List.map (fun f -> (Filename.remove_extension f, Filename.concat dir f))

(* ---- verification ---------------------------------------------------- *)

let verify_table1 trace models =
  let expected = canonical_model (load_trace trace) in
  let failures =
    List.filter_map
      (fun m ->
        match read_file m with
        | s when String.equal s expected -> None
        | _ -> Some (m ^ ": differs from the canonical bound-1 model")
        | exception Sys_error e -> Some e)
      models
  in
  print_result ~attempted:(List.length models) failures

let verify_fleet spool pairs =
  let expected =
    List.map (fun (id, path) -> (id, learn_stream_recover path)) (spool_traces spool)
  in
  let check (out, store) =
    let st = Store.open_ store in
    List.concat_map
      (fun (id, expected) ->
        let file =
          match read_file (Filename.concat out (id ^ ".model")) with
          | s when String.equal s expected -> []
          | _ -> [ out ^ "/" ^ id ^ ".model differs from learn --stream --mode recover" ]
          | exception Sys_error e -> [ e ]
        in
        let gen =
          let ( let* ) = Result.bind in
          match
            let* s = st in
            let* e = Store.resolve s ("model/" ^ id) in
            Store.read_blob s e.Store.address
          with
          | Ok blob when String.equal blob (Codec.model_wrap expected) -> []
          | Ok _ -> [ store ^ "//model/" ^ id ^ " differs" ]
          | Error m -> [ store ^ "//model/" ^ id ^ ": " ^ m ]
        in
        file @ gen)
      expected
  in
  print_result
    ~attempted:(2 * List.length expected * List.length pairs)
    (List.concat_map check pairs)

let address files =
  print_endline
    (Json.to_string
       (Json.Obj
          (List.map
             (fun f -> (f, Json.String (Store.address_of (read_file f))))
             files)))

(* ---- traced runs ----------------------------------------------------- *)

let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    (* nearest rank *)
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    float_of_int a.(max 0 (min (n - 1) k))

let fi = float_of_int

(* Real [Heuristic.feed] (through a sink-free engine) and the traced
   replay of the same periods, interleaved period by period so both see
   the same machine state: on a shared host the speed drifts by tens of
   percent between two back-to-back passes. [after_feed] runs untimed
   after each real feed (the fleet's checkpoints). *)
type core_run = {
  engines : Eng.t list;
  states : H.state list;
  feeds : int list;        (* per-period Engine.feed ns *)
  replays : Replay.t list;
  replay_ns : int;
}

let core_run tr ~bound ~ntasks ?(id0 = 0) ?(after_feed = ignore) groups =
  let feeds = ref [] and replay_ns = ref 0 and id = ref id0 in
  let one ps =
    let st = H.init ~bound ~ntasks () in
    let eng = Eng.of_heuristic st in
    let r = Replay.create ~bound ~ntasks in
    List.iter
      (fun p ->
        let a = now () in
        Eng.feed eng p;
        feeds := (now () - a) :: !feeds;
        after_feed eng;
        let b = now () in
        Replay.feed r tr ~id:!id p;
        replay_ns := !replay_ns + (now () - b);
        incr id)
      ps;
    (eng, st, r)
  in
  let runs = List.map one groups in
  { engines = List.map (fun (e, _, _) -> e) runs;
    states = List.map (fun (_, st, _) -> st) runs;
    feeds = !feeds;
    replays = List.map (fun (_, _, r) -> r) runs;
    replay_ns = !replay_ns }

let real_ns c = List.fold_left ( + ) 0 c.feeds

let concat_runs cs =
  { engines = List.concat_map (fun c -> c.engines) cs;
    states = List.concat_map (fun c -> c.states) cs;
    feeds = List.concat_map (fun c -> c.feeds) cs;
    replays = List.concat_map (fun c -> c.replays) cs;
    replay_ns = List.fold_left (fun a c -> a + c.replay_ns) 0 cs }

let self_of self name = fi (Option.value (Hashtbl.find_opt self name) ~default:0)

let core_metrics (c : core_run) self =
  let sum f = List.fold_left (fun a r -> a + f r) 0 c.replays in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 c.replays in
  let feed_ns = fi (real_ns c) in
  let phase_names =
    [ "trace.candidates"; "core.fanout"; "core.insert"; "core.merge";
      "core.weaken"; "core.postprocess" ]
  in
  let covered = List.fold_left (fun a n -> a +. self_of self n) 0.0 phase_names in
  let branches = sum (fun r -> r.Replay.branches) in
  [ ("trace.candidates_ns", self_of self "trace.candidates");
    ("trace.candidate_pairs", fi (sum (fun r -> r.Replay.candidate_pairs)));
    ("core.feed_ns", feed_ns);
    ("core.fanout_ns", self_of self "core.fanout");
    ("core.insert_ns", self_of self "core.insert");
    ("core.merge_ns", self_of self "core.merge");
    ("core.weaken_ns", self_of self "core.weaken");
    ("core.postprocess_ns", self_of self "core.postprocess");
    ("core.branches", fi branches);
    ("core.dedup_hits", fi (sum (fun r -> r.Replay.dedup_hits)));
    ("core.merges", fi (sum (fun r -> r.Replay.merges)));
    ("core.weakenings", fi (sum (fun r -> r.Replay.weakenings)));
    ("core.nonminimal", fi (sum (fun r -> r.Replay.nonminimal)));
    ("core.useful_ratio",
     if branches = 0 then 0.0
     else fi (sum (fun r -> r.Replay.useful)) /. fi branches);
    ("core.coverage", if feed_ns > 0.0 then covered /. feed_ns else 0.0) ]
  @ List.concat
      (List.mapi
         (fun k ph ->
           [ (Printf.sprintf "core.%s_minor_words" ph,
              sumf (fun r -> r.Replay.minor.(k)));
             (Printf.sprintf "core.%s_promoted_words" ph,
              sumf (fun r -> r.Replay.promoted.(k))) ])
         (Array.to_list Replay.phases))

let core_failures (c : core_run) =
  List.filter_map
    (fun (r, st) ->
      Option.map (fun d -> "replay diverges from Heuristic.feed: " ^ d)
        (Replay.check r st))
    (List.combine c.replays c.states)

let engine_feed_metrics feeds =
  [ ("engine.feed_p50_ns", percentile feeds 0.50);
    ("engine.feed_p99_ns", percentile feeds 0.99) ]

let zeros names = List.map (fun n -> (n, 0.0)) names

let shard_names =
  [ "shard.worker_max_ns"; "shard.worker_mean_ns"; "shard.skew"; "shard.fold_ns" ]

let daemon_names =
  [ "daemon.pump_ns"; "daemon.queue_wait_ns"; "daemon.queue_hwm";
    "daemon.busy_share"; "daemon.shed" ]

let store_names =
  [ "store.put_ns"; "store.commit_ns"; "store.bytes_written"; "store.dedup_ratio" ]

let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

let trace_table1 path ~bound ~shards ~jobs spans_out =
  let tr = Spans.create () in
  let majors0 = gc_majors () in
  (* load: the file's bytes alone; parse: Mmap_io.load, the batch reader
     `learn` uses, which maps the file itself *)
  let t0 = now () in
  ignore (read_file path);
  let t1 = now () in
  let trace = load_trace path in
  let t2 = now () in
  ignore (Spans.add tr "trace.load" ~id:0 ~parent:(-1) ~start:t0 ~stop:t1 ~busy:(t1 - t0));
  ignore (Spans.add tr "trace.parse" ~id:0 ~parent:(-1) ~start:t1 ~stop:t2 ~busy:(t2 - t1));
  let names = names_of trace in
  let ntasks = Rt_trace.Trace.task_count trace in
  let expected = canonical_model trace in
  let periods = trace.Rt_trace.Trace.periods in
  (* the period ranges the learn command's engines see *)
  let groups =
    Array.to_list
      (Array.map
         (fun (lo, hi) -> Array.to_list (Array.sub periods lo (hi - lo)))
         (Rt_shard.Shard.plan ~shards ~periods:(Array.length periods)))
  in
  let shard_metrics, shard_failures =
    if shards <= 1 then (zeros shard_names, [])
    else begin
      let pool = Rt_util.Domain_pool.create ~jobs in
      let s0 = now () in
      let out = Rt_shard.Shard.learn ~pool ~bound ~shards trace in
      let s1 = now () in
      Rt_util.Domain_pool.shutdown pool;
      let f0 = now () in
      let folded = Rt_shard.Shard.fold_results out.Rt_shard.Shard.shards in
      let f1 = now () in
      ignore (Spans.add tr "shard.learn" ~id:0 ~parent:(-1) ~start:s0 ~stop:s1 ~busy:(s1 - s0));
      (* workers run in parallel, so they are roots of their own, dated
         from the fan-out start *)
      Array.iteri
        (fun i (r : Rt_shard.Shard.result) ->
          ignore (Spans.add tr "shard.worker" ~id:i ~parent:(-1) ~start:s0
                    ~stop:(s0 + r.elapsed_ns) ~busy:r.elapsed_ns))
        out.shards;
      ignore (Spans.add tr "shard.fold" ~id:0 ~parent:(-1) ~start:f0 ~stop:f1 ~busy:(f1 - f0));
      let el = Array.map (fun (r : Rt_shard.Shard.result) -> fi r.elapsed_ns) out.shards in
      let mx = Array.fold_left Float.max 0.0 el in
      let mean = Array.fold_left ( +. ) 0.0 el /. fi (Array.length el) in
      ( [ ("shard.worker_max_ns", mx); ("shard.worker_mean_ns", mean);
          ("shard.skew", if mean > 0.0 then mx /. mean else 0.0);
          ("shard.fold_ns", fi (f1 - f0)) ],
        match folded with
        | Some m when String.equal (Df.to_string ~names m ^ "\n") expected -> []
        | Some _ | None -> [ "shard fold differs from the canonical bound-1 model" ] )
    end
  in
  (* start from a compacted heap, not the shard run's *)
  Gc.compact ();
  let c = core_run tr ~bound ~ntasks groups in
  let model_failures =
    if shards > 1 then []
    else
      match c.replays with
      | [ r ] when String.equal (model_text ~names (Replay.hypotheses r)) expected -> []
      | _ -> [ "traced model differs from the canonical bound-1 model" ]
  in
  let self = Spans.self_times tr in
  let metrics =
    [ ("trace.load_ns", self_of self "trace.load");
      ("trace.parse_ns", self_of self "trace.parse");
      ("trace.events", fi (Rt_trace.Trace.total_events trace)) ]
    @ core_metrics c self
    @ engine_feed_metrics c.feeds
    @ zeros [ "engine.checkpoint_ns"; "engine.checkpoint_bytes" ]
    @ shard_metrics @ zeros daemon_names @ zeros store_names
    @ [ ("gc.major_collections", fi (gc_majors () - majors0));
        ("bench.trace_overhead_ratio", fi c.replay_ns /. fi (real_ns c)) ]
  in
  Spans.write tr spans_out;
  print_result ~metrics ~attempted:(List.length groups + 1)
    (core_failures c @ shard_failures @ model_failures)

(* ---- fleet ------------------------------------------------------------ *)

(* A vehicle's trace split into the header lines and one chunk of lines
   per period, each chunk starting with its "period" line — the unit
   the open-loop writer appends on schedule. *)
let chunks_of_lines lines =
  let is_period l = String.length l >= 7 && String.sub l 0 7 = "period " in
  let header = ref [] and chunks = ref [] and cur = ref [] in
  List.iter
    (fun l ->
      if is_period l then begin
        if !cur <> [] then chunks := Array.of_list (List.rev !cur) :: !chunks;
        cur := [ l ]
      end
      else if !chunks = [] && !cur = [] then header := l :: !header
      else cur := l :: !cur)
    lines;
  if !cur <> [] then chunks := Array.of_list (List.rev !cur) :: !chunks;
  (List.rev !header, Array.of_list (List.rev !chunks))

let tail_lines path =
  let t = Sio.Tail.create path in
  let rec go acc =
    match Sio.Tail.step t with
    | Sio.Tail.Line l -> go (l :: acc)
    | Sio.Tail.Opened -> go acc
    | Sio.Tail.Waiting | Sio.Tail.Vanished | Sio.Tail.Rotated | Sio.Tail.Truncated ->
      let acc = match Sio.Tail.pending t with Some l -> l :: acc | None -> acc in
      Sio.Tail.close t;
      List.rev acc
  in
  go []

let list_source lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l

let meta kind ~source ~created_at =
  { Store.kind; bound = Some 1; source = Some source; parents = []; created_at }

let trace_fleet spool ~rate ~untraced_out ~work spans_out =
  let tr = Spans.create () in
  let majors0 = gc_majors () in
  let vehicles = Array.of_list (spool_traces spool) in
  let nv = Array.length vehicles in
  (* store: the daemon's checkpoint cadence, committed as Slot.save does *)
  let store =
    match Store.init (Filename.concat work "probe-store") with
    | Ok s -> s
    | Error m -> fail "store: %s" m
  in
  let ck_ns = ref 0 and ck_bytes = ref 0 in
  let put_ns = ref 0 and commit_ns = ref 0 and written = ref 0 in
  let puts = ref 0 and dups = ref 0 in
  let commit ~ref_ ~m blob =
    let addr = Store.address_of blob in
    incr puts;
    if Store.has_blob store addr then incr dups else written := !written + String.length blob;
    let a = now () in
    (match Store.put_blob store blob with Ok _ -> () | Error e -> fail "put: %s" e);
    let b = now () in
    (match Store.commit store ~ref_ ~meta:m blob with Ok _ -> () | Error e -> fail "commit: %s" e);
    let c = now () in
    put_ns := !put_ns + (b - a);
    commit_ns := !commit_ns + (c - b)
  in
  let events = ref 0 and failures = ref [] in
  let checkpoint id eng =
    if Eng.periods_fed eng mod 16 = 0 then begin
      let c0 = now () in
      let ck = match Eng.checkpoint eng with Ok s -> s | Error e -> fail "%s" e in
      ck_ns := !ck_ns + (now () - c0);
      ck_bytes := !ck_bytes + String.length ck;
      commit ~ref_:("ckpt/" ^ id)
        ~m:(meta Store.Checkpoint ~source:id ~created_at:(Eng.periods_fed eng))
        (Codec.checkpoint_to_blob ck)
    end
  in
  (* per vehicle, one at a time so only its periods are held: read the
     lines as the daemon does (Tail), parse in recover mode, then the
     real engine with the daemon's checkpoints beside the traced replay *)
  let per_vehicle =
    Array.mapi
      (fun i (id, path) ->
        let s = Spans.open_ tr "trace.load" ~id:i ~parent:(-1) in
        let lines = tail_lines path in
        Spans.close tr s;
        let s = Spans.open_ tr "trace.parse" ~id:i ~parent:(-1) in
        let parser = recover_parser (list_source lines) in
        let ps = salvaged_periods ~what:id parser in
        Spans.close tr s;
        List.iter (fun (p : Rt_trace.Period.t) -> events := !events + List.length p.events) ps;
        let names = task_names parser in
        let c =
          core_run tr ~bound:1 ~ntasks:(Array.length names) ~id0:(i * 1_000_000)
            ~after_feed:(checkpoint id) [ ps ]
        in
        let eng = List.hd c.engines in
        let text = model_text ~names (Eng.finalize eng).Eng.hypotheses in
        commit ~ref_:("model/" ^ id)
          ~m:(meta Store.Model ~source:id ~created_at:(Eng.periods_fed eng))
          (Codec.model_wrap text);
        (match read_file (Filename.concat untraced_out (id ^ ".model")) with
         | s when String.equal s text -> ()
         | _ -> failures := (id ^ ": in-process model differs from the daemon's") :: !failures
         | exception Sys_error e -> failures := e :: !failures);
        (chunks_of_lines lines, c))
      vehicles
  in
  let c = concat_runs (Array.to_list (Array.map snd per_vehicle)) in
  (* daemon: one Stream per vehicle, lines offered on the open-loop
     schedule, every stream pumped after each arrival batch *)
  let dstore =
    match Store.init (Filename.concat work "probe-daemon-store") with
    | Ok s -> s
    | Error m -> fail "store: %s" m
  in
  let split = Array.map fst per_vehicle in
  let streams =
    Array.mapi
      (fun i (id, _) ->
        let s, _ =
          Rt_daemon.Stream.create ~id
            { Rt_daemon.Stream.bound = 1; window = None; eps = Some 0;
              queue_capacity = 4096;
              checkpoint = Some (Rt_store.Slot.Ref (dstore, "ckpt/" ^ id));
              checkpoint_every = 16 }
        in
        List.iter (fun l -> ignore (Rt_daemon.Stream.offer_line s l)) (fst split.(i));
        s)
      vehicles
  in
  let nper = Array.map (fun (_, ch) -> Array.length ch) split in
  let slots = Array.fold_left ( + ) 0 nper in
  (* slot j: vehicle j mod nv appends its period j / nv *)
  let period_ns = int_of_float (1e9 /. rate) in
  let closing_due = Array.map (fun n -> Array.make n 0) nper in
  let fed_seen = Array.make nv 0 in
  let shed = Array.make nv false in
  let waits = ref [] in
  let hwm = ref 0 and busy = ref 0 in
  let pump i =
    let s = streams.(i) in
    hwm := max !hwm (Rt_daemon.Stream.queued s);
    let a = now () in
    let handled, status = Rt_daemon.Stream.pump s ~budget:64 in
    let b = now () in
    busy := !busy + (b - a);
    if handled > 0 then
      ignore (Spans.add tr "daemon.pump" ~id:i ~parent:(-1) ~start:a ~stop:b ~busy:(b - a));
    let fed = Rt_daemon.Stream.periods_fed s in
    for k = fed_seen.(i) to fed - 1 do
      if k < nper.(i) then waits := (a - closing_due.(i).(k)) :: !waits
    done;
    fed_seen.(i) <- fed;
    (match status with
     | Rt_daemon.Stream.Crashed m -> failures := (fst vehicles.(i) ^ ": " ^ m) :: !failures
     | Rt_daemon.Stream.Blocked | Rt_daemon.Stream.More | Rt_daemon.Stream.Done -> ());
    status
  in
  let start = now () + 20_000_000 in
  let j = ref 0 in
  while !j < slots do
    let t = now () in
    let due = start + (!j * period_ns) in
    if due > t then Unix.sleepf (fi (min (due - t) 1_000_000) /. 1e9)
    else begin
      (* offer every slot already due, then pump the streams that got data *)
      let touched = Array.make nv false in
      while !j < slots && start + (!j * period_ns) <= now () do
        let due = start + (!j * period_ns) in
        let i = !j mod nv and k = !j / nv in
        if k < nper.(i) then begin
          if k > 0 then closing_due.(i).(k - 1) <- due;
          Array.iter
            (fun l ->
              match Rt_daemon.Stream.offer_line streams.(i) l with
              | `Ok -> ()
              | `Overflow -> shed.(i) <- true)
            (snd split.(i)).(k);
          touched.(i) <- true
        end;
        incr j
      done;
      Array.iteri (fun i t -> if t then ignore (pump i)) touched
    end
  done;
  (* end of schedule: the drain closes every last period *)
  let drain_due = start + (slots * period_ns) in
  Array.iteri
    (fun i s ->
      closing_due.(i).(nper.(i) - 1) <- drain_due;
      Rt_daemon.Stream.close_input s;
      let rec finish () =
        match pump i with
        | Rt_daemon.Stream.Done | Rt_daemon.Stream.Crashed _ -> ()
        | Rt_daemon.Stream.Blocked | Rt_daemon.Stream.More -> finish ()
      in
      finish ())
    streams;
  let wall = now () - start in
  Array.iteri
    (fun i s ->
      let id, _ = vehicles.(i) in
      match Rt_daemon.Stream.render_model s with
      | Ok text ->
        (match read_file (Filename.concat untraced_out (id ^ ".model")) with
         | u when String.equal u text -> ()
         | _ -> failures := (id ^ ": traced stream model differs from the daemon's") :: !failures
         | exception Sys_error e -> failures := e :: !failures)
      | Error m -> failures := (id ^ ": " ^ m) :: !failures)
    streams;
  let self = Spans.self_times tr in
  let metrics =
    [ ("trace.load_ns", self_of self "trace.load");
      ("trace.parse_ns", self_of self "trace.parse");
      ("trace.events", fi !events) ]
    @ core_metrics c self
    @ engine_feed_metrics c.feeds
    @ [ ("engine.checkpoint_ns", fi !ck_ns); ("engine.checkpoint_bytes", fi !ck_bytes) ]
    @ zeros shard_names
    @ [ ("daemon.pump_ns", fi !busy);
        ("daemon.queue_wait_ns", percentile !waits 0.5);
        ("daemon.queue_hwm", fi !hwm);
        ("daemon.busy_share", fi !busy /. fi wall);
        ("daemon.shed", fi (Array.fold_left (fun a b -> if b then a + 1 else a) 0 shed)) ]
    @ [ ("store.put_ns", fi !put_ns); ("store.commit_ns", fi !commit_ns);
        ("store.bytes_written", fi !written);
        ("store.dedup_ratio", if !puts = 0 then 0.0 else fi !dups /. fi !puts) ]
    @ [ ("gc.major_collections", fi (gc_majors () - majors0));
        ("bench.trace_overhead_ratio", fi c.replay_ns /. fi (real_ns c)) ]
  in
  Spans.write tr spans_out;
  print_result ~metrics ~attempted:(3 * nv)
    (core_failures c @ List.rev !failures)

let () =
  match Array.to_list Sys.argv with
  | _ :: "address" :: files -> address files
  | _ :: "verify-table1" :: trace :: models -> verify_table1 trace models
  | _ :: "verify-fleet" :: spool :: dirs ->
    let rec pairs = function
      | out :: store :: rest -> (out, store) :: pairs rest
      | [] -> []
      | [ _ ] -> fail "verify-fleet: OUT and STORE come in pairs"
    in
    verify_fleet spool (pairs dirs)
  | [ _; "trace-table1"; trace; bound; shards; jobs; spans ] ->
    trace_table1 trace ~bound:(int_of_string bound) ~shards:(int_of_string shards)
      ~jobs:(int_of_string jobs) spans
  | [ _; "trace-fleet"; spool; rate; untraced_out; work; spans ] ->
    trace_fleet spool ~rate:(float_of_string rate) ~untraced_out ~work spans
  | _ ->
    prerr_endline "usage: see the header of perfbench/probe.ml";
    exit 2
