(* rtgen — command-line front end: simulate black-box systems, learn
   dependency models from traces, analyze and export them.

   Exit codes (shared with rtlint, see Rt_check.Exit_code): 0 success,
   1 findings / violated properties, 2 unreadable or malformed input,
   3 internal error; cmdliner keeps 124 for command-line misuse. *)

open Cmdliner

module Ec = Rt_check.Exit_code
module Store = Rt_store.Store
module Codec = Rt_store.Codec
module Slot = Rt_store.Slot

(* Commands evaluate to their exit code (Cmd.eval'); every input
   failure goes through here so stderr phrasing and the exit code
   stay consistent. *)
let err msg =
  prerr_endline ("rtgen: " ^ msg);
  Ec.input_error

(* Load a trace; in recover mode the quarantine summary goes to stderr so
   stdout stays pipeable model output. *)
let read_trace ?(mode = `Strict) ?eps ?window ?obs ?(quiet = false) path =
  match Rt_trace.Trace_io.load ~mode ?eps ?window ?obs path with
  | Ok (_, q) as ok ->
    if mode = `Recover && not quiet then
      prerr_endline (Rt_trace.Quarantine.summary q);
    ok
  | Error e ->
    Error (Printf.sprintf "%s: line %d: %s" path e.line e.message)
  | exception Sys_error m -> Error m

(* Shared -j/--jobs support. [jobs <= 1] stays strictly sequential (no
   pool, no domains); learned results are identical either way — only
   wall-clock time may differ. *)
let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Rt_util.Domain_pool.create ~jobs in
    Fun.protect ~finally:(fun () -> Rt_util.Domain_pool.shutdown pool)
      (fun () -> f (Some pool))
  end

(* --- simulate --- *)

let design_of_spec ~case_study ~tasks ~local_fraction ~seed =
  if case_study then (Rt_case.Gm_model.design (), Rt_case.Gm_model.names)
  else
    let layers = max 2 (tasks / 3) in
    let width = max 1 (tasks / layers) in
    let d =
      Rt_task.Generator.generate
        { Rt_task.Generator.default with
          layers; width_min = width; width_max = width + 1; local_fraction }
        ~seed
    in
    (d, Rt_task.Task_set.names (Rt_task.Design.task_set d))

(* End offset after [k] more lines of [text] starting at [off]. *)
let offset_after_lines text off k =
  let n = String.length text in
  let rec go off k =
    if k = 0 || off >= n then off
    else
      match String.index_from_opt text off '\n' with
      | None -> n
      | Some i -> go (i + 1) (k - 1)
  in
  go off k

(* `simulate --fleet N --spool DIR`: one trace per vehicle (seed+i), all
   written into the daemon's spool. With --trickle-lines the files grow
   round-robin, K lines at a time with a flush and a pause per sweep —
   N concurrently growing logs, which is what `rtgen serve` follows and
   what the chaos test SIGKILLs a daemon in the middle of. The final
   bytes are identical to a one-shot write, so reference models can be
   learned from the same files afterwards. *)
let simulate_fleet ~case_study ~tasks ~local_fraction ~seed ~periods
    ~drop_rate ~jitter_spike_rate ~glitch_rate ~fleet ~dir ~trickle_lines
    ~trickle_sleep =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  match
    Array.init fleet (fun i ->
        let seed = seed + i in
        let design, _ =
          design_of_spec ~case_study ~tasks ~local_fraction ~seed
        in
        let trace =
          Rt_sim.Simulator.run design
            { Rt_sim.Simulator.default_config with
              periods; seed; drop_rate; jitter_spike_rate; glitch_rate }
        in
        ( Printf.sprintf "vehicle%02d" i,
          Rt_trace.Trace_io.to_string trace ))
  with
  | exception Rt_sim.Simulator.Overrun { period; time } ->
    err (Printf.sprintf "design not schedulable: period %d overran at %dus"
           period time)
  | vehicles ->
    (match trickle_lines with
     | None ->
       Array.iter
         (fun (id, text) ->
           let path = Filename.concat dir (id ^ ".trace") in
           Rt_util.Atomic_file.write path text;
           Printf.eprintf "wrote %s\n" path)
         vehicles
     | Some k ->
       let n = Array.length vehicles in
       let ocs =
         Array.map
           (fun (id, _) ->
             (* rtlint: allow RTL007 trickle mode grows files in place so a tailing daemon sees partial traces *)
             open_out_bin (Filename.concat dir (id ^ ".trace")))
           vehicles
       in
       let offs = Array.make n 0 in
       let remaining = ref n in
       while !remaining > 0 do
         for i = 0 to n - 1 do
           let _, text = vehicles.(i) in
           let len = String.length text in
           if offs.(i) < len then begin
             let stop = offset_after_lines text offs.(i) k in
             output_substring ocs.(i) text offs.(i) (stop - offs.(i));
             flush ocs.(i);
             offs.(i) <- stop;
             if stop >= len then begin
               close_out ocs.(i);
               decr remaining
             end
           end
         done;
         if !remaining > 0 && trickle_sleep > 0.0 then Unix.sleepf trickle_sleep
       done;
       Printf.eprintf "trickled %d vehicle trace(s) into %s\n" n dir);
    Ec.ok

let simulate case_study tasks seed periods output dot drop_rate local_fraction
    jitter_spike_rate glitch_rate fleet spool trickle_lines trickle_sleep =
  match fleet with
  | Some n when n > 0 ->
    (match spool with
     | None -> err ("--fleet requires --spool DIR")
     | Some dir ->
       simulate_fleet ~case_study ~tasks ~local_fraction ~seed ~periods
         ~drop_rate ~jitter_spike_rate ~glitch_rate ~fleet:n ~dir
         ~trickle_lines ~trickle_sleep)
  | Some _ -> err ("--fleet must be positive")
  | None ->
    let design, _names =
      design_of_spec ~case_study ~tasks ~local_fraction ~seed
    in
    if dot then begin
      print_string (Rt_task.Design.to_dot design);
      Ec.ok
    end
    else
      match
        Rt_sim.Simulator.run design
          { Rt_sim.Simulator.default_config with
            periods; seed; drop_rate; jitter_spike_rate; glitch_rate }
      with
      | exception Rt_sim.Simulator.Overrun { period; time } ->
        err (Printf.sprintf "design not schedulable: period %d overran at %dus"
                  period time)
      | trace ->
        (match output with
         | None -> print_string (Rt_trace.Trace_io.to_string trace)
         | Some path ->
           Rt_trace.Trace_io.save path trace;
           Printf.eprintf "wrote %s (%s)\n" path
             (Format.asprintf "%a" Rt_trace.Trace.pp_summary trace));
        Ec.ok

(* --- learn --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Open DIR, resolve [ref[@N|@latest]], read (and hash-verify) the
   blob: the one way every consumer dereferences a store address. *)
let resolve_blob dir spec =
  let ( let* ) = Result.bind in
  let* s = Store.open_ dir in
  let* e = Store.resolve s spec in
  let* blob = Store.read_blob s e.Store.address in
  Ok (e, blob)

(* A corrupt checkpoint is survivable (the fallback relearns from
   scratch) but must never be invisible: operators watching a fleet
   need to know recovery aids are dying. One counter — rendered as
   checkpoint_corrupt_total by the Prometheus exposition — and one
   flight event per discarded checkpoint. *)
let note_corrupt_checkpoint ~obs ~flight where why =
  (match obs with
   | Some r -> Rt_obs.Registry.incr (Rt_obs.Registry.counter r "checkpoint.corrupt")
   | None -> ());
  match flight with
  | Some f ->
    Rt_obs.Flight.record f Rt_obs.Flight.Warn ~stream:where
      ~kind:"checkpoint.corrupt"
      (Printf.sprintf "%s; starting fresh" why)
  | None -> ()

(* Checkpointed heuristic learning: feed period by period, snapshotting the
   engine every [every] periods into [ckpt] — a bare file or a store ref
   ([DIR//ref]). A checkpoint is tagged with a digest of the
   (post-quarantine) trace so a resume against different data is refused
   rather than silently wrong. [stop_after] processes that many periods and
   exits — a deterministic stand-in for getting killed, used by the tests. *)
let run_checkpointed ~pool ~obs ~flight ~progress ~window ~bound ~every
    ~stop_after ~ckpt (q : Rt_trace.Quarantine.t) trace =
  let module Eng = Rt_engine.Engine in
  let tag = Digest.to_hex (Digest.string (Rt_trace.Trace_io.to_string trace)) in
  let ckpt_path = Slot.describe ckpt in
  let fresh () =
    let eng =
      Eng.create ?window ?pool ?obs
        ~ntasks:(Rt_trace.Trace.task_count trace) (Eng.Heuristic { bound })
    in
    Eng.set_provenance eng
      ~dropped:(List.length q.dropped)
      ~repaired:(List.length q.repaired);
    Ok eng
  in
  let corrupt m =
    (* Integrity damage (torn write, flipped bit): the checkpoint
       is an optimization, not the data — warn and relearn from
       scratch rather than dying on a recovery aid. A *mismatched*
       checkpoint still refuses below: that one parsed fine and
       points at operator error. *)
    Printf.eprintf
      "warning: %s: %s; starting fresh (the corrupt checkpoint will \
       be overwritten)\n" ckpt_path m;
    note_corrupt_checkpoint ~obs ~flight ckpt_path
      (Printf.sprintf "%s: %s" ckpt_path m);
    fresh ()
  in
  let eng =
    if Slot.exists ckpt then
      match Slot.load ckpt with
      | Error m -> corrupt m
      | Ok data ->
        (match Eng.resume ?pool ?obs (data) with
         | Ok (eng, tag') when tag' = tag ->
           Printf.eprintf "resumed %s: %d periods already processed\n"
             ckpt_path (Eng.periods_fed eng);
           Ok eng
         | Ok _ ->
           Error (Printf.sprintf
                    "%s was checkpointed against a different trace; delete it \
                     to start over" ckpt_path)
         | Error m -> corrupt m)
    else fresh ()
  in
  match eng with
  | Error _ as e -> e
  | Ok eng ->
    let periods = Rt_trace.Trace.periods trace in
    let total = List.length periods in
    let skip = Eng.periods_fed eng in
    if skip > total then
      Error (Printf.sprintf
               "%s claims %d periods processed but the trace has only %d"
               ckpt_path skip total)
    else begin
      let write_ckpt () =
        match Eng.checkpoint ~tag eng with
        | Ok data ->
          Slot.save ~bound ~source:tag
            ~created_at:(Eng.periods_fed eng) ckpt data
        | Error m -> Printf.eprintf "checkpoint failed: %s\n" m
      in
      let stopped = ref false in
      (try
         List.iteri (fun i p ->
             if i >= skip && not !stopped then begin
               Eng.feed eng p;
               let done_ = i + 1 in
               (match progress with
                | Some n when done_ mod n = 0 || done_ = total ->
                  Printf.eprintf "progress: %d/%d periods, %d hypotheses\n%!"
                    done_ total (List.length (Eng.current eng))
                | Some _ | None -> ());
               if done_ mod every = 0 || done_ = total then write_ckpt ();
               match stop_after with
               | Some k when done_ - skip >= k -> stopped := true
               | Some _ | None -> ()
             end)
           periods
       with e -> write_ckpt (); raise e);
      if !stopped then begin
        write_ckpt ();
        Eng.publish eng;
        Printf.eprintf "stopped after %d periods (checkpoint in %s)\n"
          (Eng.periods_fed eng) ckpt_path;
        Ok None
      end
      else begin
        (* Success: the checkpoint has served its purpose. *)
        Slot.discard ckpt;
        Ok (Some (Eng.snapshot eng, eng))
      end
    end

(* `--shards K --checkpoint`: shards are processed sequentially, each
   snapshotting its engine pair (main + bound-1 companion) to
   FILE.shard<i> / FILE.shard<i>.b1 every [every] periods. Tags bind
   the trace digest, shard index, partition width and bound, so a
   resume against different data or a different partition is refused
   rather than silently wrong. All files are removed on success.
   Returns [Ok None] when --stop-after cut the run short, otherwise
   [Ok (Some model)] with the folded model option. *)
let run_checkpointed_sharded ~obs ~flight ~progress ~window ~bound ~shards
    ~every ~stop_after ~ckpt trace =
  let module Eng = Rt_engine.Engine in
  let module S = Rt_shard.Shard in
  let digest =
    Digest.to_hex (Digest.string (Rt_trace.Trace_io.to_string trace))
  in
  let periods = trace.Rt_trace.Trace.periods in
  let total = Array.length periods in
  let ranges = S.plan ~shards ~periods:total in
  let k = Array.length ranges in
  let ntasks = Rt_trace.Trace.task_count trace in
  let tag i which = Printf.sprintf "%s+shard%d/%d+b%d+%s" digest i k bound which in
  (* Per-shard slots: FILE.shard<i>[.b1] for files, ref/shard<i>[/b1]
     generations for store-backed checkpoints. *)
  let slot_of i which =
    match ckpt with
    | Slot.File p ->
      Slot.File
        (Printf.sprintf "%s.shard%d%s" p i
           (if which = "b1" then ".b1" else ""))
    | Slot.Ref (s, r) ->
      Slot.Ref
        ( s,
          Printf.sprintf "%s/shard%d%s" r i
            (if which = "b1" then "/b1" else "") )
  in
  let path_of i which = Slot.describe (slot_of i which) in
  (* Resume an engine from its per-shard slot, or start fresh. *)
  let engine_at i which engine_bound =
    let slot = slot_of i which in
    let path = path_of i which in
    let corrupt m =
      (* Same degradation as the unsharded path: a corrupt checkpoint
         costs a relearn of this shard, never the run. *)
      Printf.eprintf "warning: %s: %s; starting shard fresh\n" path m;
      note_corrupt_checkpoint ~obs ~flight path (Printf.sprintf "%s: %s" path m);
      Ok (Eng.create ?window ~ntasks (Eng.Heuristic { bound = engine_bound }))
    in
    if Slot.exists slot then
      match Slot.load slot with
      | Error m -> corrupt m
      | Ok data ->
        (match Eng.resume data with
         | Ok (eng, t) when t = tag i which ->
           if Eng.periods_fed eng > 0 then
             Printf.eprintf "resumed %s: %d periods already processed\n" path
               (Eng.periods_fed eng);
           Ok eng
         | Ok _ ->
           Error (Printf.sprintf
                    "%s was checkpointed against a different trace or \
                     partition; delete it to start over" path)
         | Error m -> corrupt m)
    else Ok (Eng.create ?window ~ntasks (Eng.Heuristic { bound = engine_bound }))
  in
  let budget = ref (match stop_after with Some n -> n | None -> max_int) in
  let stopped = ref false in
  let done_total = ref 0 in
  let finished = ref [] in
  let rec shard_loop i =
    if i >= k || !stopped then Ok ()
    else
      let lo, hi = ranges.(i) in
      match engine_at i "main" bound with
      | Error _ as e -> e
      | Ok main ->
        (match
           if bound = 1 then Ok None
           else Result.map Option.some (engine_at i "b1" 1)
         with
         | Error _ as e -> e
         | Ok comp ->
           let skip = Eng.periods_fed main in
           let comp_skip =
             match comp with Some c -> Eng.periods_fed c | None -> skip
           in
           if comp_skip <> skip then begin
             (* A kill between the two dumps (main written, companion
                not yet) leaves the pair one period apart; engines
                cannot rewind, so relearn the shard from scratch. *)
             Printf.eprintf
               "warning: %s and its .b1 companion disagree on progress \
                (%d vs %d); restarting shard %d fresh\n"
               (path_of i "main") skip comp_skip i;
             let main = Eng.create ?window ~ntasks (Eng.Heuristic { bound }) in
             let comp =
               if bound = 1 then None
               else Some (Eng.create ?window ~ntasks (Eng.Heuristic { bound = 1 }))
             in
             run_shard i lo hi main comp
           end
           else if skip > hi - lo then
             Error (Printf.sprintf
                      "%s claims %d periods processed but shard %d has \
                       only %d" (path_of i "main") skip i (hi - lo))
           else run_shard i lo hi main comp)
  and run_shard i lo hi main comp =
    let skip = Eng.periods_fed main in
    done_total := !done_total + skip;
    let write_ckpt () =
      let dump which eng =
        match Eng.checkpoint ~tag:(tag i which) eng with
        | Ok data ->
          Slot.save ~bound:(if which = "b1" then 1 else bound)
            ~source:(tag i which) ~created_at:(Eng.periods_fed eng)
            (slot_of i which) data
        | Error m -> Printf.eprintf "checkpoint failed: %s\n" m
      in
      dump "main" main;
      Option.iter (dump "b1") comp
    in
    (try
       for j = lo + skip to hi - 1 do
         if not !stopped then begin
           Eng.feed main periods.(j);
           Option.iter (fun c -> Eng.feed c periods.(j)) comp;
           incr done_total;
           decr budget;
           (match progress with
            | Some n when !done_total mod n = 0 || !done_total = total ->
              Printf.eprintf
                "progress: %d/%d periods (shard %d), %d hypotheses\n%!"
                !done_total total i (List.length (Eng.current main))
            | Some _ | None -> ());
           let fed = Eng.periods_fed main in
           if fed mod every = 0 || fed = hi - lo then write_ckpt ();
           if !budget <= 0 then stopped := true
         end
       done
     with e -> write_ckpt (); raise e);
    if Eng.periods_fed main < hi - lo then begin
      write_ckpt ();
      Ok ()  (* stopped mid-shard; the outer match reports it *)
    end
    else begin
      finished := Option.value comp ~default:main :: !finished;
      shard_loop (i + 1)
    end
  in
  match shard_loop 0 with
  | Error _ as e -> e
  | Ok () ->
    if !stopped then begin
      Printf.eprintf "stopped after %d periods (checkpoints in %s.shard*)\n"
        !done_total (Slot.describe ckpt);
      Ok None
    end
    else begin
      let companions = Array.of_list (List.rev !finished) in
      let parts =
        Array.map
          (fun e -> (S.summary_of e, Option.get (Eng.violations e)))
          companions
      in
      let model = S.fold_summaries parts in
      (* Success: the checkpoints have served their purpose. *)
      for i = 0 to k - 1 do
        Slot.discard (slot_of i "main");
        Slot.discard (slot_of i "b1")
      done;
      Ok (Some (model, parts))
    end

(* Write the registry's sinks. Atomic writes: a run killed mid-dump never
   leaves a truncated JSON document behind. The profiler sinks go to
   stderr / a side file so the model on stdout stays byte-identical to
   an unprofiled run. *)
let write_sinks ?(profile = false) ?folded ~metrics ~trace_events obs =
  match obs with
  | None -> ()
  | Some reg ->
    let dump path json =
      Rt_util.Atomic_file.write path (Rt_obs.Json.to_string ~pretty:true json);
      Printf.eprintf "wrote %s\n" path
    in
    Option.iter (fun p -> dump p (Rt_obs.Registry.to_json reg)) metrics;
    Option.iter (fun p -> dump p (Rt_obs.Registry.trace_events_json reg))
      trace_events;
    if profile then prerr_string (Rt_obs.Profile.hotspots reg);
    Option.iter
      (fun p ->
        Rt_util.Atomic_file.write p (Rt_obs.Profile.folded reg);
        Printf.eprintf "wrote %s\n" p)
      folded

let inconsistent_msg =
  "inconsistent trace: some message has no admissible \
   sender/receiver under the assumed model of computation"

let output_model ~names ~dot ~output lub =
  (match output with
   | Some file ->
     (* Atomic: byte-equality sweeps diff these files, so a killed run
        must never leave a truncated image behind. *)
     Rt_util.Atomic_file.write file
       (Rt_lattice.Depfun.to_string ~names lub ^ "\n");
     Printf.eprintf "wrote model to %s\n" file
   | None -> ());
  if dot then print_string (Rt_analysis.Dep_graph.to_dot ~names lub)
  else Format.printf "%s@." (Rt_lattice.Depfun.to_string ~names lub);
  Ec.ok

(* Shared tail of `learn`: print (or save, or dot) the answer set. *)
let render_model ~names ~dot ~output hs =
  match hs with
  | [] -> err inconsistent_msg
  | hs ->
    if not dot then
      Format.printf "%d most specific hypothesis(es); least upper bound:@."
        (List.length hs);
    output_model ~names ~dot ~output (Rt_lattice.Depfun.lub hs)

(* Sharded tail: stdout carries only the folded model, which is
   byte-identical for every shard count (the sharding contract);
   per-shard accounting goes to stderr. *)
let render_folded ~names ~dot ~output = function
  | None -> err inconsistent_msg
  | Some model ->
    if not dot then Format.printf "folded model (exact at bound 1):@.";
    output_model ~names ~dot ~output model

(* Commit a learned model to a content-addressed store: the bound-1
   companion parts (the pre-weaken fleet-merge interchange consumed by
   `rtgen merge`) under REF/b1 (REF/b1/<i> when sharded), optionally
   the full answer set under REF/answers, and the model itself under
   REF with the companion addresses as parents — so `store gc` keeps
   the interchange alive exactly as long as the model is referenced. *)
let store_commit ~store ~ref_ ~names ~bound ~source ~created_at ?answers
    ~(parts : (Rt_lattice.Depfun.t option * bool array array) array) model =
  let ( let* ) = Result.bind in
  let* s = Store.init store in
  let meta kind ~bound ~parents =
    { Store.kind; bound = Some bound; source = Some source; parents;
      created_at }
  in
  let companion_refs =
    match Array.to_list parts with
    | [ p ] -> [ (ref_ ^ "/b1", p) ]
    | ps -> List.mapi (fun i p -> (Printf.sprintf "%s/b1/%d" ref_ i, p)) ps
  in
  let* parents =
    List.fold_left
      (fun acc (r, (summary, violations)) ->
         let* acc = acc in
         match summary with
         | None -> Error (r ^ ": inconsistent part has no companion")
         | Some summary ->
           let blob = Codec.companion_to_blob ~names ~summary ~violations () in
           let* e = Store.commit s ~ref_:r ~meta:(meta Store.Companion ~bound:1 ~parents:[]) blob in
           Ok (e.Store.address :: acc))
      (Ok []) companion_refs
  in
  let parents = List.rev parents in
  if parents = [] then
    Printf.eprintf
      "note: no bound-1 companion produced; %s is committed without the \
       fleet-merge interchange\n" ref_;
  let* () =
    match answers with
    | None | Some [] -> Ok ()
    | Some hs ->
      let* _ =
        Store.commit s ~ref_:(ref_ ^ "/answers")
          ~meta:(meta Store.Answerset ~bound ~parents:[])
          (Codec.answerset_to_blob ~names hs)
      in
      Ok ()
  in
  let* e =
    Store.commit s ~ref_ ~meta:(meta Store.Model ~bound ~parents)
      (Codec.model_to_blob ~names model)
  in
  Printf.eprintf "stored %s//%s@%d %s (%d companion part(s))\n"
    (Store.root s) ref_ e.Store.gen e.Store.address (List.length parents);
  Ok ()

let blowup_msg set_size limit =
  Printf.sprintf
    "exact version space exceeded %d (limit %d); use the heuristic \
     (--bound) or a candidate --window"
    set_size limit

(* `learn --stream`: parse and learn one period at a time — the trace is
   never materialized, so a multi-hour capture (or stdin from a live
   logger) costs one period of memory. Produces the same model and the
   same quarantine account as the batch path, because both sit on
   Stream_io / Engine. *)
let learn_stream ~exact ~shards ~bound ~window ~jobs ~obs ~mode ~eps ~progress
    ~dot ~output ~store ~store_ref ~metrics ~trace_events ~profile ~folded
    path =
  let write_sinks = write_sinks ~profile ?folded in
  let module Eng = Rt_engine.Engine in
  let module SStream = Rt_shard.Shard.Stream in
  match (if path = "-" then Ok stdin
         else try Ok (open_in path) with Sys_error m -> Error m)
  with
  | Error m -> err (m)
  | Ok ic ->
    Fun.protect ~finally:(fun () -> if path <> "-" then close_in_noerr ic)
      (fun () ->
         with_pool jobs (fun pool ->
             let parser =
               Rt_trace.Stream_io.create ~mode ~eps ?window
                 (Rt_trace.Stream_io.lines_of_channel ic)
             in
             let alg =
               if exact then Eng.Exact { limit = None }
               else Eng.Heuristic { bound }
             in
             (* One engine, or — with --shards K — K round-robin units
                (engine pairs) folded at end of stream. The sharded
                units are private and obs-free; shard.* counters are
                published from this domain instead. *)
             let core = ref None in
             let core_of ts =
               match !core with
               | Some c -> c
               | None ->
                 let ntasks = Rt_task.Task_set.size ts in
                 let c =
                   match shards with
                   | Some k ->
                     `Sharded
                       (SStream.create ?window ~ntasks ~bound ~shards:k ())
                   | None ->
                     (* With --store, run a bound-1 companion alongside:
                        its pre-weaken matrix is the fleet-merge
                        interchange this process publishes. At bound 1
                        the main engine is its own companion. *)
                     let comp =
                       if store <> None && not exact && bound > 1 then
                         Some (Eng.create ?window ~ntasks
                                 (Eng.Heuristic { bound = 1 }))
                       else None
                     in
                     `Single (Eng.create ?window ?pool ?obs ~ntasks alg, comp)
                 in
                 core := Some c; c
             in
             let feed_core c p =
               match c with
               | `Single (e, comp) ->
                 Eng.feed e p;
                 Option.iter (fun c -> Eng.feed c p) comp
               | `Sharded s -> SStream.feed s p
             in
             let periods_fed_core = function
               | `Single (e, _) -> Eng.periods_fed e
               | `Sharded s -> SStream.periods_fed s
             in
             let hypotheses_core = function
               | `Single (e, _) -> List.length (Eng.current e)
               | `Sharded s -> SStream.hypotheses s
             in
             let rec pump () =
               match Rt_trace.Stream_io.next parser with
               | Error e ->
                 Error (Printf.sprintf "%s: line %d: %s" path e.line e.message)
               | Ok None -> Ok ()
               | Ok (Some p) ->
                 let c =
                   core_of (Option.get (Rt_trace.Stream_io.task_set parser))
                 in
                 feed_core c p;
                 (match progress with
                  | Some n when periods_fed_core c mod n = 0 ->
                    Printf.eprintf "progress: %d periods, %d hypotheses\n%!"
                      (periods_fed_core c) (hypotheses_core c)
                  | Some _ | None -> ());
                 pump ()
             in
             let outcome =
               match pump () with
               | exception Rt_learn.Exact.Blowup { set_size; limit; _ } ->
                 Error (blowup_msg set_size limit)
               | r -> r
             in
             match outcome with
             | Error m -> err (m)
             | Ok () ->
               let q = Rt_trace.Stream_io.quarantine parser in
               Option.iter (fun r -> Rt_trace.Stream_io.publish r parser) obs;
               if mode = `Recover then
                 prerr_endline (Rt_trace.Quarantine.summary q);
               match !core with
               | Some c when periods_fed_core c > 0 ->
                 let names =
                   Rt_task.Task_set.names
                     (Option.get (Rt_trace.Stream_io.task_set parser))
                 in
                 let commit ~parts ?answers model =
                   match store with
                   | None -> Ec.ok
                   | Some dir ->
                     (match
                        store_commit ~store:dir ~ref_:store_ref ~names ~bound
                          ~source:path ~created_at:(periods_fed_core c)
                          ?answers ~parts model
                      with
                      | Ok () -> Ec.ok
                      | Error m -> err ("store: " ^ m))
                 in
                 (match c with
                  | `Single (e, comp) ->
                    Eng.set_provenance e
                      ~dropped:(List.length q.Rt_trace.Quarantine.dropped)
                      ~repaired:(List.length q.Rt_trace.Quarantine.repaired);
                    let parts =
                      match Eng.violations e with
                      | Some v when not exact ->
                        [| (Rt_shard.Shard.summary_of
                              (Option.value comp ~default:e), v) |]
                      | Some _ | None -> [||]
                    in
                    let snap = Eng.finalize e in
                    write_sinks ~metrics ~trace_events obs;
                    let code =
                      render_model ~names ~dot ~output snap.Eng.hypotheses
                    in
                    (match snap.Eng.lub with
                     | Some model when code = Ec.ok ->
                       Ec.combine code
                         (commit ~parts ~answers:snap.Eng.hypotheses model)
                     | Some _ | None -> code)
                  | `Sharded s ->
                    (match obs with
                     | Some r ->
                       let set = Rt_obs.Registry.set_counter r in
                       set "shard.shards" (SStream.shards s);
                       set "shard.periods" (SStream.periods_fed s);
                       set "shard.messages" (SStream.messages_fed s);
                       set "shard.jobs" jobs
                     | None -> ());
                    write_sinks ~metrics ~trace_events obs;
                    let folded = SStream.fold s in
                    let code = render_folded ~names ~dot ~output folded in
                    (match folded with
                     | Some model when code = Ec.ok ->
                       Ec.combine code (commit ~parts:(SStream.parts s) model)
                     | Some _ | None -> code))
               | Some _ | None ->
                 err ("no usable periods after quarantine")))

let learn path exact auto stream shards bound window jobs dot output mode eps
    checkpoint every stop_after store store_ref flight_out metrics
    trace_events profile folded progress =
  let module Eng = Rt_engine.Engine in
  let obs =
    if metrics <> None || trace_events <> None || profile || folded <> None
    then Some (Rt_obs.Registry.create ())
    else None
  in
  (* One recorder for the run: checkpoint-corruption notices land in it,
     dumped at exit. *)
  let flight = Option.map (fun _ -> Rt_obs.Flight.create ()) flight_out in
  let dump_flight () =
    match (flight, flight_out) with
    | Some f, Some p ->
      Rt_util.Atomic_file.write p
        (Rt_obs.Json.to_string ~pretty:true (Rt_obs.Flight.to_json f));
      Printf.eprintf "wrote %s\n" p
    | _ -> ()
  in
  let write_sinks = write_sinks ~profile ?folded in
  let conflict =
    if stream && checkpoint <> None then
      Some "--stream cannot be combined with --checkpoint"
    else if stream && auto then
      Some "--auto re-feeds the trace at each bound and needs it in memory; \
            drop --stream"
    else if auto && exact then
      Some "--auto searches for a heuristic bound; drop --exact"
    else if (match shards with Some k -> k < 1 | None -> false) then
      Some "--shards must be >= 1"
    else if shards <> None && exact then
      Some "sharded learning runs the bounded heuristic; drop --exact"
    else if shards <> None && auto then
      Some "--auto searches for a heuristic bound; drop --shards"
    else if store <> None && exact then
      Some "the store interchange is the heuristic's bound-1 companion; \
            drop --exact"
    else if store <> None && auto then
      Some "--auto re-learns at several bounds; pick one bound to commit \
            with --store"
    else None
  in
  let run () =
  match conflict with
  | Some m -> err (m)
  | None ->
    let checkpoint =
      match checkpoint with
      | None -> Ok None
      | Some spec -> Result.map Option.some (Slot.of_string spec)
    in
    match checkpoint with
    | Error m -> err m
    | Ok checkpoint ->
    if stream then
      learn_stream ~exact ~shards ~bound ~window ~jobs ~obs ~mode ~eps
        ~progress ~dot ~output ~store ~store_ref ~metrics ~trace_events
        ~profile ~folded path
    else begin
      match read_trace ~mode ~eps ?window ?obs path with
      | Error m -> err (m)
      | Ok (trace, _) when Rt_trace.Trace.period_count trace = 0 ->
        err ("no usable periods after quarantine")
      | Ok (trace, q) ->
        let names = Rt_task.Task_set.names trace.task_set in
        (* Commit to the store after rendering: stdout and -o carry the
           model either way, and a store failure surfaces as an input
           error without un-printing anything. *)
        let commit ~parts ?answers model =
          match store with
          | None -> Ec.ok
          | Some dir ->
            (match
               store_commit ~store:dir ~ref_:store_ref ~names ~bound
                 ~source:path
                 ~created_at:(Rt_trace.Trace.period_count trace)
                 ?answers ~parts model
             with
             | Ok () -> Ec.ok
             | Error m -> err ("store: " ^ m))
        in
        if auto then begin
          let report, chosen =
            with_pool jobs (fun pool ->
                Rt_engine.Learner.auto ?window ?pool ?obs trace)
          in
          Format.printf "auto bound search:@.";
          List.iter (fun (s : Rt_engine.Learner.bound_step) ->
              Format.printf "  bound %d: %d hypothesis(es), lub %s, %.3fs@."
                s.bound s.hypotheses
                (if s.lub_changed then "changed" else "stable")
                s.elapsed_s)
            report.Rt_engine.Learner.trajectory;
          Format.printf "selected bound %d@." chosen;
          write_sinks ~metrics ~trace_events obs;
          render_model ~names ~dot ~output
            report.Rt_engine.Learner.hypotheses
        end
        else if shards <> None then begin
          let shards = Option.get shards in
          let render_and_commit ~parts model =
            let code = render_folded ~names ~dot ~output model in
            match model with
            | Some m when code = Ec.ok -> Ec.combine code (commit ~parts m)
            | Some _ | None -> code
          in
          match checkpoint with
          | Some ckpt ->
            (match
               run_checkpointed_sharded ~obs ~flight ~progress ~window ~bound
                 ~shards ~every ~stop_after ~ckpt trace
             with
             | Error m -> write_sinks ~metrics ~trace_events obs; err m
             | Ok None ->
               write_sinks ~metrics ~trace_events obs;
               Ec.ok  (* --stop-after: checkpoints written *)
             | Ok (Some (model, parts)) ->
               write_sinks ~metrics ~trace_events obs;
               render_and_commit ~parts model)
          | None ->
            let out =
              with_pool jobs (fun pool ->
                  Rt_shard.Shard.learn ?window ?pool ?obs ~bound ~shards trace)
            in
            Array.iteri
              (fun i (r : Rt_shard.Shard.result) ->
                 Printf.eprintf
                   "shard %d: %d periods, %d messages, %d hypotheses, %.3fs\n"
                   i r.periods r.messages
                   (List.length r.hypotheses)
                   (float_of_int r.elapsed_ns /. 1e9))
              out.shards;
            (match obs with
             | Some r -> Rt_obs.Registry.set_counter r "shard.jobs" jobs
             | None -> ());
            write_sinks ~metrics ~trace_events obs;
            render_and_commit
              ~parts:(Array.map
                        (fun (r : Rt_shard.Shard.result) ->
                           (r.summary, r.violations))
                        out.shards)
              out.model
        end
        else
          (* Single-engine tail: the answer set plus the bound-1
             companion part this process would publish to a store. *)
          let parts_of ~main ~companion =
            match Eng.violations main with
            | Some v ->
              [| (Rt_shard.Shard.summary_of
                    (Option.value companion ~default:main), v) |]
            | None -> [||]
          in
          let result =
            match checkpoint with
            | Some _ when exact ->
              Error
                "--checkpoint requires the heuristic algorithm (drop --exact)"
            | Some ckpt ->
              (match
                 with_pool jobs (fun pool ->
                     run_checkpointed ~pool ~obs ~flight ~progress ~window
                       ~bound ~every ~stop_after ~ckpt q trace)
               with
               | Error _ as e -> e
               | Ok None -> Ok None
               | Ok (Some (s, eng)) ->
                 (* The checkpointed path runs one engine; only at bound
                    1 is it its own exact companion. *)
                 let parts =
                   if bound = 1 then parts_of ~main:eng ~companion:None
                   else [||]
                 in
                 Ok (Some (s.Rt_engine.Engine.hypotheses, parts)))
            | None ->
              with_pool jobs (fun pool ->
                  let alg =
                    if exact then Eng.Exact { limit = None }
                    else Eng.Heuristic { bound }
                  in
                  let ntasks = Rt_trace.Trace.task_count trace in
                  let eng = Eng.create ?window ?pool ?obs ~ntasks alg in
                  let companion =
                    if store <> None && not exact && bound > 1 then
                      Some (Eng.create ?window ~ntasks
                              (Eng.Heuristic { bound = 1 }))
                    else None
                  in
                  Eng.set_provenance eng
                    ~dropped:(List.length q.dropped)
                    ~repaired:(List.length q.repaired);
                  let periods = Rt_trace.Trace.periods trace in
                  let total = List.length periods in
                  match
                    List.iteri (fun i p ->
                        Eng.feed eng p;
                        Option.iter (fun c -> Eng.feed c p) companion;
                        match progress with
                        | Some n when (i + 1) mod n = 0 || i + 1 = total ->
                          Printf.eprintf
                            "progress: %d/%d periods, %d hypotheses\n%!"
                            (i + 1) total (List.length (Eng.current eng))
                        | Some _ | None -> ())
                      periods
                  with
                  | () ->
                    let parts =
                      if exact then [||] else parts_of ~main:eng ~companion
                    in
                    Ok (Some ((Eng.finalize eng).Eng.hypotheses, parts))
                  | exception Rt_learn.Exact.Blowup { set_size; limit; _ } ->
                    Error (blowup_msg set_size limit))
          in
          write_sinks ~metrics ~trace_events obs;
          (match result with
           | Error m -> err (m)
           | Ok None -> Ec.ok  (* --stop-after: checkpoint written *)
           | Ok (Some (hs, parts)) ->
             let code = render_model ~names ~dot ~output hs in
             (match hs with
              | _ :: _ when code = Ec.ok ->
                Ec.combine code
                  (commit ~parts ~answers:hs (Rt_lattice.Depfun.lub hs))
              | _ -> code))
    end
  in
  let code = run () in
  dump_flight ();
  code

(* --- watch --- *)

(* Follow a (possibly growing) trace source and keep the model current:
   print the LUB whenever it changes, and call out drift — a previously
   converged answer set invalidated by new evidence. *)
let watch path bound window mode eps poll follow max_periods flight_out =
  let module Eng = Rt_engine.Engine in
  let module Df = Rt_lattice.Depfun in
  let stop = ref false in
  (* One recorder for the whole session: drift notices and the tail's
     rotation/truncation absorptions land in it, dumped at exit. *)
  let flight =
    Option.map (fun _ -> Rt_obs.Flight.create ()) flight_out
  in
  let record sev kind detail =
    match flight with
    | Some f -> Rt_obs.Flight.record f sev ~stream:path ~kind detail
    | None -> ()
  in
  let dump_flight () =
    match (flight, flight_out) with
    | Some f, Some p ->
      Rt_util.Atomic_file.write p
        (Rt_obs.Json.to_string ~pretty:true (Rt_obs.Flight.to_json f));
      Printf.eprintf "wrote %s\n" p
    | _ -> ()
  in
  let run src =
         let parser = Rt_trace.Stream_io.create ~mode ~eps ?window src in
         let eng = ref None in
         let prev_lub = ref None in
         let was_converged = ref false in
         let result = ref (Ec.ok) in
         let finished = ref false in
         while not !finished do
           match Rt_trace.Stream_io.next parser with
           | Error e ->
             result :=
               err (Printf.sprintf "%s: line %d: %s" path e.line e.message);
             finished := true
           | Ok None -> finished := true
           | Ok (Some p) ->
             let ts = Option.get (Rt_trace.Stream_io.task_set parser) in
             let names = Rt_task.Task_set.names ts in
             let e =
               match !eng with
               | Some e -> e
               | None ->
                 let e =
                   Eng.create ?window ~ntasks:(Rt_task.Task_set.size ts)
                     (Eng.Heuristic { bound })
                 in
                 eng := Some e; e
             in
             Eng.feed e p;
             let snap = Eng.snapshot e in
             let changed =
               match !prev_lub, snap.Eng.lub with
               | None, None -> false
               | Some a, Some b -> not (Df.equal a b)
               | Some _, None | None, Some _ -> true
             in
             if changed then begin
               if !was_converged then begin
                 record Rt_obs.Flight.Warn "watch.drift"
                   (Printf.sprintf
                      "previously converged model invalidated at period %d"
                      snap.Eng.periods);
                 Format.printf
                   "drift: previously converged model invalidated at \
                    period %d@."
                   snap.Eng.periods
               end;
               Format.printf "period %d: %d hypothesis(es)%s@."
                 snap.Eng.periods
                 (List.length snap.Eng.hypotheses)
                 (if snap.Eng.converged then ", converged" else "");
               (match snap.Eng.lub with
                | Some lub -> Format.printf "%s@." (Df.to_string ~names lub)
                | None ->
                  Format.printf "inconsistent trace: empty answer set@.")
             end;
             prev_lub := snap.Eng.lub;
             was_converged := snap.Eng.converged;
             Format.print_flush ();
             (match max_periods with
              | Some k when Eng.periods_fed e >= k ->
                stop := true;
                finished := true
              | Some _ | None -> ())
         done;
         !result
  in
  let code =
    if follow && path <> "-" then
      (* Path-tracking follower: survives log rotation (rename + recreate)
         and copytruncate shrinks, and waits for a not-yet-created file
         instead of failing — a watch session outlives the logger's
         housekeeping. *)
      run
        (Rt_trace.Stream_io.follow_path ~poll_interval:poll
           ~on_event:(fun ev ->
             match ev with
             | Rt_trace.Stream_io.Tail.Rotated ->
               record Rt_obs.Flight.Warn "tail.rotated"
                 "followed file replaced; continuing on the new file"
             | Rt_trace.Stream_io.Tail.Truncated ->
               record Rt_obs.Flight.Warn "tail.truncated"
                 "followed file shrank; continuing from the new end"
             | Rt_trace.Stream_io.Tail.Opened ->
               record Rt_obs.Flight.Info "tail.opened" "followed file opened"
             | _ -> ())
           ~stop:(fun () -> !stop) path)
    else
      match (if path = "-" then Ok stdin
             else try Ok (open_in path) with Sys_error m -> Error m)
      with
      | Error m -> err (m)
      | Ok ic ->
        Fun.protect ~finally:(fun () -> if path <> "-" then close_in_noerr ic)
          (fun () ->
             run
               (if follow then
                  Rt_trace.Stream_io.follow_lines ~poll_interval:poll
                    ~stop:(fun () -> !stop) ic
                else Rt_trace.Stream_io.lines_of_channel ic))
  in
  dump_flight ();
  code

(* --- analyze --- *)

let analyze path bound window jobs mode eps =
  match read_trace ~mode ~eps ?window path with
  | Error m -> err (m)
  | Ok (trace, _) when Rt_trace.Trace.period_count trace = 0 ->
    err ("no usable periods after quarantine")
  | Ok (trace, q) ->
    let names = Rt_task.Task_set.names trace.task_set in
    if mode = `Recover then begin
      Format.printf "== ingestion ==@.%s@." (Rt_trace.Quarantine.summary q);
      let c = Rt_trace.Quarantine.confidence q in
      if c < 1.0 then
        Format.printf
          "warning: model evidence degraded to %.0f%% — %d period(s) \
           repaired, %d dropped@."
          (100.0 *. c) (List.length q.repaired) (List.length q.dropped)
    end;
    (match
       with_pool jobs (fun pool ->
           (Rt_learn.Heuristic.run ?pool ?window ~bound trace).hypotheses)
     with
     | [] -> err ("inconsistent trace")
     | hs ->
       let model = Rt_lattice.Depfun.lub hs in
       Format.printf "== dependency relations ==@.%s@."
         (Rt_analysis.Dep_graph.summary ~names model);
       Format.printf "== node classification ==@.";
       List.iter (fun info ->
           Format.printf "%a@." (Rt_analysis.Classify.pp_info ~names) info)
         (Rt_analysis.Classify.classify model);
       let n = Rt_lattice.Depfun.size model in
       if n <= 24 then
         Format.printf "== state space ==@.%d of %d period outcomes consistent (%.1fx reduction)@."
           (Rt_analysis.Reachability.count_consistent model)
           (Rt_analysis.Reachability.total_states n)
           (Rt_analysis.Reachability.reduction model);
       Format.printf "== operation modes ==@.";
       List.iter (fun cls ->
           if List.length cls > 1 then
             Format.printf "always together: {%s}@."
               (String.concat " " (List.map (fun i -> names.(i)) cls)))
         (Rt_analysis.Modes.co_execution_classes model);
       List.iter (fun (a, b) ->
           Format.printf "mutually exclusive: %s vs %s@." names.(a) names.(b))
         (Rt_analysis.Modes.exclusive_pairs trace);
       Ec.ok)

(* --- stats / vcd --- *)

let stats path recover eps =
  let mode = if recover then `Recover else `Strict in
  match read_trace ~mode ~eps ~quiet:true path with
  | Error m -> err (m)
  | Ok (trace, q) ->
    print_endline (Rt_trace.Stats.to_string trace);
    (* With --recover the quarantine account is part of the statistics,
       so it goes to stdout, unlike the learn/analyze stderr summary. *)
    if recover then begin
      print_endline "== quarantine ==";
      print_endline (Rt_trace.Quarantine.summary q);
      Printf.printf "confidence: %.0f%%\n"
        (100.0 *. Rt_trace.Quarantine.confidence q)
    end;
    Ec.ok

(* --- report --- *)

let render_metrics ~source content =
  match Rt_obs.Json.of_string content with
  | Error m -> err (Printf.sprintf "%s: %s" source m)
  | Ok json ->
    (match Rt_obs.Report.render json with
     | Error m -> err (Printf.sprintf "%s: %s" source m)
     | Ok rendered -> print_string rendered; Ec.ok)

(* One request/response exchange against a live daemon's control
   socket (the rtgend protocol: request line in, response until EOF). *)
let control_roundtrip sock req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX sock);
       let msg = Bytes.of_string (req ^ "\n") in
       let rec send off =
         if off < Bytes.length msg then
           send (off + Unix.write fd msg off (Bytes.length msg - off))
       in
       send 0;
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 4096 in
       let rec drain () =
         match Unix.read fd chunk 0 4096 with
         | 0 -> ()
         | n ->
           Buffer.add_subbytes buf chunk 0 n;
           drain ()
       in
       drain ();
       Buffer.contents buf)

let render_prometheus ~source content =
  match Rt_obs.Json.of_string content with
  | Error m -> err (Printf.sprintf "%s: %s" source m)
  | Ok json ->
    (match Rt_obs.Prom.render json with
     | Error m -> err (Printf.sprintf "%s: %s" source m)
     | Ok rendered -> print_string rendered; Ec.ok)

let report path socket query prometheus =
  if prometheus && query <> "metrics" then
    err ("--prometheus already implies a query; drop --query")
  else
    match socket with
    | Some sock ->
      let query = if prometheus then "prometheus" else query in
      (match control_roundtrip sock query with
       | exception Unix.Unix_error (e, _, _) ->
         err (Printf.sprintf "%s: %s" sock (Unix.error_message e))
       | resp ->
         if query = "metrics" then render_metrics ~source:sock resp
         else begin
           print_string resp;
           if String.length resp >= 6 && String.sub resp 0 6 = "error:" then
             err ("daemon refused the request")
           else Ec.ok
         end)
    | None ->
      (match path with
       | None -> err ("need a METRICS file argument or --socket PATH")
       | Some path ->
         (match
            let ic = open_in_bin path in
            Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                really_input_string ic (in_channel_length ic))
          with
          | exception Sys_error m -> err (m)
          | content ->
            if prometheus then render_prometheus ~source:path content
            else render_metrics ~source:path content))

(* --- top --- *)

(* Live fleet telemetry: poll the daemon's status over the control
   socket and redraw a compact per-stream table. Plain ANSI clear — no
   terminal library — so it works in CI logs (--no-clear) too. *)
let top socket interval count no_clear =
  let kv_of tokens =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      tokens
  in
  let field kvs key = Option.value ~default:"-" (List.assoc_opt key kvs) in
  let render resp =
    let lines = String.split_on_char '\n' resp in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "%-16s %-11s %9s %6s %9s %6s %5s %9s\n" "STREAM" "PHASE"
         "PERIODS" "HYPS" "RESTARTS" "QUEUE" "SHED" "CKPT-AGE");
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | "stream" :: id :: rest ->
          let kvs = kv_of rest in
          Buffer.add_string b
            (Printf.sprintf "%-16s %-11s %9s %6s %9s %6s %5s %9s\n" id
               (field kvs "phase") (field kvs "periods")
               (field kvs "hypotheses") (field kvs "restarts")
               (field kvs "queue") (field kvs "shed") (field kvs "ckpt_age"))
        | "totals" :: rest ->
          let kvs = kv_of rest in
          Buffer.add_string b
            (Printf.sprintf
               "\n\
                totals: %s accepted, %s active, %s finalized, %s failed, %s \
                shed, %s busy, %s restarts, %s periods\n"
               (field kvs "accepted") (field kvs "active")
               (field kvs "finalized") (field kvs "failed") (field kvs "shed")
               (field kvs "busy") (field kvs "restarts") (field kvs "periods"))
        | _ -> ())
      lines;
    Buffer.contents b
  in
  let rec loop remaining =
    match control_roundtrip socket "status" with
    | exception Unix.Unix_error (e, _, _) ->
      err (Printf.sprintf "%s: %s" socket (Unix.error_message e))
    | resp ->
      if String.length resp >= 6 && String.sub resp 0 6 = "error:" then begin
        print_string resp;
        err ("daemon refused the request")
      end
      else begin
        if not no_clear then print_string "\027[2J\027[H";
        print_string (render resp);
        flush stdout;
        match remaining with
        | Some n when n <= 1 -> Ec.ok
        | _ ->
          Unix.sleepf interval;
          loop (Option.map (fun n -> n - 1) remaining)
      end
  in
  loop count

(* --- serve --- *)

let serve spool listen control out_dir checkpoint_dir store checkpoint_every
    bound window eps jobs max_streams queue_capacity tick max_restarts backoff
    backoff_cap stall_timeout idle_timeout metrics flight flight_capacity
    stop_after_total drain_after_total =
  let policy =
    {
      Rt_daemon.Supervisor.max_restarts;
      backoff_base = backoff;
      backoff_factor = 2.0;
      backoff_cap;
      stall_timeout;
      idle_timeout =
        (match idle_timeout with Some s -> s | None -> infinity);
    }
  in
  let cfg =
    {
      Rt_daemon.Daemon.default with
      spool;
      listen;
      control;
      out_dir;
      checkpoint_dir;
      store;
      checkpoint_every;
      bound;
      window;
      eps = Some eps;
      jobs;
      max_streams;
      queue_capacity;
      tick;
      policy;
      metrics_path = metrics;
      flight_capacity;
      flight_path = flight;
      stop_after_total;
      drain_after_total;
    }
  in
  match Rt_daemon.Daemon.run cfg with
  | Ok _ -> Ec.ok
  | Error m -> err (m)

let vcd path import period_len output =
  if import then
    match Rt_trace.Vcd.load ?period_len path with
    | Error (e : Rt_trace.Vcd.parse_error) ->
      err (Printf.sprintf "%s: line %d: %s" path e.line e.message)
    | exception Sys_error m -> err (m)
    | Ok (trace, used_len) ->
      (match output with
       | None -> print_string (Rt_trace.Trace_io.to_string trace)
       | Some file ->
         Rt_trace.Trace_io.save file trace;
         Printf.eprintf "wrote %s (period length %dus)\n" file used_len);
      Ec.ok
  else
    match read_trace path with
    | Error m -> err (m)
    | Ok (trace, _) ->
      (match output with
       | None -> print_string (Rt_trace.Vcd.to_string ?period_len trace)
       | Some file -> Rt_trace.Vcd.save ?period_len file trace);
      Ec.ok

(* --- inject --- *)

let inject path kinds rate eps seed torn_at output =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    if rate < 0.0 || rate > 1.0 then
      err ("--rate must be in [0, 1]")
    else if (match torn_at with Some n -> n < 0 | None -> false) then
      err ("--torn-at must be a non-negative byte offset")
    else begin
      let spec = { Rt_trace.Corrupt.kinds; rate; eps; seed } in
      let raw = Rt_trace.Corrupt.apply spec trace in
      match torn_at with
      | Some at ->
        (* torn-write mode: cut the rendered trace mid-line/mid-frame,
           emulating a writer killed with a partially flushed buffer *)
        let torn = Rt_trace.Corrupt.torn_write ~at (Rt_trace.Corrupt.to_string raw) in
        (match output with
         | None -> print_string torn
         | Some file ->
           Rt_util.Atomic_file.write file torn;
           Printf.eprintf "wrote %s (torn at byte %d of %d)\n" file
             (String.length torn)
             (String.length (Rt_trace.Corrupt.to_string raw)));
        Ec.ok
      | None ->
        (match output with
         | None -> print_string (Rt_trace.Corrupt.to_string raw)
         | Some file ->
           Rt_trace.Corrupt.save file raw;
           Printf.eprintf "wrote %s (%d periods corrupted with seed %d)\n"
             file (List.length raw.raw_periods) seed);
        Ec.ok
    end

(* --- anonymize --- *)

let anonymize path output =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    let anon, mapping = Rt_trace.Anonymize.anonymize trace in
    (match output with
     | None -> print_string (Rt_trace.Trace_io.to_string anon)
     | Some file ->
       Rt_trace.Trace_io.save file anon;
       Printf.eprintf "wrote %s\n" file);
    List.iter (fun (original, hidden) ->
        Printf.eprintf "%s -> %s\n" original hidden)
      mapping.Rt_trace.Anonymize.task_names;
    Ec.ok

(* --- gantt --- *)

let gantt path period output =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    (match List.nth_opt (Rt_trace.Trace.periods trace) period with
     | None -> err (Printf.sprintf "no period %d in the trace" period)
     | Some pd ->
       (match output with
        | None -> print_string (Rt_trace.Gantt.to_svg pd)
        | Some file -> Rt_trace.Gantt.save file pd);
       Ec.ok)

(* --- query (was `check` before the model auditor took that name) --- *)

let run_query path query bound window jobs model_file =
  match read_trace path with
  | Error m -> err (m)
  | Ok (trace, _) ->
    (match Rt_analysis.Query.parse query with
     | Error m -> err ("query: " ^ m)
     | Ok q ->
       let model_result =
         match model_file with
         | Some file ->
           (* Reuse a model saved by `learn -o` — or committed to a
              store ([DIR//ref@N]) — instead of re-learning. *)
           (match Store.split_address file with
            | Some (dir, spec) ->
              (match
                 Result.bind (resolve_blob dir spec) (fun (_, blob) ->
                     Codec.model_of_blob blob)
               with
               | Ok (model, names) -> Ok (model, names)
               | Error m -> Error (file ^ ": " ^ m))
            | None ->
              (try
                 let ic = open_in file in
                 let content =
                   Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                       really_input_string ic (in_channel_length ic))
                 in
                 match Rt_lattice.Depfun.parse content with
                 | Ok (model, names) -> Ok (model, names)
                 | Error m -> Error (file ^ ": " ^ m)
               with Sys_error m -> Error m))
         | None ->
           (match
              with_pool jobs (fun pool ->
                  (Rt_learn.Heuristic.run ?pool ?window ~bound trace).hypotheses)
            with
            | [] -> Error "inconsistent trace"
            | hs ->
              Ok (Rt_lattice.Depfun.lub hs,
                  Rt_task.Task_set.names trace.task_set))
       in
       (match model_result with
        | Error m -> err (m)
        | Ok (model, names) ->
          (match Rt_analysis.Query.eval ~model ~names ~trace q with
           | Error m -> err (m)
           | Ok verdicts ->
             let all = List.for_all (fun v -> v.Rt_analysis.Query.holds) verdicts in
             List.iter (fun (v : Rt_analysis.Query.verdict) ->
                 Format.printf "%s  %s  (%s)@."
                   (if v.holds then "[ok]  " else "[FAIL]")
                   (Rt_analysis.Query.clause_to_string v.clause)
                   v.detail)
               verdicts;
             if all then Ec.ok
             else begin
               prerr_endline "rtgen: property violated";
               Ec.findings
             end)))

(* --- check: static audit of learned artifacts --- *)

(* A MODEL argument is a file saved by `learn -o`, or a store address
   [DIR//ref[@N]] naming a model, companion or answer-set blob (an
   answer set expands into one model per member). *)
let load_model_spec path =
  let module Mc = Rt_check.Model_check in
  match Store.split_address path with
  | None -> Result.map (fun m -> [ m ]) (Mc.load_model path)
  | Some (dir, spec) ->
    let ( let* ) = Result.bind in
    let* _, blob = resolve_blob dir spec in
    (match Codec.kind_of_blob blob with
     | Some Store.Model ->
       let* d, names = Codec.model_of_blob blob in
       Ok [ Mc.model_of_depfun ~source:path ~names d ]
     | Some Store.Companion ->
       let* decoded = Codec.companion_of_blob blob in
       let d, _, names = decoded in
       Ok [ Mc.model_of_depfun ~source:path ~names d ]
     | Some Store.Answerset ->
       let* ms = Codec.answerset_of_blob blob in
       Ok
         (List.mapi
            (fun i (d, names) ->
               Mc.model_of_depfun
                 ~source:(Printf.sprintf "%s#%d" path i) ~names d)
            ms)
     | Some Store.Checkpoint ->
       Error (path ^ ": checkpoint blob; audit it with --checkpoint")
     | Some Store.Summary ->
       Error (path ^ ": rtlint summary blob; nothing to audit")
     | None -> Error (path ^ ": unrecognized blob format"))

let model_check models ckpt trace_file format output strict =
  let module Mc = Rt_check.Model_check in
  let module F = Rt_check.Finding in
  if models = [] && ckpt = None then
    err "nothing to check: give MODEL files and/or --checkpoint"
  else begin
    let input_errors = ref [] in
    let bad_input m = input_errors := m :: !input_errors in
    let loaded =
      List.concat_map (fun path ->
          match load_model_spec path with
          | Ok ms -> ms
          | Error m -> bad_input m; [])
        models
    in
    (* The lattice-law self-check is cheap (7^3 triples) and silent on a
       healthy build, so every audit includes it. *)
    let findings = ref (Mc.check_laws ()) in
    let add fs = findings := !findings @ fs in
    List.iter (fun m -> add (Mc.check_model m)) loaded;
    if List.length loaded > 1 then add (Mc.check_answer_set loaded);
    (match trace_file with
     | None -> ()
     | Some tf ->
       (match read_trace ~quiet:true tf with
        | Error m -> bad_input m
        | Ok (trace, _) ->
          List.iter (fun m -> add (Mc.check_against_trace m trace)) loaded));
    (match ckpt with
     | None -> ()
     | Some path ->
       let data =
         match Store.split_address path with
         | None ->
           (match read_file path with
            | data -> Ok data
            | exception Sys_error m -> Error m)
         | Some (dir, spec) ->
           Result.map snd (resolve_blob dir spec)
       in
       (match data with
        | Error m -> bad_input m
        | Ok data ->
          (match Mc.check_checkpoint ~source:path data with
           | Ok fs -> add fs
           | Error (m, f) -> bad_input m; add [ f ])));
    let fs =
      if strict then
        List.map (fun (f : F.t) ->
            if f.severity = F.Warning then { f with severity = F.Error }
            else f)
          !findings
      else !findings
    in
    print_string (F.render ~tool:"rtgen check" ~format fs);
    Option.iter (fun file ->
        Rt_util.Atomic_file.write file
          (F.render ~tool:"rtgen check" ~format:F.Sarif fs);
        Printf.eprintf "wrote %s\n" file)
      output;
    match List.rev !input_errors with
    | [] -> F.exit_code fs
    | es ->
      List.iter (fun m -> ignore (err m)) es;
      Ec.combine Ec.input_error (F.exit_code fs)
  end

(* --- merge: the cross-process half of sharding --- *)

(* Fold the bound-1 companion parts published in K stores into one
   fleet model. Each store contributes the latest generation of every
   Companion-kind ref (narrowed to REF/b1* by --ref); the fold is the
   same exchange law as --shards, so over stores produced from a
   partition of one trace's periods the result is byte-equal to the
   monolithic bound-1 model, whatever the partition shape. *)
let merge stores ref_filter dot output out_store out_ref =
  let ( let* ) = Result.bind in
  let collect dir =
    let* s = Store.open_ dir in
    let keep r =
      match ref_filter with
      | None -> true
      | Some base ->
        let p = base ^ "/b1" in
        r = p
        || (String.length r > String.length p + 1
            && String.sub r 0 (String.length p + 1) = p ^ "/")
    in
    List.fold_left
      (fun acc r ->
         let* acc = acc in
         let* e = Store.resolve s r in
         if e.Store.meta.Store.kind <> Store.Companion then Ok acc
         else
           let* blob = Store.read_blob s e.Store.address in
           let* decoded = Codec.companion_of_blob blob in
           let summary, violations, names = decoded in
           Ok
             ((Printf.sprintf "%s//%s@%d" dir r e.Store.gen,
               e.Store.address, e.Store.meta.Store.created_at,
               summary, violations, names)
              :: acc))
      (Ok [])
      (List.filter keep (Store.refs s))
    |> Result.map List.rev
  in
  match
    List.fold_left
      (fun acc dir ->
         let* acc = acc in
         let* ps = collect dir in
         Ok (acc @ ps))
      (Ok []) stores
  with
  | Error m -> err m
  | Ok [] -> err "no companion parts found in the given store(s)"
  | Ok ((_, _, _, _, _, names) :: _ as all) ->
    if List.exists (fun (_, _, _, _, _, ns) -> ns <> names) all then
      err "the stores' companion parts disagree on the task set"
    else begin
      List.iter
        (fun (label, _, created, _, _, _) ->
           Printf.eprintf "merging %s (%d periods)\n" label created)
        all;
      let parts =
        Array.of_list (List.map (fun (_, _, _, s, v, _) -> (Some s, v)) all)
      in
      match Rt_shard.Shard.fold_summaries parts with
      | None -> err inconsistent_msg
      | Some model ->
        if not dot then
          Format.printf "fleet model (%d part(s) from %d store(s)):@."
            (Array.length parts) (List.length stores);
        let code = output_model ~names ~dot ~output model in
        match out_store with
        | Some dir when code = Ec.ok ->
          (match
             let* s = Store.init dir in
             let meta =
               { Store.kind = Store.Model; bound = Some 1;
                 source = Some "merge";
                 parents = List.map (fun (_, a, _, _, _, _) -> a) all;
                 created_at =
                   List.fold_left (fun a (_, _, c, _, _, _) -> a + c) 0 all }
             in
             let* e =
               Store.commit s ~ref_:out_ref ~meta
                 (Codec.model_to_blob ~names model)
             in
             Printf.eprintf "stored %s//%s@%d %s\n" (Store.root s) out_ref
               e.Store.gen e.Store.address;
             Ok ()
           with
           | Ok () -> code
           | Error m -> err ("store: " ^ m))
        | Some _ | None -> code
    end

(* --- store: plumbing over the content-addressed store --- *)

let entry_line (e : Store.entry) =
  let m = e.Store.meta in
  Printf.sprintf "gen %d %s kind=%s created=%d%s%s%s" e.Store.gen
    e.Store.address
    (Store.kind_to_string m.Store.kind)
    m.Store.created_at
    (match m.Store.bound with
     | Some b -> Printf.sprintf " bound=%d" b
     | None -> "")
    (match m.Store.parents with
     | [] -> ""
     | ps -> " parents=" ^ String.concat "," ps)
    (match m.Store.source with Some s -> " source=" ^ s | None -> "")

let cmd_store_init dir =
  match Store.init dir with
  | Ok s -> Printf.eprintf "initialized %s\n" (Store.root s); Ec.ok
  | Error m -> err m

let cmd_store_refs dir =
  match Store.open_ dir with
  | Error m -> err m
  | Ok s ->
    let bad = ref None in
    List.iter
      (fun r ->
         match Store.resolve s r with
         | Ok e ->
           Format.printf "%s @%d %s %s@." r e.Store.gen e.Store.address
             (Store.kind_to_string e.Store.meta.Store.kind)
         | Error m -> if !bad = None then bad := Some m)
      (Store.refs s);
    (match !bad with Some m -> err m | None -> Ec.ok)

let cmd_store_log dir ref_ =
  match Store.open_ dir with
  | Error m -> err m
  | Ok s ->
    (match Store.generations s ref_ with
     | Error m -> err m
     | Ok entries ->
       List.iter (fun e -> print_endline (entry_line e)) entries;
       Ec.ok)

let cmd_store_cat address dot output =
  match Store.split_address address with
  | None -> err "ADDRESS must have the form DIR//ref[@N|@latest]"
  | Some (dir, spec) ->
    (match resolve_blob dir spec with
     | Error m -> err m
     | Ok (_, blob) ->
       if dot then
         (* Model blobs render through the same dependency-graph
            exporter as `learn --dot`. *)
         match Codec.model_of_blob blob with
         | Error m -> err (address ^ ": " ^ m)
         | Ok (d, names) ->
           print_string (Rt_analysis.Dep_graph.to_dot ~names d);
           Ec.ok
       else begin
         (match output with
          | Some file ->
            Rt_util.Atomic_file.write file blob;
            Printf.eprintf "wrote %s\n" file
          | None -> print_string blob);
         Ec.ok
       end)

let cmd_store_put dir ref_ file =
  match
    let ( let* ) = Result.bind in
    let* data =
      try Ok (read_file file) with Sys_error m -> Error m
    in
    let* s = Store.init dir in
    let kind =
      Option.value (Codec.kind_of_blob data) ~default:Store.Checkpoint
    in
    let meta =
      { Store.kind; bound = None; source = Some file; parents = [];
        created_at = 0 }
    in
    Store.commit s ~ref_ ~meta data
  with
  | Error m -> err m
  | Ok e ->
    Printf.printf "%s@%d %s\n" ref_ e.Store.gen e.Store.address;
    Ec.ok

let cmd_store_gc dir =
  match Store.open_ dir with
  | Error m -> err m
  | Ok s ->
    (match Store.gc s with
     | Error m -> err m
     | Ok (kept, deleted) ->
       Printf.printf "kept %d blob(s), deleted %d\n" kept deleted;
       Ec.ok)

(* --- table1 --- *)

let table1 fast jobs =
  let trace = Rt_case.Gm_model.trace () in
  Format.printf "%a@." Rt_trace.Trace.pp_summary trace;
  let bounds = if fast then [ 1; 4; 16 ] else [ 1; 4; 16; 32; 64; 100; 120; 150 ] in
  let rows =
    with_pool jobs (fun pool ->
        List.map (fun bound ->
            let t0 = Rt_obs.Registry.now_ns () in
            let o = Rt_learn.Heuristic.run ?pool ~bound trace in
            let dt = float_of_int (Rt_obs.Registry.now_ns () - t0) /. 1e9 in
            [ string_of_int bound; Printf.sprintf "%.3f" dt;
              string_of_int (List.length o.hypotheses) ])
          bounds)
  in
  print_string
    (Rt_util.Table.render
       ~aligns:[ Rt_util.Table.Right; Rt_util.Table.Right; Rt_util.Table.Right ]
       ~header:[ "bound"; "run time (s)"; "|D*|" ]
       rows);
  Ec.ok

(* --- example --- *)

let example () =
  let trace = Rt_case.Paper_example.trace () in
  let o = Rt_learn.Exact.run trace in
  Format.printf "worked example (paper sec. 3.3): %d most specific hypotheses@."
    (List.length o.hypotheses);
  Format.printf "dLUB:@.%s@."
    (Rt_lattice.Depfun.to_string (Rt_lattice.Depfun.lub o.hypotheses));
  Ec.ok

(* --- cmdliner wiring --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let periods_arg =
  Arg.(value & opt int 27 & info [ "periods" ] ~docv:"N" ~doc:"Periods to simulate.")

let bound_arg =
  Arg.(value & opt int 16 & info [ "bound"; "b" ] ~docv:"B"
         ~doc:"Hypothesis-set bound for the heuristic algorithm.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the hypothesis fan-out (1 = sequential; \
               results are identical for every N).")

let window_arg =
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"US"
         ~doc:"Candidate window in microseconds (narrows sender/receiver \
               inference).")

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit a Graphviz graph instead of text.")

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"Trace file in the rtgen-trace format.")

(* Streaming commands also accept "-" for stdin, which `some file` would
   reject; existence of real paths is checked at open time instead. *)
let stream_trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
         ~doc:"Trace file in the rtgen-trace format, or $(b,-) for stdin.")

let mode_arg =
  let mode_conv = Arg.enum [ ("strict", `Strict); ("recover", `Recover) ] in
  Arg.(value & opt mode_conv `Strict & info [ "mode" ] ~docv:"MODE"
         ~doc:"Ingestion mode: $(b,strict) rejects the first malformed line \
               or period; $(b,recover) repairs or quarantines damage and \
               reports it on stderr.")

let eps_arg =
  Arg.(value & opt int 0 & info [ "eps" ] ~docv:"US"
         ~doc:"Clock-skew tolerance for recover-mode repairs, in \
               microseconds.")

let format_arg =
  let fmt_conv =
    Arg.enum
      [ ("text", Rt_check.Finding.Text);
        ("json", Rt_check.Finding.Json_format);
        ("sarif", Rt_check.Finding.Sarif) ]
  in
  Arg.(value & opt fmt_conv Rt_check.Finding.Text & info [ "format" ] ~docv:"FMT"
         ~doc:"Findings format: $(b,text), $(b,json) or $(b,sarif).")

let findings_out_arg =
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE"
         ~doc:"Additionally write a SARIF 2.1.0 report to FILE (for code \
               scanning upload), independent of $(b,--format).")

let simulate_cmd =
  let case_study =
    Arg.(value & flag & info [ "case-study" ]
           ~doc:"Use the built-in 18-task GM-like controller.")
  in
  let tasks =
    Arg.(value & opt int 12 & info [ "tasks" ] ~docv:"N"
           ~doc:"Number of tasks for a random design.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the trace to FILE instead of stdout.")
  in
  let drop_rate =
    Arg.(value & opt float 0.0 & info [ "drop-rate" ] ~docv:"P"
           ~doc:"Fault injection: probability that a frame is missing from \
                 the log.")
  in
  let local_fraction =
    Arg.(value & opt float 0.0 & info [ "local-fraction" ] ~docv:"P"
           ~doc:"Fraction of edges delivered ECU-internally (random designs \
                 only; such messages never reach the bus log).")
  in
  let jitter_spike_rate =
    Arg.(value & opt float 0.0 & info [ "jitter-spike-rate" ] ~docv:"P"
           ~doc:"Fault injection: probability that a source release draws \
                 a spiked (4x) jitter bound.")
  in
  let glitch_rate =
    Arg.(value & opt float 0.0 & info [ "glitch-rate" ] ~docv:"P"
           ~doc:"Fault injection: expected spurious bus glitches per \
                 period, logged under high CAN ids.")
  in
  let fleet =
    Arg.(value & opt (some int) None & info [ "fleet" ] ~docv:"N"
           ~doc:"Simulate N vehicles (seeds SEED..SEED+N-1) and write one \
                 trace per vehicle into $(b,--spool).")
  in
  let spool =
    Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR"
           ~doc:"Directory receiving the fleet's vehicleNN.trace files \
                 (created if missing) — point $(b,rtgen serve --spool) at \
                 it.")
  in
  let trickle_lines =
    Arg.(value & opt (some int) None & info [ "trickle-lines" ] ~docv:"K"
           ~doc:"Grow the fleet files round-robin, K lines per file per \
                 sweep with a flush in between, instead of writing them \
                 at once — live loggers for a daemon to follow.")
  in
  let trickle_sleep =
    Arg.(value & opt float 0.01 & info [ "trickle-sleep" ] ~docv:"SEC"
           ~doc:"Pause between trickle sweeps.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate a system and log its bus trace")
    Term.((const simulate $ case_study $ tasks $ seed_arg $ periods_arg
               $ output $ dot_arg $ drop_rate $ local_fraction
               $ jitter_spike_rate $ glitch_rate $ fleet $ spool
               $ trickle_lines $ trickle_sleep))

let learn_cmd =
  let exact =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"Use the precise exponential algorithm instead of the \
                 bounded heuristic.")
  in
  let auto =
    Arg.(value & flag & info [ "auto" ]
           ~doc:"Pick the heuristic bound automatically: double it until \
                 the least upper bound stops changing, and print the \
                 per-bound trajectory.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Incremental ingestion: parse, salvage and learn one \
                 period at a time without materializing the trace. Reads \
                 TRACE or stdin ($(b,-)); memory stays bounded by a \
                 single period.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also save the learned model (matrix text) to FILE.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"SLOT"
           ~doc:"Snapshot the learner state to SLOT every $(b,--every) \
                 periods: a plain FILE (written atomically) or a store \
                 ref $(b,DIR//ref) (one generation per snapshot). If the \
                 slot exists and matches the trace, resume from it. \
                 Removed on successful completion.")
  in
  let every =
    Arg.(value & opt int 1 & info [ "every" ] ~docv:"N"
           ~doc:"Checkpoint every N periods (default 1).")
  in
  let stop_after =
    (* Deterministic kill emulation for the test suite; hidden from help. *)
    Arg.(value & opt (some int) None
         & info [ "stop-after" ] ~docv:"K" ~docs:Manpage.s_none
             ~doc:"Stop after processing K periods (testing aid).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write run metrics (counters, gauges, histograms, span \
                 aggregates) to FILE as JSON; render with $(b,rtgen \
                 report).")
  in
  let trace_events =
    Arg.(value & opt (some string) None & info [ "trace-events" ] ~docv:"FILE"
           ~doc:"Write the run's spans to FILE in Chrome trace_event \
                 format (load in chrome://tracing or Perfetto).")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Self-profile the run: print an exclusive/inclusive \
                 hotspot table over the learner's span tree on stderr. \
                 The learned model is unchanged.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Write the span tree as folded stacks (one \
                 $(i,path exclusive_ns) line per call path) to FILE — \
                 feed to flamegraph.pl, speedscope or inferno.")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Also commit the result to the content-addressed model \
                 store at DIR (created on demand): the model under \
                 $(b,--ref), its pre-weaken bound-1 companion under \
                 REF/b1 (the fleet-merge interchange consumed by \
                 $(b,rtgen merge)), and the answer set under \
                 REF/answers.")
  in
  let store_ref =
    Arg.(value & opt string "model" & info [ "ref" ] ~docv:"REF"
           ~doc:"Ref name the store commit lands under (default \
                 $(b,model)); each run appends a new generation.")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Record recovery events (checkpoint corruption fallbacks) \
                 in a flight recorder and dump it (rtgen-flight JSON) to \
                 FILE at exit.")
  in
  let progress =
    Arg.(value & opt (some int) None & info [ "progress" ] ~docv:"N"
           ~doc:"Report progress on stderr every N periods (heuristic \
                 algorithm only).")
  in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"K"
           ~doc:"Partition the trace into K period ranges, learn each \
                 with a private engine (in parallel with $(b,-j)) and \
                 fold the per-shard results into one model — byte-equal \
                 for every K. Composes with $(b,--stream) (round-robin \
                 shard units) and $(b,--checkpoint) (sequential shards, \
                 one checkpoint pair per shard).")
  in
  Cmd.v (Cmd.info "learn" ~doc:"Learn a dependency model from a trace")
    Term.((const learn $ stream_trace_arg $ exact $ auto $ stream $ shards
               $ bound_arg $ window_arg $ jobs_arg $ dot_arg $ output
               $ mode_arg $ eps_arg $ checkpoint $ every $ stop_after
               $ store $ store_ref $ flight
               $ metrics $ trace_events $ profile $ folded $ progress))

let watch_cmd =
  let poll =
    Arg.(value & opt float 0.05 & info [ "poll" ] ~docv:"SECONDS"
           ~doc:"How often to re-check a followed file for new data.")
  in
  let follow =
    Arg.(value & flag & info [ "f"; "follow" ]
           ~doc:"Keep watching after end of file, like $(b,tail -f): new \
                 periods appended to TRACE are learned as they arrive.")
  in
  let max_periods =
    Arg.(value & opt (some int) None & info [ "max-periods" ] ~docv:"N"
           ~doc:"Stop after learning N periods (mainly for scripting a \
                 bounded watch over a live source).")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Record drift notices and follower rotation/truncation \
                 events in a flight recorder and dump it (rtgen-flight \
                 JSON) to FILE at exit.")
  in
  Cmd.v (Cmd.info "watch"
           ~doc:"Follow a trace source and print the model as it evolves \
                 (LUB on change, drift notices)")
    Term.((const watch $ stream_trace_arg $ bound_arg $ window_arg
               $ mode_arg $ eps_arg $ poll $ follow $ max_periods $ flight))

let analyze_cmd =
  Cmd.v (Cmd.info "analyze"
           ~doc:"Learn and analyze: classification, state space, modes")
    Term.((const analyze $ trace_arg $ bound_arg $ window_arg $ jobs_arg
               $ mode_arg $ eps_arg))

let inject_cmd =
  let kinds =
    let kind_conv =
      Arg.conv
        ( (fun s ->
              match Rt_trace.Corrupt.kind_of_string s with
              | Some k -> Ok k
              | None -> Error (`Msg (Printf.sprintf "unknown corruption kind %S" s))),
          fun ppf k ->
            Format.pp_print_string ppf (Rt_trace.Corrupt.kind_to_string k) )
    in
    Arg.(value & opt (list kind_conv) Rt_trace.Corrupt.all_kinds
         & info [ "kinds" ] ~docv:"KINDS"
             ~doc:(Printf.sprintf
                     "Comma-separated corruption kinds to apply (default \
                      all): %s."
                     (String.concat ", "
                        (List.map Rt_trace.Corrupt.kind_to_string
                           Rt_trace.Corrupt.all_kinds))))
  in
  let rate =
    Arg.(value & opt float 0.05 & info [ "rate" ] ~docv:"P"
           ~doc:"Per-event / per-period corruption probability, in [0, 1].")
  in
  let eps =
    Arg.(value & opt int 50 & info [ "eps" ] ~docv:"US"
           ~doc:"Jitter/skew magnitude for the timing corruptions, us.")
  in
  let torn_at =
    Arg.(value & opt (some int) None & info [ "torn-at" ] ~docv:"BYTE"
           ~doc:"Torn-write mode: truncate the rendered trace at byte \
                 offset BYTE — mid-line or mid-frame — emulating a \
                 logger killed with a partially flushed write buffer.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the corrupted trace to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "inject"
           ~doc:"Corrupt a trace reproducibly, for exercising recover-mode \
                 ingestion")
    Term.((const inject $ trace_arg $ kinds $ rate $ eps $ seed_arg
               $ torn_at $ output))

let stats_cmd =
  let recover =
    Arg.(value & flag & info [ "recover" ]
           ~doc:"Ingest in recover mode and include the quarantine \
                 account (skipped lines, repaired/dropped periods, \
                 confidence) in the statistics.")
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print descriptive statistics of a trace")
    Term.((const stats $ trace_arg $ recover $ eps_arg))

let report_cmd =
  let metrics_file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"METRICS"
           ~doc:"Metrics JSON written by $(b,learn --metrics). Omit when \
                 querying a live daemon with $(b,--socket).")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Query a live $(b,rtgen serve) daemon over its control \
                 socket instead of reading a file.")
  in
  let query =
    Arg.(value & opt string "metrics" & info [ "query" ] ~docv:"REQ"
           ~doc:"Control request to send with $(b,--socket): \
                 $(b,metrics) (rendered as the usual table), \
                 $(b,status), $(b,snapshot ID), $(b,flight) (the \
                 flight-recorder dump), $(b,prometheus) or $(b,drain) \
                 (printed verbatim).")
  in
  let prometheus =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Render the metrics in Prometheus text exposition format \
                 instead of the per-phase tables (works on a METRICS \
                 file and over $(b,--socket)).")
  in
  Cmd.v (Cmd.info "report"
           ~doc:"Render a metrics file, or query a live daemon")
    Term.((const report $ metrics_file $ socket $ query $ prometheus))

let serve_cmd =
  let spool =
    Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR"
           ~doc:"Follow every *.trace file in DIR as a live stream \
                 (rescanned continuously; rotation-aware).")
  in
  let listen =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"PATH"
           ~doc:"Accept trace streams on a unix socket at PATH (greeting \
                 $(b,OK ID), or $(b,BUSY) over the admission limit).")
  in
  let control =
    Arg.(value & opt (some string) None & info [ "control" ] ~docv:"PATH"
           ~doc:"Expose status/snapshot/metrics/drain on a unix socket at \
                 PATH — `rtgen report --socket PATH` speaks it.")
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory receiving one ID.model file per finalized \
                 stream.")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Periodic crash-safe per-stream checkpoints (ID.ckpt): a \
                 SIGKILLed daemon restarted over the same spool finishes \
                 with byte-identical models.")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Content-addressed model store (created on demand). \
                 Supersedes $(b,--checkpoint-dir): per-stream checkpoints \
                 land at ckpt/ID refs, and every finalized model is also \
                 committed as a model/ID generation — the fleet-merge / \
                 drift-diff interchange.")
  in
  let checkpoint_every =
    Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Periods between checkpoints.")
  in
  let max_streams =
    Arg.(value & opt int 64 & info [ "max-streams" ] ~docv:"N"
           ~doc:"Admission limit on concurrently live streams; beyond it, \
                 connects get $(b,BUSY) and spool files are deferred.")
  in
  let queue_capacity =
    Arg.(value & opt int 4096 & info [ "queue-capacity" ] ~docv:"LINES"
           ~doc:"Per-stream bounded ingest queue. An overflowing socket \
                 stream is shed (the stream, never the daemon); an \
                 overflowing spool stream just stops being read ahead.")
  in
  let tick =
    Arg.(value & opt float 0.05 & info [ "tick" ] ~docv:"SEC"
           ~doc:"Event-loop tick: select timeout and spool scan cadence.")
  in
  let max_restarts =
    Arg.(value & opt int 5 & info [ "max-restarts" ] ~docv:"N"
           ~doc:"Restart budget per stream before it is declared FAILED.")
  in
  let backoff =
    Arg.(value & opt float 0.1 & info [ "backoff" ] ~docv:"SEC"
           ~doc:"First restart delay; doubles per restart.")
  in
  let backoff_cap =
    Arg.(value & opt float 5.0 & info [ "backoff-cap" ] ~docv:"SEC"
           ~doc:"Ceiling on the restart delay.")
  in
  let stall_timeout =
    Arg.(value & opt float 30.0 & info [ "stall-timeout" ] ~docv:"SEC"
           ~doc:"Queued input but no periods produced for this long: the \
                 stream is treated as crashed.")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SEC"
           ~doc:"No input at all for this long: the stream is drained and \
                 finalized (off by default).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the daemon's metrics JSON to FILE when draining.")
  in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Write the flight-recorder dump (rtgen-flight JSON) to \
                 FILE at exit, and eagerly on every stream failure or \
                 quarantine latch. The recorder itself is always on; \
                 query it live with $(b,rtgen report --socket --query \
                 flight).")
  in
  let flight_capacity =
    Arg.(value & opt int 1024 & info [ "flight-capacity" ] ~docv:"N"
           ~doc:"Flight-recorder ring size in events; when it wraps, the \
                 oldest events are overwritten (the dump reports how \
                 many).")
  in
  let stop_after_total =
    Arg.(value & opt (some int) None & info [ "stop-after-total" ] ~docv:"N"
           ~doc:"Exit abruptly — no final checkpoints, no models — once N \
                 periods were handled: deterministic SIGKILL emulation \
                 for crash-recovery tests.")
  in
  let drain_after_total =
    Arg.(value & opt (some int) None & info [ "drain-after-total" ] ~docv:"N"
           ~doc:"Drain and exit once N periods were handled (consumes \
                 everything already on disk first).")
  in
  Cmd.v (Cmd.info "serve"
           ~doc:"Learn many live trace streams under one supervised daemon \
                 (rtgend)")
    Term.((const serve $ spool $ listen $ control $ out_dir $ checkpoint_dir
               $ store $ checkpoint_every $ bound_arg $ window_arg $ eps_arg
               $ jobs_arg $ max_streams $ queue_capacity $ tick
               $ max_restarts $ backoff $ backoff_cap $ stall_timeout
               $ idle_timeout $ metrics $ flight $ flight_capacity
               $ stop_after_total $ drain_after_total))

let top_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"The daemon's control socket ($(b,rtgen serve \
                 --control) path).")
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SEC"
           ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"N"
           ~doc:"Render N frames and exit (default: refresh until \
                 interrupted).")
  in
  let no_clear =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Do not clear the screen between frames — append them, \
                 for logs and CI.")
  in
  Cmd.v (Cmd.info "top"
           ~doc:"Live per-stream fleet table for a running rtgend \
                 (state, periods, queue depth, checkpoint age)")
    Term.((const top $ socket $ interval $ count $ no_clear))

let vcd_cmd =
  let import =
    Arg.(value & flag & info [ "import" ]
           ~doc:"Go the other way: read TRACE as a VCD dump and print the \
                 corresponding rtgen-trace.")
  in
  let period_len =
    Arg.(value & opt (some int) None & info [ "period-len" ] ~docv:"US"
           ~doc:"Period length in microseconds (export: waveform spacing; \
                 import: slice boundary — inferred when omitted).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the result to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "vcd"
           ~doc:"Export a trace as a Value Change Dump for waveform viewers \
                 (or import one)")
    Term.((const vcd $ trace_arg $ import $ period_len $ output))

let anonymize_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the anonymized trace to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "anonymize"
           ~doc:"Rename tasks and bus ids for sharing a proprietary trace \
                 (mapping printed on stderr)")
    Term.((const anonymize $ trace_arg $ output))

let gantt_cmd =
  let period =
    Arg.(value & opt int 0 & info [ "period" ] ~docv:"N"
           ~doc:"Which period to draw (default 0).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the SVG to FILE instead of stdout.")
  in
  Cmd.v (Cmd.info "gantt" ~doc:"Render one period as an SVG Gantt chart")
    Term.((const gantt $ trace_arg $ period $ output))

let query_cmd =
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Property to check, e.g. 'd(A,L) = -> & conjunction(Q)'.")
  in
  let model_file =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"MODEL"
           ~doc:"Use a model saved by $(b,learn -o), or a store address \
                 ($(b,DIR//ref), $(b,DIR//ref@N)), instead of \
                 re-learning.")
  in
  Cmd.v (Cmd.info "query"
           ~doc:"Check a dependency property against the learned model \
                 (exit 1 when it does not hold)")
    Term.((const run_query $ trace_arg $ query $ bound_arg $ window_arg
               $ jobs_arg $ model_file))

let check_cmd =
  (* [string], not [file]: a missing model is this tool's input error
     (exit 2), not command-line misuse (124). *)
  let models =
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL"
           ~doc:"Model files saved by $(b,learn -o), or store addresses \
                 ($(b,DIR//ref@N)) of model, companion or answer-set \
                 blobs; several models are additionally audited together \
                 as one answer set.")
  in
  let ckpt =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"SLOT"
           ~doc:"Audit a learner checkpoint written by $(b,learn \
                 --checkpoint) — a file or a store address \
                 ($(b,DIR//ref@N)): bound respected, working set \
                 canonical.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"TRACE"
           ~doc:"Also verify every definite cell of every MODEL against \
                 this trace (post-processing hygiene).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Escalate warnings to errors for the exit code.")
  in
  Cmd.v (Cmd.info "check"
           ~doc:"Statically audit learned models, answer sets and \
                 checkpoints")
    Term.((const model_check $ models $ ckpt $ trace_file $ format_arg
               $ findings_out_arg $ strict))

let merge_cmd =
  let stores =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"STORE"
           ~doc:"Store directories written by $(b,learn --store) (or \
                 $(b,serve --store)); every Companion-kind ref's latest \
                 generation contributes one part.")
  in
  let ref_filter =
    Arg.(value & opt (some string) None & info [ "ref" ] ~docv:"REF"
           ~doc:"Only fold companions under REF/b1 (the parts committed \
                 by $(b,learn --store --ref) REF).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also save the fleet model (matrix text) to FILE — \
                 byte-equal to a monolithic bound-1 $(b,learn -o) over \
                 the concatenated periods.")
  in
  let out_store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Also commit the fleet model to the store at DIR, with \
                 the folded companion addresses as parents.")
  in
  let out_ref =
    Arg.(value & opt string "fleet" & info [ "out-ref" ] ~docv:"REF"
           ~doc:"Ref name the fleet commit lands under (default \
                 $(b,fleet)).")
  in
  Cmd.v (Cmd.info "merge"
           ~doc:"Fold the bound-1 companions of several stores into one \
                 fleet model (the cross-process half of --shards)")
    Term.((const merge $ stores $ ref_filter $ dot_arg $ output $ out_store
               $ out_ref))

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Store directory.")
  in
  let init =
    Cmd.v (Cmd.info "init" ~doc:"Create an empty store (idempotent)")
      Term.(const cmd_store_init $ dir_arg)
  in
  let refs =
    Cmd.v (Cmd.info "refs"
             ~doc:"List every ref with its latest generation and kind")
      Term.(const cmd_store_refs $ dir_arg)
  in
  let log =
    let ref_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"REF"
             ~doc:"Ref name.")
    in
    Cmd.v (Cmd.info "log"
             ~doc:"Print a ref's generations, oldest first, with their \
                   metadata")
      Term.(const cmd_store_log $ dir_arg $ ref_arg)
  in
  let cat =
    let address =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDRESS"
             ~doc:"Store address, $(b,DIR//ref), $(b,DIR//ref@N) or \
                   $(b,DIR//ref\\@latest).")
    in
    let output =
      Arg.(value & opt (some string) None & info [ "o"; "output" ]
             ~docv:"FILE" ~doc:"Write the blob to FILE instead of stdout.")
    in
    Cmd.v (Cmd.info "cat"
             ~doc:"Print the blob a store address resolves to \
                   (hash-verified); --dot renders a model blob as \
                   Graphviz")
      Term.(const cmd_store_cat $ address $ dot_arg $ output)
  in
  let put =
    let ref_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"REF"
             ~doc:"Ref name to commit under.")
    in
    let file_arg =
      Arg.(required & pos 2 (some file) None & info [] ~docv:"FILE"
             ~doc:"File whose bytes become the blob (kind sniffed from \
                   the content).")
    in
    Cmd.v (Cmd.info "put"
             ~doc:"Commit a file's bytes as a new generation of a ref \
                   (plumbing)")
      Term.(const cmd_store_put $ dir_arg $ ref_arg $ file_arg)
  in
  let gc =
    Cmd.v (Cmd.info "gc"
             ~doc:"Delete blobs referenced by no generation of any ref")
      Term.(const cmd_store_gc $ dir_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a content-addressed model store")
    [ init; refs; log; cat; put; gc ]

let table1_cmd =
  let fast = Arg.(value & flag & info [ "fast" ] ~doc:"Only the small bounds.") in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce the paper's runtime-vs-bound table")
    Term.((const table1 $ fast $ jobs_arg))

let example_cmd =
  Cmd.v (Cmd.info "example" ~doc:"Run the paper's worked example")
    Term.((const example $ const ()))

let () =
  let doc = "automatic model generation for black box real-time systems" in
  let info = Cmd.info "rtgen" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ simulate_cmd; learn_cmd; watch_cmd; serve_cmd; top_cmd; merge_cmd;
        store_cmd; analyze_cmd; query_cmd; check_cmd; inject_cmd; stats_cmd;
        report_cmd; vcd_cmd; gantt_cmd; anonymize_cmd; table1_cmd;
        example_cmd ]
  in
  let code =
    try Cmd.eval' ~catch:false group
    with exn ->
      prerr_endline ("rtgen: internal error: " ^ Printexc.to_string exn);
      Ec.internal_error
  in
  exit code
