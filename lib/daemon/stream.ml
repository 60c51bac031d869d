module Eng = Rt_engine.Engine
module Sio = Rt_trace.Stream_io

type config = {
  bound : int;
  window : int option;
  eps : int option;
  queue_capacity : int;
  checkpoint : Rt_store.Slot.t option;
  checkpoint_every : int;
}

(* Raised by the line source when the bounded queue is empty and input
   is still open. [Sio.next] pulls exactly one line per parse step and
   commits every mutation before pulling the next, so the unwind leaves
   the parser in a resumable state: the next [pump] continues the same
   period mid-assembly. *)
exception Starve

type t = {
  id : string;
  cfg : config;
  flight : Rt_obs.Flight.scope option;
  lines : string Bqueue.t;
  eof : bool ref;
  parser : Sio.t;
  mutable engine : Eng.t option;
  mutable skip : int;  (* replay-skip budget from a resumed checkpoint *)
  mutable checkpoints : int;
  mutable finished : bool;
  mutable crashed : string option;
}

let tag_of id = "rtgend:" ^ id

let create ~id ?flight cfg =
  let lines = Bqueue.create ~capacity:cfg.queue_capacity in
  let eof = ref false in
  let source () =
    match Bqueue.pop lines with
    | Some l -> Some l
    | None -> if !eof then None else raise Starve
  in
  let parser =
    Sio.create ~mode:`Recover ?eps:cfg.eps ?window:cfg.window source
  in
  let engine, skip, note =
    match cfg.checkpoint with
    | Some slot when Rt_store.Slot.exists slot ->
      let p = Rt_store.Slot.describe slot in
      (match Rt_store.Slot.load slot with
       | Error m ->
         (None, 0, Some (Printf.sprintf "checkpoint %s unreadable (%s); starting fresh" p m))
       | Ok data ->
         (match Eng.resume ?flight data with
          | Ok (eng, tag) when tag = tag_of id ->
            (Some eng, Eng.periods_fed eng, None)
          | Ok (_, tag) ->
            ( None, 0,
              Some
                (Printf.sprintf
                   "checkpoint %s belongs to %S, not this stream; starting fresh"
                   p tag) )
          | Error m ->
            (None, 0, Some (Printf.sprintf "checkpoint %s: %s; starting fresh" p m))))
    | Some _ | None -> (None, 0, None)
  in
  (match flight with
   | None -> ()
   | Some s ->
     (match (engine, note) with
      | Some _, _ ->
        Rt_obs.Flight.record_s s Rt_obs.Flight.Info ~kind:"stream.resume"
          (Printf.sprintf "resumed from checkpoint at %d periods" skip)
      | None, Some m ->
        Rt_obs.Flight.record_s s Rt_obs.Flight.Warn ~kind:"checkpoint.stale" m
      | None, None -> ()));
  ( {
      id;
      cfg;
      flight;
      lines;
      eof;
      parser;
      engine;
      skip;
      checkpoints = 0;
      finished = false;
      crashed = None;
    },
    note )

let id t = t.id

let offer_line t l = if !(t.eof) then `Ok else Bqueue.push t.lines l

let close_input t = t.eof := true

let input_closed t = !(t.eof)

let queued t = Bqueue.length t.lines

let queue_capacity t = Bqueue.capacity t.lines

let rejected t = Bqueue.rejected t.lines

let periods_fed t = match t.engine with Some e -> Eng.periods_fed e | None -> 0

let messages_fed t = match t.engine with Some e -> Eng.messages_fed e | None -> 0

let hypotheses t =
  match t.engine with Some e -> List.length (Eng.current e) | None -> 0

let checkpoints_written t = t.checkpoints

let engine_of t =
  match t.engine with
  | Some e -> e
  | None ->
    let ts = Option.get (Sio.task_set t.parser) in
    let e =
      Eng.create ?window:t.cfg.window ?flight:t.flight
        ~ntasks:(Rt_task.Task_set.size ts)
        (Eng.Heuristic { bound = t.cfg.bound })
    in
    t.engine <- Some e;
    e

let write_checkpoint t =
  match (t.cfg.checkpoint, t.engine) with
  | Some slot, Some eng ->
    (match Eng.checkpoint ~tag:(tag_of t.id) eng with
     | Ok data ->
       Rt_store.Slot.save ~kind:Rt_store.Store.Checkpoint
         ~bound:t.cfg.bound ~source:t.id
         ~created_at:(Eng.periods_fed eng) slot data;
       t.checkpoints <- t.checkpoints + 1;
       (match t.flight with
        | None -> ()
        | Some s ->
          Rt_obs.Flight.record_s s Rt_obs.Flight.Info ~kind:"checkpoint.write"
            (Printf.sprintf "periods=%d checkpoints=%d" (Eng.periods_fed eng)
               t.checkpoints))
     | Error _ -> ())
  | _ -> ()

type status = Blocked | More | Done | Crashed of string

(* Handle one parsed period: either replay-skip it (it was fed before
   the last checkpoint — recover-mode verdicts are deterministic, so the
   skip count lines up) or feed it and maybe checkpoint. *)
let consume_period t p =
  if t.skip > 0 then t.skip <- t.skip - 1
  else begin
    let eng = engine_of t in
    Eng.feed eng p;
    if
      t.cfg.checkpoint <> None
      && Eng.periods_fed eng mod t.cfg.checkpoint_every = 0
    then write_checkpoint t
  end

let pump t ~budget =
  match t.crashed with
  | Some m -> (0, Crashed m)
  | None ->
    if t.finished then (0, Done)
    else begin
      let handled = ref 0 in
      let status = ref More in
      (try
         let continue = ref true in
         while !continue do
           if !handled >= budget then continue := false
           else
             match Sio.next t.parser with
             | exception Starve ->
               status := Blocked;
               continue := false
             | Error e ->
               let m = Printf.sprintf "line %d: %s" e.line e.message in
               t.crashed <- Some m;
               status := Crashed m;
               continue := false
             | Ok None ->
               t.finished <- true;
               status := Done;
               continue := false
             | Ok (Some p) ->
               consume_period t p;
               incr handled
         done
       with e ->
         let m = "engine exception: " ^ Printexc.to_string e in
         t.crashed <- Some m;
         status := Crashed m);
      (!handled, !status)
    end

let quarantine t = Sio.quarantine t.parser

let names t = Option.map Rt_task.Task_set.names (Sio.task_set t.parser)

let snapshot t =
  match t.engine with
  | None -> Error "no periods fed yet"
  | Some eng -> Ok (Eng.snapshot eng, names t)

let render_model t =
  match t.engine with
  | None -> Error "no usable periods after quarantine"
  | Some eng ->
    let q = quarantine t in
    Eng.set_provenance eng
      ~dropped:(List.length q.Rt_trace.Quarantine.dropped)
      ~repaired:(List.length q.Rt_trace.Quarantine.repaired);
    let snap = Eng.finalize eng in
    (match snap.Eng.hypotheses with
     | [] -> Error "inconsistent trace"
     | hs ->
       let names = names t in
       let lub = Rt_lattice.Depfun.lub hs in
       Ok (Rt_lattice.Depfun.to_string ?names lub ^ "\n"))
