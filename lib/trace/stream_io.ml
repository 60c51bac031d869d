type line_source = unit -> string option

let lines_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  fun () ->
    match !lines with
    | [] -> None
    | l :: tl ->
      lines := tl;
      Some l

let lines_of_channel ic =
  fun () -> match input_line ic with l -> Some l | exception End_of_file -> None

let follow_lines ?(poll_interval = 0.05) ~stop ic =
  let buf = Buffer.create 256 in
  let finished = ref false in
  let take () =
    let l = Buffer.contents buf in
    Buffer.clear buf;
    Some l
  in
  let rec read () =
    match input_char ic with
    | '\n' -> take ()
    | c ->
      Buffer.add_char buf c;
      read ()
    | exception End_of_file ->
      if stop () then begin
        finished := true;
        if Buffer.length buf > 0 then take () else None
      end
      else begin
        Unix.sleepf poll_interval;
        read ()
      end
  in
  fun () -> if !finished then None else read ()

module Tail = struct
  type event =
    | Line of string
    | Opened
    | Waiting
    | Rotated
    | Truncated
    | Vanished

  type t = {
    path : string;
    buf : Buffer.t;                       (* the line under assembly *)
    mutable ic : in_channel option;
    mutable identity : (int * int) option;  (* (st_dev, st_ino) of [ic] *)
    mutable flush_then : event option;
    (* Rotation detected with a partial line pending: the old file is
       final, so its tail is yielded as a line first, then this queued
       event fires and the reopen happens. *)
  }

  let create path =
    { path; buf = Buffer.create 256; ic = None; identity = None;
      flush_then = None }

  let take t =
    let l = Buffer.contents t.buf in
    Buffer.clear t.buf;
    l

  let pending t = if Buffer.length t.buf > 0 then Some (take t) else None

  let close t =
    (match t.ic with Some ic -> close_in_noerr ic | None -> ());
    t.ic <- None;
    t.identity <- None

  (* Forget the open channel but keep the partial line: the same bytes
     will not be re-read (rotation), or will (truncation, where the
     partial belonged to overwritten content and is discarded). *)
  let drop ?(discard_partial = false) t =
    close t;
    if discard_partial then Buffer.clear t.buf

  (* The old file is final (rotated away or deleted): close it and, when
     a partial last line is pending, yield that line now and queue the
     status event for the next step. *)
  let finish_file t event =
    drop t;
    if Buffer.length t.buf > 0 then begin
      t.flush_then <- Some event;
      Line (take t)
    end
    else event

  let step t =
    match t.flush_then with
    | Some e ->
      t.flush_then <- None;
      e
    | None ->
      (match t.ic with
       | None ->
         (match open_in_bin t.path with
          | ic ->
            let st = Unix.fstat (Unix.descr_of_in_channel ic) in
            t.ic <- Some ic;
            t.identity <- Some (st.Unix.st_dev, st.Unix.st_ino);
            Opened
          | exception Sys_error _ -> Vanished)
       | Some ic ->
         let rec read () =
           match input_char ic with
           | '\n' -> Line (take t)
           | c -> Buffer.add_char t.buf c; read ()
           | exception End_of_file ->
             (* End of what is on disk right now: decide between plain
                waiting, rotation (the path names a different file) and
                truncation (the same file shrank under us). *)
             (match Unix.stat t.path with
              | exception Unix.Unix_error _ -> finish_file t Vanished
              | st ->
                if Some (st.Unix.st_dev, st.Unix.st_ino) <> t.identity
                then finish_file t Rotated
                else if st.Unix.st_size < pos_in ic then begin
                  drop ~discard_partial:true t;
                  Truncated
                end
                else Waiting)
         in
         read ())
end

let follow_path ?(poll_interval = 0.05) ?(max_backoff = 1.0) ?on_event ~stop
    path =
  let tail = Tail.create path in
  let notify ev = match on_event with Some f -> f ev | None -> () in
  let backoff = ref poll_interval in
  let finished = ref false in
  let stop_now () =
    finished := true;
    let last = Tail.pending tail in
    Tail.close tail;
    last
  in
  let rec pull () =
    match Tail.step tail with
    | Tail.Line l ->
      backoff := poll_interval;
      Some l
    | (Tail.Opened | Tail.Rotated | Tail.Truncated) as ev ->
      notify ev;
      backoff := poll_interval;
      pull ()
    | Tail.Waiting ->
      if stop () then stop_now ()
      else begin
        Unix.sleepf poll_interval;
        pull ()
      end
    | Tail.Vanished ->
      if stop () then stop_now ()
      else begin
        (* The file is gone (mid-rotation, or not created yet): retry
           with capped exponential backoff rather than spinning on a
           stale descriptor. *)
        Unix.sleepf !backoff;
        backoff := Float.min max_backoff (!backoff *. 2.0);
        pull ()
      end
  in
  fun () -> if !finished then None else pull ()

type parse_error = { line : int; message : string }

type mode = [ `Strict | `Recover ]

type t = {
  mode : mode;
  eps : int option;
  window : int option;
  source : line_source;
  mutable lineno : int;
  mutable task_set : Rt_task.Task_set.t option;
  mutable cur_index : int option;
  mutable cur_events : Event.t list;  (* reverse line order *)
  mutable state : [ `Running | `Done | `Failed of parse_error ];
  (* Quarantine accumulators, reverse order. Salvage outcomes are kept
     apart from the repair ones: the account lists them last. *)
  mutable kept : int;
  mutable skipped : Quarantine.line_issue list;
  mutable repaired : Quarantine.period_repair list;
  mutable dropped : Quarantine.period_drop list;
  mutable excised : Quarantine.period_repair list;
  mutable unexplained : Quarantine.period_drop list;
  mutable frames_excised : int;
}

let create ?(mode = `Strict) ?eps ?window source =
  {
    mode; eps; window; source;
    lineno = 0;
    task_set = None;
    cur_index = None;
    cur_events = [];
    state = `Running;
    kept = 0;
    skipped = [];
    repaired = [];
    dropped = [];
    excised = [];
    unexplained = [];
    frames_excised = 0;
  }

let task_set t = t.task_set

let lines_read t = t.lineno

let quarantine t =
  { Quarantine.skipped_lines = List.rev t.skipped;
    kept = t.kept;
    repaired = List.rev_append t.repaired (List.rev t.excised);
    dropped = List.rev_append t.dropped (List.rev t.unexplained) }

(* Counters are set, not added: each call re-states the whole account. *)
let publish r t =
  let q = quarantine t in
  let set = Rt_obs.Registry.set_counter r in
  if t.mode = `Recover then set "ingest.frames_excised" t.frames_excised;
  set "ingest.lines_skipped" (List.length q.skipped_lines);
  set "ingest.periods_kept" q.kept;
  set "ingest.periods_repaired" (List.length q.repaired);
  set "ingest.periods_dropped" (List.length q.dropped)

(* A structurally valid period can still be semantically hopeless: a
   message with an empty candidate set A_m collapses the learner's
   hypothesis set to the empty set (paper §3.1). Excising just that
   message's edges cannot invalidate the others — candidate sets depend
   only on task times — so we cut the bad frames and re-validate, and
   drop the period only if that fails. *)
let salvage_period ?window (p : Period.t) =
  let bad_msgs =
    Array.to_list p.msgs
    |> List.filter (fun m -> Candidates.pairs ?window p m = [])
  in
  if bad_msgs = [] then `Clean
  else begin
    (* Within a valid period, edges of a given bus id never overlap, so
       (id, time) identifies each bad edge uniquely. *)
    let is_bad (e : Event.t) =
      match e.kind with
      | Event.Msg_rise id ->
        List.exists (fun (m : Period.msg) -> m.bus_id = id && m.rise = e.time)
          bad_msgs
      | Event.Msg_fall id ->
        List.exists (fun (m : Period.msg) -> m.bus_id = id && m.fall = e.time)
          bad_msgs
      | Event.Task_start _ | Event.Task_end _ -> false
    in
    let events = List.filter (fun e -> not (is_bad e)) p.events in
    match Period.make ~index:p.index ~task_set:p.task_set events with
    | Ok p' when Candidates.unexplained ?window p' = [] ->
      `Excised (p', List.length bad_msgs)
    | Ok _ | Error _ -> `Dropped
  end

(* Recover mode's last word on a repaired period: salvage it, and book
   it as kept, repaired, excised or dropped. *)
let salvage t index fixes p =
  match salvage_period ?window:t.window p with
  | `Clean ->
    if fixes = [] then t.kept <- t.kept + 1
    else
      t.repaired <- { Quarantine.period_index = index; fixes } :: t.repaired;
    Some p
  | `Excised (p', n) ->
    t.frames_excised <- t.frames_excised + n;
    t.excised <-
      { Quarantine.period_index = index;
        fixes = fixes @ [ Printf.sprintf "excised %d inexplicable frame(s)" n ] }
      :: t.excised;
    Some p'
  | `Dropped ->
    t.unexplained <-
      { Quarantine.period_index = index;
        reason = "message with no admissible sender/receiver" }
      :: t.unexplained;
    None

exception Fail of parse_error

let fail line message = raise (Fail { line; message })

let strict t = t.mode = `Strict

(* A malformed line is fatal in strict mode, a diagnostic in recover
   mode. *)
let skip_line t lineno message =
  if strict t then fail lineno message
  else t.skipped <- { Quarantine.line = lineno; message } :: t.skipped

(* Close the period under construction, if any. Returns it when it
   survives validation, or repair and salvage; [None] when there was
   nothing to close or the period was quarantined. *)
let flush_period t lineno : Period.t option =
  match t.cur_index with
  | None -> None
  | Some index ->
    let events = List.rev t.cur_events in
    t.cur_index <- None;
    t.cur_events <- [];
    (match t.task_set with
     | None ->
       if strict t then fail lineno "period before tasks line"
       else begin
         t.dropped <-
           { Quarantine.period_index = index; reason = "before tasks line" }
           :: t.dropped;
         None
       end
     | Some ts ->
       if strict t then
         (match Period.make ~index ~task_set:ts events with
          | Ok p ->
            t.kept <- t.kept + 1;
            Some p
          | Error e ->
            fail lineno
              (Printf.sprintf "invalid period %d: %s" index
                 (Period.string_of_error e)))
       else
         (match Repair.period ?eps:t.eps ~index ~task_set:ts events with
          | Ok (p, fixes) ->
            salvage t index (List.map Repair.string_of_fix fixes) p
          | Error e ->
            t.dropped <-
              { Quarantine.period_index = index;
                reason = Period.string_of_error e }
              :: t.dropped;
            None))

(* Line-level parse failures signal with a local exception so recover
   mode can skip just the line. *)
exception Bad_line of string

let parse_msg_id tok =
  match int_of_string_opt tok with
  | Some m -> m
  | None -> raise (Bad_line ("bad message id: " ^ tok))

let parse_task t tok =
  match t.task_set with
  | None -> raise (Bad_line "event before tasks line")
  | Some ts ->
    (match Rt_task.Task_set.index ts tok with
     | Some i -> i
     | None -> raise (Bad_line ("unknown task: " ^ tok)))

(* Consume one line. Returns a period when the line closed one. *)
let consume_line t raw : Period.t option =
  let lineno = t.lineno in
  let line = String.trim raw in
  if line = "" || (String.length line > 0 && line.[0] = '#') then None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | "tasks" :: names ->
      (if t.task_set <> None then skip_line t lineno "duplicate tasks line"
       else if names = [] then skip_line t lineno "tasks line without names"
       else
         match Rt_task.Task_set.of_names (Array.of_list names) with
         | ts -> t.task_set <- Some ts
         | exception Invalid_argument m -> skip_line t lineno m);
      None
    | [ "period"; idx ] ->
      let finished = flush_period t lineno in
      (match int_of_string_opt idx with
       | Some n -> t.cur_index <- Some n
       | None -> skip_line t lineno ("bad period index: " ^ idx));
      finished
    | [ time; verb; arg ] ->
      (match
         if t.cur_index = None then raise (Bad_line "event before a period line")
         else begin
           let time =
             match int_of_string_opt time with
             | Some tm when tm >= 0 -> tm
             | Some _ -> raise (Bad_line "negative timestamp")
             | None -> raise (Bad_line ("bad timestamp: " ^ time))
           in
           let kind =
             match verb with
             | "start" -> Event.Task_start (parse_task t arg)
             | "end" -> Event.Task_end (parse_task t arg)
             | "rise" -> Event.Msg_rise (parse_msg_id arg)
             | "fall" -> Event.Msg_fall (parse_msg_id arg)
             | _ -> raise (Bad_line ("unknown event kind: " ^ verb))
           in
           { Event.time; kind }
         end
       with
       | e -> t.cur_events <- e :: t.cur_events
       | exception Bad_line m -> skip_line t lineno m);
      None
    | _ ->
      skip_line t lineno ("unparseable line: " ^ line);
      None

let rec next t =
  match t.state with
  | `Done -> Ok None
  | `Failed e -> Error e
  | `Running ->
    (try
       match t.source () with
       | Some raw ->
         t.lineno <- t.lineno + 1;
         (match consume_line t raw with
          | Some p -> Ok (Some p)
          | None -> next t)
       | None ->
         let finished = flush_period t t.lineno in
         (match t.task_set with
          | None -> fail t.lineno "missing tasks line"
          | Some _ -> ());
         t.state <- `Done;
         (match finished with Some p -> Ok (Some p) | None -> Ok None)
     with Fail e ->
       t.state <- `Failed e;
       Error e)
