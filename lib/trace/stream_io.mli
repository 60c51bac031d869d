(** The parser of the rtgen-trace v1 text format — the only one: strict
    and recover mode, batch and streaming.

    A parser pulls lines one at a time from a {!line_source} and yields
    each period as soon as its closing boundary (the next [period] line
    or end of input) is seen, holding only the period under construction
    in memory. {!Trace_io.of_string} and {!Trace_io.load} drain one of
    these over an in-memory string, so batch and streaming parses agree
    byte-for-byte on periods, errors and quarantine accounting.

    Line sources never materialize the input: {!lines_of_channel} reads
    a pipe or file as it goes, and {!follow_lines} tails a growing file,
    which is what [rtgen watch] and [rtgen learn --stream] sit on. *)

type line_source = unit -> string option
(** The next raw line (without its newline), or [None] at end of input.
    Once [None] is returned the parser never calls the source again. *)

val lines_of_string : string -> line_source
(** Split on ['\n'], exactly as the batch loader did (a trailing newline
    yields a final empty line). *)

val lines_of_channel : in_channel -> line_source
(** Read lines as they become available; blocks with the channel. The
    channel is not closed on exhaustion — the caller owns it. *)

val follow_lines :
  ?poll_interval:float -> stop:(unit -> bool) -> in_channel -> line_source
(** [tail -f] over a growing file: at end of file, sleep [poll_interval]
    seconds (default 0.05) and retry until [stop ()] is true, then yield
    any final partial line and end. Lines are assembled byte-by-byte so
    a half-written line is never handed out early. Bound to one open
    channel, so it cannot survive log rotation — use {!follow_path} for
    a path-tracking follower. *)

(** The non-blocking core of path following: one {!Tail.step} yields at
    most one line and never sleeps, so a single-threaded daemon can
    multiplex hundreds of tails. Detects log rotation (the path's
    device/inode changed), truncation (the file shrank below the read
    position) and disappearance, reopening as needed. [rtgen watch
    --follow] and the [rtgend] spool follower share this logic. *)
module Tail : sig
  type event =
    | Line of string  (** a complete line (newline seen) *)
    | Opened          (** the path was (re)opened; reading starts at 0 *)
    | Waiting         (** at end of data; the same file may still grow *)
    | Rotated
    (** the path now names a different inode: the old file's final
        partial line (if any) was yielded as a [Line] just before this,
        and the next step reopens the new file *)
    | Truncated
    (** the file shrank below the read position: the partial line is
        discarded and the next step reopens from the start *)
    | Vanished        (** the path does not exist (yet, or mid-rotation) *)

  type t

  val create : string -> t
  (** No I/O happens until the first {!step}. *)

  val step : t -> event

  val pending : t -> string option
  (** Take the partial line under assembly, if any — the final flush
      when a follower decides the writer is gone for good. *)

  val close : t -> unit
end

val follow_path :
  ?poll_interval:float -> ?max_backoff:float ->
  ?on_event:(Tail.event -> unit) -> stop:(unit -> bool) ->
  string -> line_source
(** {!follow_lines} by path, surviving rotation and truncation: lines
    keep flowing across a logrotate-style rename or a copytruncate
    shrink, and a missing file is retried with exponential backoff
    capped at [max_backoff] (default 1s) instead of failing. When
    [stop ()] becomes true the follower yields any final partial line
    and ends. [on_event] observes the non-line transitions the follower
    absorbs ([Opened], [Rotated], [Truncated]) — e.g. to route them
    into a flight recorder. *)

type parse_error = { line : int; message : string }

type mode = [ `Strict | `Recover ]

type t

val create : ?mode:mode -> ?eps:int -> ?window:int -> line_source -> t
(** [`Strict] (default) fails on the first malformed line or period.
    [`Recover] skips malformed lines, repairs each damaged period with
    {!Repair} (clock-skew tolerance [eps]), then salvages it with
    {!salvage_period} (candidate window [window], which must match the
    learner's), filling the quarantine account as it goes. Periods that
    survive neither are dropped and never returned. *)

val next : t -> (Period.t option, parse_error) result
(** The next period of the stream; [Ok None] at end of input. Both end
    of input and errors are latched: subsequent calls return the same
    answer. A stream that ends before any [tasks] line is an error even
    in recover mode — there is nothing to parse events against. *)

val task_set : t -> Rt_task.Task_set.t option
(** The task set, once its header line has been parsed. *)

val quarantine : t -> Quarantine.t
(** Snapshot of the account so far; grows as the stream is consumed.
    Periods salvage touched come after the untouched repairs in
    [repaired], and salvage drops after repair drops in [dropped]. *)

val publish : Rt_obs.Registry.t -> t -> unit
(** Publish the account as ["ingest.*"] counters, overwriting: lines
    skipped and periods kept, repaired and dropped, plus in [`Recover]
    mode ["ingest.frames_excised"], the frames salvage cut. *)

val salvage_period :
  ?window:int -> Period.t ->
  [ `Clean | `Excised of Period.t * int | `Dropped ]
(** Recover mode's last step on a structurally valid period. A message
    with an empty candidate set [A_m] ({!Candidates.unexplained}) — a
    spliced bogus frame, or a real frame whose sender's events were
    lost — collapses the learner's hypothesis set to the empty set.
    [`Clean]: every message has a non-empty candidate set. [`Excised
    (p', n)]: [n] such frames were cut and the period re-validated.
    [`Dropped]: the period does not survive excision. *)

val lines_read : t -> int
(** Lines pulled from the source so far. *)
