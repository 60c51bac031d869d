(** Textual trace format, the stand-in for the GM logging device's dump.

    {v
    # rtgen-trace v1
    tasks t1 t2 t3 t4
    period 0
    100 start t1
    250 end t1
    260 rise 0x101
    300 fall 0x101
    period 1
    ...
    v}

    Task events name the task; message events give the bus id in hex.
    Timestamps are microseconds relative to the period start.

    Loading has two modes. [`Strict] (the default) rejects the first
    malformed line or period, as a regression gate should. [`Recover]
    is the production ingest path: malformed lines are skipped, damaged
    periods are repaired by {!Repair}, frames no task explains are cut,
    periods beyond saving are dropped, and everything the loader changed
    is accounted for in a {!Quarantine.t} report — a messy multi-hour
    CAN capture must not kill the run at line 3.
    Both modes are {!Stream_io}, the one parser of this format. *)

val to_string : Trace.t -> string

val output : out_channel -> Trace.t -> unit

val save : string -> Trace.t -> unit
(** Write to a file path, atomically (tmp + rename): an interrupted
    export never leaves a truncated trace on disk. *)

type parse_error = Stream_io.parse_error = { line : int; message : string }

type mode = Stream_io.mode

val of_string :
  ?mode:mode -> ?eps:int -> ?window:int -> ?obs:Rt_obs.Registry.t ->
  string -> (Trace.t * Quarantine.t, parse_error) result
(** In [`Strict] mode (default) the quarantine report is always empty
    apart from its kept count, and any damage is an [Error]. In
    [`Recover] mode only a missing/unusable [tasks] header is an
    [Error]; everything else degrades into the report. [eps] (clock-skew
    tolerance, default 0) and [window] (candidate window, which must
    match the learner's) are the recover-mode settings of
    {!Stream_io.create}. With [obs], the parse runs inside an
    ["ingest.parse"] span and the account is published as ["ingest.*"]
    counters ({!Stream_io.publish}). *)

val of_string_exn : string -> Trace.t
(** Strict. @raise Invalid_argument with position information. *)

val load :
  ?mode:mode -> ?eps:int -> ?window:int -> ?obs:Rt_obs.Registry.t ->
  string -> (Trace.t * Quarantine.t, parse_error) result
(** Read from a file path. *)

val salvage_period :
  ?window:int -> Period.t ->
  [ `Clean | `Excised of Period.t * int | `Dropped ]
(** {!Stream_io.salvage_period}, which recover mode already applies to
    every period. Kept under this name, with this signature, for the
    benchmark probe ([perfbench/probe.ml]), which may change only with
    the benchmark itself. *)
