(** Strict trace load from a file path: {!Trace_io.load} in [`Strict]
    mode. It does no [mmap]; {!Stream_io} is the only parser of the
    trace text. The module and its record stay only because the
    benchmark probe ([perfbench/probe.ml]), which may change only with
    the benchmark itself, calls them. *)

type t = { trace : Trace.t }

val load :
  ?obs:Rt_obs.Registry.t -> string ->
  (t * Quarantine.t, Stream_io.parse_error) result
