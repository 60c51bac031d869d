type t = { trace : Trace.t }

let load ?obs path =
  Result.map (fun (trace, q) -> ({ trace }, q)) (Trace_io.load ?obs path)
