(* In-memory span recorder for the traced run.

   A span has a name, a start and an end (monotonic ns), the index of
   the span that caused it (-1 for a root) and a per-period or
   per-stream id. Phases that interleave inside one message (workset
   insert and bound merge) are recorded as one aggregate span each per
   message: [busy] is the summed time of their calls, while
   [start]/[stop] bracket the first and last call. Every other span has
   [busy = stop - start]. Self time is [busy] minus the [busy] of the
   span's children, which never overlap in time.

   Spans are packed into growable int arrays, so a run of a few hundred
   thousand of them costs tens of bytes each, and are written out once
   at exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable names : string array;  (* name id -> name *)
  name_ids : (string, int) Hashtbl.t;
  mutable data : int array;      (* [fields] ints per span *)
  mutable len : int;
}

let fields = 6  (* name, id, parent, start, stop, busy *)

let create () =
  { names = [||]; name_ids = Hashtbl.create 32; data = Array.make (fields * 4096) 0;
    len = 0 }

let name_id t name =
  match Hashtbl.find_opt t.name_ids name with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    t.names <- Array.append t.names [| name |];
    Hashtbl.add t.name_ids name i;
    i

(* Append a finished span; returns its index. *)
let add t name ~id ~parent ~start ~stop ~busy =
  if (t.len + 1) * fields > Array.length t.data then begin
    let bigger = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 bigger 0 (t.len * fields);
    t.data <- bigger
  end;
  let o = t.len * fields in
  t.data.(o) <- name_id t name;
  t.data.(o + 1) <- id;
  t.data.(o + 2) <- parent;
  t.data.(o + 3) <- start;
  t.data.(o + 4) <- stop;
  t.data.(o + 5) <- busy;
  t.len <- t.len + 1;
  t.len - 1

(* Open a span now; [close] sets its end. *)
let open_ t name ~id ~parent =
  let s = now_ns () in
  add t name ~id ~parent ~start:s ~stop:s ~busy:0

let close t i =
  let o = i * fields in
  let stop = now_ns () in
  t.data.(o + 4) <- stop;
  t.data.(o + 5) <- stop - t.data.(o + 3)

(* Total self time per span name. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.data.((i * fields) + 5)) in
  for i = 0 to t.len - 1 do
    let p = t.data.((i * fields) + 2) in
    if p >= 0 then self.(p) <- self.(p) - t.data.((i * fields) + 5)
  done;
  let acc = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let n = t.names.(t.data.(i * fields)) in
    let s = Option.value (Hashtbl.find_opt acc n) ~default:0 in
    Hashtbl.replace acc n (s + self.(i))
  done;
  acc

(* One span per line: name id parent start stop busy. *)
let write t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "# name id parent start_ns stop_ns busy_ns\n";
      for i = 0 to t.len - 1 do
        let o = i * fields in
        Printf.fprintf oc "%s %d %d %d %d %d\n" t.names.(t.data.(o))
          t.data.(o + 1) t.data.(o + 2) t.data.(o + 3) t.data.(o + 4)
          t.data.(o + 5)
      done)
