(* The traced replay of [Heuristic.feed] through the core's public steps.

   Per message: [Candidates.pairs] (candidates), [generalize_message]
   over every live hypothesis (fan-out), [Workset.add] (insert/dedup)
   and [Workset.extract_pair] + [merge_lub] whenever the bound
   overflows (merge). Per period: [Violations.observe] +
   [weaken_violations_count] (weaken) and [Postprocess.dedup] +
   [minimal_only] (postprocess). This is the same sequence
   [Heuristic.feed] runs with the default merge policy and no window,
   so the final hypotheses and every counter must match a real run;
   [check] asserts that.

   Timing: one clock read per phase boundary, and one per insert or
   merge call (the two interleave). Minor words are read at the same
   points. Promoted words move only at minor collections, which any
   allocation can trigger, so they are read per message and per period
   and split between insert and merge by their share of the message's
   minor words. *)

module Hyp = Rt_learn.Hypothesis
module Ws = Rt_learn.Workset
module Df = Rt_lattice.Depfun
module Period = Rt_trace.Period

let phases = [| "fanout"; "insert"; "merge"; "weaken"; "postprocess" |]
let fanout = 0 and insert = 1 and merge = 2 and weaken = 3 and postprocess = 4

type t = {
  bound : int;
  viol : Rt_learn.Violations.t;
  scratch : Ws.t;
  mutable hs : Hyp.t array;
  (* counters, named as in Heuristic.stats / Heuristic.counters *)
  mutable created : int;
  mutable merges : int;
  mutable branches : int;
  mutable dedup_hits : int;
  mutable evictions : int;
  mutable weakenings : int;
  mutable end_dedup : int;
  mutable nonminimal : int;
  mutable candidate_pairs : int;
  mutable useful : int;  (* children still in the set after their message *)
  minor : float array;     (* per phase *)
  promoted : float array;  (* per phase *)
}

let create ~bound ~ntasks =
  { bound; viol = Rt_learn.Violations.create ntasks; scratch = Ws.create ~bound;
    hs = [| Hyp.bottom ntasks |]; created = 1; merges = 0; branches = 0;
    dedup_hits = 0; evictions = 0; weakenings = 0; end_dedup = 0;
    nonminimal = 0; candidate_pairs = 0; useful = 0;
    minor = Array.make 5 0.0; promoted = Array.make 5 0.0 }

let promoted_words () =
  let _, p, _ = Gc.counters () in
  p

(* One message; returns the surviving hypotheses. *)
let message r tr ~id ~parent (p : Period.t) m hs =
  let now = Spans.now_ns in
  let ms = Spans.open_ tr "core.message" ~id ~parent in
  let t0 = now () in
  let pairs = Rt_trace.Candidates.pairs p m in
  let t1 = now () in
  ignore (Spans.add tr "trace.candidates" ~id ~parent:ms ~start:t0 ~stop:t1
            ~busy:(t1 - t0));
  let npairs = List.length pairs in
  r.candidate_pairs <- r.candidate_pairs + npairs;
  r.branches <- r.branches + (Array.length hs * npairs);
  let p0 = promoted_words () in
  let w0 = Gc.minor_words () in
  let t1 = now () in
  let children =
    Array.map
      (fun h ->
        List.filter_map
          (fun (s, rcv) -> Hyp.generalize_message h ~sender:s ~receiver:rcv)
          pairs)
      hs
  in
  let t2 = now () in
  let w1 = Gc.minor_words () in
  let p1 = promoted_words () in
  r.minor.(fanout) <- r.minor.(fanout) +. (w1 -. w0);
  r.promoted.(fanout) <- r.promoted.(fanout) +. (p1 -. p0);
  ignore (Spans.add tr "core.fanout" ~id ~parent:ms ~start:t1 ~stop:t2
            ~busy:(t2 - t1));
  (* insert / merge, interleaved *)
  let ins_ns = ref 0 and mrg_ns = ref 0 in
  (* int accumulators: a boxed float ref would allocate inside the
     measured intervals *)
  let ins_w = ref 0 and mrg_w = ref 0 in
  let merged = Hashtbl.create 64 in  (* Hyp.hash -> merge results *)
  let rec add h =
    let a0 = now () and v0 = Gc.minor_words () in
    let grew = Ws.add r.scratch h in
    let a1 = now () and v1 = Gc.minor_words () in
    ins_ns := !ins_ns + (a1 - a0);
    ins_w := !ins_w + int_of_float (v1 -. v0);
    if grew then begin
      if Ws.length r.scratch > r.bound then begin
        let a, b = Ws.extract_pair r.scratch Ws.Lightest_pair in
        let h' = Hyp.merge_lub a b in
        let a2 = now () and v2 = Gc.minor_words () in
        mrg_ns := !mrg_ns + (a2 - a1);
        mrg_w := !mrg_w + int_of_float (v2 -. v1);
        r.merges <- r.merges + 1;
        r.evictions <- r.evictions + 2;
        Hashtbl.add merged (Hyp.hash h') h';
        add h'
      end
    end
    else r.dedup_hits <- r.dedup_hits + 1
  in
  let p2 = promoted_words () in
  let a0 = now () in
  Ws.clear r.scratch;
  ins_ns := !ins_ns + (now () - a0);
  Array.iter
    (List.iter (fun h' ->
         r.created <- r.created + 1;
         add h'))
    children;
  let out = Ws.to_array r.scratch in
  let t3 = now () in
  let p3 = promoted_words () in
  ignore (Spans.add tr "core.insert" ~id ~parent:ms ~start:t2 ~stop:t3
            ~busy:!ins_ns);
  ignore (Spans.add tr "core.merge" ~id ~parent:ms ~start:t2 ~stop:t3
            ~busy:!mrg_ns);
  Spans.close tr ms;
  let ins_w = float_of_int !ins_w and mrg_w = float_of_int !mrg_w in
  r.minor.(insert) <- r.minor.(insert) +. ins_w;
  r.minor.(merge) <- r.minor.(merge) +. mrg_w;
  if ins_w +. mrg_w > 0.0 then begin
    let pr = p3 -. p2 in
    r.promoted.(insert) <- r.promoted.(insert) +. (pr *. ins_w /. (ins_w +. mrg_w));
    r.promoted.(merge) <- r.promoted.(merge) +. (pr *. mrg_w /. (ins_w +. mrg_w))
  end;
  Array.iter
    (fun h ->
      if not (List.memq h (Hashtbl.find_all merged (Hyp.hash h))) then
        r.useful <- r.useful + 1)
    out;
  out

(* One period, under a "core.period" span with the given id. *)
let feed r tr ~id (p : Period.t) =
  let now = Spans.now_ns in
  let ps = Spans.open_ tr "core.period" ~id ~parent:(-1) in
  let hs = Array.fold_left (fun hs m -> message r tr ~id ~parent:ps p m hs) r.hs p.msgs in
  let phase k name f =
    let q0 = promoted_words () and w0 = Gc.minor_words () in
    let t0 = now () in
    let x = f () in
    let t1 = now () in
    let w1 = Gc.minor_words () and q1 = promoted_words () in
    r.minor.(k) <- r.minor.(k) +. (w1 -. w0);
    r.promoted.(k) <- r.promoted.(k) +. (q1 -. q0);
    ignore (Spans.add tr name ~id ~parent:ps ~start:t0 ~stop:t1 ~busy:(t1 - t0));
    x
  in
  phase weaken "core.weaken" (fun () ->
      Rt_learn.Violations.observe r.viol ~executed:p.executed;
      let violated = Rt_learn.Violations.matrix r.viol in
      Array.iter
        (fun h ->
          r.weakenings <-
            r.weakenings + Hyp.weaken_violations_count h ~violated;
          Hyp.clear_assumptions h)
        hs);
  r.hs <-
    phase postprocess "core.postprocess" (fun () ->
        let cut_dup = ref 0 and cut_min = ref 0 in
        let s =
          Rt_learn.Postprocess.minimal_only ~removed:cut_min
            (Rt_learn.Postprocess.dedup ~removed:cut_dup (Array.to_list hs))
        in
        r.end_dedup <- r.end_dedup + !cut_dup;
        r.nonminimal <- r.nonminimal + !cut_min;
        Array.of_list s);
  Spans.close tr ps

let hypotheses r = Array.to_list (Array.map Hyp.depfun r.hs)

(* Fidelity against a real [Heuristic] state fed the same periods:
   [None] when hypotheses and every counter agree, else what differs. *)
let check r (st : Rt_learn.Heuristic.state) =
  let s = Rt_learn.Heuristic.stats st and c = Rt_learn.Heuristic.counters st in
  let real = Rt_learn.Heuristic.current st in
  let mine = hypotheses r in
  let diffs =
    List.filter_map
      (fun (name, a, b) ->
        if a = b then None else Some (Printf.sprintf "%s %d<>%d" name a b))
      [ ("created", r.created, s.created); ("merges", r.merges, s.merges);
        ("branches", r.branches, c.branches);
        ("dedup_hits", r.dedup_hits, c.dedup_hits);
        ("evictions", r.evictions, c.evictions);
        ("weakenings", r.weakenings, c.weakenings);
        ("end_dedup", r.end_dedup, c.end_dedup);
        ("nonminimal", r.nonminimal, c.nonminimal) ]
  in
  let same_hs =
    List.length mine = List.length real && List.for_all2 Df.equal mine real
  in
  match (diffs, same_hs) with
  | [], true -> None
  | d, same ->
    Some (String.concat ", " (if same then d else "hypotheses differ" :: d))
