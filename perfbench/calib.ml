(* perfbench calibration reference: a fixed amount of learner-like work
   that never changes with the program under test.

     calib.exe

   A pool of 20 000 random 18x18 byte matrices (about 7 MB live, like
   the learner's heap at bound 150); each step takes the byte-wise
   maximum of two random matrices into a fresh one that replaces a
   random pool slot, so the work is allocation, promotion and random
   reads, as in the learner's LUB merges. run.py times it beside every
   table1 learn and scales the learn by how slow it ran (README.md,
   "Calibration"). Prints a checksum so the work cannot be skipped. *)

let pool_size = 20_000
let steps = 400_000
let cells = 18 * 18

let () =
  let st = Random.State.make [| 11 |] in
  let pool =
    Array.init pool_size (fun _ ->
        Bytes.init cells (fun _ -> Char.chr (Random.State.int st 8)))
  in
  let sum = ref 0 in
  for _ = 1 to steps do
    let a = pool.(Random.State.int st pool_size)
    and b = pool.(Random.State.int st pool_size) in
    let c = Bytes.create cells in
    for i = 0 to cells - 1 do
      let x = Bytes.unsafe_get a i and y = Bytes.unsafe_get b i in
      Bytes.unsafe_set c i (if x > y then x else y)
    done;
    sum := !sum + Char.code (Bytes.unsafe_get c (!sum land 255));
    pool.(Random.State.int st pool_size) <- c
  done;
  Printf.printf "%d\n" !sum
