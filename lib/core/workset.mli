(** The heuristic's bounded working set (paper §3.2), imperative and
    array-backed.

    One dynamic array sorted {e descending} by the canonical total order
    (weight of Definition 8 first, then [Hypothesis.compare_full]):

    - the hot eviction — the paper's lightest pair — pops the last two
      slots in O(1);
    - insertion is one O(log b) binary search plus a shift of the
      lighter tail. The order returns 0 only on true duplicates, so the
      same search is the deduplication test: an equality hit means the
      hypothesis is already present;
    - the length is tracked (no [List.length] scans).

    Contents are a function of the {e set} of inserted hypotheses only:
    the sorted order is canonical, never insertion order. *)

type t

val canonical : Hypothesis.t -> Hypothesis.t -> int
(** The canonical ascending total order of the working set: weight of
    Definition 8 first, ties under [Hypothesis.compare_full]. Zero only
    on true duplicates. *)

(** How to pick the two merge victims when the set overflows the bound
    (re-exported by {!Heuristic} as [merge_policy]). *)
type victim_policy =
  | Lightest_pair  (** the paper's rule: merge the two lowest-weight *)
  | Heaviest_pair  (** ablation: merge the two highest-weight *)
  | First_last     (** ablation: merge the lightest with the heaviest *)

val create : bound:int -> t
(** Empty set; [bound] sizes the backing array ([bound + 1] slots: the
    set only ever overflows by the one hypothesis being inserted). The
    array still grows if a caller adds more. *)

val length : t -> int

val clear : t -> unit
(** Empty the set, keeping the allocation for reuse. *)

val mem : t -> Hypothesis.t -> bool
(** One binary search under {!canonical}. *)

val add : t -> Hypothesis.t -> bool
(** [add t h] inserts [h] unless an equal hypothesis is already present;
    [true] iff the set grew. One binary search gives both answers — this
    is the learner's per-child hot path. *)

val insert : t -> Hypothesis.t -> unit
(** {!add}, but inserting a duplicate is a programming error and raises
    [Invalid_argument]. *)

val extract_pair : t -> victim_policy -> Hypothesis.t * Hypothesis.t
(** Remove and return the policy's two merge victims, ordered as the
    merge expects them (lightest first for [Lightest_pair] and
    [First_last], heaviest first for [Heaviest_pair]). O(1) for the
    default [Lightest_pair]; the ablation policies pay one [Array.blit].
    @raise Invalid_argument on fewer than two elements. *)

val to_list : t -> Hypothesis.t list
(** Ascending canonical order (lightest first). *)

val to_array : t -> Hypothesis.t array
(** Ascending canonical order, freshly allocated. *)
