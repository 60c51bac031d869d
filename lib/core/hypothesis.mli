(** A hypothesis of the version space: a dependency function plus the
    sender/receiver assumptions made in the period currently being
    analyzed (paper §3.1). The weight of Definition 8 is cached and
    maintained incrementally. *)

type t

val bottom : int -> t
(** The most specific hypothesis [d⊥] over [n] tasks. *)

val of_depfun : Rt_lattice.Depfun.t -> t
(** Wrap an existing dependency function (copied). *)

val depfun : t -> Rt_lattice.Depfun.t
(** The underlying dependency function (not copied; treat as read-only). *)

val weight : t -> int

val assumptions : t -> (int * int) list
(** Sender/receiver pairs assumed in the current period, latest first. *)

val assumed : t -> int -> int -> bool
(** Has [(s, r)] already been used for a message this period? *)

val generalize_message : t -> sender:int -> receiver:int -> t option
(** The minimal generalization that explains one more message sent from
    [sender] to [receiver]: a fresh hypothesis with
    [d(s,r) := d(s,r) ⊔ →], [d(r,s) := d(r,s) ⊔ ←] and the assumption
    recorded. [None] if [(s, r)] was already assumed this period (at most
    one message per pair and period). *)

val weaken_violations : t -> violated:bool array array -> unit
(** End-of-period conditional-dependency test, in place: every definite
    cell [d(a,b)] such that some period seen so far executed [a] without
    [b] ([violated.(a).(b)]) is weakened minimally ([→ ↦ →?], [← ↦ ←?],
    [↔ ↦ ↔?]). Checking against {e all} seen periods (not only the
    current one) is what keeps correctness when a message observed late
    introduces a definite value contradicted by an early period — cf. the
    [←?] cells of the paper's final tables. *)

val weaken_violations_count : t -> violated:bool array array -> int
(** Same operation, returning the number of cells actually weakened —
    the learners' [weakenings] observability counter. *)

val clear_assumptions : t -> unit

val merge_lub : t -> t -> t
(** Pointwise least upper bound; assumptions are intersected, so the
    merged hypothesis only refuses a pair both parents used. Re-joining
    evidence for a pair is idempotent, so this keeps the heuristic sound
    while never starving a later message of candidates. *)

val equal : t -> t -> bool
(** Equality of the dependency functions (assumptions ignored, as in the
    paper's post-processing unification). *)

val compare : t -> t -> int

val compare_full : t -> t -> int
(** Like [compare] but also distinguishes the assumption sets; two
    hypotheses equal under [compare_full] have identical futures and can
    be unified mid-period. Incomparably fast in the common case thanks to
    a cached structural hash, but {e not} order-compatible with [compare]
    (it orders by hash first). *)

val hash : t -> int
(** Structural hash of the matrix (assumptions excluded), maintained
    incrementally. Equal hypotheses have equal hashes. *)

val leq : t -> t -> bool
(** [⊑_D] on the underlying dependency functions. *)

val pp : ?names:string array -> Format.formatter -> t -> unit
