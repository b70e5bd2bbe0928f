(** Closed integer intervals for bound propagation.  Never empty;
    emptiness is represented by [None] at use sites. *)

type t = { lo : int; hi : int }

val make : int -> int -> t option
(** [None] when [lo > hi]. *)

val exactly : int -> t
val lo : t -> int
val hi : t -> int
val contains : t -> int -> bool
val is_singleton : t -> bool
val inter : t -> t -> t option
val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t

val scale : int -> t -> t
(** Multiply both bounds by a (possibly negative) constant. *)

val width : t -> int

val shift_left : int -> t -> t
(** Exact bounds of [v lsl k] for a constant [0 <= k <= 30]. *)

val shift_right : int -> t -> t
(** Exact bounds of [v asr k] (floor division by [2^k]) for [k >= 0]. *)

val mask : int -> t -> t
(** Bounds of [v land m] for a low mask [m = 2^k - 1]: the identity when
    the interval already lies within [0, m], else the full [0, m]
    range. *)

(** {2 Division-family bounds}

    Each contains every value {!Eval} computes for the operator on
    operands inside the two intervals, as long as every bound lies
    within [±2^61] (the caller's guard: no intermediate value wraps).
    [None] when the divisor interval is exactly [0], where the
    evaluator fails. *)

val floor_div : t -> t -> t option
(** Smalltalk [//]: the box's corners over each sign part of the
    divisor, 0 excluded — [min_small // -1] stays inside. *)

val floor_mod : t -> t -> t option
(** Smalltalk [\\]: [[0, hi - 1]] for a positive divisor,
    [[lo + 1, 0]] for a negative one, and no wider than a dividend of
    the divisor's sign. *)

val rem : t -> t -> t option
(** Truncated remainder: [|r| < max |b|] and [|r| <= |a|], with the
    sign of [a]. *)

val quo : t -> t -> t option
(** Truncated quotient: [|q| <= |a|]. *)

val float_exponent : t
(** Every value {!Eval} gives [Float_exponent] of any float, NaN and
    the infinities included: [[-1074, 1023]]. *)

val tighten_cmp : Symbolic.Sym_expr.cmp -> t -> t -> t option
(** Tighten the left interval so that [a ⋈ b] can hold for some value of
    [b]; [None] when no value remains. *)

val sample : t -> rng:Random.State.t -> int
(** A random member, biased toward small magnitudes and endpoints on
    wide intervals. *)

val pp : t Fmt.t
val equal : t -> t -> bool
val show : t -> string
