(* Closed integer intervals with the arithmetic needed for bound
   propagation.  An interval is never empty; emptiness is represented by
   [None] at the use sites. *)

type t = { lo : int; hi : int } [@@deriving show { with_path = false }, eq]

let make lo hi = if lo > hi then None else Some { lo; hi }
let exactly v = { lo = v; hi = v }
let lo t = t.lo
let hi t = t.hi
let contains t v = t.lo <= v && v <= t.hi
let is_singleton t = t.lo = t.hi

let inter a b = make (max a.lo b.lo) (min a.hi b.hi)

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }
let neg a = { lo = -a.hi; hi = -a.lo }
let sub a b = add a (neg b)

let scale k a =
  if k >= 0 then { lo = k * a.lo; hi = k * a.hi }
  else { lo = k * a.hi; hi = k * a.lo }

let width t = t.hi - t.lo

(* Bit-style helpers for the shift/mask fast path.  Shifting by a
   constant is exact on both bounds ([asr] is floor division, which is
   monotone); masking by [2^k - 1] is the identity when the interval
   already lies inside [0, m] and widens to the full residue range
   otherwise. *)
let shift_left k a = scale (1 lsl k) a
let shift_right k a = { lo = a.lo asr k; hi = a.hi asr k }
let mask m a = if a.lo >= 0 && a.hi <= m then a else { lo = 0; hi = m }

(* Division-family bounds for the solver's step 3d.  Each contains
   every value the evaluator's operator ({!Eval}) returns for operands
   inside the two intervals, provided their bounds stay well inside the
   native int range (the caller guards that); [None] when the divisor
   interval holds only 0, where the evaluator has no value at all. *)

(* The divisor's nonzero values, one interval per sign. *)
let sign_parts b =
  (if b.lo <= -1 then [ { lo = b.lo; hi = min b.hi (-1) } ] else [])
  @ if b.hi >= 1 then [ { lo = max b.lo 1; hi = b.hi } ] else []

let hull = function
  | [] -> None
  | p :: ps ->
      Some
        (List.fold_left
           (fun acc q -> { lo = min acc.lo q.lo; hi = max acc.hi q.hi })
           p ps)

(* Over a divisor of one sign, [a / b] is monotone in each operand, and
   flooring keeps that: the extremes sit at the corners of the box.
   The corners include [min_small // -1], which leaves small-integer
   range. *)
let floor_div a b =
  hull
    (List.map
       (fun p ->
         let cs =
           [
             Eval.floor_div a.lo p.lo;
             Eval.floor_div a.lo p.hi;
             Eval.floor_div a.hi p.lo;
             Eval.floor_div a.hi p.hi;
           ]
         in
         {
           lo = List.fold_left min max_int cs;
           hi = List.fold_left max min_int cs;
         })
       (sign_parts b))

(* The floor modulus takes the divisor's sign: [0, b - 1] for a
   positive divisor, [b + 1, 0] for a negative one.  A dividend of the
   divisor's sign is never exceeded in magnitude. *)
let floor_mod a b =
  hull
    (List.map
       (fun p ->
         if p.lo > 0 then
           let hi = p.hi - 1 in
           { lo = 0; hi = (if a.lo >= 0 then min a.hi hi else hi) }
         else
           let lo = p.lo + 1 in
           { lo = (if a.hi <= 0 then max a.lo lo else lo); hi = 0 })
       (sign_parts b))

let if_nonzero b v = if b.lo = 0 && b.hi = 0 then None else Some v

(* The truncated remainder takes the dividend's sign and is smaller in
   magnitude than both the dividend and the largest divisor. *)
let rem a b =
  let m = max (abs b.lo) (abs b.hi) - 1 in
  if_nonzero b
    {
      lo = (if a.lo >= 0 then 0 else max a.lo (-m));
      hi = (if a.hi <= 0 then 0 else min a.hi m);
    }

(* The truncated quotient is no larger in magnitude than the dividend;
   [min_small quo -1] leaves small-integer range, and so does the
   bound. *)
let quo a b =
  let m = max (abs a.lo) (abs a.hi) in
  if_nonzero b { lo = -m; hi = m }

(* [Eval]'s exponent of a float: 0 for zeros, [frexp]'s exponent minus
   one otherwise, so -1074 for the smallest subnormal, 1023 for the
   largest finite double, and -1 for NaN and the infinities. *)
let float_exponent = { lo = -1074; hi = 1023 }

(* Tighten [a] so that [a ⋈ b] can hold for some value of [b]. *)
let tighten_cmp (c : Symbolic.Sym_expr.cmp) a b =
  match c with
  | Ceq -> inter a b
  | Cne -> if is_singleton a && is_singleton b && a.lo = b.lo then None else Some a
  | Clt -> make a.lo (min a.hi (b.hi - 1))
  | Cle -> make a.lo (min a.hi b.hi)
  | Cgt -> make (max a.lo (b.lo + 1)) a.hi
  | Cge -> make (max a.lo b.lo) a.hi

let sample t ~rng =
  if is_singleton t then t.lo
  else
    let w = width t in
    if w <= 0 || w >= 1 lsl 29 then
      (* Wide interval: bias toward small magnitudes and the endpoints. *)
      match Random.State.int rng 6 with
      | 0 -> t.lo
      | 1 -> t.hi
      | 2 -> max t.lo (min t.hi 0)
      | 3 -> max t.lo (min t.hi 1)
      | 4 -> max t.lo (min t.hi (Random.State.int rng 1024))
      | _ -> max t.lo (min t.hi (-Random.State.int rng 1024))
    else t.lo + Random.State.int rng (w + 1)

let pp ppf t = Fmt.pf ppf "[%d, %d]" t.lo t.hi
