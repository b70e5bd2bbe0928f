(* The decision procedure.

   Input: a conjunction of boolean-sorted semantic constraints (a path
   condition).  Output: [Sat model] with concrete witnesses for every oop
   / int / float atom, [Unsat], or [Unknown reason] when the conjunction
   falls outside the supported fragment (bitwise operations, >56-bit
   constants, shapes our search cannot crack).

   Architecture, in the DPLL(T) spirit but specialised to the constraint
   shapes the shadow machine actually emits:

   1. expansion of the few disjunctions that arise (negated small-int
      range checks) into a bounded set of conjunctive branches;
   2. a *type/class assignment* pass over oop-sorted terms (the theory of
      VM object shapes): tag tests, class tests and structure predicates
      either conflict (Unsat) or resolve to an object description;
   3. interval propagation over the integer atoms (untagged values,
      object sizes, byte reads) through linear forms;
   3c. a difference-bound refutation: comparisons of the shape
      [±x + k ⋈ 0] or [x - y + k ⋈ 0] plus every atom's propagated
      interval become the edges of a difference graph; a negative cycle
      proves no assignment inside the intervals satisfies them;
   3d. a range refutation: both sides of each comparison are bounded
      over the propagated intervals with 3b's rules plus bounds for
      [//], [\\], [quo], [rem] and float exponents; a comparison whose
      bounds cannot meet holds nowhere in the box (the small-integer
      range escapes of [\\], [rem] and [exponent]);
   4. a witness search over the remaining integer/float atoms: biased
      candidates, bounded random sampling, and a linear repair loop.

   Steps 3c and 3d answer exactly what step 4 would.  Every assignment
   the search tries lies inside the propagated intervals (the walk
   filters its candidates with [Interval.contains], sampling draws from
   the interval, repair clamps to it; float atoms are unconstrained,
   and 3d bounds float exponents over every float), and inside those
   bounds the evaluator computes each refuted literal exactly.  So a
   negative cycle, or a literal whose bounds cannot meet, means the
   search can only run its sampling loop to the end and give up with
   [C_unknown "no witness found"].  The shortcut returns that same
   verdict (not [C_unsat]) and charges the fuel the exhausted loop
   charges, [sample_tries * sample_cost]: verdicts, memo keys, store
   entries and fuel-limited timeouts are the same with or without it —
   only the time to reach them differs.  3b must not learn 3d's rules:
   its [C_unsat] would turn today's [Unknown] verdicts into [Unsat]. *)

open Symbolic

type verdict = Sat of Model.t | Unsat | Unknown of string

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

(* [F_class_obj] is reachable through class-id literals only, but kept as
   an explicit flag for symmetry with the type-info record. *)
type flag_lit =
  | F_small
  | F_float
  | F_pointers
  | F_bytes
  | F_indexable
  | F_class_obj [@warning "-37"]
  | F_describes_indexable

type lit =
  | L_flag of flag_lit * Sym_expr.t * bool (* predicate, term, polarity *)
  | L_class of Sym_expr.t * int * bool (* term has class id (or not) *)
  | L_cmp of Sym_expr.cmp * Sym_expr.t * Sym_expr.t (* integer comparison *)
  | L_fcmp of Sym_expr.cmp * Sym_expr.t * Sym_expr.t (* float comparison *)
  | L_fnan of Sym_expr.t * bool
  | L_finf of Sym_expr.t * bool

exception Give_up of string

(* Class lookups only ever concern well-known classes here; user classes
   never appear in constraints (they are invented by the materialiser).
   Built eagerly at module load: a [lazy] would be forced concurrently
   from several domains, and OCaml 5 lazies are not domain-safe. *)
let well_known_classes = Vm_objects.Class_table.create ()
let lookup_class cid = Vm_objects.Class_table.lookup well_known_classes cid

let min_small = Vm_objects.Value.min_small_int
let max_small = Vm_objects.Value.max_small_int

(* Singleton oops are deterministic (installed first in every heap). *)
let nil_oop = 8
let true_oop = 16
let false_oop = 24

(* ------------------------------------------------------------------ *)
(* Bit-operator normalisation                                          *)
(* ------------------------------------------------------------------ *)

(* The JIT lowering manipulates tagged words with shifts, masks and the
   or-1 tag write.  Each has an exact arithmetic counterpart, valid for
   every integer (two's complement, [asr]/[land] against a low mask are
   floor division / floor modulus):

     a lsl k          =  a * 2^k
     a asr k          =  floor(a / 2^k)
     a land (2^k - 1) =  a mod 2^k
     (2a) lor 1       =  2a + 1

   Rewriting them up front lets the arithmetic core reason about
   machine-level tag manipulation instead of giving the whole condition
   up as "bitwise".  Anything the rules do not reach (variable shift
   distances, general masks, xor) still trips the bitwise gate below. *)
let is_low_mask m = m >= 0 && m land (m + 1) = 0

let rec normalize (e : Sym_expr.t) : Sym_expr.t =
  match e with
  | Var _ | Int_const _ | Float_const _ | Bool_const _ | Oop_const _ -> e
  | Bit_or (a, b) -> (
      let a = normalize a and b = normalize b in
      match (a, b) with
      | Mul (x, Int_const 2), Int_const 1
      | Mul (Int_const 2, x), Int_const 1
      | Int_const 1, Mul (x, Int_const 2)
      | Int_const 1, Mul (Int_const 2, x) ->
          Add (Mul (x, Int_const 2), Int_const 1)
      | _ -> Bit_or (a, b))
  | Shift_left (a, Int_const k) when k >= 0 && k <= 30 -> (
      match normalize a with
      | Int_const c -> Int_const (c lsl k)
      | a -> Mul (a, Int_const (1 lsl k)))
  | Shift_right (a, Int_const k) when k >= 0 && k <= 62 ->
      Div (normalize a, Int_const (1 lsl k))
  | Bit_and (a, Int_const m) when is_low_mask m ->
      Mod (normalize a, Int_const (m + 1))
  | Bit_and (Int_const m, a) when is_low_mask m ->
      Mod (normalize a, Int_const (m + 1))
  | Add (a, b) -> Add (normalize a, normalize b)
  | Sub (a, b) -> Sub (normalize a, normalize b)
  | Mul (a, b) -> Mul (normalize a, normalize b)
  | Div (a, b) -> Div (normalize a, normalize b)
  | Mod (a, b) -> Mod (normalize a, normalize b)
  | Quo (a, b) -> Quo (normalize a, normalize b)
  | Rem (a, b) -> Rem (normalize a, normalize b)
  | Neg a -> Neg (normalize a)
  | Abs a -> Abs (normalize a)
  | Bit_and (a, b) -> Bit_and (normalize a, normalize b)
  | Bit_xor (a, b) -> Bit_xor (normalize a, normalize b)
  | Shift_left (a, b) -> Shift_left (normalize a, normalize b)
  | Shift_right (a, b) -> Shift_right (normalize a, normalize b)
  | Integer_value_of a -> Integer_value_of (normalize a)
  | Integer_object_of a -> Integer_object_of (normalize a)
  | Float_value_of a -> Float_value_of (normalize a)
  | Float_object_of a -> Float_object_of (normalize a)
  | Bool_object_of a -> Bool_object_of (normalize a)
  | Char_object_of a -> Char_object_of (normalize a)
  | Char_value_of a -> Char_value_of (normalize a)
  | Class_object_of a -> Class_object_of (normalize a)
  | Class_index_of a -> Class_index_of (normalize a)
  | Num_slots_of a -> Num_slots_of (normalize a)
  | Indexable_size_of a -> Indexable_size_of (normalize a)
  | Fixed_size_of a -> Fixed_size_of (normalize a)
  | Identity_hash_of a -> Identity_hash_of (normalize a)
  | Slot_at (a, i) -> Slot_at (normalize a, normalize i)
  | Byte_at (a, i) -> Byte_at (normalize a, normalize i)
  | Point_of (a, b) -> Point_of (normalize a, normalize b)
  | Shallow_copy_of a -> Shallow_copy_of (normalize a)
  | Int_to_float a -> Int_to_float (normalize a)
  | F_unop (op, a) -> F_unop (op, normalize a)
  | F_binop (op, a, b) -> F_binop (op, normalize a, normalize b)
  | Is_small_int a -> Is_small_int (normalize a)
  | Is_float_object a -> Is_float_object (normalize a)
  | Has_class (a, c) -> Has_class (normalize a, c)
  | Describes_indexable_class a -> Describes_indexable_class (normalize a)
  | Is_in_small_int_range a -> Is_in_small_int_range (normalize a)
  | Is_pointers a -> Is_pointers (normalize a)
  | Is_bytes a -> Is_bytes (normalize a)
  | Is_indexable a -> Is_indexable (normalize a)
  | Cmp (c, a, b) -> Cmp (c, normalize a, normalize b)
  | F_cmp (c, a, b) -> F_cmp (c, normalize a, normalize b)
  | Oop_eq (a, b) -> Oop_eq (normalize a, normalize b)
  | F_is_nan a -> F_is_nan (normalize a)
  | F_is_infinite a -> F_is_infinite (normalize a)
  | Not a -> Not (normalize a)
  | And (a, b) -> And (normalize a, normalize b)
  | Or (a, b) -> Or (normalize a, normalize b)
  | _ -> e (* float bit views: left to the precision/bitwise gates *)

(* Expand a condition into a list of alternative literal lists
   (a tiny DNF).  Most conditions expand to a single branch; negated
   range checks expand to two. *)
let rec expand (cond : Sym_expr.t) ~(pol : bool) : lit list list =
  match cond with
  | Bool_const b -> if b = pol then [ [] ] else []
  | Not e -> expand e ~pol:(not pol)
  | And (a, b) ->
      if pol then
        let la = expand a ~pol:true and lb = expand b ~pol:true in
        List.concat_map (fun x -> List.map (fun y -> x @ y) lb) la
      else expand a ~pol:false @ expand b ~pol:false
  | Or (a, b) ->
      if pol then expand a ~pol:true @ expand b ~pol:true
      else
        let la = expand a ~pol:false and lb = expand b ~pol:false in
        List.concat_map (fun x -> List.map (fun y -> x @ y) lb) la
  | Is_small_int t -> [ [ L_flag (F_small, t, pol) ] ]
  | Is_float_object t -> [ [ L_flag (F_float, t, pol) ] ]
  | Is_pointers t -> [ [ L_flag (F_pointers, t, pol) ] ]
  | Is_bytes t -> [ [ L_flag (F_bytes, t, pol) ] ]
  | Is_indexable t -> [ [ L_flag (F_indexable, t, pol) ] ]
  | Describes_indexable_class t ->
      [ [ L_flag (F_describes_indexable, t, pol) ] ]
  | Has_class (t, c) -> [ [ L_class (t, c, pol) ] ]
  | Is_in_small_int_range e ->
      if pol then
        [
          [
            L_cmp (Cge, e, Int_const min_small);
            L_cmp (Cle, e, Int_const max_small);
          ];
        ]
      else
        (* ¬(min <= e <= max)  ≡  e > max  ∨  e < min *)
        [
          [ L_cmp (Cgt, e, Int_const max_small) ];
          [ L_cmp (Clt, e, Int_const min_small) ];
        ]
  | Cmp (c, a, b) ->
      if pol then [ [ L_cmp (c, a, b) ] ]
      else [ [ L_cmp (negate_cmp c, a, b) ] ]
  | F_cmp (c, a, b) ->
      if pol then [ [ L_fcmp (c, a, b) ] ]
      else [ [ L_fcmp (negate_cmp c, a, b) ] ]
  | F_is_nan t -> [ [ L_fnan (t, pol) ] ]
  | F_is_infinite t -> [ [ L_finf (t, pol) ] ]
  | Oop_eq (a, b) -> expand_oop_eq a b ~pol
  | other ->
      raise
        (Give_up
           (Printf.sprintf "unsupported condition shape: %s"
              (Sym_expr.to_string other)))

and expand_oop_eq a b ~pol =
  (* Identity against a well-known singleton reduces to a class test
     (each singleton class has exactly one instance). *)
  let singleton_class v =
    let open Vm_objects in
    if Value.is_pointer v then
      match Value.pointer_address v with
      | a when a = nil_oop -> Some Class_table.undefined_object_id
      | a when a = true_oop -> Some Class_table.true_id
      | a when a = false_oop -> Some Class_table.false_id
      | _ -> None
    else None
  in
  match (a, b) with
  | Oop_const c, t | t, Oop_const c -> (
      match singleton_class c with
      | Some cls -> [ [ L_class (t, cls, pol) ] ]
      | None ->
          raise (Give_up "identity constraint against arbitrary object"))
  | _ -> raise (Give_up "identity constraint between two unknowns")

and negate_cmp : Sym_expr.cmp -> Sym_expr.cmp = function
  | Ceq -> Cne
  | Cne -> Ceq
  | Clt -> Cge
  | Cle -> Cgt
  | Cgt -> Cle
  | Cge -> Clt

(* ------------------------------------------------------------------ *)
(* Type / class assignment over oop terms                              *)
(* ------------------------------------------------------------------ *)

type tri = Yes | No | Dunno

type type_info = {
  mutable small : tri;
  mutable float : tri;
  mutable pointers : tri;
  mutable bytes : tri;
  mutable indexable : tri;
  mutable class_obj : tri;
  mutable describes_indexable : tri;
  mutable class_eq : int option;
  mutable class_ne : int list;
}

let fresh_info () =
  {
    small = Dunno;
    float = Dunno;
    pointers = Dunno;
    bytes = Dunno;
    indexable = Dunno;
    class_obj = Dunno;
    describes_indexable = Dunno;
    class_eq = None;
    class_ne = [];
  }

exception Conflict

let set_tri info get set b =
  match (get info, b) with
  | Dunno, true -> set info Yes
  | Dunno, false -> set info No
  | Yes, false | No, true -> raise Conflict
  | Yes, true | No, false -> ()

(* Choose a concrete class consistent with the accumulated flags. *)
let resolve_info info : Model.oop_desc =
  let open Vm_objects.Class_table in
  let excluded c = List.mem c info.class_ne in
  let class_known c =
    (* Validate every accumulated flag against the chosen class's actual
       format, then build its description. *)
    let is v b = match v with Yes -> b | No -> not b | Dunno -> true in
    if excluded c then raise Conflict;
    let validate ~small ~flt ~ptr ~byt ~idx ~cls =
      if
        not
          (is info.small small && is info.float flt && is info.pointers ptr
         && is info.bytes byt && is info.indexable idx
         && is info.class_obj cls)
      then raise Conflict
    in
    if c = small_integer_id then begin
      validate ~small:true ~flt:false ~ptr:false ~byt:false ~idx:false
        ~cls:false;
      Model.D_small_int 0
    end
    else if c = boxed_float_id then begin
      validate ~small:false ~flt:true ~ptr:false ~byt:false ~idx:false
        ~cls:false;
      Model.D_float 1.5
    end
    else
      match lookup_class c with
      | None -> raise Conflict
      | Some desc ->
          let fmt = Vm_objects.Class_desc.format desc in
          validate ~small:false ~flt:false
            ~ptr:(Vm_objects.Objformat.is_pointers fmt)
            ~byt:(Vm_objects.Objformat.is_bytes fmt)
            ~idx:(Vm_objects.Objformat.is_variable fmt)
            ~cls:(c = class_class_id);
          if c = undefined_object_id then Model.D_nil
          else if c = true_id then Model.D_true
          else if c = false_id then Model.D_false
          else if c = class_class_id then
            Model.D_class
              {
                described_class_id =
                  (if info.describes_indexable = Yes then array_id
                   else object_id);
              }
          else if Vm_objects.Objformat.is_bytes fmt then
            Model.D_byte_object { class_id = Some c; size = 0 }
          else
            Model.D_object
              {
                class_id = Some c;
                num_slots = Vm_objects.Objformat.fixed_size fmt;
              }
  in
  match info.class_eq with
  | Some c -> class_known c
  | None ->
      if info.small = Yes then begin
        if info.float = Yes || info.pointers = Yes || info.bytes = Yes
           || info.indexable = Yes || info.class_obj = Yes
           || excluded small_integer_id
        then raise Conflict;
        Model.D_small_int 0
      end
      else if info.float = Yes then begin
        if info.pointers = Yes || info.bytes = Yes || info.indexable = Yes
           || info.class_obj = Yes || excluded boxed_float_id
        then raise Conflict;
        Model.D_float 1.5
      end
      else if info.class_obj = Yes then begin
        if info.bytes = Yes || info.indexable = Yes || excluded class_class_id
        then raise Conflict;
        Model.D_class
          {
            described_class_id =
              (if info.describes_indexable = Yes then array_id else object_id);
          }
      end
      else if info.bytes = Yes then begin
        (* byte objects are variable-format: always indexable, never
           pointers *)
        if info.pointers = Yes || info.indexable = No then raise Conflict;
        let candidates = [ byte_array_id; byte_string_id; external_address_id ] in
        match List.find_opt (fun c -> not (excluded c)) candidates with
        | Some c -> Model.D_byte_object { class_id = Some c; size = 0 }
        | None -> raise Conflict
      end
      else if info.indexable = Yes then begin
        (* an indexable object is pointer-indexable (Array) or
           byte-indexable; respect the pointers/bytes flags *)
        if info.pointers = No || info.bytes = Yes then begin
          (* an indexable non-pointers object must be a byte object *)
          if info.pointers = Yes || info.bytes = No then raise Conflict;
          let candidates =
            [ byte_array_id; byte_string_id; external_address_id ]
          in
          match List.find_opt (fun c -> not (excluded c)) candidates with
          | Some c -> Model.D_byte_object { class_id = Some c; size = 0 }
          | None -> raise Conflict
        end
        else if excluded array_id then raise Conflict
        else Model.D_object { class_id = Some array_id; num_slots = 0 }
      end
      else if info.pointers = Yes then
        (* A plain pointers object; the materialiser invents a class with
           the right number of named slots. *)
        Model.D_object { class_id = None; num_slots = 0 }
      else if info.small <> No && not (excluded small_integer_id) then
        (* Unconstrained (or only negatively constrained): prefer an
           immediate, which satisfies every remaining negative flag. *)
        Model.D_small_int 0
      else if info.float <> No && not (excluded boxed_float_id) then
        Model.D_float 1.5
      else if info.pointers <> No then
        (* the invented class never collides with excluded ids *)
        Model.D_object { class_id = None; num_slots = 0 }
      else if info.bytes <> No && info.indexable <> No then begin
        match
          List.find_opt
            (fun c -> not (excluded c))
            [ byte_array_id; byte_string_id; external_address_id ]
        with
        | Some c -> Model.D_byte_object { class_id = Some c; size = 0 }
        | None -> raise Conflict
      end
      else
        (* Not small, not float, not pointers, not bytes: only
           compiled-method-shaped objects remain, which the materialiser
           does not invent — treat as unsatisfiable (sound but
           incomplete; such shapes never arise from the interpreter). *)
        raise Conflict

(* ------------------------------------------------------------------ *)
(* Integer / float atoms and expression evaluation                     *)
(* ------------------------------------------------------------------ *)

(* Default interval per atom shape. *)
let base_interval (e : Sym_expr.t) : Interval.t =
  let iv lo hi = { Interval.lo; hi } in
  match e with
  | Integer_value_of _ | Var _ -> iv min_small max_small
  | Indexable_size_of _ -> iv 0 4096
  | Num_slots_of _ -> iv 0 64
  | Fixed_size_of _ -> iv 0 64
  | Byte_at _ -> iv 0 255
  | Identity_hash_of _ -> iv 0 0x3FFFFF
  | Char_value_of _ -> iv 0 0x10FFFF
  | Class_index_of _ -> iv 0 1024
  | _ -> iv min_small max_small

let eval_int = Eval.eval_int
let eval_float = Eval.eval_float
let is_int_atom = Eval.is_int_atom
let is_float_atom = Eval.is_float_atom

let lit_holds env = function
  | L_cmp (c, a, b) -> Eval.cmp_holds c (eval_int env a) (eval_int env b)
  | L_fcmp (c, a, b) -> Eval.fcmp_holds c (eval_float env a) (eval_float env b)
  | L_fnan (t, pol) -> Float.is_nan (eval_float env t) = pol
  | L_finf (t, pol) -> (Float.abs (eval_float env t) = Float.infinity) = pol
  | L_flag _ | L_class _ -> true (* handled by the type pass *)

(* ------------------------------------------------------------------ *)
(* Linear forms (for propagation and repair)                           *)
(* ------------------------------------------------------------------ *)

(* e as [Σ coeff·atom + const], if it is linear. *)
let rec linear_form (e : Sym_expr.t) : ((Sym_expr.t * int) list * int) option =
  if is_int_atom e then Some ([ (e, 1) ], 0)
  else
    match e with
    | Int_const c -> Some ([], c)
    | Add (a, b) -> combine a b 1
    | Sub (a, b) -> combine a b (-1)
    | Neg a ->
        Option.map
          (fun (ts, c) -> (List.map (fun (t, k) -> (t, -k)) ts, -c))
          (linear_form a)
    | Mul (a, Int_const k) | Mul (Int_const k, a) ->
        Option.map
          (fun (ts, c) -> (List.map (fun (t, q) -> (t, q * k)) ts, c * k))
          (linear_form a)
    | _ -> None

and combine a b sign =
  match (linear_form a, linear_form b) with
  | Some (ta, ca), Some (tb, cb) ->
      let merged =
        List.fold_left
          (fun acc (t, k) ->
            let k = sign * k in
            match List.assoc_opt t acc with
            | Some k0 -> (t, k0 + k) :: List.remove_assoc t acc
            | None -> (t, k) :: acc)
          ta tb
      in
      Some (List.filter (fun (_, k) -> k <> 0) merged, ca + (sign * cb))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Difference-bound refutation (step 3c)                               *)
(* ------------------------------------------------------------------ *)

(* Bellman-Ford sums at most [max_dbm_nodes] edge weights of magnitude
   [<= Limits.max_magnitude] (2^56): 2^61, no overflow. *)
let max_dbm_nodes = 32

let difference_refutes ~(bounds : Sym_expr.t -> Interval.t option)
    (cmps : (Sym_expr.cmp * Sym_expr.t * Sym_expr.t) list) : bool =
  let small v = v > -Limits.max_magnitude && v < Limits.max_magnitude in
  let bounded t =
    match bounds t with
    | Some iv -> small iv.Interval.lo && small iv.Interval.hi
    | None -> false
  in
  (* A side whose linear form has at most two unit-coefficient bounded
     atoms and a small constant: its true value stays far inside the
     native int range, so the evaluator's wrapping arithmetic (exact
     modulo 2^63, the same ring [linear_form] computes in) gets it
     exactly. *)
  let exact_side e =
    match linear_form e with
    | Some (ts, c) ->
        small c
        && List.length ts <= 2
        && List.for_all (fun (t, k) -> abs k = 1 && bounded t) ts
    | None -> false
  in
  (* Node 0 is the constant zero; [edge u v w] encodes [v - u <= w].
     Dropping an edge whose weight is out of range only weakens the
     system. *)
  let nodes = Hashtbl.create 8 in
  let node t =
    match Hashtbl.find_opt nodes t with
    | Some i -> i
    | None ->
        let i = Hashtbl.length nodes + 1 in
        Hashtbl.add nodes t i;
        i
  in
  let edges = ref [] in
  let edge u v w = if small w then edges := (u, v, w) :: !edges in
  List.iter
    (fun (c, a, b) ->
      if exact_side a && exact_side b then
        let diff =
          match linear_form (Sub (a, b)) with
          | Some ([], k) -> Some (0, 0, k)
          | Some ([ (x, 1) ], k) -> Some (node x, 0, k)
          | Some ([ (x, -1) ], k) -> Some (0, node x, k)
          | Some ([ (x, 1); (y, -1) ], k) | Some ([ (y, -1); (x, 1) ], k) ->
              Some (node x, node y, k)
          | _ -> None
        in
        match diff with
        | None -> ()
        | Some (p, n, k) -> (
            (* p - n + k ⋈ 0 *)
            let at_most w = edge n p w and at_least w = edge p n (-w) in
            match (c : Sym_expr.cmp) with
            | Cle -> at_most (-k)
            | Clt -> at_most (-k - 1)
            | Cge -> at_least (-k)
            | Cgt -> at_least (-k + 1)
            | Ceq ->
                at_most (-k);
                at_least (-k)
            | Cne -> ()))
    cmps;
  Hashtbl.iter
    (fun t i ->
      match bounds t with
      | Some iv ->
          edge 0 i iv.Interval.hi;
          edge i 0 (-iv.Interval.lo)
      | None -> ())
    nodes;
  let n = Hashtbl.length nodes + 1 in
  n <= max_dbm_nodes
  && begin
       (* Round-synchronous relaxation from a virtual source: after [r]
          rounds [dist] holds the lightest walk of at most [r] edges.
          Without a negative cycle it is final after [n - 1] rounds, so
          a change in round [n] proves one. *)
       let dist = Array.make n 0 in
       let relax () =
         let next = Array.copy dist in
         List.iter
           (fun (u, v, w) ->
             if dist.(u) + w < next.(v) then next.(v) <- dist.(u) + w)
           !edges;
         let changed = next <> dist in
         Array.blit next 0 dist 0 n;
         changed
       in
       let rec rounds r = relax () && (r = n || rounds (r + 1)) in
       rounds 1
     end

(* ------------------------------------------------------------------ *)
(* Range refutation (step 3d)                                          *)
(* ------------------------------------------------------------------ *)

(* Step 3b's interval evaluation, plus bounds for the division family
   and float exponents, over the same box the search stays inside.
   Every intermediate bound lies within [±2^61], so no value the
   evaluator computes on the way wraps: an intermediate that might
   leave that range makes its side unbounded. *)
let max_range = 1 lsl 61

let range_refutes ~(bounds : Sym_expr.t -> Interval.t option)
    (cmps : (Sym_expr.cmp * Sym_expr.t * Sym_expr.t) list) : bool =
  let guard (iv : Interval.t) =
    if iv.lo > -max_range && iv.hi < max_range then Some iv else None
  in
  let rec range (e : Sym_expr.t) : Interval.t option =
    if is_int_atom e then Option.bind (bounds e) guard
    else
      let both f a b =
        match (range a, range b) with
        | Some ia, Some ib -> Option.bind (f ia ib) guard
        | _ -> None
      in
      match e with
      | Int_const c -> guard (Interval.exactly c)
      | Add (a, b) -> both (fun x y -> Some (Interval.add x y)) a b
      | Sub (a, b) -> both (fun x y -> Some (Interval.sub x y)) a b
      | Neg a -> Option.map Interval.neg (range a)
      | Mul (a, Int_const k) | Mul (Int_const k, a) ->
          Option.bind (range a) (fun x ->
              if k = 0 || max (abs x.lo) (abs x.hi) < max_range / abs k then
                Some (Interval.scale k x)
              else None)
      | Div (a, b) -> both Interval.floor_div a b
      | Mod (a, b) -> both Interval.floor_mod a b
      | Quo (a, b) -> both Interval.quo a b
      | Rem (a, b) -> both Interval.rem a b
      | Float_exponent _ -> Some Interval.float_exponent
      | _ -> None
  in
  List.exists
    (fun (c, a, b) ->
      match (range a, range b) with
      | Some ia, Some ib -> Interval.tighten_cmp c ia ib = None
      | _ -> false)
    cmps

(* ------------------------------------------------------------------ *)
(* The conjunction solver                                              *)
(* ------------------------------------------------------------------ *)

type conj_result = C_sat of Model.t | C_unsat | C_unknown of string

(* The sampling loop of step 4 draws [sample_tries] assignments and
   charges [sample_cost] fuel for each; steps 3c and 3d charge the
   product. *)
let sample_tries = 4000
let sample_cost = 4

(* Searches that ran to exhaustion, and searches steps 3c and 3d
   answered without running (see [search_stats]). *)
let exhausted_counter = Atomic.make 0
let refuted_counter = Atomic.make 0

let collect_oop_terms lits =
  let terms = Hashtbl.create 16 in
  let note t = if not (Hashtbl.mem terms t) then Hashtbl.add terms t (fresh_info ()) in
  let rec note_subterms (e : Sym_expr.t) =
    (* Int atoms carry an oop argument that must also get a description. *)
    (match e with
    | Integer_value_of t | Indexable_size_of t | Num_slots_of t
    | Fixed_size_of t | Identity_hash_of t | Char_value_of t
    | Class_index_of t | Float_value_of t ->
        note t
    | Byte_at (t, idx) ->
        note t;
        note_subterms idx
    | Slot_at (t, idx) ->
        note e;
        note t;
        note_subterms idx
    | _ -> ());
    List.iter note_subterms (Limits.subexprs e)
  in
  List.iter
    (fun l ->
      match l with
      | L_flag (_, t, _) | L_class (t, _, _) ->
          note t;
          note_subterms t
      | L_cmp (_, a, b) | L_fcmp (_, a, b) ->
          note_subterms a;
          note_subterms b
      | L_fnan (t, _) | L_finf (t, _) -> note_subterms t)
    lits;
  terms

let apply_type_lits terms lits =
  let info t =
    match Hashtbl.find_opt terms t with
    | Some i -> i
    | None ->
        let i = fresh_info () in
        Hashtbl.add terms t i;
        i
  in
  List.iter
    (fun l ->
      match l with
      | L_flag (f, t, pol) -> (
          let i = info t in
          match f with
          | F_small -> set_tri i (fun i -> i.small) (fun i v -> i.small <- v) pol
          | F_float -> set_tri i (fun i -> i.float) (fun i v -> i.float <- v) pol
          | F_pointers ->
              set_tri i (fun i -> i.pointers) (fun i v -> i.pointers <- v) pol
          | F_bytes -> set_tri i (fun i -> i.bytes) (fun i v -> i.bytes <- v) pol
          | F_indexable ->
              set_tri i (fun i -> i.indexable) (fun i v -> i.indexable <- v) pol
          | F_class_obj ->
              set_tri i (fun i -> i.class_obj) (fun i v -> i.class_obj <- v) pol
          | F_describes_indexable ->
              set_tri i
                (fun i -> i.describes_indexable)
                (fun i v -> i.describes_indexable <- v)
                pol)
      | L_class (t, c, true) -> (
          let i = info t in
          match i.class_eq with
          | None ->
              if List.mem c i.class_ne then raise Conflict else i.class_eq <- Some c
          | Some c0 -> if c0 <> c then raise Conflict)
      | L_class (t, c, false) -> (
          let i = info t in
          match i.class_eq with
          | Some c0 when c0 = c -> raise Conflict
          | _ -> i.class_ne <- c :: i.class_ne)
      | L_cmp _ | L_fcmp _ | L_fnan _ | L_finf _ -> ())
    lits;
  (* Class-object predicates double as class constraints. *)
  Hashtbl.iter
    (fun _ i ->
      if i.class_obj = Yes then begin
        match i.class_eq with
        | None -> i.class_eq <- Some Vm_objects.Class_table.class_class_id
        | Some c when c = Vm_objects.Class_table.class_class_id -> ()
        | Some _ -> raise Conflict
      end)
    terms

(* Atom constraints implied by the type assignment. *)
let typed_interval descs (atom : Sym_expr.t) : Interval.t =
  let base = base_interval atom in
  let desc_of t = Hashtbl.find_opt descs t in
  match atom with
  | Indexable_size_of t -> (
      match desc_of t with
      | Some (Model.D_object { class_id = Some cid; num_slots }) -> (
          match lookup_class cid with
          | Some d when Vm_objects.Class_desc.is_variable d -> base
          | Some _ -> Interval.exactly 0
          | None -> ignore num_slots; base)
      | Some (Model.D_object { class_id = None; _ }) -> Interval.exactly 0
      | Some (Model.D_byte_object _) -> base
      | Some (Model.D_small_int _ | Model.D_float _) -> Interval.exactly 0
      | Some (Model.D_nil | Model.D_true | Model.D_false) -> Interval.exactly 0
      | Some (Model.D_class _) ->
          (* class objects are fixed-format: nothing indexable *)
          Interval.exactly 0
      | None -> base)
  | Num_slots_of t -> (
      match desc_of t with
      | Some (Model.D_object { class_id = Some cid; _ }) -> (
          match lookup_class cid with
          | Some d when Vm_objects.Class_desc.is_variable d -> base
          | Some d -> Interval.exactly (Vm_objects.Class_desc.fixed_size d)
          | None -> base)
      | Some (Model.D_object { class_id = None; _ }) -> base
      | Some (Model.D_nil | Model.D_true | Model.D_false) -> Interval.exactly 0
      | Some (Model.D_class _) -> Interval.exactly 2
      | Some (Model.D_small_int _ | Model.D_float _) -> Interval.exactly 0
      (* note: for byte objects [num_slots] is the byte count; kept at the
         base interval (the interpreter only queries it on pointers) *)
      | _ -> base)
  | Fixed_size_of t -> (
      match desc_of t with
      | Some (Model.D_object { class_id = Some cid; _ }) -> (
          match lookup_class cid with
          | Some d -> Interval.exactly (Vm_objects.Class_desc.fixed_size d)
          | None -> base)
      | Some (Model.D_byte_object _) -> Interval.exactly 0
      | Some (Model.D_nil | Model.D_true | Model.D_false) -> Interval.exactly 0
      | Some (Model.D_class _) -> Interval.exactly 2
      | Some (Model.D_small_int _ | Model.D_float _) -> Interval.exactly 0
      | _ -> base)
  | Class_index_of t -> (
      match desc_of t with
      | Some (Model.D_object { class_id = Some cid; _ })
      | Some (Model.D_byte_object { class_id = Some cid; _ }) ->
          Interval.exactly cid
      | Some (Model.D_small_int _) ->
          Interval.exactly Vm_objects.Class_table.small_integer_id
      | Some (Model.D_float _) ->
          Interval.exactly Vm_objects.Class_table.boxed_float_id
      | _ -> base)
  | _ -> base

let solve_conjunction ?(seed = 0x5EED) (lits : lit list) : conj_result =
  (* 1. Types. *)
  let terms = collect_oop_terms lits in
  match apply_type_lits terms lits with
  | exception Conflict -> C_unsat
  | () -> (
      let descs = Hashtbl.create 16 in
      match
        Hashtbl.iter
          (fun t info -> Hashtbl.replace descs t (resolve_info info))
          terms
      with
      | exception Conflict -> C_unsat
      | () -> (
          (* 2. Atoms and intervals. *)
          let atoms = Hashtbl.create 16 in
          let note_atom e =
            if (is_int_atom e || is_float_atom e) && not (Hashtbl.mem atoms e)
            then Hashtbl.add atoms e ()
          in
          let rec scan e =
            note_atom e;
            List.iter scan (Limits.subexprs e)
          in
          List.iter
            (function
              | L_cmp (_, a, b) | L_fcmp (_, a, b) ->
                  scan a;
                  scan b
              | L_fnan (t, _) | L_finf (t, _) -> scan t
              | L_flag _ | L_class _ -> ())
            lits;
          let int_atoms =
            Hashtbl.fold (fun a () acc -> if is_int_atom a then a :: acc else acc) atoms []
          in
          let float_atoms =
            Hashtbl.fold
              (fun a () acc -> if is_float_atom a then a :: acc else acc)
              atoms []
          in
          let intervals = Hashtbl.create 16 in
          List.iter
            (fun a -> Hashtbl.replace intervals a (typed_interval descs a))
            int_atoms;
          (* 3. Interval propagation through linear comparisons. *)
          let changed = ref true in
          let rounds = ref 0 in
          let unsat = ref false in
          let get_interval a = Hashtbl.find intervals a in
          let lin_interval ts c =
            List.fold_left
              (fun acc (t, k) -> Interval.add acc (Interval.scale k (get_interval t)))
              (Interval.exactly c) ts
          in
          while !changed && !rounds < 20 && not !unsat do
            changed := false;
            incr rounds;
            List.iter
              (fun l ->
                match l with
                | L_cmp (c, a, b) -> (
                    match linear_form (Sub (a, b)) with
                    | Some (ts, k) ->
                        (* For each atom: atom ⋈ -(rest)/coeff *)
                        List.iter
                          (fun (t, coeff) ->
                            (* only unit coefficients are propagated
                               exactly; others are left to the witness
                               search (dividing intervals by a signed
                               constant needs careful rounding to stay
                               sound) *)
                            if abs coeff = 1 then begin
                              let rest =
                                lin_interval
                                  (List.filter (fun (t', _) -> t' <> t) ts)
                                  k
                              in
                              (* coeff·t + rest ⋈ 0 → t ⋈' -rest/coeff *)
                              let bound =
                                if coeff > 0 then Interval.scale (-1) rest
                                else rest
                              in
                              let cur = get_interval t in
                              let c' =
                                if coeff > 0 then c
                                else
                                  match c with
                                  | Sym_expr.Clt -> Sym_expr.Cgt
                                  | Cle -> Cge
                                  | Cgt -> Clt
                                  | Cge -> Cle
                                  | (Ceq | Cne) as x -> x
                              in
                              match Interval.tighten_cmp c' cur bound with
                              | Some tightened ->
                                  if not (Interval.equal tightened cur) then begin
                                    Hashtbl.replace intervals t tightened;
                                    changed := true
                                  end
                              | None -> unsat := true
                            end)
                          ts
                    | None -> ())
                | _ -> ())
              lits
          done;
          (* 3b. interval fast path for the nonlinear shift/mask forms
             the normaliser produces: evaluate both comparison sides to
             intervals and reject comparisons that cannot hold. *)
          let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
          let is_pow2 n = n > 0 && n land (n - 1) = 0 in
          let rec interval_of (e : Sym_expr.t) : Interval.t option =
            if is_int_atom e then Hashtbl.find_opt intervals e
            else
              let map2 f a b =
                match (interval_of a, interval_of b) with
                | Some ia, Some ib -> Some (f ia ib)
                | _ -> None
              in
              match e with
              | Int_const c -> Some (Interval.exactly c)
              | Add (a, b) -> map2 Interval.add a b
              | Sub (a, b) -> map2 Interval.sub a b
              | Neg a -> Option.map Interval.neg (interval_of a)
              | Mul (a, Int_const k) | Mul (Int_const k, a) ->
                  Option.map (Interval.scale k) (interval_of a)
              | Div (a, Int_const k) when is_pow2 k ->
                  Option.map (Interval.shift_right (log2 k)) (interval_of a)
              | Mod (a, Int_const m) when is_pow2 m ->
                  Option.map (Interval.mask (m - 1)) (interval_of a)
              | _ -> None
          in
          if not !unsat then
            List.iter
              (function
                | L_cmp (c, a, b) -> (
                    match (interval_of a, interval_of b) with
                    | Some ia, Some ib ->
                        if Interval.tighten_cmp c ia ib = None then
                          unsat := true
                    | _ -> ())
                | _ -> ())
              lits;
          let cmps =
            List.filter_map
              (function L_cmp (c, a, b) -> Some (c, a, b) | _ -> None)
              lits
          in
          let bounds = Hashtbl.find_opt intervals in
          if !unsat then C_unsat
          else if
            difference_refutes ~bounds cmps || range_refutes ~bounds cmps
          then begin
            (* 3c/3d. The search cannot succeed: answer as its exhausted
               sampling loop would, fuel included. *)
            Exec.Budget.tick ~cost:(sample_tries * sample_cost) ();
            Atomic.incr refuted_counter;
            C_unknown "no witness found"
          end
          else begin
            (* 4. Witness search. *)
            let rng = Random.State.make [| seed |] in
            let env = Eval.create_env () in
            let value_lits =
              List.filter
                (function L_flag _ | L_class _ -> false | _ -> true)
                lits
            in
            let all_hold () =
              List.for_all
                (fun l -> try lit_holds env l with Eval.Failed -> false)
                value_lits
            in
            let float_candidates =
              [ 1.5; 0.0; 1.0; -1.0; 0.5; 2.0; -2.5; 100.25; 1e10; -1e10 ]
            in
            let int_candidates a =
              let iv = get_interval a in
              (* prefer small magnitudes: witnesses near zero exercise the
                 interesting fast paths of both engines *)
              List.sort_uniq Int.compare
                (List.filter (Interval.contains iv)
                   [
                     iv.Interval.lo;
                     iv.Interval.hi;
                     0;
                     1;
                     -1;
                     2;
                     -2;
                     iv.Interval.lo + 1;
                     iv.Interval.hi - 1;
                   ])
              |> List.stable_sort (fun a b ->
                     compare (abs a, a) (abs b, b))
            in
            let try_assignment assign =
              assign ();
              all_hold ()
            in
            let found = ref false in
            (* 4a. biased candidates (bounded Cartesian walk) *)
            let rec walk ints floats budget =
              if !found || budget <= 0 then budget
              else
                match (ints, floats) with
                | [], [] ->
                    if try_assignment (fun () -> ()) then found := true;
                    budget - 1
                | a :: rest, _ ->
                    List.fold_left
                      (fun budget v ->
                        if !found || budget <= 0 then budget
                        else begin
                          Hashtbl.replace env.ints a v;
                          walk rest floats budget
                        end)
                      budget (int_candidates a)
                | [], f :: rest ->
                    List.fold_left
                      (fun budget v ->
                        if !found || budget <= 0 then budget
                        else begin
                          Hashtbl.replace env.floats f v;
                          walk [] rest budget
                        end)
                      budget float_candidates
            in
            ignore (walk int_atoms float_atoms 4096);
            (* 4b. random sampling *)
            let tries = ref 0 in
            while (not !found) && !tries < sample_tries do
              Exec.Budget.tick ~cost:sample_cost ();
              incr tries;
              List.iter
                (fun a ->
                  Hashtbl.replace env.ints a
                    (Interval.sample (get_interval a) ~rng))
                int_atoms;
              List.iter
                (fun f ->
                  let v =
                    match Random.State.int rng 12 with
                    | 0 -> 0.0
                    | 1 -> 1.0
                    | 2 -> -1.0
                    | 3 -> Float.of_int (Random.State.int rng 1000)
                    | 4 -> -.Float.of_int (Random.State.int rng 1000)
                    | _ -> (Random.State.float rng 2e6) -. 1e6
                  in
                  Hashtbl.replace env.floats f v)
                float_atoms;
              (* 4c. linear repair: fix failing equalities by solving for
                 one atom. *)
              let repair () =
                List.iter
                  (fun l ->
                    match l with
                    | L_cmp (c, a, b) when not (try lit_holds env l with Eval.Failed -> false)
                      -> (
                        match linear_form (Sub (a, b)) with
                        | Some (ts, k) -> (
                            match ts with
                            | (t, coeff) :: _ when abs coeff = 1 -> (
                                try
                                  let rest =
                                    List.fold_left
                                      (fun acc (t', k') ->
                                        if t' == t || t' = t then acc
                                        else acc + (k' * Hashtbl.find env.ints t'))
                                      k
                                      (List.tl ts)
                                  in
                                  (* coeff·t + rest ⋈ 0 *)
                                  let target =
                                    match (c, coeff > 0) with
                                    | Sym_expr.Ceq, true -> -rest
                                    | Ceq, false -> rest
                                    | Cne, _ -> (-rest) + 1
                                    | (Clt | Cle), true -> -rest - 1
                                    | (Clt | Cle), false -> rest + 1
                                    | (Cgt | Cge), true -> -rest + 1
                                    | (Cgt | Cge), false -> rest - 1
                                  in
                                  let iv = get_interval t in
                                  let clamped =
                                    max iv.Interval.lo (min iv.Interval.hi target)
                                  in
                                  Hashtbl.replace env.ints t clamped
                                with Not_found | Eval.Failed -> ())
                            | _ -> ())
                        | None -> ())
                    | L_fcmp (Ceq, a, b)
                      when not (try lit_holds env l with Eval.Failed -> false) -> (
                        (* direct float repair: atom = other side *)
                        match (a, b) with
                        | atom, other when is_float_atom atom -> (
                            try Hashtbl.replace env.floats atom (eval_float env other)
                            with Eval.Failed -> ())
                        | other, atom when is_float_atom atom -> (
                            try Hashtbl.replace env.floats atom (eval_float env other)
                            with Eval.Failed -> ())
                        | _ -> ())
                    | _ -> ())
                  value_lits
              in
              repair ();
              repair ();
              if all_hold () then found := true
            done;
            if not !found then
              if value_lits = [] then found := true else ();
            if not !found then begin
              Atomic.incr exhausted_counter;
              C_unknown "no witness found"
            end
            else begin
              (* 5. Assemble the model. *)
              let model = Model.create () in
              List.iter
                (fun a -> Model.set_int model a (Hashtbl.find env.ints a))
                int_atoms;
              List.iter
                (fun f -> Model.set_float model f (Hashtbl.find env.floats f))
                float_atoms;
              Hashtbl.iter
                (fun term desc ->
                  let desc =
                    match (desc : Model.oop_desc) with
                    | D_small_int _ ->
                        Model.D_small_int
                          (Model.int_or model (Integer_value_of term) ~default:0)
                    | D_float _ ->
                        Model.D_float
                          (Model.float_or model (Float_value_of term)
                             ~default:1.5)
                    | D_object { class_id; num_slots = _ } ->
                        let num_slots =
                          match Model.int model (Num_slots_of term) with
                          | Some n -> n
                          | None -> (
                              match class_id with
                              | Some cid -> (
                                  match lookup_class cid with
                                  | Some d when not (Vm_objects.Class_desc.is_variable d)
                                    ->
                                      Vm_objects.Class_desc.fixed_size d
                                  | Some d ->
                                      Vm_objects.Class_desc.fixed_size d
                                      + Model.int_or model
                                          (Indexable_size_of term) ~default:0
                                  | None -> 0)
                              | None -> 0)
                        in
                        Model.D_object { class_id; num_slots }
                    | D_byte_object { class_id; size = _ } ->
                        Model.D_byte_object
                          {
                            class_id;
                            size =
                              Model.int_or model (Indexable_size_of term)
                                ~default:0;
                          }
                    | (D_class _ | D_nil | D_true | D_false) as d -> d
                  in
                  Model.set_oop model term desc)
                descs;
              C_sat model
            end
          end))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* [conds] must already be normalized. *)
let solve_normalized ~seed (conds : Sym_expr.t list) : verdict =
  if List.exists Sym_expr.has_bitwise conds then
    Unknown "bitwise operations unsupported by the constraint solver"
  else if List.exists Limits.expr_exceeds_precision conds then
    Unknown "constant exceeds 56-bit solver precision"
  else
    match
      List.fold_left
        (fun branches cond ->
          let alts = expand cond ~pol:true in
          if List.length branches * List.length alts > 64 then
            raise (Give_up "too many disjunctive branches")
          else
            List.concat_map
              (fun br -> List.map (fun alt -> br @ alt) alts)
              branches)
        [ [] ] conds
    with
    | exception Give_up reason -> Unknown reason
    | [] -> Unsat
    | branches -> (
        let rec try_branches saw_unknown = function
          | [] -> if saw_unknown then Unknown "all branches unknown" else Unsat
          | br :: rest -> (
              match solve_conjunction ~seed br with
              | C_sat m -> Sat m
              | C_unsat -> try_branches saw_unknown rest
              | C_unknown _ -> try_branches true rest)
        in
        try try_branches false branches
        with Give_up reason -> Unknown reason)

(* ------------------------------------------------------------------ *)
(* Canonical (prepared) conjunctions                                    *)
(* ------------------------------------------------------------------ *)

(* A [prepared] value is a path condition in canonical form: every
   conjunct bit-normalized, top-level [Not] pushed through integer
   comparisons, trivially-true conjuncts dropped, duplicates collapsed,
   and the remainder sorted by rendered string.  Semantically equal
   conjunctions built in any order therefore share one [fingerprint] —
   the collision the memo and the persistent store both key on.

   Alongside the conjunct set it carries cheap syntactic refutation
   state: per-term constant bounds (intersected as conjuncts arrive) and
   a [contradicted] bit set by a complement pair (c ∧ ¬c), a constant
   comparison that is false, or an empty bound meet.  Every refutation
   rule is sound for Unsat — a true Sat conjunction can never trip it —
   so callers may skip the decision procedure entirely on a contradicted
   value.  [contradicted] is a pure function of the conjunct *set*
   (complement pairs, false members and bound meets do not depend on
   insertion order), so equal fingerprints always agree on it and the
   verdict cache cannot be poisoned by the shortcut. *)

type prepared = {
  pn : (string * Sym_expr.t) list; (* sorted by rendered conjunct *)
  bounds : (string * Interval.t) list; (* term render → constant bounds *)
  contradicted : bool;
}

let empty_prepared = { pn = []; bounds = []; contradicted = false }
let fingerprint p = String.concat " & " (List.map fst p.pn)
let prepared_unsat p = p.contradicted
let prepared_conds p = List.map snd p.pn

(* ¬(a ⋈ b) ≡ (a ⋈' b) holds for *integer* comparisons (they are
   total); float comparisons are left alone — ¬(a < b) is not (a >= b)
   under NaN. *)
let rec push_not (e : Sym_expr.t) : Sym_expr.t =
  match e with
  | Not (Cmp (c, a, b)) -> Cmp (negate_cmp c, a, b)
  | Not (Bool_const b) -> Bool_const (not b)
  | Not (Not e) -> push_not e
  | e -> e

let rec const_truth (e : Sym_expr.t) : bool option =
  match e with
  | Bool_const b -> Some b
  | Not e -> Option.map not (const_truth e)
  | Cmp (c, Int_const a, Int_const b) -> Some (Eval.cmp_holds c a b)
  | _ -> None

(* The syntactic negation of a canonical conjunct.  [Not] is genuine
   logical negation, so the default arm is always sound; comparisons
   get the comparison form because [push_not] canonicalised theirs
   away. *)
let complement (e : Sym_expr.t) : Sym_expr.t =
  match e with
  | Not e -> e
  | Cmp (c, a, b) -> Cmp (negate_cmp c, a, b)
  | e -> Not e

let flip_cmp : Sym_expr.cmp -> Sym_expr.cmp = function
  | Clt -> Cgt
  | Cle -> Cge
  | Cgt -> Clt
  | Cge -> Cle
  | (Ceq | Cne) as c -> c

(* Wide sentinel bounds: comfortably past any small-int or size value,
   comfortably inside overflow range for interval arithmetic. *)
let wide_interval = { Interval.lo = min_int asr 2; hi = max_int asr 2 }

let update_bounds bounds (c : Sym_expr.t) =
  let tighten term cmp k =
    let tr = Sym_expr.to_string term in
    let cur =
      match List.assoc_opt tr bounds with
      | Some iv -> iv
      | None -> wide_interval
    in
    match Interval.tighten_cmp cmp cur (Interval.exactly k) with
    | Some iv -> ((tr, iv) :: List.remove_assoc tr bounds, false)
    | None -> (bounds, true)
  in
  match c with
  | Cmp (cmp, Int_const k, t) -> tighten t (flip_cmp cmp) k
  | Cmp (cmp, t, Int_const k) -> tighten t cmp k
  | _ -> (bounds, false)

let extend (p : prepared) (cond : Sym_expr.t) : prepared =
  let c = push_not (normalize cond) in
  let ins r c pn =
    let rec go = function
      | [] -> [ (r, c) ]
      | ((r0, _) as hd) :: tl -> if r < r0 then (r, c) :: hd :: tl else hd :: go tl
    in
    go pn
  in
  match const_truth c with
  | Some true -> p
  | Some false ->
      (* kept in the conjunct set — the fingerprint must differ from
         the satisfiable conjunction that merely omits it *)
      let r = Sym_expr.to_string c in
      if List.mem_assoc r p.pn then { p with contradicted = true }
      else { p with pn = ins r c p.pn; contradicted = true }
  | None -> (
      let r = Sym_expr.to_string c in
      if List.mem_assoc r p.pn then p
      else
        let pn = ins r c p.pn in
        if p.contradicted then { p with pn }
        else if List.mem_assoc (Sym_expr.to_string (complement c)) p.pn then
          { p with pn; contradicted = true }
        else
          match update_bounds p.bounds c with
          | bounds, dead -> { pn; bounds; contradicted = dead })

let prepare (conds : Sym_expr.t list) : prepared =
  List.fold_left extend empty_prepared conds

let normalize_conjunction conds = prepared_conds (prepare conds)

(* ------------------------------------------------------------------ *)
(* Entry points and caches                                              *)
(* ------------------------------------------------------------------ *)

let solve_uncached ?(seed = 0x5EED) (conds : Sym_expr.t list) : verdict =
  (* Canonicalise exactly like [solve], then mirror the paper's solver
     limits (§4.3) on whatever remains — the determinism oracle must
     walk the same road as the cached entry point. *)
  let p = prepare conds in
  if p.contradicted then Unsat
  else solve_normalized ~seed (prepared_conds p)

(* The memo table.  Keyed on the canonical conjunction's [fingerprint]
   (the same rendering convention [Path.key] and the static caches use)
   plus the seed, so two queries that canonicalise identically share
   one verdict.  Verdicts are deterministic per key and models are
   immutable once built, so sharing the table read-mostly across domains
   never changes a result — only how often the decision procedure runs. *)
let memo : (string, verdict) Exec.Memo.t = Exec.Memo.create ~shards:64 ()

(* The persistent layer: verdicts survive the process when a store is
   active.  Pure function of the key (seed + canonical conjunction), so
   no fault tag is needed — compiled code never enters a solver key. *)
let store_ns = "solver-verdict:1"

(* Independent of the memo's own hit/miss counters: one increment per
   [solve] call, before the lookup.  The invariant
   [queries_posed = hits + misses] cross-checks the memo accounting
   (the bench harness fails its run when it does not hold). *)
let queries_posed_counter = Atomic.make 0
let queries_posed () = Atomic.get queries_posed_counter

let solve_canon ~seed (p : prepared) : verdict =
  let key = string_of_int seed ^ "|" ^ fingerprint p in
  Exec.Memo.find_or_add memo key (fun _ ->
      if p.contradicted then Unsat
      else
        match Exec.Store.lookup ~ns:store_ns ~key with
        | Some v -> v
        | None ->
            let v = solve_normalized ~seed (prepared_conds p) in
            Exec.Store.record ~ns:store_ns ~key v;
            v)

(* Chaos and watchdog poll come before the posed-counter increment and
   the memo lookup: an injected raise or an exhausted budget leaves
   [queries_posed = hits + misses] intact and never poisons the shared
   cache. *)
let solve_prepared ?(seed = 0x5EED) (p : prepared) : verdict =
  Exec.Chaos.hook_solver ();
  Exec.Budget.tick ~cost:16 ();
  Atomic.incr queries_posed_counter;
  solve_canon ~seed p

let solve ?(seed = 0x5EED) (conds : Sym_expr.t list) : verdict =
  Exec.Chaos.hook_solver ();
  Exec.Budget.tick ~cost:16 ();
  Atomic.incr queries_posed_counter;
  solve_canon ~seed (prepare conds)

let cache_stats () = Exec.Memo.stats memo

type search_stats = { exhausted : int; refuted : int }

let search_stats () =
  {
    exhausted = Atomic.get exhausted_counter;
    refuted = Atomic.get refuted_counter;
  }

let reset_cache () =
  Atomic.set queries_posed_counter 0;
  Atomic.set exhausted_counter 0;
  Atomic.set refuted_counter 0;
  Exec.Memo.clear memo
