(* Constraint solver tests: type/class assignment, interval propagation,
   witness search, and the paper's solver limits (§4.3). *)

module Sym = Symbolic.Sym_expr
open Solver

let check_bool = Alcotest.(check bool)

let gen = Sym.Gen.create ()
let oop_var name = Sym.Var (Sym.Gen.fresh gen ~name ~sort:Sym.Oop)
let int_var name = Sym.Var (Sym.Gen.fresh gen ~name ~sort:Sym.Int)

let is_sat = function Solve.Sat _ -> true | _ -> false
let is_unsat = function Solve.Unsat -> true | _ -> false
let is_unknown = function Solve.Unknown _ -> true | _ -> false

let sat_model conds =
  match Solve.solve conds with
  | Solve.Sat m -> m
  | Solve.Unsat -> Alcotest.fail "unexpected unsat"
  | Solve.Unknown r -> Alcotest.fail ("unexpected unknown: " ^ r)

(* Check a model's integer assignments satisfy the conditions via the
   shared evaluator. *)
let model_satisfies model conds =
  let env = Eval.env_of_model model in
  List.for_all
    (fun c ->
      match (c : Sym.t) with
      | Cmp (op, a, b) -> (
          try Eval.cmp_holds op (Eval.eval_int env a) (Eval.eval_int env b)
          with Eval.Failed -> true)
      | Not (Cmp (op, a, b)) -> (
          try
            not (Eval.cmp_holds op (Eval.eval_int env a) (Eval.eval_int env b))
          with Eval.Failed -> true)
      | _ -> true)
    conds

let test_empty_is_sat () = check_bool "[] sat" true (is_sat (Solve.solve []))

let test_type_assignment () =
  let x = oop_var "x" in
  let m = sat_model [ Sym.Is_small_int x ] in
  (match Model.oop m x with
  | Some (Model.D_small_int _) -> ()
  | _ -> Alcotest.fail "expected small int desc");
  let m = sat_model [ Sym.Is_float_object x ] in
  (match Model.oop m x with
  | Some (Model.D_float _) -> ()
  | _ -> Alcotest.fail "expected float desc");
  let m = sat_model [ Sym.Not (Sym.Is_small_int x) ] in
  match Model.oop m x with
  | Some (Model.D_small_int _) -> Alcotest.fail "must not be a small int"
  | _ -> ()

let test_type_conflicts_unsat () =
  let x = oop_var "x" in
  check_bool "int and float conflict" true
    (is_unsat (Solve.solve [ Sym.Is_small_int x; Sym.Is_float_object x ]));
  check_bool "int and not-int conflict" true
    (is_unsat (Solve.solve [ Sym.Is_small_int x; Sym.Not (Sym.Is_small_int x) ]));
  check_bool "float and pointers conflict" true
    (is_unsat (Solve.solve [ Sym.Is_float_object x; Sym.Is_pointers x ]))

let test_class_constraints () =
  let x = oop_var "x" in
  let cid = Vm_objects.Class_table.point_id in
  let m = sat_model [ Sym.Has_class (x, cid) ] in
  (match Model.oop m x with
  | Some (Model.D_object { class_id = Some c; _ }) ->
      Alcotest.(check int) "point class" cid c
  | _ -> Alcotest.fail "expected point instance");
  check_bool "class eq/ne conflict" true
    (is_unsat
       (Solve.solve [ Sym.Has_class (x, cid); Sym.Not (Sym.Has_class (x, cid)) ]));
  check_bool "two different classes conflict" true
    (is_unsat
       (Solve.solve
          [
            Sym.Has_class (x, cid);
            Sym.Has_class (x, Vm_objects.Class_table.array_id);
          ]))

let test_int_bounds () =
  let x = oop_var "x" in
  let v = Sym.Integer_value_of x in
  let conds =
    [
      Sym.Is_small_int x;
      Sym.Cmp (Sym.Cgt, v, Sym.Int_const 10);
      Sym.Cmp (Sym.Clt, v, Sym.Int_const 13);
    ]
  in
  let m = sat_model conds in
  check_bool "model satisfies bounds" true (model_satisfies m conds);
  let w = Model.int_or m v ~default:min_int in
  check_bool "witness in (10,13)" true (w > 10 && w < 13)

let test_equality_repair () =
  let x = oop_var "x" and y = oop_var "y" in
  let vx = Sym.Integer_value_of x and vy = Sym.Integer_value_of y in
  let conds =
    [
      Sym.Is_small_int x;
      Sym.Is_small_int y;
      Sym.Cmp (Sym.Ceq, Sym.Add (vx, vy), Sym.Int_const 12345);
      Sym.Cmp (Sym.Cgt, vx, Sym.Int_const 12000);
    ]
  in
  let m = sat_model conds in
  check_bool "sum repair" true (model_satisfies m conds)

let test_overflow_witness () =
  (* the crux of the paper's Table 1: two immediates whose sum overflows *)
  let a = oop_var "a" and b = oop_var "b" in
  let sum = Sym.Add (Sym.Integer_value_of a, Sym.Integer_value_of b) in
  let conds =
    [
      Sym.Is_small_int a;
      Sym.Is_small_int b;
      Sym.Not (Sym.Is_in_small_int_range sum);
    ]
  in
  let m = sat_model conds in
  let env = Eval.env_of_model m in
  let s = Eval.eval_int env sum in
  check_bool "sum overflows" true
    (s > Vm_objects.Value.max_small_int || s < Vm_objects.Value.min_small_int)

let test_in_range_positive () =
  let a = oop_var "a" in
  let v = Sym.Integer_value_of a in
  let conds = [ Sym.Is_small_int a; Sym.Is_in_small_int_range (Sym.Mul (v, Sym.Int_const 2)) ] in
  check_bool "in-range conjunction sat" true (is_sat (Solve.solve conds))

let test_contradictory_bounds_unsat () =
  let x = int_var "x" in
  check_bool "x>5 and x<3 unsat" true
    (is_unsat
       (Solve.solve
          [
            Sym.Cmp (Sym.Cgt, x, Sym.Int_const 5);
            Sym.Cmp (Sym.Clt, x, Sym.Int_const 3);
          ]))

let test_bitwise_rejected () =
  (* the paper's solver does not support general bitwise operations
     (§4.3).  Tag-manipulation shapes (low-mask and, constant shifts,
     or-1) are normalised to arithmetic for the translation validator,
     so the gate is probed with the forms the rewriter cannot reach. *)
  let x = int_var "x" in
  let y = int_var "y" in
  check_bool "bitxor constraint unknown" true
    (is_unknown
       (Solve.solve
          [ Sym.Cmp (Sym.Ceq, Sym.Bit_xor (x, Sym.Int_const 1), Sym.Int_const 1) ]));
  check_bool "non-mask bitand unknown" true
    (is_unknown
       (Solve.solve
          [ Sym.Cmp (Sym.Ceq, Sym.Bit_and (x, Sym.Int_const 6), Sym.Int_const 2) ]));
  check_bool "variable bitand unknown" true
    (is_unknown
       (Solve.solve [ Sym.Cmp (Sym.Ceq, Sym.Bit_and (x, y), Sym.Int_const 1) ]));
  (* the tag-test mask, by contrast, is now arithmetic: x land 1 = 1 *)
  check_bool "tag mask solvable" true
    (not
       (is_unknown
          (Solve.solve
             [ Sym.Cmp (Sym.Ceq, Sym.Bit_and (x, Sym.Int_const 1), Sym.Int_const 1) ])))

let test_precision_limit () =
  let x = int_var "x" in
  check_bool "57-bit constant rejected" true
    (is_unknown
       (Solve.solve [ Sym.Cmp (Sym.Cgt, x, Sym.Int_const (1 lsl 57)) ]));
  check_bool "within 56 bits accepted" true
    (not
       (is_unknown
          (Solve.solve [ Sym.Cmp (Sym.Cgt, x, Sym.Int_const 1000) ])))

let test_structure_sizes () =
  let x = oop_var "x" in
  let conds =
    [
      Sym.Is_pointers x;
      Sym.Cmp (Sym.Cgt, Sym.Num_slots_of x, Sym.Int_const 4);
    ]
  in
  let m = sat_model conds in
  match Model.oop m x with
  | Some (Model.D_object { num_slots; _ }) ->
      check_bool "at least 5 slots" true (num_slots > 4)
  | _ -> Alcotest.fail "expected pointers object"

let test_indexable_resolution () =
  let x = oop_var "x" in
  let conds =
    [
      Sym.Is_indexable x;
      Sym.Not (Sym.Is_bytes x);
      Sym.Cmp (Sym.Cge, Sym.Indexable_size_of x, Sym.Int_const 3);
    ]
  in
  let m = sat_model conds in
  match Model.oop m x with
  | Some (Model.D_object { class_id = Some cid; num_slots }) ->
      Alcotest.(check int) "array" Vm_objects.Class_table.array_id cid;
      check_bool "size >= 3" true (num_slots >= 3)
  | d ->
      Alcotest.failf "expected array desc, got %s"
        (match d with Some d -> Model.show_oop_desc d | None -> "none")

let test_bytes_resolution () =
  let x = oop_var "x" in
  let m = sat_model [ Sym.Is_bytes x ] in
  match Model.oop m x with
  | Some (Model.D_byte_object _) -> ()
  | _ -> Alcotest.fail "expected byte object"

let test_byte_at_range () =
  let x = oop_var "x" in
  let b = Sym.Byte_at (x, Sym.Int_const 0) in
  let conds =
    [
      Sym.Is_bytes x;
      Sym.Cmp (Sym.Cgt, Sym.Indexable_size_of x, Sym.Int_const 0);
      Sym.Cmp (Sym.Cgt, b, Sym.Int_const 200);
    ]
  in
  let m = sat_model conds in
  let v = Model.int_or m b ~default:(-1) in
  check_bool "byte in (200, 255]" true (v > 200 && v <= 255)

let test_class_object_constraints () =
  let x = oop_var "x" in
  let conds =
    [
      Sym.Has_class (x, Vm_objects.Class_table.class_class_id);
      Sym.Describes_indexable_class x;
    ]
  in
  let m = sat_model conds in
  match Model.oop m x with
  | Some (Model.D_class { described_class_id }) ->
      Alcotest.(check int) "describes array" Vm_objects.Class_table.array_id
        described_class_id
  | _ -> Alcotest.fail "expected class object"

let test_boolean_singletons () =
  let x = oop_var "x" in
  let m = sat_model [ Sym.Has_class (x, Vm_objects.Class_table.true_id) ] in
  check_bool "true desc" true (Model.oop m x = Some Model.D_true);
  let m = sat_model [ Sym.Has_class (x, Vm_objects.Class_table.undefined_object_id) ] in
  check_bool "nil desc" true (Model.oop m x = Some Model.D_nil)

let test_float_constraints () =
  let x = oop_var "x" in
  let f = Sym.Float_value_of x in
  let conds =
    [ Sym.Is_float_object x; Sym.F_cmp (Sym.Cgt, f, Sym.Float_const 100.0) ]
  in
  let m = sat_model conds in
  check_bool "float witness > 100" true
    (Model.float_or m f ~default:0.0 > 100.0)

let test_float_equality_repair () =
  let x = oop_var "x" in
  let f = Sym.Float_value_of x in
  let conds =
    [ Sym.Is_float_object x; Sym.F_cmp (Sym.Ceq, f, Sym.Float_const 0.125) ]
  in
  let m = sat_model conds in
  Alcotest.(check (float 0.0)) "pinned float" 0.125
    (Model.float_or m f ~default:0.0)

let test_interval_ops () =
  let open Interval in
  let a = exactly 5 in
  check_bool "singleton" true (is_singleton a);
  check_bool "contains" true (contains a 5);
  let b = { lo = 1; hi = 10 } in
  check_bool "inter" true (inter a b = Some a);
  check_bool "empty inter" true (inter (exactly 0) (exactly 1) = None);
  check_bool "scale neg swaps" true (scale (-1) b = { lo = -10; hi = -1 });
  check_bool "tighten lt" true
    (tighten_cmp Sym.Clt b (exactly 5) = Some { lo = 1; hi = 4 })

let qcheck_bound_witnesses =
  QCheck.Test.make ~name:"qcheck: solver witnesses satisfy random bounds"
    ~count:200
    QCheck.(pair (int_range (-10000) 10000) (int_range 0 2000))
    (fun (lo, width) ->
      let x = int_var "q" in
      let conds =
        [
          Sym.Cmp (Sym.Cge, x, Sym.Int_const lo);
          Sym.Cmp (Sym.Cle, x, Sym.Int_const (lo + width));
        ]
      in
      match Solve.solve conds with
      | Solve.Sat m ->
          let v = Model.int_or m x ~default:min_int in
          v >= lo && v <= lo + width
      | _ -> false)

let qcheck_unsat_detected =
  QCheck.Test.make ~name:"qcheck: empty ranges are unsat" ~count:100
    (QCheck.int_range (-1000) 1000)
    (fun lo ->
      let x = int_var "q" in
      is_unsat
        (Solve.solve
           [
             Sym.Cmp (Sym.Cgt, x, Sym.Int_const lo);
             Sym.Cmp (Sym.Clt, x, Sym.Int_const lo);
           ]))

(* --- canonicalization: normalize_conjunction and the fingerprint --- *)

(* a fixed pool of three variables so random conjunctions actually
   contain duplicates, complements and contradictions *)
let nvars = [| int_var "n0"; int_var "n1"; int_var "n2" |]

let conjunction_gen =
  QCheck.Gen.(
    let cmp_op =
      oneofl [ Sym.Ceq; Sym.Cne; Sym.Clt; Sym.Cle; Sym.Cgt; Sym.Cge ]
    in
    let atom =
      map3
        (fun op v k -> Sym.Cmp (op, nvars.(v), Sym.Int_const k))
        cmp_op (int_range 0 2) (int_range (-20) 20)
    in
    let conjunct =
      frequency
        [
          (4, atom);
          (2, map (fun c -> Sym.Not c) atom);
          (1, return (Sym.Bool_const true));
        ]
    in
    list_size (int_range 0 8) conjunct)

let arb_conjunction = QCheck.make conjunction_gen

let verdict_class = function
  | Solve.Sat _ -> "sat"
  | Solve.Unsat -> "unsat"
  | Solve.Unknown _ -> "unknown"

let qcheck_normalize_idempotent =
  QCheck.Test.make ~name:"qcheck: normalize_conjunction is idempotent"
    ~count:300 arb_conjunction (fun conds ->
      let once = Solve.normalize_conjunction conds in
      Solve.normalize_conjunction once = once)

let qcheck_normalize_solve_preserving =
  QCheck.Test.make ~name:"qcheck: normalize_conjunction preserves verdicts"
    ~count:300 arb_conjunction (fun conds ->
      let original = Solve.solve_uncached conds in
      let normalized = Solve.solve_uncached (Solve.normalize_conjunction conds) in
      verdict_class original = verdict_class normalized
      &&
      match original with
      | Solve.Sat m -> model_satisfies m conds
      | _ -> true)

let qcheck_permutations_share_fingerprint =
  QCheck.Test.make
    ~name:"qcheck: permuted conjunctions collide in the memo" ~count:300
    arb_conjunction (fun conds ->
      let fp l = Solve.fingerprint (Solve.prepare l) in
      fp conds = fp (List.rev conds))

let test_permuted_conjunction_hits_memo () =
  let x = nvars.(0) and y = nvars.(1) in
  let a = Sym.Cmp (Sym.Cgt, x, Sym.Int_const 3) in
  let b = Sym.Cmp (Sym.Clt, y, Sym.Int_const 9) in
  Solve.reset_cache ();
  let v1 = Solve.solve [ a; b ] in
  let v2 = Solve.solve [ b; a ] in
  check_bool "same verdict" true (verdict_class v1 = verdict_class v2);
  let s = Solve.cache_stats () in
  Alcotest.(check int) "one memo entry" 1 s.Exec.Memo.misses;
  Alcotest.(check int) "permutation was a hit" 1 s.Exec.Memo.hits

let test_normalize_drops_noise () =
  let x = nvars.(0) in
  let c = Sym.Cmp (Sym.Cgt, x, Sym.Int_const 3) in
  (* trivially-true conjuncts vanish; duplicates — including a negation
     that pushes to an existing conjunct — collapse to one *)
  let noisy =
    [ Sym.Bool_const true; c; c; Sym.Not (Sym.Cmp (Sym.Cle, x, Sym.Int_const 3)) ]
  in
  (match Solve.normalize_conjunction noisy with
  | [ kept ] -> check_bool "the one real conjunct survives" true (kept = c)
  | l -> Alcotest.failf "expected one conjunct, got %d" (List.length l));
  (* complements are refuted without any solver work *)
  check_bool "complement pair syntactically unsat" true
    (Solve.prepared_unsat (Solve.prepare [ c; Sym.Not c ]))

(* --- difference-bound refutation (step 3c) --- *)

(* Three bounded atoms: two structure sizes (0..64) and a byte read
   (0..255).  [Is_pointers] keeps the sizes at their base intervals. *)
let dbm_p = oop_var "p" and dbm_q = oop_var "q" and dbm_b = oop_var "b"

let dbm_atoms =
  [| Sym.Num_slots_of dbm_p; Sym.Fixed_size_of dbm_q;
     Sym.Byte_at (dbm_b, Sym.Int_const 0) |]

let dbm_base (t : Sym.t) =
  match t with
  | Byte_at _ -> Some { Interval.lo = 0; hi = 255 }
  | _ -> Some { Interval.lo = 0; hi = 64 }

(* A case: a domain [lo, hi] per atom (at most 21 values, so exhaustive
   enumeration stays cheap) and a few difference comparisons in the
   shapes the explorer emits. *)
let dbm_gen =
  QCheck.Gen.(
    let cmp_op = oneofl [ Sym.Ceq; Sym.Cne; Sym.Clt; Sym.Cle; Sym.Cgt; Sym.Cge ] in
    let domain =
      map2 (fun lo w -> (lo, lo + w)) (int_range 0 20) (int_range 0 20)
    in
    let diff =
      map
        (fun (op, i, j, k, shape) ->
          let x = dbm_atoms.(i) and y = dbm_atoms.(j) in
          match shape with
          | 0 -> Sym.Cmp (op, Sym.Add (x, Sym.Int_const k), y)
          | 1 -> Sym.Cmp (op, x, Sym.Add (y, Sym.Int_const k))
          | 2 -> Sym.Cmp (op, Sym.Sub (x, y), Sym.Int_const k)
          | _ -> Sym.Cmp (op, Sym.Neg x, Sym.Int_const k))
        (tup5 cmp_op (int_bound 2) (int_bound 2) (int_range (-12) 12)
           (int_bound 3))
    in
    pair (list_repeat 3 domain) (list_size (int_range 1 4) diff))

let dbm_conds (domains, diffs) =
  let bounds =
    List.concat
      (List.mapi
         (fun i (lo, hi) ->
           [ Sym.Cmp (Sym.Cge, dbm_atoms.(i), Sym.Int_const lo);
             Sym.Cmp (Sym.Cle, dbm_atoms.(i), Sym.Int_const hi) ])
         domains)
  in
  (Sym.Is_pointers dbm_p :: Sym.Is_pointers dbm_q :: bounds) @ diffs

let dbm_refutes conds =
  Solve.difference_refutes ~bounds:dbm_base
    (List.filter_map
       (function Sym.Cmp (c, a, b) -> Some (c, a, b) | _ -> None)
       conds)

(* Exhaustive enumeration over the domains. *)
let dbm_has_model (domains, diffs) =
  let env = Eval.create_env () in
  let holds () =
    List.for_all
      (function
        | Sym.Cmp (c, a, b) ->
            Eval.cmp_holds c (Eval.eval_int env a) (Eval.eval_int env b)
        | _ -> true)
      diffs
  in
  let rec go i = function
    | [] -> holds ()
    | (lo, hi) :: rest ->
        let rec try_v v =
          v <= hi
          && begin
               Hashtbl.replace env.Eval.ints dbm_atoms.(i) v;
               go (i + 1) rest || try_v (v + 1)
             end
        in
        try_v lo
  in
  go 0 domains

let arb_dbm =
  QCheck.make
    ~print:(fun case ->
      String.concat " & " (List.map Sym.to_string (dbm_conds case)))
    dbm_gen

let qcheck_dbm_sound =
  QCheck.Test.make
    ~name:"qcheck: difference refutation agrees with enumeration" ~count:300
    arb_dbm (fun ((_, diffs) as case) ->
      let refuted = dbm_refutes (dbm_conds case) in
      let model = dbm_has_model case in
      (* sound always; complete when no [Cne] is left out of the graph *)
      let has_ne =
        List.exists (function Sym.Cmp (Sym.Cne, _, _) -> true | _ -> false) diffs
      in
      (not (refuted && model)) && (has_ne || refuted || model))

let qcheck_dbm_search =
  QCheck.Test.make
    ~name:"qcheck: the search never finds a refuted witness" ~count:200
    arb_dbm (fun case ->
      let conds = dbm_conds case in
      match Solve.solve_uncached conds with
      | Solve.Sat m -> (not (dbm_refutes conds)) && model_satisfies m conds
      | _ -> true)

(* The primFFIStoreInt64 bounds check on a negated prefix:
   0 <= x, size <= x, x + 8 <= size.  Step 3c answers it without the
   search, with the verdict and the fuel charge of an exhausted search. *)
let ffi_bounds_conjunction () =
  let rcvr = oop_var "rcvr" and arg = oop_var "arg" in
  let x = Sym.Integer_value_of arg and size = Sym.Indexable_size_of rcvr in
  [
    Sym.Has_class (rcvr, Vm_objects.Class_table.external_address_id);
    Sym.Is_small_int arg;
    Sym.Cmp (Sym.Cge, x, Sym.Int_const 0);
    Sym.Cmp (Sym.Cge, x, size);
    Sym.Cmp (Sym.Cle, Sym.Add (x, Sym.Int_const 8), size);
  ]

let test_ffi_bounds_pinned () =
  let conds = ffi_bounds_conjunction () in
  Solve.reset_cache ();
  (match Solve.solve conds with
  | Solve.Unknown r -> Alcotest.(check string) "verdict" "all branches unknown" r
  | _ -> Alcotest.fail "expected Unknown");
  let s = Solve.search_stats () in
  Alcotest.(check int) "refuted before the search" 1 s.Solve.refuted;
  Alcotest.(check int) "no search run to exhaustion" 0 s.Solve.exhausted;
  (* 16 for the query + 4000 samples x 4: the exhausted search's charge *)
  let returns fuel =
    Solve.reset_cache ();
    match Exec.Budget.with_budget ~fuel (fun () -> Solve.solve conds) with
    | _ -> true
    | exception Exec.Budget.Exhausted _ -> false
  in
  check_bool "returns at fuel 16016" true (returns 16016);
  check_bool "exhausted at fuel 16015" false (returns 16015);
  Solve.reset_cache ();
  let s = Solve.search_stats () in
  Alcotest.(check int) "reset clears refuted" 0 s.Solve.refuted

(* --- small-integer range escapes (step 3d) --- *)

let min_small = Vm_objects.Value.min_small_int
let max_small = Vm_objects.Value.max_small_int

(* The shapes of EXPERIMENTS Figure 6: a division-family result or a
   float exponent leaving small-integer range.  Each expands to two
   branches (above [max_small], below [min_small]); neither can hold,
   and step 3d answers both with the verdict and the fuel charge of an
   exhausted search. *)
let int_escape op =
  let rcvr = oop_var "rcvr" and arg = oop_var "arg" in
  let a = Sym.Integer_value_of rcvr and b = Sym.Integer_value_of arg in
  [
    Sym.Is_small_int rcvr;
    Sym.Is_small_int arg;
    Sym.Cmp (Sym.Cne, b, Sym.Int_const 0);
    Sym.Not (Sym.Is_in_small_int_range (op a b));
  ]

let exponent_escape () =
  let rcvr = oop_var "rcvr" in
  [
    Sym.Is_float_object rcvr;
    Sym.Not
      (Sym.Is_in_small_int_range
         (Sym.Float_exponent (Sym.Float_value_of rcvr)));
  ]

let check_range_escape_pinned conds =
  Solve.reset_cache ();
  (match Solve.solve conds with
  | Solve.Unknown r -> Alcotest.(check string) "verdict" "all branches unknown" r
  | _ -> Alcotest.fail "expected Unknown");
  let s = Solve.search_stats () in
  Alcotest.(check int) "both branches refuted" 2 s.Solve.refuted;
  Alcotest.(check int) "no search run to exhaustion" 0 s.Solve.exhausted;
  (* 16 for the query + 2 branches x 4000 samples x 4, as before step 3d *)
  let returns fuel =
    Solve.reset_cache ();
    match Exec.Budget.with_budget ~fuel (fun () -> Solve.solve conds) with
    | _ -> true
    | exception Exec.Budget.Exhausted _ -> false
  in
  check_bool "returns at fuel 32016" true (returns 32016);
  check_bool "exhausted at fuel 32015" false (returns 32015);
  Solve.reset_cache ()

let test_mod_escape_pinned () =
  check_range_escape_pinned (int_escape (fun a b -> Sym.Mod (a, b)))

let test_rem_escape_pinned () =
  check_range_escape_pinned (int_escape (fun a b -> Sym.Rem (a, b)))

let test_exponent_escape_pinned () =
  check_range_escape_pinned (exponent_escape ())

(* Floor division and the truncated quotient do escape, at
   [min_small // -1]: no refutation, a witness. *)
let test_div_escape_found () =
  List.iter
    (fun op ->
      let conds = int_escape op in
      Solve.reset_cache ();
      (match Solve.solve conds with
      | Solve.Sat m -> check_bool "witness holds" true (model_satisfies m conds)
      | _ -> Alcotest.fail "expected Sat");
      Alcotest.(check int) "not refuted" 0
        (Solve.search_stats ()).Solve.refuted)
    [ (fun a b -> Sym.Div (a, b)); (fun a b -> Sym.Quo (a, b)) ];
  Solve.reset_cache ()

(* Random conjunctions over three small-integer atoms, each confined to
   a domain of at most seven values near [min_small], -1, 0 or
   [max_small]: division-family terms with constant or atom divisors,
   compared against constants. *)
let range_oops = [| oop_var "p"; oop_var "q"; oop_var "r" |]
let range_atoms = Array.map (fun o -> Sym.Integer_value_of o) range_oops

let range_anchors =
  [ min_small; min_small + 3; -6; -3; -1; 0; 2; max_small - 6 ]

let range_domain_gen =
  QCheck.Gen.(
    map2 (fun lo w -> (lo, lo + w)) (oneofl range_anchors) (int_bound 6))

let range_term_gen =
  QCheck.Gen.(
    let atom = map (fun i -> range_atoms.(i)) (int_bound 2) in
    let divisor =
      oneof [ atom; map (fun k -> Sym.Int_const k) (oneofl [ -2; -1; 1; 3 ]) ]
    in
    let op =
      oneofl
        [
          (fun a b -> Sym.Div (a, b));
          (fun a b -> Sym.Mod (a, b));
          (fun a b -> Sym.Quo (a, b));
          (fun a b -> Sym.Rem (a, b));
        ]
    in
    map3 (fun op a b -> op a b) op atom divisor)

let range_cmp_gen =
  QCheck.Gen.(
    map3
      (fun c t k -> Sym.Cmp (c, t, Sym.Int_const k))
      (oneofl [ Sym.Ceq; Sym.Cne; Sym.Clt; Sym.Cle; Sym.Cgt; Sym.Cge ])
      range_term_gen
      (oneofl [ min_small; max_small; -1; 0; 1 ]))

let range_case_gen =
  QCheck.Gen.(
    pair
      (list_repeat 3 range_domain_gen)
      (list_size (int_range 1 3) range_cmp_gen))

let range_conds (domains, cmps) =
  List.concat
    (List.mapi
       (fun i (lo, hi) ->
         [
           Sym.Is_small_int range_oops.(i);
           Sym.Cmp (Sym.Cge, range_atoms.(i), Sym.Int_const lo);
           Sym.Cmp (Sym.Cle, range_atoms.(i), Sym.Int_const hi);
         ])
       domains)
  @ cmps

let range_refutes (domains, cmps) =
  let bounds t =
    let rec find i = function
      | [] -> None
      | (lo, hi) :: rest ->
          if range_atoms.(i) = t then Interval.make lo hi else find (i + 1) rest
    in
    find 0 domains
  in
  Solve.range_refutes ~bounds
    (List.filter_map
       (function Sym.Cmp (c, a, b) -> Some (c, a, b) | _ -> None)
       cmps)

let range_has_model (domains, cmps) =
  let env = Eval.create_env () in
  let holds () =
    List.for_all
      (function
        | Sym.Cmp (c, a, b) -> (
            try Eval.cmp_holds c (Eval.eval_int env a) (Eval.eval_int env b)
            with Eval.Failed -> false)
        | _ -> true)
      cmps
  in
  let rec go i = function
    | [] -> holds ()
    | (lo, hi) :: rest ->
        let rec try_v v =
          v <= hi
          && begin
               Hashtbl.replace env.Eval.ints range_atoms.(i) v;
               go (i + 1) rest || try_v (v + 1)
             end
        in
        try_v lo
  in
  go 0 domains

let arb_range =
  QCheck.make
    ~print:(fun case ->
      String.concat " & " (List.map Sym.to_string (range_conds case)))
    range_case_gen

let qcheck_range_sound =
  QCheck.Test.make
    ~name:"qcheck: range refutation agrees with enumeration" ~count:500
    arb_range (fun case -> not (range_refutes case && range_has_model case))

let qcheck_range_search =
  QCheck.Test.make
    ~name:"qcheck: the search never finds a range-refuted witness" ~count:200
    arb_range (fun case ->
      let conds = range_conds case in
      match Solve.solve_uncached conds with
      | Solve.Sat m -> (not (range_refutes case)) && model_satisfies m conds
      | _ -> true)

(* Each division-family helper contains the evaluator's result for
   every pair of members of its operand intervals. *)
let qcheck_interval_helpers =
  QCheck.Test.make
    ~name:"qcheck: interval helpers contain every concrete result" ~count:500
    (QCheck.make
       ~print:(fun ((a, b), (c, d)) ->
         Printf.sprintf "[%d, %d] op [%d, %d]" a b c d)
       QCheck.Gen.(pair range_domain_gen range_domain_gen))
    (fun ((alo, ahi), (blo, bhi)) ->
      let ia = { Interval.lo = alo; hi = ahi }
      and ib = { Interval.lo = blo; hi = bhi } in
      let members lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
      List.for_all
        (fun (helper, f) ->
          match helper ia ib with
          | None -> blo = 0 && bhi = 0
          | Some iv ->
              List.for_all
                (fun a ->
                  List.for_all
                    (fun b -> b = 0 || Interval.contains iv (f a b))
                    (members blo bhi))
                (members alo ahi))
        [
          (Interval.floor_div, Eval.floor_div);
          (Interval.floor_mod, Eval.floor_mod);
          (Interval.quo, ( / ));
          (Interval.rem, ( mod ));
        ])

let qcheck_float_exponent =
  let exponent f =
    Eval.eval_int (Eval.create_env ()) (Sym.Float_exponent (Sym.Float_const f))
  in
  QCheck.Test.make
    ~name:"qcheck: the float exponent range contains every exponent"
    ~count:500
    (QCheck.make
       ~print:string_of_float
       QCheck.Gen.(
         oneof
           [
             float;
             oneofl
               [ nan; infinity; neg_infinity; 0.0; -0.0; max_float;
                 -.max_float; min_float; Float.succ 0.0; Float.pred 0.0 ];
           ]))
    (fun f -> Interval.contains Interval.float_exponent (exponent f))

let suite =
  [
    Alcotest.test_case "empty conjunction sat" `Quick test_empty_is_sat;
    Alcotest.test_case "type assignment" `Quick test_type_assignment;
    Alcotest.test_case "type conflicts unsat" `Quick test_type_conflicts_unsat;
    Alcotest.test_case "class constraints" `Quick test_class_constraints;
    Alcotest.test_case "integer bounds" `Quick test_int_bounds;
    Alcotest.test_case "equality repair" `Quick test_equality_repair;
    Alcotest.test_case "overflow witness (Table 1)" `Quick test_overflow_witness;
    Alcotest.test_case "in-range positive" `Quick test_in_range_positive;
    Alcotest.test_case "contradictory bounds unsat" `Quick
      test_contradictory_bounds_unsat;
    Alcotest.test_case "bitwise rejected (§4.3)" `Quick test_bitwise_rejected;
    Alcotest.test_case "56-bit precision limit (§4.3)" `Quick test_precision_limit;
    Alcotest.test_case "structure sizes" `Quick test_structure_sizes;
    Alcotest.test_case "indexable resolution" `Quick test_indexable_resolution;
    Alcotest.test_case "bytes resolution" `Quick test_bytes_resolution;
    Alcotest.test_case "byte-at range" `Quick test_byte_at_range;
    Alcotest.test_case "class object constraints" `Quick test_class_object_constraints;
    Alcotest.test_case "boolean singletons" `Quick test_boolean_singletons;
    Alcotest.test_case "float constraints" `Quick test_float_constraints;
    Alcotest.test_case "float equality repair" `Quick test_float_equality_repair;
    Alcotest.test_case "interval operations" `Quick test_interval_ops;
    QCheck_alcotest.to_alcotest qcheck_bound_witnesses;
    QCheck_alcotest.to_alcotest qcheck_unsat_detected;
    QCheck_alcotest.to_alcotest qcheck_normalize_idempotent;
    QCheck_alcotest.to_alcotest qcheck_normalize_solve_preserving;
    QCheck_alcotest.to_alcotest qcheck_permutations_share_fingerprint;
    Alcotest.test_case "permuted conjunction hits the memo" `Quick
      test_permuted_conjunction_hits_memo;
    Alcotest.test_case "normalize drops noise" `Quick
      test_normalize_drops_noise;
    QCheck_alcotest.to_alcotest qcheck_dbm_sound;
    QCheck_alcotest.to_alcotest qcheck_dbm_search;
    Alcotest.test_case "FFI bounds conjunction: verdict and fuel pinned"
      `Quick test_ffi_bounds_pinned;
    Alcotest.test_case "floor-mod range escape: verdict and fuel pinned" `Quick
      test_mod_escape_pinned;
    Alcotest.test_case "rem range escape: verdict and fuel pinned" `Quick
      test_rem_escape_pinned;
    Alcotest.test_case "exponent range escape: verdict and fuel pinned" `Quick
      test_exponent_escape_pinned;
    Alcotest.test_case "// and quo escape at min_small // -1" `Quick
      test_div_escape_found;
    QCheck_alcotest.to_alcotest qcheck_range_sound;
    QCheck_alcotest.to_alcotest qcheck_range_search;
    QCheck_alcotest.to_alcotest qcheck_interval_helpers;
    QCheck_alcotest.to_alcotest qcheck_float_exponent;
  ]
