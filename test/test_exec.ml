(* The execution engine (lib/exec) and everything that rides on it:

   - Pool: deterministic order, exception propagation, worker counts;
   - Memo: compute-once, hit/miss accounting, concurrent hammering;
   - the solver memo: memoized and unmemoized verdicts agree (qcheck);
   - the path-summary cache: cached and uncached explorations agree;
   - the campaign determinism suite: -j 1 and -j 8 produce byte-identical
     count-based tables, validation counts and deduped witnesses. *)

module Sym = Symbolic.Sym_expr
module Solve = Solver.Solve
module Campaign = Ijdt_core.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Pool --- *)

let test_pool_matches_list_map () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Exec.Pool.map ~jobs f xs))
    [ 1; 2; 4; 8 ]

let test_pool_mapi_indices () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string))
    "index-tagged" [ "0a"; "1b"; "2c"; "3d"; "4e" ]
    (Exec.Pool.mapi ~jobs:3 (fun i s -> string_of_int i ^ s) xs)

let test_pool_edge_sizes () =
  Alcotest.(check (list int)) "empty" [] (Exec.Pool.map ~jobs:8 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Exec.Pool.map ~jobs:8 succ [ 1 ]);
  check_int "more jobs than items" 6
    (List.fold_left ( + ) 0 (Exec.Pool.map ~jobs:64 succ [ 0; 1; 2 ]))

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Exec.Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x)
          (List.init 40 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 13 -> ())
    [ 1; 4 ]

let test_pool_default_jobs () =
  check_bool "at least one domain" true (Exec.Pool.default_jobs () >= 1)

(* --- Memo --- *)

let test_memo_computes_once () =
  let m : (int, int) Exec.Memo.t = Exec.Memo.create () in
  let computed = ref 0 in
  let f k =
    incr computed;
    k * 2
  in
  check_int "first" 10 (Exec.Memo.find_or_add m 5 f);
  check_int "second" 10 (Exec.Memo.find_or_add m 5 f);
  check_int "computed once" 1 !computed;
  check_int "length" 1 (Exec.Memo.length m);
  let s = Exec.Memo.stats m in
  check_int "hits" 1 s.Exec.Memo.hits;
  check_int "misses" 1 s.Exec.Memo.misses;
  check_bool "find_opt sees it" true (Exec.Memo.find_opt m 5 = Some 10);
  Exec.Memo.clear m;
  check_int "cleared" 0 (Exec.Memo.length m);
  let s = Exec.Memo.stats m in
  check_int "counters zeroed" 0 (s.Exec.Memo.hits + s.Exec.Memo.misses)

let test_memo_accounting_under_contention () =
  let m : (int, int) Exec.Memo.t = Exec.Memo.create ~shards:4 () in
  let calls = 400 in
  let distinct = 25 in
  let results =
    Exec.Pool.map ~jobs:8
      (fun i -> Exec.Memo.find_or_add m (i mod distinct) (fun k -> k * 3))
      (List.init calls (fun i -> i))
  in
  List.iteri
    (fun i v -> check_int "correct value" (i mod distinct * 3) v)
    results;
  let s = Exec.Memo.stats m in
  check_int "hits + misses = lookups" calls
    (s.Exec.Memo.hits + s.Exec.Memo.misses);
  check_int "one computation per key" distinct s.Exec.Memo.misses;
  check_int "table holds every key" distinct (Exec.Memo.length m)

let test_memo_exception_releases_key () =
  let m : (int, int) Exec.Memo.t = Exec.Memo.create () in
  (match Exec.Memo.find_or_add m 1 (fun _ -> failwith "first try") with
  | _ -> Alcotest.fail "expected the compute exception"
  | exception Failure _ -> ());
  (* the failed computation must not wedge the key *)
  check_int "retry succeeds" 99 (Exec.Memo.find_or_add m 1 (fun _ -> 99))

(* --- solver memo: memoized == unmemoized (qcheck) --- *)

let verdict_eq a b =
  match (a, b) with
  | Solve.Unsat, Solve.Unsat -> true
  | Solve.Unknown r1, Solve.Unknown r2 -> r1 = r2
  | Solve.Sat m1, Solve.Sat m2 ->
      let sorted f m = List.sort compare (f m) in
      sorted Solver.Model.oop_bindings m1 = sorted Solver.Model.oop_bindings m2
      && sorted Solver.Model.int_bindings m1
         = sorted Solver.Model.int_bindings m2
      && sorted Solver.Model.float_bindings m1
         = sorted Solver.Model.float_bindings m2
  | _ -> false

let gen = Sym.Gen.create ()
let oop_a = Sym.Var (Sym.Gen.fresh gen ~name:"ma" ~sort:Sym.Oop)
let oop_b = Sym.Var (Sym.Gen.fresh gen ~name:"mb" ~sort:Sym.Oop)
let int_x = Sym.Var (Sym.Gen.fresh gen ~name:"mx" ~sort:Sym.Int)

let qcheck_memo_verdicts_agree =
  (* a small family of path-condition shapes the explorer actually
     emits, with random constants so the memo sees both fresh keys and
     repeats; the memoized verdict must match the uncached oracle *)
  QCheck.Test.make ~name:"qcheck: solve == solve_uncached" ~count:200
    QCheck.(triple (int_range 0 5) (int_range (-300) 300) (int_range 0 50))
    (fun (shape, lo, width) ->
      let conds =
        match shape with
        | 0 ->
            [
              Sym.Cmp (Sym.Cge, int_x, Sym.Int_const lo);
              Sym.Cmp (Sym.Cle, int_x, Sym.Int_const (lo + width));
            ]
        | 1 ->
            (* contradictory bounds: unsat *)
            [
              Sym.Cmp (Sym.Cgt, int_x, Sym.Int_const lo);
              Sym.Cmp (Sym.Clt, int_x, Sym.Int_const lo);
            ]
        | 2 ->
            [
              Sym.Is_small_int oop_a;
              Sym.Is_small_int oop_b;
              Sym.Cmp
                ( Sym.Cgt,
                  Sym.Add
                    (Sym.Integer_value_of oop_a, Sym.Integer_value_of oop_b),
                  Sym.Int_const lo );
            ]
        | 3 ->
            [
              Sym.Is_small_int oop_a;
              Sym.Not
                (Sym.Is_in_small_int_range
                   (Sym.Add
                      (Sym.Integer_value_of oop_a, Sym.Int_const (lo + width))));
            ]
        | 4 -> [ Sym.Not (Sym.Is_small_int oop_a) ]
        | _ ->
            (* outside the fragment: Unknown either way *)
            [
              Sym.Cmp
                ( Sym.Ceq,
                  Sym.Bit_and (oop_a, Sym.Int_const lo),
                  Sym.Int_const 1 );
            ]
      in
      verdict_eq (Solve.solve conds) (Solve.solve_uncached conds))

(* --- path-summary cache: cached == uncached --- *)

let test_explorer_cache_transparent () =
  let defects = Interpreter.Defects.paper in
  let subject =
    Concolic.Path.Bytecode
      (Bytecodes.Opcode.Arith_special Bytecodes.Opcode.Sel_add)
  in
  let cached = Concolic.Explorer.explore ~defects subject in
  let again = Concolic.Explorer.explore ~defects subject in
  let fresh = Concolic.Explorer.explore_uncached ~defects subject in
  check_bool "second lookup is the shared summary" true (cached == again);
  check_int "same path count" (List.length fresh.paths)
    (List.length cached.paths);
  check_int "same iterations" fresh.iterations cached.iterations;
  Alcotest.(check (list string))
    "same path keys"
    (List.map Concolic.Path.key fresh.paths)
    (List.map Concolic.Path.key cached.paths)

(* --- campaign determinism: -j 1 == -j 8 --- *)

let take k xs = List.filteri (fun i _ -> i < k) xs

let subset_units ?(per_compiler = 8) () =
  List.concat_map
    (fun c ->
      List.map (fun s -> (c, s)) (take per_compiler (Campaign.subjects_for c)))
    Jit.Cogits.all

let run_subset ?per_compiler jobs =
  (* reset the shared caches so both runs start cold; determinism must
     not depend on what an earlier test happened to warm up *)
  Solver.Solve.reset_cache ();
  Concolic.Explorer.reset_cache ();
  let s =
    Campaign.run_supervised ~jobs ~validate:true
      ~units:(subset_units ?per_compiler ()) ()
  in
  check_int "no unit lost" 0 (List.length (Campaign.sup_incidents s));
  s.Campaign.sup_campaign

(* count-based renderings only: figures 6-7 print wall-clock times,
   which no scheduler can make reproducible *)
let render_counts (c : Campaign.t) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Ijdt_core.Tables.table2 ppf c;
  Ijdt_core.Tables.table3 ppf c;
  Ijdt_core.Tables.causes ppf c;
  Ijdt_core.Tables.validation_table ppf c;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let witnesses (c : Campaign.t) =
  List.concat_map
    (fun (cr : Campaign.compiler_result) ->
      List.concat_map
        (fun (r : Campaign.instruction_result) ->
          List.map Difftest.Difference.to_string r.diffs)
        cr.instructions)
    c.results

let test_campaign_determinism () =
  let c1 = run_subset 1 in
  let c8 = run_subset 8 in
  check_int "tripled ISA matrix covered" 3 (List.length c1.Campaign.arches);
  check_string "count-based tables byte-identical" (render_counts c1)
    (render_counts c8);
  check_bool "validation totals identical" true
    (Campaign.validation_totals c1 = Campaign.validation_totals c8);
  Alcotest.(check (list string))
    "deduped witnesses identical" (witnesses c1) (witnesses c8)

(* --- kill-matrix determinism: -j 1 == -j 8, mutation enabled ---

   Mutants share domains under [-j 8] (different faults active on
   different domains at once), so this exercises the domain-local fault
   slot and the fault-tagged caches; outcomes must not depend on which
   domain ran which mutant. *)

let run_kill_matrix ?workers ?journal ?resume jobs =
  Solver.Solve.reset_cache ();
  Concolic.Explorer.reset_cache ();
  Campaign.reset_kill_cache ();
  Campaign.kill_matrix ~jobs ?workers ?journal ?resume ~per_operator:1 ~gen:4
    ~seed:42 ()

let render_kill_table (m : Campaign.kill_matrix) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Ijdt_core.Tables.kill_table ppf m;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* operators hold closures, so outcomes are compared rendered *)
let outcome_strings (m : Campaign.kill_matrix) =
  List.map
    (fun (o : Campaign.mutant_outcome) ->
      Printf.sprintf "%s|%s|%s|%s|%b|%s" o.mo_op.Jit.Fault.id
        (Jit.Cogits.short_name o.mo_compiler)
        (Concolic.Path.subject_name o.mo_subject)
        (Jit.Codegen.arch_name o.mo_arch)
        o.mo_fired
        (Campaign.kill_name o.mo_kill))
    m.km_outcomes

let test_kill_matrix_determinism () =
  let m1 = run_kill_matrix 1 in
  let m8 = run_kill_matrix 8 in
  check_string "kill table byte-identical" (render_kill_table m1)
    (render_kill_table m8);
  Alcotest.(check (list string))
    "mutant outcomes identical" (outcome_strings m1) (outcome_strings m8)

(* --- supervised chaos determinism: -j 1 == -j 8, faults injected ---

   The real campaign path under the supervisor with a seeded chaos
   plan: the injected crashes, hangs and allocation bombs must be
   contained as the same per-unit verdicts whatever the worker count,
   and the supervision table must render byte-identically. *)

(* the subset at a small budget, from cold caches *)
let run_small ?jobs ?workers ?chaos ?journal ?resume () =
  Solver.Solve.reset_cache ();
  Concolic.Explorer.reset_cache ();
  Campaign.run_supervised ?jobs ?workers ?chaos ?journal ?resume
    ~max_iterations:8 ~units:(subset_units ()) ()

let run_chaos_subset jobs = run_small ~jobs ~chaos:(3, 4) ()

let render_supervision (s : Campaign.supervised) =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Ijdt_core.Tables.supervision_table ppf s;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let unit_report_strings (s : Campaign.supervised) =
  List.map
    (fun (u : Campaign.unit_report) ->
      Printf.sprintf "%s|%s|%s|%d" u.ur_key u.ur_verdict u.ur_detail
        u.ur_attempts)
    s.sup_units

let test_supervised_chaos_determinism () =
  let s1 = run_chaos_subset 1 in
  let s8 = run_chaos_subset 8 in
  Alcotest.(check (list string))
    "per-unit verdicts identical"
    (unit_report_strings s1) (unit_report_strings s8);
  check_string "supervision table byte-identical" (render_supervision s1)
    (render_supervision s8);
  let t = s1.sup_totals in
  check_int "every fault contained, nothing else lost"
    (List.length s1.sup_chaos)
    (t.Exec.Supervise.c_timed_out + t.Exec.Supervise.c_crashed);
  check_int "no quarantine collateral" 0 t.Exec.Supervise.c_quarantined

(* --- unit wire protocol: round-trips and torn-frame recovery --- *)

module Wire = Exec.Unit_wire

let wire_string_gen =
  (* adversarial payload bytes: newlines, pipes, NULs, even the frame
     magic itself — hex armouring must make all of them inert *)
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 6)
         (oneofl [ "a"; "\n"; "|"; "\x00"; "vmw1"; "\xff"; "payload" ])))

let wire_msg_gen =
  QCheck.Gen.(
    let str = wire_string_gen in
    let idx = int_bound 100_000 in
    let verdict =
      oneof
        [
          map (fun s -> Wire.W_ok s) str;
          map (fun s -> Wire.W_timed_out s) str;
          map2 (fun e b -> Wire.W_crashed { exn = e; backtrace = b }) str str;
        ]
    in
    oneof
      [
        map (fun s -> Wire.Hello s) str;
        map
          (fun ((i, a), (k, p)) ->
            Wire.Unit { Wire.w_index = i; w_attempt = a; w_key = k; w_payload = p })
          (pair (pair idx (int_bound 9)) (pair str str));
        map2 (fun i a -> Wire.Ack { index = i; attempt = a }) idx (int_bound 9);
        map
          (fun ((i, a), v) ->
            Wire.Result { index = i; attempt = a; attempts = a; verdict = v })
          (pair (pair idx (int_bound 9)) verdict);
        return Wire.Bye;
      ])

let wire_msg_arb =
  QCheck.make ~print:(fun m -> String.escaped (Wire.encode m)) wire_msg_gen

let qcheck_wire_round_trip =
  QCheck.Test.make ~name:"qcheck: wire frames round-trip" ~count:500 wire_msg_arb
    (fun m ->
      let f = Wire.encode m in
      String.length f > 0
      && f.[String.length f - 1] = '\n'
      && Wire.decode_line (String.sub f 0 (String.length f - 1)) = Some m)

let qcheck_wire_chunked_stream =
  (* the decoder must reassemble a frame stream fed at any chunk
     granularity, with zero garbage *)
  QCheck.Test.make ~name:"qcheck: decoder reassembles arbitrary chunking"
    ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 8) wire_msg_arb) (int_range 1 13))
    (fun (msgs, chunk) ->
      let dec = Wire.decoder () in
      let stream = String.concat "" (List.map Wire.encode msgs) in
      let n = String.length stream in
      let rec feed off =
        if off < n then begin
          let k = min chunk (n - off) in
          Wire.feed dec (String.sub stream off k);
          feed (off + k)
        end
      in
      feed 0;
      Wire.eof dec;
      let rec drain acc =
        match Wire.next dec with Some m -> drain (m :: acc) | None -> List.rev acc
      in
      drain [] = msgs && Wire.garbage dec = 0)

(* --- hex armour: round-trip, either case, and the two rejections --- *)

let qcheck_hex_round_trip =
  QCheck.Test.make ~name:"qcheck: hex decode (encode s) = s" ~count:500
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      let h = Exec.Hex.encode s in
      Exec.Hex.decode h = s
      && Exec.Hex.decode (String.uppercase_ascii h) = s)

let test_hex_rejects () =
  check_string "upper case accepted" "\xab\x01" (Exec.Hex.decode "AB01");
  check_string "empty" "" (Exec.Hex.decode "");
  let fails what s =
    match Exec.Hex.decode s with
    | _ -> Alcotest.failf "%s: %S decoded" what s
    | exception Failure _ -> ()
  in
  fails "odd length" "abc";
  fails "odd length" "a";
  fails "bad digit" "0g";
  fails "bad digit" "g0";
  fails "bad digit" "0x12";
  fails "bad digit" "\xff\xff";
  fails "bad digit" " 1"

let ack1 = Wire.Ack { index = 1; attempt = 1 }

let test_wire_decoder_recovery () =
  let f1 = Wire.encode ack1 in
  let f2 = Wire.encode Wire.Bye in
  (* a whole garbage line between two frames is counted and skipped *)
  let dec = Wire.decoder () in
  Wire.feed dec f1;
  Wire.feed dec "complete garbage line\n";
  Wire.feed dec f2;
  check_bool "first frame survives" true (Wire.next dec = Some ack1);
  check_bool "second frame survives" true (Wire.next dec = Some Wire.Bye);
  check_bool "stream drained" true (Wire.next dec = None);
  check_int "garbage line counted" 1 (Wire.garbage dec);
  (* newline-less garbage glued in front of a frame: resync scans for
     the embedded magic and recovers the frame *)
  let dec = Wire.decoder () in
  Wire.feed dec ("\x00\xff torn noise " ^ f1);
  check_bool "frame behind garbage recovered" true (Wire.next dec = Some ack1);
  check_int "glued garbage counted" 1 (Wire.garbage dec);
  (* a frame torn mid-payload is one incident, and the retransmission
     behind it still decodes *)
  let dec = Wire.decoder () in
  Wire.feed dec (String.sub f2 0 (String.length f2 / 2));
  Wire.feed dec "\n";
  Wire.feed dec f2;
  check_bool "frame after torn one survives" true (Wire.next dec = Some Wire.Bye);
  check_int "torn frame counted" 1 (Wire.garbage dec);
  (* a single corrupted payload character fails the checksum *)
  let corrupt = Bytes.of_string f1 in
  let pos = String.length f1 - 2 in
  Bytes.set corrupt pos (if Bytes.get corrupt pos = '0' then '1' else '0');
  let dec = Wire.decoder () in
  Wire.feed dec (Bytes.to_string corrupt);
  check_bool "checksum mismatch rejected" true (Wire.next dec = None);
  check_int "corruption counted" 1 (Wire.garbage dec);
  (* eof flushes a final frame missing only its newline *)
  let dec = Wire.decoder () in
  Wire.feed dec (String.sub f1 0 (String.length f1 - 1));
  check_bool "incomplete line buffered" true (Wire.next dec = None);
  Wire.eof dec;
  check_bool "flushed at eof" true (Wire.next dec = Some ack1);
  check_int "clean tail is not garbage" 0 (Wire.garbage dec)

(* --- process-pool determinism: --workers 1 == --workers 4 == in-process ---

   The pool deals units to disposable worker processes (re-exec'ing
   this test binary through the hidden worker mode intercepted in
   {!Test_main}) and merges results by stable unit index; the
   supervised result must be indistinguishable from the in-process
   engine at any worker count. *)

let test_procpool_determinism () =
  let inproc = run_small () in
  let w1 = run_small ~workers:1 () in
  let w4 = run_small ~workers:4 () in
  Alcotest.(check (list string))
    "workers=1 == in-process"
    (unit_report_strings inproc)
    (unit_report_strings w1);
  Alcotest.(check (list string))
    "workers=4 == workers=1" (unit_report_strings w1) (unit_report_strings w4);
  check_bool "totals: workers=1 == in-process" true
    (w1.Campaign.sup_totals = inproc.Campaign.sup_totals);
  check_bool "totals: workers=4 == in-process" true
    (w4.Campaign.sup_totals = inproc.Campaign.sup_totals);
  (match w4.Campaign.sup_process with
  | Some p ->
      check_int "pristine run: no deaths" 0 p.Exec.Procpool.p_deaths;
      check_int "pristine run: no redeals" 0 p.Exec.Procpool.p_redeals;
      (* this binary prints the qcheck seed banner at startup, before
         the worker mode re-points fd 1 — so every worker sheds exactly
         one stray line onto its protocol pipe.  The decoder must count
         one incident per worker and lose nothing (the verdict checks
         above already proved nothing was lost). *)
      check_int "stray startup prints counted, never fatal"
        p.Exec.Procpool.p_workers p.Exec.Procpool.p_garbage
  | None -> Alcotest.fail "workers run must report pool stats");
  check_bool "in-process run has no pool stats" true
    (inproc.Campaign.sup_process = None)

(* --- the pool's death accounting under process chaos ---

   The campaign that bin/ci.sh's process-chaos gate runs
   ([--workers 2 --worker-deadline 2 --chaos --chaos-faults 4 --seed 7
   --max-iterations 24]): a worker-kill, a worker-stop, a worker-exit
   and a pipe-garbage fault.  Each lethal fault kills its worker on
   both attempts the unit gets (2 deaths and 1 redeal per fault; the
   stop is preempted by the deadline), and the unit a dying worker had
   queued goes back uncharged.  The counts are functions of the unit
   list and the fault plan, whichever worker ran what. *)

let test_procpool_death_accounting () =
  Solver.Solve.reset_cache ();
  Concolic.Explorer.reset_cache ();
  let s =
    Campaign.run_supervised ~workers:2 ~worker_deadline_s:2.0
      ~max_iterations:24
      ~policy:{ Exec.Supervise.default_policy with seed = 7 }
      ~chaos:(7, 4) ()
  in
  let t = s.Campaign.sup_totals in
  check_int "units ok" 682 t.Exec.Supervise.c_ok;
  check_int "units worker_died" 3 t.Exec.Supervise.c_worker_died;
  check_int "retries" 3 t.Exec.Supervise.c_retries;
  Alcotest.(check (list string))
    "incidents: the three lethal targets, each on its 2nd attempt"
    [
      "native|primFloatEqual|worker_died|signal sigkill|2";
      "simple|special[bitOr:]|worker_died|deadline signal sigkill|2";
      "s2r|jump5|worker_died|exit 2|2";
    ]
    (List.filter_map
       (fun (u : Campaign.unit_report) ->
         if u.ur_verdict = "ok" then None
         else
           Some
             (Printf.sprintf "%s|%s|%s|%d" u.ur_key u.ur_verdict u.ur_detail
                u.ur_attempts))
       s.sup_units);
  match s.Campaign.sup_process with
  | None -> Alcotest.fail "workers run must report pool stats"
  | Some p ->
      check_int "deaths" 6 p.Exec.Procpool.p_deaths;
      check_int "preempted" 2 p.Exec.Procpool.p_preempted;
      check_int "redeals" 3 p.Exec.Procpool.p_redeals;
      (* one garbage frame from the fault, plus the stray startup line
         every worker of this binary sheds (see the determinism test
         above) *)
      check_int "garbage" 1
        (p.Exec.Procpool.p_garbage - p.Exec.Procpool.p_spawned)

(* --- mutants through the worker pool: --workers 2 == in-process --- *)

let test_kill_matrix_workers () =
  let inproc = run_kill_matrix 1 in
  let pool = run_kill_matrix ~workers:2 1 in
  Alcotest.(check (list string))
    "mutant outcomes: workers=2 == in-process" (outcome_strings inproc)
    (outcome_strings pool);
  check_bool "robustness counts: workers=2 == in-process" true
    (pool.Campaign.km_robustness = inproc.Campaign.km_robustness);
  match pool.Campaign.km_process with
  | Some p -> check_int "pristine run: no deaths" 0 p.Exec.Procpool.p_deaths
  | None -> Alcotest.fail "workers run must report pool stats"

(* --- damaged journals: a flipped payload digit costs a recompute ---

   The entry's checksum no longer matches, so resume must drop it and
   recompute the unit — never hand the bytes to a decoder (a flipped
   digit in a mutate payload used to abort the whole kill matrix).  The
   first digit is flipped: it breaks the Marshal header and the
   (fired, kill) pair alike. *)

let test_campaign_journal_corruption () =
  let file = Filename.temp_file "ijdt-campaign" ".jsonl" in
  let single = run_small ~journal:file () in
  Test_supervise.flip_first_ok_payload file;
  let resumed = run_small ~resume:file () in
  Alcotest.(check (list string))
    "per-unit verdicts == single-shot" (unit_report_strings single)
    (unit_report_strings resumed);
  check_string "count-based tables == single-shot"
    (render_counts single.Campaign.sup_campaign)
    (render_counts resumed.Campaign.sup_campaign);
  Sys.remove file

let test_mutate_journal_corruption () =
  let file = Filename.temp_file "ijdt-mutate" ".jsonl" in
  let single = run_kill_matrix ~journal:file 1 in
  Test_supervise.flip_first_ok_payload file;
  let resumed = run_kill_matrix ~resume:file 1 in
  Alcotest.(check (list string))
    "mutant outcomes == single-shot" (outcome_strings single)
    (outcome_strings resumed);
  check_bool "robustness counts == single-shot" true
    (resumed.Campaign.km_robustness = single.Campaign.km_robustness);
  Sys.remove file

let suite =
  [
    Alcotest.test_case "pool matches List.map" `Quick test_pool_matches_list_map;
    Alcotest.test_case "pool mapi indices" `Quick test_pool_mapi_indices;
    Alcotest.test_case "pool edge sizes" `Quick test_pool_edge_sizes;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool default jobs" `Quick test_pool_default_jobs;
    Alcotest.test_case "memo computes once" `Quick test_memo_computes_once;
    Alcotest.test_case "memo accounting under contention" `Quick
      test_memo_accounting_under_contention;
    Alcotest.test_case "memo releases key on exception" `Quick
      test_memo_exception_releases_key;
    QCheck_alcotest.to_alcotest qcheck_memo_verdicts_agree;
    Alcotest.test_case "explorer cache is transparent" `Quick
      test_explorer_cache_transparent;
    Alcotest.test_case "campaign determinism -j1 == -j8" `Slow
      test_campaign_determinism;
    Alcotest.test_case "kill-matrix determinism -j1 == -j8" `Slow
      test_kill_matrix_determinism;
    Alcotest.test_case "supervised chaos determinism -j1 == -j8" `Slow
      test_supervised_chaos_determinism;
    QCheck_alcotest.to_alcotest qcheck_wire_round_trip;
    QCheck_alcotest.to_alcotest qcheck_wire_chunked_stream;
    Alcotest.test_case "wire decoder recovers torn frames" `Quick
      test_wire_decoder_recovery;
    Alcotest.test_case "procpool determinism --workers 1 == 4 == in-process"
      `Slow test_procpool_determinism;
    Alcotest.test_case "kill-matrix determinism --workers 2 == in-process"
      `Slow test_kill_matrix_workers;
    Alcotest.test_case "campaign resume recomputes a corrupt journal entry"
      `Slow test_campaign_journal_corruption;
    Alcotest.test_case "mutate resume recomputes a corrupt journal entry"
      `Slow test_mutate_journal_corruption;
    QCheck_alcotest.to_alcotest qcheck_hex_round_trip;
    Alcotest.test_case "hex rejects odd length and bad digits" `Quick
      test_hex_rejects;
    Alcotest.test_case "procpool death accounting under process chaos" `Slow
      test_procpool_death_accounting;
  ]
