(* The on-disk content-addressed store (lib/exec/store):

   - raw round-trips and reuse through a fresh handle (the on-disk
     format, not in-memory state, carries the entry);
   - corruption tolerance: truncated, bit-flipped and foreign files are
     misses, never crashes;
   - key discipline: an entry recorded for one (namespace, key) is
     rejected when a hash collision (here: a copied file) lands it under
     another;
   - fault-tag isolation: {!Jit.Fault.cache_tag} separates mutant
     entries from pristine ones;
   - campaign determinism with persistence on: -j 1 cold, -j 8 warm and
     -j 8 cold all render byte-identically;
   - the unit-verdict tier: a warm unit's static findings and per-path
     validations equal the cold computation, and a path-count mismatch,
     a mutant or a budget keeps a unit away from an entry. *)

module Store = Exec.Store
module Campaign = Ijdt_core.Campaign
module Runner = Difftest.Runner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ijdt-store-test-%d" !n)
    in
    rm_rf d;
    d

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = really_input_string ic len in
  close_in ic;
  b

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

(* --- raw layer --- *)

let test_round_trip () =
  let t = Store.open_store ~dir:(fresh_dir ()) in
  let payload = "some bytes \x00\xff with every flavour" in
  Store.add t ~ns:"t:1" ~key:"k" payload;
  (match Store.find t ~ns:"t:1" ~key:"k" with
  | Some got -> check_string "payload round-trips" payload got
  | None -> Alcotest.fail "entry not found after add");
  check_bool "absent key misses" true
    (Store.find t ~ns:"t:1" ~key:"other" = None);
  let s = Store.stats t in
  check_int "one hit" 1 s.Store.hits;
  check_int "one miss" 1 s.Store.misses;
  check_int "one load" 1 s.Store.loads;
  check_int "one write" 1 s.Store.writes

let test_fresh_handle_reuse () =
  (* same shape as cross-process reuse: the second handle shares no
     state with the first beyond the directory *)
  let dir = fresh_dir () in
  let t1 = Store.open_store ~dir in
  Store.add t1 ~ns:"t:1" ~key:"k" "persisted";
  let t2 = Store.open_store ~dir in
  check_bool "fresh handle reads the entry" true
    (Store.find t2 ~ns:"t:1" ~key:"k" = Some "persisted")

let test_truncated_entry_is_miss () =
  let t = Store.open_store ~dir:(fresh_dir ()) in
  Store.add t ~ns:"t:1" ~key:"k" "a payload long enough to truncate";
  let path = Store.entry_path t ~ns:"t:1" ~key:"k" in
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole / 2));
  check_bool "torn write is a miss" true (Store.find t ~ns:"t:1" ~key:"k" = None)

let test_corrupted_entry_is_miss () =
  let t = Store.open_store ~dir:(fresh_dir ()) in
  Store.add t ~ns:"t:1" ~key:"k" "checksummed payload";
  let path = Store.entry_path t ~ns:"t:1" ~key:"k" in
  let whole = Bytes.of_string (read_file path) in
  let last = Bytes.length whole - 1 in
  Bytes.set whole last (Char.chr (Char.code (Bytes.get whole last) lxor 1));
  write_file path (Bytes.to_string whole);
  check_bool "bit flip is a miss" true (Store.find t ~ns:"t:1" ~key:"k" = None)

let test_foreign_file_is_miss () =
  let t = Store.open_store ~dir:(fresh_dir ()) in
  Store.add t ~ns:"t:1" ~key:"k" "legitimate";
  write_file (Store.entry_path t ~ns:"t:1" ~key:"k") "not a store entry at all";
  check_bool "foreign file is a miss" true
    (Store.find t ~ns:"t:1" ~key:"k" = None)

let test_wrong_key_rejected () =
  (* simulate a hash collision: the bytes of k1's entry placed where k2
     is addressed.  The header records the true (ns, key), so the read
     must reject it. *)
  let t = Store.open_store ~dir:(fresh_dir ()) in
  Store.add t ~ns:"t:1" ~key:"k1" "k1's payload";
  Store.add t ~ns:"t:1" ~key:"k2" "k2's payload";
  write_file
    (Store.entry_path t ~ns:"t:1" ~key:"k2")
    (read_file (Store.entry_path t ~ns:"t:1" ~key:"k1"));
  check_bool "cross-wired key is a miss" true
    (Store.find t ~ns:"t:1" ~key:"k2" = None);
  (* same story across namespaces sharing a key *)
  Store.add t ~ns:"u:1" ~key:"k1" "other layer";
  write_file
    (Store.entry_path t ~ns:"u:1" ~key:"k1")
    (read_file (Store.entry_path t ~ns:"t:1" ~key:"k1"));
  check_bool "cross-wired namespace is a miss" true
    (Store.find t ~ns:"u:1" ~key:"k1" = None)

(* --- process-global activation and the marshal layer --- *)

let with_active_store f =
  Store.activate (fresh_dir ());
  Store.reset_counters ();
  Fun.protect ~finally:Store.deactivate f

let test_marshal_layer () =
  with_active_store (fun () ->
      let v = (42, "forty-two", [ 1; 2; 3 ]) in
      Store.record ~ns:"m:1" ~key:"k" v;
      (match (Store.lookup ~ns:"m:1" ~key:"k" : (int * string * int list) option) with
      | Some got -> check_bool "value round-trips" true (got = v)
      | None -> Alcotest.fail "marshalled entry not found");
      let c = Store.counters () in
      check_int "one write counted" 1 c.Store.writes;
      check_int "one hit counted" 1 c.Store.hits);
  (* deactivated: lookups and records are inert no-ops *)
  Store.reset_counters ();
  Store.record ~ns:"m:1" ~key:"k" 7;
  check_bool "no store, no entry" true
    ((Store.lookup ~ns:"m:1" ~key:"k" : int option) = None);
  let c = Store.counters () in
  check_int "no store, no writes" 0 c.Store.writes;
  check_int "no store, no hits" 0 c.Store.hits

let test_fault_tag_isolation () =
  with_active_store (fun () ->
      let op =
        {
          Jit.Fault.id = "store-test-op";
          layer = Jit.Fault.L_ir;
          rewrite_opcode = Jit.Fault.none_opcode;
          rewrite_ir = Jit.Fault.none_ir;
          rewrite_machine = Jit.Fault.none_machine;
        }
      in
      let pristine = Jit.Fault.cache_tag () in
      let armed, _fired =
        Jit.Fault.with_fault ~target:"simple" op (fun () ->
            Jit.Fault.cache_tag ())
      in
      check_bool "tags differ under an armed fault" true (pristine <> armed);
      (* keys carry the tag, so a pristine entry is invisible to the
         mutant and vice versa *)
      Store.record ~ns:"iso:1" ~key:("unit|" ^ pristine) "pristine verdict";
      check_bool "mutant key misses pristine entry" true
        ((Store.lookup ~ns:"iso:1" ~key:("unit|" ^ armed) : string option)
        = None);
      check_bool "pristine key still hits" true
        ((Store.lookup ~ns:"iso:1" ~key:("unit|" ^ pristine) : string option)
        = Some "pristine verdict"))

(* --- concurrent writers: two processes racing the same entries ---

   Workers open the store read-write concurrently, so publication must
   be atomic: two processes adding the same (ns, key) both succeed, the
   surviving entry is one writer's complete payload (never a torn
   interleave of both), and a fresh handle reads it back.  The tmp
   names carry pid + sequence precisely so this race cannot collide. *)

let race_keys = List.init 50 (fun i -> Printf.sprintf "k%d" i)

let race_payload tag key =
  Printf.sprintf "%s's payload for %s %s" tag key (String.make 64 tag.[0])

(* child-process body, entered through the hidden argv mode intercepted
   in {!Test_main} ([Unix.fork] is off-limits once earlier suites have
   created domains) *)
let race_writer ~dir ~tag =
  let t = Store.open_store ~dir in
  List.iter (fun k -> Store.add t ~ns:"race:1" ~key:k (race_payload tag k)) race_keys

let test_concurrent_writer_race () =
  let dir = fresh_dir () in
  let spawn_writer tag =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let exe = Sys.executable_name in
    let pid =
      Unix.create_process exe
        [| exe; "store-race-writer"; dir; tag |]
        Unix.stdin devnull Unix.stderr
    in
    Unix.close devnull;
    pid
  in
  let pa = spawn_writer "a" in
  let pb = spawn_writer "b" in
  let exit_code pid =
    match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1
  in
  check_int "writer a exits cleanly" 0 (exit_code pa);
  check_int "writer b exits cleanly" 0 (exit_code pb);
  let t = Store.open_store ~dir in
  List.iter
    (fun k ->
      match Store.find t ~ns:"race:1" ~key:k with
      | Some got ->
          check_bool ("one complete payload for " ^ k) true
            (got = race_payload "a" k || got = race_payload "b" k)
      | None -> Alcotest.fail ("entry lost in the race: " ^ k))
    race_keys

(* --- determinism with persistence on: -j 1 == -j 8, cold == warm --- *)

(* the exec suite's campaign subset, at 4 subjects per compiler *)
let run_subset jobs = Test_exec.run_subset ~per_compiler:4 jobs
let render_counts = Test_exec.render_counts

let test_campaign_determinism_with_store () =
  let dir = fresh_dir () in
  Store.activate dir;
  Store.reset_counters ();
  Fun.protect ~finally:Store.deactivate (fun () ->
      let cold = run_subset 1 in
      let cold_counters = Store.counters () in
      check_bool "cold run wrote entries" true (cold_counters.Store.writes > 0);
      Store.reset_counters ();
      let warm = run_subset 8 in
      let warm_counters = Store.counters () in
      check_string "warm -j8 == cold -j1" (render_counts cold)
        (render_counts warm);
      check_int "warm run wrote nothing" 0 warm_counters.Store.writes;
      check_int "warm run missed nothing" 0 warm_counters.Store.misses;
      check_bool "warm run was served from disk" true
        (warm_counters.Store.hits > 0);
      (* a second cold run in a fresh store must agree too: persistence
         changes where answers come from, never what they are *)
      Store.deactivate ();
      Store.activate (fresh_dir ());
      let cold8 = run_subset 8 in
      check_string "cold -j8 == cold -j1" (render_counts cold)
        (render_counts cold8))

(* --- the unit-verdict tier: one entry per validated unit --- *)

let defects = Interpreter.Defects.paper
let arches = Jit.Codegen.all_arches
let max_iterations = 96

let unit_store_key (compiler, subject) =
  Campaign.unit_store_key ~max_iterations ~defects ~arches ~compiler subject

let unit_entry u : Campaign.unit_entry option =
  Store.lookup ~ns:Campaign.unit_store_ns ~key:(unit_store_key u)

let run_unit ?budget (compiler, subject) =
  Campaign.test_instruction ~max_iterations ~validate:true ?budget ~defects
    ~arches ~compiler subject

(* [compare], not [=]: witness models may hold NaN floats *)
let same a b = compare a b = 0

(* what a warm unit may change: timings and validator query counts *)
let sans_work (r : Campaign.instruction_result) =
  {
    r with
    explore_time = 0.;
    test_time = 0.;
    validations =
      List.map
        (fun (a, (c : Campaign.validation_counts)) ->
          (a, { c with queries = 0 }))
        r.validations;
  }

(* The cold computation of what a unit's entry holds: its static
   verdicts and every path's validation on every ISA. *)
let computed (compiler, subject) =
  let static, cross =
    Runner.static_verdicts ~defects ~compiler ~arches subject
  in
  let exploration =
    Concolic.Explorer.explore ~max_iterations ~defects subject
  in
  ( static,
    cross,
    List.map
      (fun path ->
        List.map
          (fun (arch, (v : Runner.verified), _) ->
            (arch, Option.get v.validation))
          (Runner.run_path_arches ~validate:true ~defects ~compiler ~static
             path))
      exploration.paths )

(* Compute every unit with no store, fill a fresh store, then check
   each entry against the computation and run the unit warm: it reads
   its entry and nothing else, poses no validator query, writes
   nothing and returns the cold result. *)
let check_warm_equals_cold units =
  let cold = List.map (fun u -> (u, sans_work (run_unit u), computed u)) units in
  with_active_store (fun () ->
      List.iter (fun (u, _, _) -> ignore (run_unit u)) cold;
      List.iter
        (fun (u, (result : Campaign.instruction_result), (static, cross, vs)) ->
          let label = Campaign.unit_key u in
          match unit_entry u with
          | None ->
              check_bool (label ^ ": only unsupported units lack an entry") true
                result.unsupported
          | Some e ->
              check_int (label ^ ": path count") (List.length vs) e.ue_paths;
              check_bool (label ^ ": static findings") true
                (same e.ue_static static);
              check_bool (label ^ ": cross-ISA findings") true
                (same e.ue_cross cross);
              check_bool (label ^ ": validations") true (same e.ue_validations vs);
              Store.reset_counters ();
              let warm, queries =
                Verify.Translation_validator.with_query_count (fun () ->
                    run_unit u)
              in
              let c = Store.counters () in
              check_bool (label ^ ": warm result") true
                (same (sans_work warm) result);
              check_int (label ^ ": warm validator queries") 0 queries;
              check_int (label ^ ": warm store hits") 1 c.Store.hits;
              check_int (label ^ ": warm store misses") 0 c.Store.misses;
              check_int (label ^ ": warm store writes") 0 c.Store.writes)
        cold)

let test_unit_entry_curated () =
  check_warm_equals_cold (Campaign.units_for Jit.Cogits.all)

let test_unit_entry_extracted () =
  check_warm_equals_cold (Test_shared_static.extracted_units ())

(* A finding no analysis produces: a result carrying it was read from
   a forged entry. *)
let forged =
  Verify.Finding.v ~pass:Verify.Finding.Frame_differ ~subject:"forged"
    ~family:Verify.Finding.Structural ~cause:"forged-entry"
    "read from a forged store entry"

let forge u (e : Campaign.unit_entry) =
  Store.record ~ns:Campaign.unit_store_ns ~key:(unit_store_key u)
    { e with ue_cross = forged :: e.ue_cross }

let reads_forged (r : Campaign.instruction_result) =
  List.mem forged r.static_findings

(* an s2r unit with more than one path *)
let some_unit () =
  List.find
    (fun u -> (run_unit u).paths > 1)
    (Campaign.units_for [ Jit.Cogits.Stack_to_register_cogit ])

let test_unit_entry_path_count () =
  let u = some_unit () in
  let expected = sans_work (run_unit u) in
  with_active_store (fun () ->
      ignore (run_unit u);
      let e = Option.get (unit_entry u) in
      (* self-consistent, but for an exploration with one path more *)
      forge u
        {
          e with
          ue_paths = e.ue_paths + 1;
          ue_validations = e.ue_validations @ [ List.hd e.ue_validations ];
        };
      Store.reset_counters ();
      let r = run_unit u in
      check_bool "recomputed, not read" false (reads_forged r);
      check_bool "the cold result" true (same (sans_work r) expected);
      check_int "the entry is recorded again" 1 (Store.counters ()).Store.writes;
      check_bool "the recorded entry is the computed one" true
        (same (unit_entry u) (Some e)))

let test_unit_entry_arches () =
  let ((compiler, subject) as u) = some_unit () in
  with_active_store (fun () ->
      ignore (run_unit u);
      forge u (Option.get (unit_entry u));
      check_bool "a one-ISA run does not read the all-ISA entry" false
        (reads_forged
           (Campaign.test_instruction ~max_iterations ~validate:true ~defects
              ~arches:[ List.hd arches ] ~compiler subject)))

let inert_fault =
  {
    Jit.Fault.id = "store-test-inert";
    layer = Jit.Fault.L_ir;
    rewrite_opcode = Jit.Fault.none_opcode;
    rewrite_ir = Jit.Fault.none_ir;
    rewrite_machine = Jit.Fault.none_machine;
  }

let test_unit_entry_mutant () =
  let ((compiler, _) as u) = some_unit () in
  with_active_store (fun () ->
      ignore (run_unit u);
      forge u (Option.get (unit_entry u));
      check_bool "a pristine run reads the forged entry" true
        (reads_forged (run_unit u));
      let mutant, _ =
        Jit.Fault.with_fault ~target:(Jit.Cogits.short_name compiler) inert_fault
          (fun () -> run_unit u)
      in
      check_bool "the mutant does not" false (reads_forged mutant))

let test_unit_entry_budget () =
  let u = some_unit () in
  with_active_store (fun () ->
      ignore (run_unit ~budget:(ref 1_000_000) u);
      check_bool "a budgeted unit writes no entry" true
        (Option.is_none (unit_entry u));
      ignore (run_unit u);
      forge u (Option.get (unit_entry u));
      check_bool "a budgeted unit reads no entry" false
        (reads_forged (run_unit ~budget:(ref 1_000_000) u)))

let suite =
  [
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "fresh handle reuse" `Quick test_fresh_handle_reuse;
    Alcotest.test_case "truncated entry is a miss" `Quick
      test_truncated_entry_is_miss;
    Alcotest.test_case "corrupted entry is a miss" `Quick
      test_corrupted_entry_is_miss;
    Alcotest.test_case "foreign file is a miss" `Quick
      test_foreign_file_is_miss;
    Alcotest.test_case "cross-wired entries rejected" `Quick
      test_wrong_key_rejected;
    Alcotest.test_case "marshal layer and activation" `Quick
      test_marshal_layer;
    Alcotest.test_case "fault-tag isolation" `Quick test_fault_tag_isolation;
    Alcotest.test_case "concurrent writers race one entry" `Quick
      test_concurrent_writer_race;
    Alcotest.test_case "campaign determinism with store -j1 == -j8" `Slow
      test_campaign_determinism_with_store;
    Alcotest.test_case "unit entry: warm = cold, curated" `Quick
      test_unit_entry_curated;
    Alcotest.test_case "unit entry: warm = cold, extracted" `Quick
      test_unit_entry_extracted;
    Alcotest.test_case "unit entry: path count mismatch" `Quick
      test_unit_entry_path_count;
    Alcotest.test_case "unit entry: keyed by ISA list" `Quick
      test_unit_entry_arches;
    Alcotest.test_case "unit entry: mutants miss pristine" `Quick
      test_unit_entry_mutant;
    Alcotest.test_case "unit entry: budgets bypass it" `Quick
      test_unit_entry_budget;
  ]
