(* The fault-tolerant supervisor (lib/exec/supervise.ml) and its
   checkpoint journal:

   - fuel/deadline watchdogs: a hung unit is contained as Timed_out
     while its neighbours finish normally;
   - retry: a flaky unit recovers (attempts counted), a persistent
     crasher is reported with its last exception;
   - circuit breaker: K consecutive crashes quarantine the rest of the
     group, byte-identically at -j1 and -j8, and a success resets the
     streak;
   - journal: entry round-trip (binary payloads, newlines in details,
     last-entry-wins), config-fingerprint rejection, torn-line
     tolerance, and a full record/truncate/resume cycle whose resumed
     outcomes match the single-shot run;
   - qcheck: chaos faults are contained at exactly their targets,
     independent of -j. *)

module S = Exec.Supervise
module J = Exec.Journal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let no_retry = { S.default_policy with S.retries = 0 }

let verdict_str (o : 'a S.outcome) =
  Printf.sprintf "%s/%s/%d"
    (S.verdict_name o.S.verdict)
    (S.verdict_detail o.S.verdict)
    o.S.attempts

(* --- watchdogs --- *)

let test_timeout_kill () =
  let policy = { no_retry with S.fuel = Some 10_000 } in
  let outcomes =
    S.run ~jobs:2 ~policy
      ~group:(fun _ -> "g")
      (fun u ->
        if u = 1 then
          while true do
            Exec.Budget.tick ~cost:64 ()
          done;
        u * 2)
      [| 0; 1; 2 |]
  in
  (match outcomes.(1).S.verdict with
  | S.Timed_out reason -> check_string "exhaustion reason" "fuel" reason
  | v -> Alcotest.failf "expected Timed_out, got %s" (S.verdict_name v));
  check_bool "neighbours unaffected" true
    (outcomes.(0).S.verdict = S.Ok 0 && outcomes.(2).S.verdict = S.Ok 4)

let test_deadline_kill () =
  let policy =
    { no_retry with S.fuel = None; S.deadline_s = Some 0.02 }
  in
  let outcomes =
    S.run ~jobs:1 ~policy
      ~group:(fun _ -> "g")
      (fun _ ->
        while true do
          Exec.Budget.tick ()
        done)
      [| 0 |]
  in
  match outcomes.(0).S.verdict with
  | S.Timed_out reason -> check_string "exhaustion reason" "deadline" reason
  | v -> Alcotest.failf "expected Timed_out, got %s" (S.verdict_name v)

(* --- retry --- *)

let test_retry_then_succeed () =
  let tries = Array.init 3 (fun _ -> Atomic.make 0) in
  let outcomes =
    S.run ~jobs:3
      ~policy:{ no_retry with S.retries = 2 }
      ~group:(fun _ -> "g")
      (fun u ->
        let n = Atomic.fetch_and_add tries.(u) 1 in
        if u = 1 && n < 2 then failwith "flaky";
        u)
      [| 0; 1; 2 |]
  in
  check_bool "recovered" true (outcomes.(1).S.verdict = S.Ok 1);
  check_int "attempts consumed" 3 outcomes.(1).S.attempts;
  let t = S.tally outcomes in
  check_int "all ok" 3 t.S.c_ok;
  check_int "extra attempts tallied" 2 t.S.c_retries

let test_retries_exhausted () =
  let outcomes =
    S.run ~jobs:1
      ~policy:{ no_retry with S.retries = 1 }
      ~group:(fun _ -> "g")
      (fun u -> if u = 0 then failwith "always broken" else u)
      [| 0; 1 |]
  in
  (match outcomes.(0).S.verdict with
  | S.Unit_crashed f ->
      check_bool "last exception text kept" true
        (Astring_contains.contains f.S.exn "always broken")
  | v -> Alcotest.failf "expected Unit_crashed, got %s" (S.verdict_name v));
  check_int "first try + one retry" 2 outcomes.(0).S.attempts;
  check_bool "other unit fine" true (outcomes.(1).S.verdict = S.Ok 1)

(* --- circuit breaker --- *)

(* units 0..11 are group "bad" (2,3,4 crash — three consecutive, the
   trip threshold), 12..15 group "good" *)
let breaker_outcomes jobs =
  S.run ~jobs
    ~policy:{ no_retry with S.breaker_k = 3 }
    ~group:(fun u -> if u < 12 then "bad" else "good")
    (fun u -> if u >= 2 && u < 5 then failwith "crash" else u)
    (Array.init 16 Fun.id)

let test_breaker_quarantine () =
  let o = breaker_outcomes 1 in
  let name i = S.verdict_name o.(i).S.verdict in
  check_string "before the streak" "ok" (name 1);
  check_string "in the streak" "crashed" (name 3);
  check_string "after the trip" "quarantined" (name 5);
  check_string "rest of the group too" "quarantined" (name 11);
  (match o.(5).S.verdict with
  | S.Quarantined g -> check_string "payload names the group" "bad" g
  | _ -> assert false);
  check_int "quarantined units never ran" 0 o.(5).S.attempts;
  check_string "other group untouched" "ok" (name 12);
  let t = S.tally o in
  check_int "ok" 6 t.S.c_ok;
  check_int "crashed" 3 t.S.c_crashed;
  check_int "quarantined" 7 t.S.c_quarantined

let test_breaker_deterministic_across_jobs () =
  let render o = List.map verdict_str (Array.to_list o) in
  Alcotest.(check (list string))
    "-j1 == -j8"
    (render (breaker_outcomes 1))
    (render (breaker_outcomes 8))

let test_breaker_streak_resets () =
  let o =
    S.run ~jobs:1
      ~policy:{ no_retry with S.breaker_k = 3 }
      ~group:(fun _ -> "g")
      (fun u -> if u = 0 || u = 1 || u = 3 then failwith "crash" else u)
      (Array.init 6 Fun.id)
  in
  let t = S.tally o in
  check_int "an Ok between crashes resets the streak" 0 t.S.c_quarantined;
  check_int "crashes still reported" 3 t.S.c_crashed

(* --- journal --- *)

let test_journal_roundtrip () =
  let file = Filename.temp_file "ijdt-journal" ".jsonl" in
  let oc = open_out file in
  J.write_header oc ~config:"test|v1";
  let e1 =
    {
      J.key = "a|x";
      status = J.Ok;
      attempts = 1;
      detail = "";
      payload = "\x00binary\xff\"quote\\slash";
    }
  in
  let e2 =
    { J.key = "a|y"; status = J.Timed_out; attempts = 2; detail = "fuel"; payload = "" }
  in
  let e3 =
    {
      J.key = "a|z";
      status = J.Crashed;
      attempts = 2;
      detail = "Failure(\"two\nlines\")";
      payload = "";
    }
  in
  List.iter (J.append oc) [ e1; e2; e3 ];
  J.append oc { e2 with J.attempts = 3 };
  close_out oc;
  let t = J.load ~config:"test|v1" file in
  check_int "three keys" 3 (Hashtbl.length t);
  check_bool "binary payload intact" true (Hashtbl.find t "a|x" = e1);
  check_int "last entry wins" 3 (Hashtbl.find t "a|y").J.attempts;
  check_bool "newline in detail survives" true (Hashtbl.find t "a|z" = e3);
  check_int "mismatched config rejected" 0
    (Hashtbl.length (J.load ~config:"other|v2" file));
  check_int "missing file tolerated" 0
    (Hashtbl.length (J.load ~config:"test|v1" (file ^ ".nope")));
  Sys.remove file

let test_journal_torn_line () =
  let file = Filename.temp_file "ijdt-journal" ".jsonl" in
  let oc = open_out file in
  J.write_header oc ~config:"torn";
  J.append oc
    { J.key = "k1"; status = J.Ok; attempts = 1; detail = ""; payload = "abc" };
  J.append oc
    { J.key = "k2"; status = J.Ok; attempts = 1; detail = ""; payload = "def" };
  close_out oc;
  (* cut the last line mid-way, as a killed writer would *)
  let ic = open_in_bin file in
  let keep = really_input_string ic (in_channel_length ic - 10) in
  close_in ic;
  let oc = open_out_bin file in
  output_string oc keep;
  close_out oc;
  let t = J.load ~config:"torn" file in
  check_int "torn entry dropped, earlier kept" 1 (Hashtbl.length t);
  check_bool "the surviving one parses" true
    ((Hashtbl.find t "k1").J.payload = "abc");
  Sys.remove file

(* Flip the first payload digit of a journal's first [ok] entry, as bit
   rot or a stray edit would. *)
let flip_first_ok_payload file =
  let ic = open_in_bin file in
  let text = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let rec find i field =
    if Bytes.sub_string text i (String.length field) = field then
      i + String.length field
    else find (i + 1) field
  in
  let pos = find (find 0 "\"status\":\"ok\"") "\"payload\":\"" in
  Bytes.set text pos (if Bytes.get text pos = '0' then '1' else '0');
  let oc = open_out_bin file in
  output_bytes oc text;
  close_out oc

(* a flipped payload digit fails the entry's checksum: the line is
   dropped like a torn one, and its bytes never reach a decoder *)
let test_journal_checksum () =
  let file = Filename.temp_file "ijdt-journal" ".jsonl" in
  let oc = open_out file in
  J.write_header oc ~config:"sum";
  J.append oc
    { J.key = "k1"; status = J.Ok; attempts = 1; detail = ""; payload = "abc" };
  J.append oc
    { J.key = "k2"; status = J.Ok; attempts = 1; detail = ""; payload = "def" };
  close_out oc;
  flip_first_ok_payload file;
  let t = J.load ~config:"sum" file in
  check_bool "corrupt entry dropped" false (Hashtbl.mem t "k1");
  check_bool "intact entry kept" true ((Hashtbl.find t "k2").J.payload = "def");
  Sys.remove file

let test_resume_skips_precomputed () =
  let executed = Atomic.make 0 in
  let recorded = ref [] in
  let pre i = if i < 3 then Some { S.verdict = S.Ok (i * 10); attempts = 1 } else None in
  let record i (_ : int S.outcome) = recorded := i :: !recorded in
  let outcomes =
    S.run ~jobs:2 ~policy:no_retry ~precomputed:pre ~record
      ~group:(fun _ -> "g")
      (fun u ->
        Atomic.incr executed;
        u * 10)
      [| 0; 1; 2; 3; 4 |]
  in
  check_int "only the missing units ran" 2 (Atomic.get executed);
  Array.iteri
    (fun i o -> check_bool "value" true (o.S.verdict = S.Ok (i * 10)))
    outcomes;
  Alcotest.(check (list int))
    "only executed units journaled" [ 3; 4 ]
    (List.sort compare !recorded)

(* the full cycle: journal a run, truncate the journal as a killed run
   would leave it, resume — the resumed outcomes must match the
   single-shot run's *)
let test_journal_resume_equivalence () =
  let file = Filename.temp_file "ijdt-journal" ".jsonl" in
  let config = "sup|equiv" in
  let work u = if u mod 7 = 3 then failwith "die" else u * u in
  let units = Array.init 20 Fun.id in
  let oc = open_out file in
  J.write_header oc ~config;
  let record i (o : int S.outcome) =
    J.append oc
      (J.entry_of_outcome ~key:(string_of_int i)
         ~encode:(fun r -> Marshal.to_string r [])
         o)
  in
  let full =
    S.run ~jobs:4 ~policy:no_retry ~record ~group:(fun _ -> "g") work units
  in
  close_out oc;
  (* keep the header plus the first 8 completion records *)
  let ic = open_in file in
  let lines = ref [] in
  (try
     for _ = 1 to 9 do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let oc = open_out file in
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines);
  close_out oc;
  let tbl = J.load ~config file in
  check_int "truncated journal holds 8 units" 8 (Hashtbl.length tbl);
  let pre i =
    Option.map
      (J.outcome_of_entry ~decode:(fun p -> (Marshal.from_string p 0 : int)))
      (Hashtbl.find_opt tbl (string_of_int i))
  in
  let resumed =
    S.run ~jobs:4 ~policy:no_retry ~precomputed:pre
      ~group:(fun _ -> "g")
      work units
  in
  Alcotest.(check (list string))
    "resumed outcomes == single-shot outcomes"
    (List.map verdict_str (Array.to_list full))
    (List.map verdict_str (Array.to_list resumed));
  Sys.remove file

(* --- chaos isolation (qcheck) --- *)

let qcheck_chaos_contained =
  (* synthetic units that pass through both chaos hooks, with a random
     fault plan: every fault must land as exactly its target unit's
     verdict (solver-raise => crashed, hang/bomb => fuel timeout),
     every other unit must succeed, and the verdicts must not depend
     on the worker count *)
  QCheck.Test.make ~name:"qcheck: chaos faults contained at their targets"
    ~count:30
    QCheck.(triple (int_range 1 40) (int_range 0 6) (int_range 0 10_000))
    (fun (n, faults, seed) ->
      let plan = Exec.Chaos.plan ~seed ~faults ~units:n () in
      let policy =
        { S.default_policy with S.fuel = Some 100_000; retries = 1; seed }
      in
      let work u =
        Exec.Chaos.hook_solver ();
        Exec.Chaos.hook_explorer ();
        Exec.Budget.tick ~cost:10 ();
        u + 1
      in
      let supervised jobs =
        S.run ~jobs ~policy
          ~chaos:(Exec.Chaos.kind_of plan)
          ~group:(fun u -> if u mod 2 = 0 then "even" else "odd")
          work (Array.init n Fun.id)
      in
      let o1 = supervised 1 and o4 = supervised 4 in
      if
        List.map verdict_str (Array.to_list o1)
        <> List.map verdict_str (Array.to_list o4)
      then QCheck.Test.fail_report "verdicts differ between -j1 and -j4";
      Array.for_all
        (fun i ->
          match (Exec.Chaos.kind_of plan i, o1.(i).S.verdict) with
          | None, S.Ok v -> v = i + 1
          | Some Exec.Chaos.Solver_raise, S.Unit_crashed f ->
              Astring_contains.contains f.S.exn "chaos-injected"
          | Some (Exec.Chaos.Explorer_hang | Exec.Chaos.Alloc_bomb),
            S.Timed_out reason ->
              reason = "fuel"
          | _, v ->
              QCheck.Test.fail_reportf "unit %d: unexpected verdict %s" i
                (S.verdict_name v))
        (Array.init n Fun.id))

let suite =
  [
    Alcotest.test_case "fuel watchdog contains a hung unit" `Quick
      test_timeout_kill;
    Alcotest.test_case "deadline watchdog contains a hung unit" `Quick
      test_deadline_kill;
    Alcotest.test_case "flaky unit recovers on retry" `Quick
      test_retry_then_succeed;
    Alcotest.test_case "persistent crasher reported after retries" `Quick
      test_retries_exhausted;
    Alcotest.test_case "breaker quarantines the rest of the group" `Quick
      test_breaker_quarantine;
    Alcotest.test_case "breaker verdicts identical -j1 == -j8" `Quick
      test_breaker_deterministic_across_jobs;
    Alcotest.test_case "a success resets the breaker streak" `Quick
      test_breaker_streak_resets;
    Alcotest.test_case "journal entry round-trip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal tolerates a torn last line" `Quick
      test_journal_torn_line;
    Alcotest.test_case "resume skips precomputed units" `Quick
      test_resume_skips_precomputed;
    Alcotest.test_case "journal/truncate/resume equivalence" `Quick
      test_journal_resume_equivalence;
    QCheck_alcotest.to_alcotest qcheck_chaos_contained;
    Alcotest.test_case "journal drops an entry failing its checksum" `Quick
      test_journal_checksum;
  ]
