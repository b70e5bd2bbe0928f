(* One repetition of one benchmark workload, in its own process.

   perfbench/run.py launches this binary once per repetition and
   aggregates what each repetition writes to [--out].  Every cold phase
   needs a fresh process: the runner's static and cross-ISA memos and
   the validator's compiled-code memo have no public reset, so a second
   phase in the same process would run warm.

     perfbench.exe rep --mode MODE --workload W --seed N --out FILE
                       [--store DIR] [--corpus-seed S] [--corpus-size N]
                       [--jobs J] [--spans FILE]
     perfbench.exe worker      (re-exec target of the worker pool)

   Modes:
     setup     set up, record the instant set-up ended, exit
     untraced  set up, then run the units through
               [Campaign.run_supervised] (the measured phase)
     traced    set up, then drive the same units through each layer's
               public entry point from here, one span per call
     prepare   fill the warm store (never timed)

   The library is called, never edited: the traced mode mirrors
   [Campaign.test_instruction] call for call, so its per-unit verdicts
   must hash exactly like the untraced run's. *)

module C = Ijdt_core.Campaign
module R = Difftest.Runner

type workload = Curated_cold | Extracted_validate | Warm_workers

let workload_of_string = function
  | "curated_cold" -> Curated_cold
  | "extracted_validate" -> Extracted_validate
  | "warm_workers" -> Warm_workers
  | w -> failwith ("unknown workload " ^ w)

let defects = Interpreter.Defects.paper
let arches = Jit.Codegen.[ X86; Arm32; Rv32 ]
let max_iterations = 96

type config = {
  mode : string;
  workload : workload;
  seed : int;
  corpus_seed : int;
  corpus_size : int;
  store : string option;
  jobs : int;
  out : string;
  spans_out : string option;
}

let validate cfg = cfg.workload <> Curated_cold
let workers cfg = if cfg.workload = Warm_workers then Some 2 else None

(* --- set-up: the test universe and the store ----------------------- *)

type setup = {
  units : (Jit.Cogits.compiler * Concolic.Path.subject) array;
      (** canonical order: the reference files index units by it *)
  dealt : int array;  (** canonical indices in the seed's deal order *)
  corpus : Templates.Corpus.t option;
  corpus_span : int * int;  (** start and end ns of the corpus construction *)
}

(* The seed shuffles the subjects, and every compiler deals them in that
   one order, compilers still one after another as in
   [Campaign.units_for].  So the first compiler of a subject always pays
   its exploration and the others reuse it: the per-unit costs are the
   same multiset under every seed, and only their order moves. *)
let deal_order ~seed units =
  let ids = Hashtbl.create 4096 in
  Array.iter
    (fun (_, s) -> if not (Hashtbl.mem ids s) then Hashtbl.add ids s (Hashtbl.length ids))
    units;
  let st = Random.State.make [| seed |] in
  let rank = Array.init (Hashtbl.length ids) Fun.id in
  for i = Array.length rank - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- t
  done;
  let compiler_pos c =
    let rec go i = function
      | [] -> i
      | c' :: rest -> if c' = c then i else go (i + 1) rest
    in
    go 0 Jit.Cogits.all
  in
  let key i =
    let c, s = units.(i) in
    (compiler_pos c, rank.(Hashtbl.find ids s))
  in
  let order = Array.init (Array.length units) Fun.id in
  Array.sort (fun i j -> compare (key i) (key j)) order;
  order

let now_ns () = Int64.to_int (Exec.Clock.now_ns ())

(* --- host speed probe ------------------------------------------------ *)

(* Each vCPU of a shared host alternates, every few seconds and
   independently of the other, between a fast and a slow speed (about
   1.7x apart), and the share of slow stretches drifts over minutes.
   Every 10 ms of this process's CPU time a SIGPROF handler times a
   fixed kernel on whichever vCPU the process is running on, so the
   kernel's mean time follows the speed the measured work ran at; run.py
   scales the run's timings by it.  Of the kernels tried (integer
   arithmetic, a pointer chase, list allocation, string hashing), the
   hash-table lookups track the campaign best: over 8-repetition
   windows of [curated_cold] their mean time moves one for one with
   the wall time (correlation 0.96).  ITIMER_PROF only counts while the
   process runs, so it never interrupts a blocked call.  The kernel is
   this file's own code: a change to the library cannot move it. *)
let probe_ns = ref 0
let probe_n = ref 0

let probe_table =
  lazy
    (let h = Hashtbl.create 4096 in
     for i = 0 to 4095 do
       Hashtbl.replace h (string_of_int (i * 7919)) i
     done;
     h)

let probe_kernel () =
  let h = Lazy.force probe_table and acc = ref 0 in
  for i = 0 to 60 do
    match Hashtbl.find_opt h (string_of_int (i * 13 mod 4096 * 7919)) with
    | Some v -> acc := !acc + v
    | None -> ()
  done;
  !acc

let set_probe_timer period =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period })

let start_probe () =
  ignore (Lazy.force probe_table);
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (probe_kernel ()));
         probe_ns := !probe_ns + (now_ns () - t0);
         incr probe_n));
  set_probe_timer 0.01

let setup cfg =
  Option.iter Exec.Store.activate cfg.store;
  let units, corpus, corpus_span =
    match cfg.workload with
    | Curated_cold -> (C.units_for Jit.Cogits.all, None, (0, 0))
    | Extracted_validate | Warm_workers ->
        let t0 = now_ns () in
        let c =
          C.extracted_corpus ~jobs:1 ~seed:cfg.corpus_seed ~n:cfg.corpus_size
            ()
        in
        let subjects = Templates.Corpus.subjects c in
        ( List.concat_map
            (fun compiler -> List.map (fun s -> (compiler, s)) subjects)
            Jit.Cogits.bytecode_compilers,
          Some c,
          (t0, now_ns ()) )
  in
  let units = Array.of_list units in
  { units; dealt = deal_order ~seed:cfg.seed units; corpus; corpus_span }

(* --- verdict digest -------------------------------------------------- *)

(* A unit's verdict in canonical text: everything the campaign reports
   about it except timings. *)
let unit_hash key verdict (r : C.instruction_result option) =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  add key;
  add verdict;
  (match r with
  | None -> ()
  | Some r ->
      add
        (Printf.sprintf "%d %d %d %b" r.paths r.curated r.differences
           r.unsupported);
      List.iter (fun d -> add (Difftest.Difference.to_string d)) r.diffs;
      List.iter (fun f -> add (Verify.Finding.to_string f)) r.static_findings;
      let a = r.agreements in
      add
        (Printf.sprintf "agree %d %d %d %d" a.both_clean a.both_flagged
           a.static_only a.dynamic_only);
      List.iter
        (fun (arch, (v : C.validation_counts)) ->
          add
            (Printf.sprintf "%s %d %d %d %d %d %d %d"
               (Jit.Codegen.arch_name arch)
               v.proved v.refuted v.missing v.spurious v.unknown v.skipped
               v.queries))
        r.validations);
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 8

(* --- JSON output ----------------------------------------------------- *)

type json =
  | I of int
  | F of float
  | S of string
  | L of json list
  | O of (string * json) list

let rec emit b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | L l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i j ->
          if i > 0 then Buffer.add_char b ',';
          emit b j)
        l;
      Buffer.add_char b ']'
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, j) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S:" k);
          emit b j)
        kvs;
      Buffer.add_char b '}'

let write_json path j =
  let b = Buffer.create 65536 in
  emit b j;
  Buffer.add_char b '\n';
  let oc = open_out_bin (path ^ ".tmp") in
  Buffer.output_buffer oc b;
  close_out oc;
  Sys.rename (path ^ ".tmp") path

(* The aggregate digest the reference pins: units, verdicts, paths,
   curated paths, differences, causes by family, static findings and
   validation tallies. *)
let digest_json (camp : C.t) ~attempted ~ok =
  let sum f = List.fold_left (fun acc cr -> acc + f cr) 0 camp.results in
  let a = C.agreement_totals camp in
  let v = C.validation_totals camp in
  O
    [
      ("units", I attempted);
      ("units_ok", I ok);
      ("paths", I (sum C.total_paths));
      ("curated", I (sum C.total_curated));
      ("differences", I (sum C.total_differences));
      ( "causes_by_family",
        O
          (List.map
             (fun (f, n) -> (Difftest.Difference.family_name f, I n))
             (C.causes_by_family camp)) );
      ("static_findings", I (List.length (C.all_static_findings camp)));
      ( "agreements",
        L [ I a.both_clean; I a.both_flagged; I a.static_only; I a.dynamic_only ]
      );
      ( "validation",
        O
          [
            ("proved", I v.proved);
            ("refuted", I v.refuted);
            ("missing", I v.missing);
            ("spurious", I v.spurious);
            ("unknown", I v.unknown);
            ("skipped", I v.skipped);
            ("queries", I v.queries);
          ] );
    ]

(* Per-unit figures in canonical order; [results.(i)] is [None] for a
   unit that did not finish [ok]. *)
let units_json (s : setup) verdicts (results : C.instruction_result option array)
    =
  let hashes =
    Array.mapi
      (fun i r -> S (unit_hash (C.unit_key s.units.(i)) verdicts.(i) r))
      results
  in
  let ms =
    Array.map
      (function
        | Some (r : C.instruction_result) ->
            F ((r.explore_time +. r.test_time) *. 1000.)
        | None -> F (-1.))
      results
  in
  [ ("unit_hashes", L (Array.to_list hashes)); ("unit_ms", L (Array.to_list ms)) ]

let count_ok verdicts =
  Array.fold_left (fun k v -> if v = "ok" then k + 1 else k) 0 verdicts

let campaign_of (s : setup) (results : C.instruction_result option array) : C.t
    =
  let compilers =
    List.filter
      (fun c -> Array.exists (fun (c', _) -> c' = c) s.units)
      Jit.Cogits.all
  in
  {
    C.defects;
    arches;
    results =
      List.map
        (fun compiler ->
          {
            C.compiler;
            instructions =
              List.concat
                (List.mapi
                   (fun i r ->
                     match r with
                     | Some r when fst s.units.(i) = compiler -> [ r ]
                     | _ -> [])
                   (Array.to_list results));
          })
        compilers;
  }

(* CPU seconds of this process and of its reaped children (the pool's
   worker processes), as getrusage's SELF and CHILDREN split them. *)
let cpu_split () =
  let t = Unix.times () in
  (t.tms_utime +. t.tms_stime, t.tms_cutime +. t.tms_cstime)

let common_fields (s : setup) ~setup_end =
  [
    ("setup_end", F setup_end);
    ("attempted", I (Array.length s.units));
    ( "corpus_accept_ratio",
      F
        (match s.corpus with
        | None -> 0.
        | Some c ->
            let st = c.Templates.Corpus.c_stats in
            if st.s_generated = 0 then 0.
            else float st.s_accepted /. float st.s_generated) );
  ]

(* --- untraced repetition --------------------------------------------- *)

let run_untraced cfg (s : setup) ~setup_end =
  let self0, kids0 = cpu_split () in
  let t0 = Exec.Clock.now () in
  let sup =
    C.run_supervised ~jobs:cfg.jobs ?workers:(workers cfg) ~max_iterations
      ~validate:(validate cfg) ~defects ~arches
      ~units:(Array.to_list (Array.map (fun i -> s.units.(i)) s.dealt))
      ()
  in
  let wall = Exec.Clock.elapsed t0 in
  let self1, kids1 = cpu_split () in
  let n = Array.length s.units in
  let verdicts = Array.make n "not_run" in
  List.iteri
    (fun p (u : C.unit_report) -> verdicts.(s.dealt.(p)) <- u.ur_verdict)
    sup.sup_units;
  (* [sup_campaign] lists each compiler's ok units in deal order *)
  let queues =
    List.map
      (fun (cr : C.compiler_result) -> (cr.compiler, ref cr.instructions))
      sup.sup_campaign.results
  in
  let results = Array.make n None in
  Array.iter
    (fun i ->
      if verdicts.(i) = "ok" then begin
        let compiler, subject = s.units.(i) in
        let q = List.assoc compiler queues in
        match !q with
        | (r : C.instruction_result) :: rest when r.subject = subject ->
            results.(i) <- Some r;
            q := rest
        | _ -> failwith "perfbench: campaign results out of deal order"
      end)
    s.dealt;
  let redeals, garbage =
    match sup.sup_process with
    | Some p -> (p.Exec.Procpool.p_redeals, p.p_garbage)
    | None -> (0, 0)
  in
  O
    (common_fields s ~setup_end
    @ [
        ("wall_s", F wall);
        ("cpu_s", F (self1 -. self0 +. (kids1 -. kids0)));
        ("coordinator_cpu_s", F (self1 -. self0));
        ("worker_cpu_s", F (kids1 -. kids0));
        ("redeals", I redeals);
        ("garbage", I garbage);
        ( "digest",
          digest_json (campaign_of s results) ~attempted:n ~ok:(count_ok verdicts) );
      ]
    @ units_json s verdicts results)

(* --- traced repetition ----------------------------------------------- *)

let layer_names =
  [| "concolic"; "difftest"; "jit"; "verify.static"; "verify.validate"; "exec.wire"; "templates" |]

let l_concolic = 0
let l_difftest = 1
let l_jit = 2
let l_static = 3
let l_validate = 4
let l_wire = 5
let l_templates = 6

(* Spans live in one flat int array, four ints each: layer, start ns,
   end ns, unit index (the id shared by one unit's spans).  Nothing is
   written out until the run is over. *)
let spans = ref (Array.make (4 * 65536) 0)
let n_spans = ref 0

let record_span layer t0 t1 unit =
  if 4 * (!n_spans + 1) > Array.length !spans then begin
    let a = Array.make (2 * Array.length !spans) 0 in
    Array.blit !spans 0 a 0 (4 * !n_spans);
    spans := a
  end;
  let a = !spans and o = 4 * !n_spans in
  a.(o) <- layer;
  a.(o + 1) <- t0;
  a.(o + 2) <- t1;
  a.(o + 3) <- unit;
  incr n_spans

let span layer unit f =
  let t0 = now_ns () in
  let r = f () in
  record_span layer t0 (now_ns ()) unit;
  r

let write_spans path =
  let oc = open_out_bin path in
  output_string oc "layer\tstart_ns\tend_ns\tunit\n";
  let a = !spans in
  for k = 0 to !n_spans - 1 do
    let o = 4 * k in
    Printf.fprintf oc "%s\t%d\t%d\t%d\n" layer_names.(a.(o)) a.(o + 1) a.(o + 2)
      a.(o + 3)
  done;
  close_out oc

(* counts taken at the layer boundaries *)
let concolic_alloc = ref 0.
let difftest_alloc = ref 0.
let concolic_iterations = ref 0
let jit_instrs = ref 0
let validated = ref 0
let decided = ref 0
let wire_bytes = ref 0

let allocating acc f =
  let w0 = Gc.minor_words () in
  let r = f () in
  acc := !acc +. (Gc.minor_words () -. w0);
  r

(* [Runner.rebuild_input]'s public equivalent: the runner compiles
   against the literals and stack of the re-materialised input. *)
let materialize (path : Concolic.Path.t) =
  let frame = path.input_frame in
  let as_var (e : Symbolic.Sym_expr.t) =
    match e with
    | Var v -> v
    | _ -> invalid_arg "perfbench: input frame entry is not a variable"
  in
  let stack = Symbolic.Abstract_frame.operand_stack frame in
  let n = List.length stack in
  Concolic.Materialize.build ~model:path.model
    ~method_in:(Concolic.Explorer.method_in_for path.subject)
    ~recv_var:(as_var (Symbolic.Abstract_frame.receiver frame))
    ~temp_vars:(Array.map as_var (Symbolic.Abstract_frame.temps frame))
    ~entry_var:(fun rank ->
      if rank < n then as_var (List.nth stack (n - 1 - rank))
      else
        {
          Symbolic.Sym_expr.id = 100000 + rank;
          name = Printf.sprintf "s%d!" rank;
          sort = Symbolic.Sym_expr.Oop;
        })
    ~stack_size_term:path.stack_size_term ()

(* The compilation [Runner.run_path] performs for this path, repeated
   on its own so the JIT's share is visible beside the difftest span. *)
let jit_compile ~unit ~compiler ~arch (path : Concolic.Path.t) =
  let compiles =
    match (path.exit_, path.curation) with
    | Interpreter.Exit_condition.Invalid_frame, _ -> None
    | _, Solver.Solve.Sat _ -> (
        let input = materialize path in
        let ints l = List.map (fun (v : Vm_objects.Value.t) -> (v :> int)) l in
        let stack = ints (Interpreter.Frame.stack_bottom_up input.frame) in
        let literals =
          Array.map
            (fun (v : Vm_objects.Value.t) -> (v :> int))
            (Bytecodes.Compiled_method.literals input.meth)
        in
        match path.subject with
        | Concolic.Path.Bytecode op ->
            Some
              (fun () ->
                Jit.Cogits.compile_bytecode_to_machine compiler ~defects
                  ~literals ~stack_setup:stack ~arch op)
        | Concolic.Path.Bytecode_seq ops ->
            Some
              (fun () ->
                Jit.Cogits.compile_sequence_to_machine compiler ~defects
                  ~literals ~stack_setup:stack ~arch ops)
        | Concolic.Path.Native id ->
            if List.length stack <> Interpreter.Primitive_table.arity id + 1
            then None
            else
              Some (fun () -> Jit.Cogits.compile_native_to_machine ~defects ~arch id))
    | _ -> None
  in
  match compiles with
  | None -> ()
  | Some compile ->
      let n =
        span l_jit unit (fun () ->
            match compile () with
            | program -> Array.length program
            | exception Jit.Cogits.Not_compiled _ -> 0)
      in
      jit_instrs := !jit_instrs + n

(* [Runner.agreement_of], which the runner keeps private. *)
let agreement_of outcome (findings : Verify.Finding.t list) : R.agreement =
  match outcome with
  | R.Diff (d : Difftest.Difference.t) ->
      let matches (f : Verify.Finding.t) =
        String.equal f.cause d.cause
        ||
        match Difftest.Classify.family_of_static f.family with
        | Some fam -> Difftest.Difference.equal_family fam d.family
        | None -> false
      in
      if List.exists matches findings then Both_flagged else Dynamic_only
  | R.Pass | R.Expected_failure | R.Curated_out _ ->
      if
        List.exists
          (fun (f : Verify.Finding.t) ->
            Difftest.Classify.family_of_static f.family <> None)
          findings
      then Static_only
      else Both_clean

let add_agreement (a : C.agreement_counts) : R.agreement -> C.agreement_counts =
  function
  | Both_clean -> { a with both_clean = a.both_clean + 1 }
  | Both_flagged -> { a with both_flagged = a.both_flagged + 1 }
  | Static_only -> { a with static_only = a.static_only + 1 }
  | Dynamic_only -> { a with dynamic_only = a.dynamic_only + 1 }

let add_validation (c : C.validation_counts) : R.validation -> C.validation_counts
    = function
  | V_proved -> { c with proved = c.proved + 1 }
  | V_refuted { witness; _ } ->
      {
        c with
        refuted = c.refuted + 1;
        missing =
          (c.missing + if witness.Verify.Translation_validator.missing then 1 else 0);
      }
  | V_spurious _ -> { c with spurious = c.spurious + 1 }
  | V_unknown _ -> { c with unknown = c.unknown + 1 }
  | V_skipped _ -> { c with skipped = c.skipped + 1 }

let store_hits () = (Exec.Store.counters ()).Exec.Store.hits

(* [Campaign.test_instruction], call for call, with a span around each
   layer's entry point. *)
let trace_unit cfg ~unit ~compiler subject : C.instruction_result =
  let validate = validate cfg in
  let misses0 = (Concolic.Explorer.cache_stats ()).misses
  and hits0 = store_hits () in
  let t0 = Exec.Clock.now () in
  let exploration =
    span l_concolic unit (fun () ->
        allocating concolic_alloc (fun () ->
            Concolic.Explorer.explore ~max_iterations ~defects subject))
  in
  let explore_time = Exec.Clock.elapsed t0 in
  (* iterations actually executed: neither the memo nor the store
     answered *)
  if
    (Concolic.Explorer.cache_stats ()).misses > misses0
    && store_hits () = hits0
  then concolic_iterations := !concolic_iterations + exploration.iterations;
  if exploration.unsupported then
    {
      subject;
      paths = 0;
      curated = 0;
      differences = 0;
      unsupported = true;
      explore_time;
      test_time = 0.;
      diffs = [];
      static_findings = [];
      agreements = { both_clean = 0; both_flagged = 0; static_only = 0; dynamic_only = 0 };
      validations = [];
    }
  else begin
    let t1 = Exec.Clock.now () in
    let static arch =
      span l_static unit (fun () -> R.static_findings ~defects ~compiler ~arch subject)
    in
    let results =
      List.map
        (fun path ->
          ( path,
            List.map
              (fun arch ->
                let outcome =
                  span l_difftest unit (fun () ->
                      allocating difftest_alloc (fun () ->
                          R.run_path ~defects ~compiler ~arch path))
                in
                jit_compile ~unit ~compiler ~arch path;
                let findings = static arch in
                let validation, spent =
                  if validate then begin
                    let v, spent =
                      Verify.Translation_validator.with_query_count (fun () ->
                          span l_validate unit (fun () ->
                              R.validate_path ~defects ~compiler ~arch path))
                    in
                    incr validated;
                    (match v with
                    | R.V_proved | R.V_refuted _ -> incr decided
                    | _ -> ());
                    (Some v, spent)
                  end
                  else (None, 0)
                in
                (arch, outcome, agreement_of outcome findings, validation, spent))
              arches ))
        exploration.paths
    in
    let test_time = Exec.Clock.elapsed t1 in
    let curated =
      List.length
        (List.filter
           (fun (_, vs) ->
             List.for_all
               (fun (_, o, _, _, _) ->
                 match o with R.Curated_out _ -> false | _ -> true)
               vs)
           results)
    in
    let path_diffs =
      List.filter_map
        (fun (_, vs) ->
          List.find_map (fun (_, o, _, _, _) -> match o with R.Diff d -> Some d | _ -> None) vs)
        results
    in
    let agreements =
      List.fold_left
        (fun acc (_, vs) ->
          List.fold_left (fun acc (_, _, a, _, _) -> add_agreement acc a) acc vs)
        { both_clean = 0; both_flagged = 0; static_only = 0; dynamic_only = 0 }
        results
    in
    let validations =
      if not validate then []
      else
        List.map
          (fun arch ->
            ( arch,
              List.fold_left
                (fun acc (_, vs) ->
                  List.fold_left
                    (fun (acc : C.validation_counts) (a, _, _, v, spent) ->
                      if a <> arch then acc
                      else
                        let acc = { acc with queries = acc.queries + spent } in
                        match v with None -> acc | Some v -> add_validation acc v)
                    acc vs)
                C.no_validations results ))
          arches
    in
    let static_findings =
      List.concat_map static arches
      @ span l_static unit (fun () ->
            R.cross_isa_findings ~defects ~compiler ~arches subject)
      |> List.sort_uniq compare
    in
    {
      subject;
      paths = List.length exploration.paths;
      curated;
      differences = List.length path_diffs;
      unsupported = false;
      explore_time;
      test_time;
      diffs = Difftest.Classify.dedupe_witnesses path_diffs;
      static_findings;
      agreements;
      validations;
    }
  end

(* A worker's [Result] frame for this unit, encoded and decoded the way
   the pool's pipes carry it. *)
let wire_round_trip ~unit (r : C.instruction_result) =
  span l_wire unit (fun () ->
      let frame =
        Exec.Unit_wire.encode
          (Result
             {
               index = unit;
               attempt = 1;
               attempts = 1;
               verdict = W_ok (Marshal.to_string r []);
             })
      in
      wire_bytes := !wire_bytes + String.length frame;
      match Exec.Unit_wire.decode_line (String.sub frame 0 (String.length frame - 1)) with
      | Some (Result { verdict = W_ok p; _ }) ->
          (Marshal.from_string p 0 : C.instruction_result)
      | _ -> failwith "perfbench: wire frame did not round-trip")

let run_traced cfg (s : setup) ~setup_end =
  (match s.corpus_span with
  | t0, t1 when t1 > t0 -> record_span l_templates t0 t1 (-1)
  | _ -> ());
  let solver0 = Solver.Solve.cache_stats () and posed0 = Solver.Solve.queries_posed () in
  let explorer0 = Concolic.Explorer.cache_stats () in
  let store0 = Exec.Store.counters () in
  let n = Array.length s.units in
  let verdicts = Array.make n "not_run" in
  let results = Array.make n None in
  let t0 = now_ns () in
  Array.iter
    (fun i ->
      let compiler, subject = s.units.(i) in
      match trace_unit cfg ~unit:i ~compiler subject with
      | r ->
          let r = if workers cfg <> None then wire_round_trip ~unit:i r else r in
          verdicts.(i) <- "ok";
          results.(i) <- Some r
      | exception e ->
          verdicts.(i) <- "crashed";
          Printf.eprintf "perfbench: unit %s raised %s\n%!"
            (C.unit_key s.units.(i)) (Printexc.to_string e))
    s.dealt;
  let wall_ns = now_ns () - t0 in
  let solver1 = Solver.Solve.cache_stats () and posed1 = Solver.Solve.queries_posed () in
  let explorer1 = Concolic.Explorer.cache_stats () in
  let store1 = Exec.Store.counters () in
  let busy = Array.make (Array.length layer_names) 0 in
  let calls = Array.make (Array.length layer_names) 0 in
  let a = !spans in
  for k = 0 to !n_spans - 1 do
    let o = 4 * k in
    busy.(a.(o)) <- busy.(a.(o)) + (a.(o + 2) - a.(o + 1));
    calls.(a.(o)) <- calls.(a.(o)) + 1
  done;
  Option.iter write_spans cfg.spans_out;
  let ms l = F (float busy.(l) /. 1e6) in
  let ratio num den = F (if den = 0 then 0. else float num /. float den) in
  let solver_misses = solver1.misses - solver0.misses in
  let solver_hits = solver1.hits - solver0.hits in
  let store_reads =
    store1.hits - store0.hits + (store1.misses - store0.misses)
  in
  let camp = campaign_of s results in
  let layers =
    [
      ("concolic.ms", ms l_concolic);
      ("concolic.calls", I calls.(l_concolic));
      ("concolic.iterations", I !concolic_iterations);
      ("concolic.alloc_mw", F (!concolic_alloc /. 1e6));
      ( "concolic.cache_hit_ratio",
        ratio (explorer1.hits - explorer0.hits)
          (explorer1.hits - explorer0.hits + (explorer1.misses - explorer0.misses)) );
      ("solver.queries", I (posed1 - posed0));
      ("solver.misses", I solver_misses);
      ("solver.hit_ratio", ratio solver_hits (solver_hits + solver_misses));
      ("difftest.ms", ms l_difftest);
      ("difftest.calls", I calls.(l_difftest));
      ("difftest.alloc_mw", F (!difftest_alloc /. 1e6));
      ("jit.ms", ms l_jit);
      ("jit.calls", I calls.(l_jit));
      ("jit.machine_instrs", I !jit_instrs);
      ("verify.static_ms", ms l_static);
      ("verify.static_calls", I calls.(l_static));
      ("verify.validate_ms", ms l_validate);
      ("verify.validator_queries", I (C.validation_totals camp).queries);
      ("verify.decided_ratio", ratio !decided !validated);
      ("exec.store_writes", I (store1.writes - store0.writes));
      ("exec.store_loads", I (store1.loads - store0.loads));
      ("exec.store_hit_ratio", ratio (store1.hits - store0.hits) store_reads);
      ("exec.wire_ms", ms l_wire);
      ("exec.wire_mb", F (float !wire_bytes /. 1e6));
      ("templates.ms", ms l_templates);
      (* the corpus span belongs to set-up, outside [wall_ns] *)
      ( "trace.unattributed_ms",
        F (float (wall_ns - Array.fold_left ( + ) 0 busy + busy.(l_templates)) /. 1e6) );
    ]
  in
  O
    (common_fields s ~setup_end
    @ [
        ("wall_s", F (float wall_ns /. 1e9));
        ("digest", digest_json camp ~attempted:n ~ok:(count_ok verdicts));
        ("layers", O layers);
      ]
    @ units_json s verdicts results)

(* --- warm-store preparation ------------------------------------------ *)

(* Fill the store the way the measured run will read it: the corpus
   chunks, then every exploration, solver verdict, compiled-code and
   validation entry the workload's units touch.  Runs in its own
   process so none of the memos it leaves warm reach a measured run. *)
let prepare cfg (s : setup) ~setup_end =
  let sup =
    C.run_supervised ~jobs:cfg.jobs ?workers:(workers cfg) ~max_iterations
      ~validate:(validate cfg) ~defects ~arches ~units:(Array.to_list s.units) ()
  in
  let verdicts = Array.of_list (List.map (fun (u : C.unit_report) -> u.ur_verdict) sup.sup_units) in
  O (common_fields s ~setup_end @ [ ("ok", I (count_ok verdicts)) ])

(* --- command line ---------------------------------------------------- *)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "worker" then begin
    C.worker_main ();
    exit 0
  end;
  let mode = ref "" and workload = ref "" and seed = ref 0 and out = ref "" in
  let corpus_seed = ref 42 and corpus_size = ref 700 and store = ref "" in
  let jobs = ref 1 and spans_out = ref "" in
  let specs =
    [
      ("--mode", Arg.Set_string mode, "setup|untraced|traced|prepare");
      ("--workload", Arg.Set_string workload, "curated_cold|extracted_validate|warm_workers");
      ("--seed", Arg.Set_int seed, "N  deal-order seed");
      ("--corpus-seed", Arg.Set_int corpus_seed, "S  extracted corpus seed (42)");
      ("--corpus-size", Arg.Set_int corpus_size, "N  extracted corpus size (700)");
      ("--store", Arg.Set_string store, "DIR  result store to activate");
      ("--jobs", Arg.Set_int jobs, "J  in-process domains (1)");
      ("--out", Arg.Set_string out, "FILE  where to write the JSON figures");
      ("--spans", Arg.Set_string spans_out, "FILE  where a traced run writes its spans");
    ]
  in
  let usage = "perfbench.exe rep --mode MODE --workload W --seed N --out FILE" in
  Arg.parse specs
    (fun a -> if a <> "rep" then raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !out = "" then (prerr_endline usage; exit 2);
  let opt s = if s = "" then None else Some s in
  let cfg =
    {
      mode = !mode;
      workload = workload_of_string !workload;
      seed = !seed;
      corpus_seed = !corpus_seed;
      corpus_size = !corpus_size;
      store = opt !store;
      jobs = !jobs;
      out = !out;
      spans_out = opt !spans_out;
    }
  in
  (* the kernel allocates, which would move the traced run's exact
     allocation counts, and its time would land in the spans *)
  if cfg.mode <> "traced" then start_probe ();
  let s = setup cfg in
  let setup_end = Exec.Clock.now () in
  let result =
    match cfg.mode with
    | "setup" -> O (common_fields s ~setup_end)
    | "untraced" -> run_untraced cfg s ~setup_end
    | "traced" -> run_traced cfg s ~setup_end
    | "prepare" -> prepare cfg s ~setup_end
    | m -> failwith ("unknown mode " ^ m)
  in
  set_probe_timer 0.;
  let probe = [ ("probe_ns", I !probe_ns); ("probe_n", I !probe_n) ] in
  write_json cfg.out (match result with O l -> O (l @ probe) | j -> j)
