type failure = { exn : string; backtrace : string }

type 'a verdict =
  | Ok of 'a
  | Timed_out of string
  | Unit_crashed of failure
  | Worker_died of string
  | Quarantined of string

type 'a outcome = { verdict : 'a verdict; attempts : int }

type counts = {
  c_ok : int;
  c_timed_out : int;
  c_crashed : int;
  c_worker_died : int;
  c_quarantined : int;
  c_retries : int;
}

type policy = {
  retries : int;
  fuel : int option;
  deadline_s : float option;
  breaker_k : int;
  seed : int;
}

let default_policy =
  { retries = 1; fuel = Some 50_000_000; deadline_s = None; breaker_k = 4; seed = 0 }

let verdict_name = function
  | Ok _ -> "ok"
  | Timed_out _ -> "timed_out"
  | Unit_crashed _ -> "crashed"
  | Worker_died _ -> "worker_died"
  | Quarantined _ -> "quarantined"

let verdict_detail = function
  | Ok _ -> ""
  | Timed_out reason -> reason
  | Unit_crashed f -> f.exn
  | Worker_died status -> status
  | Quarantined group -> group

(* Same splitmix-style mixer as [Chaos]: the backoff spin count must be
   seed-derived, never wall-clock-random, so reruns behave alike. *)
let mix a b c =
  let z = ref ((a * 0x9E3779B9) + (b * 0x85EBCA6B) + (c * 0xC2B2AE35) + 0x165667B1) in
  z := (!z lxor (!z lsr 15)) * 0x2C1B3C6D;
  z := (!z lxor (!z lsr 12)) * 0x297A2D39;
  (!z lxor (!z lsr 15)) land max_int

let backoff ~policy ~idx ~attempt =
  let spins = mix policy.seed idx attempt land 0x3FF in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

(* Every attempt runs under the unit's chaos fault and a fresh watchdog
   budget; a failed attempt backs off and retries while attempts remain
   (attempt numbers continue from [first], so a worker process picks up
   the coordinator's deal count). *)
let run_attempts ~policy ~idx ~first ~chaos f =
  let rec go a =
    let retry failed =
      if a <= policy.retries then (backoff ~policy ~idx ~attempt:a; go (a + 1))
      else { verdict = failed; attempts = a }
    in
    match
      Chaos.with_fault chaos @@ fun () ->
      Budget.with_budget ?fuel:policy.fuel ?deadline_s:policy.deadline_s f
    with
    | v -> { verdict = Ok v; attempts = a }
    | exception Budget.Exhausted reason -> retry (Timed_out reason)
    | exception e ->
        let backtrace = Printexc.get_backtrace () in
        retry (Unit_crashed { exn = Printexc.to_string e; backtrace })
  in
  go first

let tally outs =
  Array.fold_left
    (fun c o ->
      let c = { c with c_retries = c.c_retries + max 0 (o.attempts - 1) } in
      match o.verdict with
      | Ok _ -> { c with c_ok = c.c_ok + 1 }
      | Timed_out _ -> { c with c_timed_out = c.c_timed_out + 1 }
      | Unit_crashed _ -> { c with c_crashed = c.c_crashed + 1 }
      | Worker_died _ -> { c with c_worker_died = c.c_worker_died + 1 }
      | Quarantined _ -> { c with c_quarantined = c.c_quarantined + 1 })
    {
      c_ok = 0;
      c_timed_out = 0;
      c_crashed = 0;
      c_worker_died = 0;
      c_quarantined = 0;
      c_retries = 0;
    }
    outs

(* Stable group membership: [members.(g)] lists unit indices of group
   [g] in input order, [posn.(i)] is [i]'s position within its group. *)
let grouping ~group units =
  let n = Array.length units in
  let group_name = Array.map group units in
  let gid = Hashtbl.create 8 in
  let rev_members = ref [] in
  let group_of =
    Array.map
      (fun name ->
        match Hashtbl.find_opt gid name with
        | Some g -> g
        | None ->
            let g = Hashtbl.length gid in
            Hashtbl.add gid name g;
            rev_members := ref [] :: !rev_members;
            g)
      group_name
  in
  let members_rev = Array.of_list (List.rev !rev_members) in
  let posn = Array.make n 0 in
  Array.iteri
    (fun i g ->
      let cell = members_rev.(g) in
      posn.(i) <- List.length !cell;
      cell := i :: !cell)
    group_of;
  let members = Array.map (fun cell -> Array.of_list (List.rev !cell)) members_rev in
  (group_name, group_of, posn, members)

(* Deterministic circuit breaker: walk each group in stable input
   order; after [breaker_k] consecutive fatalities (crashes or worker
   deaths), every later unit of the group is quarantined (an [Ok]
   computed there is discarded — deterministically, so fresh, resumed,
   in-process and multi-process runs all agree). *)
let breaker_postpass ~breaker_k ~group units outcomes =
  if breaker_k > 0 then begin
    let group_name, _, _, members = grouping ~group units in
    Array.iter
      (fun m ->
        let streak = ref 0 and tripped = ref false in
        Array.iter
          (fun idx ->
            if !tripped then
              outcomes.(idx) <-
                { outcomes.(idx) with verdict = Quarantined group_name.(idx) }
            else
              match outcomes.(idx).verdict with
              | Unit_crashed _ | Worker_died _ ->
                  incr streak;
                  if !streak >= breaker_k then tripped := true
              | Quarantined _ -> () (* advisory skip; only reachable post-trip *)
              | Ok _ | Timed_out _ -> streak := 0)
          m)
      members
  end

let run ?jobs ?(policy = default_policy) ?(chaos = fun _ -> None) ?precomputed ?record
    ~group f units =
  let n = Array.length units in
  let group_name, group_of, posn, members = grouping ~group units in
  (* Raw outcomes land in atomics: each slot is written by the domain
     that dealt the unit, but the advisory breaker reads other slots. *)
  let raw = Array.init n (fun _ -> Atomic.make None) in
  (match precomputed with
  | None -> ()
  | Some pre ->
      for i = 0 to n - 1 do
        match pre i with None -> () | Some o -> Atomic.set raw.(i) (Some o)
      done);
  let journal_mutex = Mutex.create () in
  (* Sound advisory skip: quarantine without running only when
     [breaker_k] *completed* fatalities sit at the immediately preceding
     group positions — evidence the deterministic post-pass must reach
     the same way, whatever the undecided earlier units turn out to be
     (they could only move the trip point earlier). *)
  let provably_tripped idx =
    policy.breaker_k > 0
    && posn.(idx) >= policy.breaker_k
    &&
    let m = members.(group_of.(idx)) in
    let rec streak q count =
      count >= policy.breaker_k
      || q >= 0
         &&
         match Atomic.get raw.(m.(q)) with
         | Some { verdict = Unit_crashed _; _ } | Some { verdict = Worker_died _; _ }
           ->
             streak (q - 1) (count + 1)
         | _ -> false
    in
    streak (posn.(idx) - 1) 0
  in
  let run_unit idx =
    if Atomic.get raw.(idx) = None then
      if Interrupt.requested () then
        (* not-run, not a failure: the resumed run recomputes it (the
           quarantine verdict is never journaled) *)
        Atomic.set raw.(idx)
          (Some { verdict = Quarantined "interrupted"; attempts = 0 })
      else if provably_tripped idx then
        Atomic.set raw.(idx)
          (Some { verdict = Quarantined group_name.(idx); attempts = 0 })
      else begin
        let o =
          run_attempts ~policy ~idx ~first:1 ~chaos:(chaos idx) (fun () ->
              f units.(idx))
        in
        Atomic.set raw.(idx) (Some o);
        match record with
        | None -> ()
        | Some r -> Mutex.protect journal_mutex (fun () -> r idx o)
      end
  in
  ignore (Pool.mapi ?jobs (fun idx _ -> run_unit idx) (Array.to_list units) : unit list);
  let outcomes =
    Array.map (fun slot -> match Atomic.get slot with Some o -> o | None -> assert false) raw
  in
  breaker_postpass ~breaker_k:policy.breaker_k ~group units outcomes;
  outcomes
