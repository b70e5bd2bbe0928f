(* Multi-process worker pool: crash-only execution for campaign units.

   The coordinator fork/execs N copies of the running binary (re-entering
   a hidden "worker" argv mode), deals {!Unit_wire.t} units to each
   worker over a pipe pair, and collects {!Unit_wire.msg} result frames.
   A worker holds at most two units: the one it is running and one
   queued behind it, so it goes straight from one unit's [Result] to
   the next instead of waiting a round trip for it.  A worker runs its
   units in deal order and acks each as it starts, so the running unit
   is the one it acked (or, before its first [Ack], the first one
   dealt): a death costs that unit one attempt, and the queued unit,
   which never started, goes back uncharged.

   Supervision is preemptive where the in-process {!Budget} is only
   cooperative:

   - a worker silent past [deadline_s] since its last frame (the Ack it
     sends at unit start is the heartbeat) is SIGKILLed — this catches
     SIGSTOP freezes, native-code spins, and anything else a
     cooperative watchdog cannot see;
   - any worker death (signal, nonzero exit, preemptive kill) costs one
     attempt of its running unit, which is re-dealt while attempts
     remain and becomes a [P_died] outcome after that; its queued unit
     is dealt again with its attempt count restored, and is not a
     redeal;
   - per-slot circuit breaker: [breaker_k] consecutive deaths without a
     completed unit retire the slot (no respawn), so a poisoned
     environment cannot fork-bomb;
   - torn/garbage frames on a result pipe are counted incidents the
     {!Unit_wire.decoder} resyncs past, never crashes.

   Determinism: outcomes are keyed by stable unit position, so the
   caller's merge is byte-identical at any worker count; the stats
   fields exposed to reports (deaths, preempted, redeals, garbage) are
   functions of the unit list and the fault plan, not of scheduling. *)

type outcome =
  | P_result of Unit_wire.verdict * int (* worker-reported verdict, attempts *)
  | P_died of { status : string; attempts : int }
  | P_not_run

type stats = {
  p_workers : int;
  p_spawned : int;
  p_deaths : int;
  p_preempted : int;
  p_redeals : int;
  p_garbage : int;
  p_retired : int;
}

(* --- wait-status rendering (stable strings for verdicts and JSON) --- *)

let signal_name s =
  if s = Sys.sigkill then "sigkill"
  else if s = Sys.sigstop then "sigstop"
  else if s = Sys.sigterm then "sigterm"
  else if s = Sys.sigint then "sigint"
  else if s = Sys.sigsegv then "sigsegv"
  else if s = Sys.sigabrt then "sigabrt"
  else if s = Sys.sigbus then "sigbus"
  else Printf.sprintf "sig%d" s

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> "signal " ^ signal_name s
  | Unix.WSTOPPED s -> "stopped " ^ signal_name s

(* --- low-level pipe IO --- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let k = Unix.write_substring fd s off len in
    write_all fd s (off + k) (len - k)
  end

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* --- coordinator --- *)

type slot = {
  mutable pid : int;
  mutable to_worker : Unix.file_descr;
  mutable from_worker : Unix.file_descr;
  mutable dec : Unit_wire.decoder;
  mutable garbage_seen : int;
  mutable running : int option; (* position in [units] being run *)
  mutable queued : int option; (* position dealt behind [running] *)
  mutable last_beat : float; (* time of the last frame, or of the deal
                                 that gave an idle worker work *)
  mutable alive : bool;
  mutable bye_sent : bool;
  mutable preempted : bool; (* we SIGKILLed past the deadline *)
  mutable streak : int; (* consecutive deaths without a completed unit *)
  mutable retired : bool;
}

let run ~workers ?(deadline_s = 30.0) ?(retries = 1) ?(breaker_k = 4)
    ?(worker_argv = [| "worker" |]) ~hello ?(on_final = fun _ _ -> ())
    (units : Unit_wire.t array) : outcome array * stats =
  let n = Array.length units in
  let workers = max 1 (min workers (max 1 n)) in
  let outcomes = Array.make n P_not_run in
  let attempts = Array.make n 0 in
  let pending = Queue.create () in
  let redeal = Stack.create () in
  Array.iteri (fun i _ -> Queue.add i pending) units;
  let finalized = ref 0 in
  let spawned = ref 0
  and deaths = ref 0
  and preempted = ref 0
  and redeals = ref 0
  and garbage = ref 0
  and retired_n = ref 0 in
  let exe = Sys.executable_name in
  let argv = Array.append [| exe |] worker_argv in
  let hello_frame = Unit_wire.encode (Unit_wire.Hello hello) in
  let finalize pos o =
    outcomes.(pos) <- o;
    incr finalized;
    on_final pos o
  in
  let spawn (s : slot) =
    (* cloexec on every end: a worker must not inherit a sibling's pipe
       ends, or a sibling's death would never read as EOF.  The child's
       own ends survive exec because [create_process] dup2s them onto
       0/1, which clears close-on-exec on the copies. *)
    let uin_r, uin_w = Unix.pipe ~cloexec:true () in
    let uout_r, uout_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe argv uin_r uout_w Unix.stderr in
    Unix.close uin_r;
    Unix.close uout_w;
    s.pid <- pid;
    s.to_worker <- uin_w;
    s.from_worker <- uout_r;
    s.dec <- Unit_wire.decoder ();
    s.garbage_seen <- 0;
    s.running <- None;
    s.queued <- None;
    s.last_beat <- Unix.gettimeofday ();
    s.alive <- true;
    s.bye_sent <- false;
    s.preempted <- false;
    incr spawned;
    (* a dead-on-arrival worker reads as EOF on its first select *)
    try write_all s.to_worker hello_frame 0 (String.length hello_frame)
    with Unix.Unix_error _ -> ()
  in
  let take_work () =
    match Stack.pop_opt redeal with
    | Some pos -> Some pos
    | None -> Queue.take_opt pending
  in
  let work_waiting () = (not (Stack.is_empty redeal)) || not (Queue.is_empty pending) in
  (* Hand [s] its running unit, or queue one behind it; a worker with
     nothing left to run and no work waiting is sent Bye. *)
  let deal (s : slot) =
    match take_work () with
    | None ->
        if s.running = None && not s.bye_sent then begin
          s.bye_sent <- true;
          let f = Unit_wire.encode Unit_wire.Bye in
          try write_all s.to_worker f 0 (String.length f)
          with Unix.Unix_error _ -> ()
        end
    | Some pos ->
        attempts.(pos) <- attempts.(pos) + 1;
        let u = { units.(pos) with Unit_wire.w_attempt = attempts.(pos) } in
        if s.running = None then begin
          s.running <- Some pos;
          s.last_beat <- Unix.gettimeofday ()
        end
        else s.queued <- Some pos;
        let f = Unit_wire.encode (Unit_wire.Unit u) in
        (* EPIPE here means the worker just died; the EOF path re-deals *)
        (try write_all s.to_worker f 0 (String.length f)
         with Unix.Unix_error _ -> ())
  in
  let drain_msgs (s : slot) =
    let rec go () =
      match Unit_wire.next s.dec with
      | None -> ()
      | Some m ->
          (match m with
          | Unit_wire.Ack _ -> s.last_beat <- Unix.gettimeofday ()
          | Unit_wire.Result { index; attempts = wa; verdict; _ } -> (
              s.last_beat <- Unix.gettimeofday ();
              match s.running with
              | Some pos when units.(pos).Unit_wire.w_index = index ->
                  s.running <- s.queued;
                  s.queued <- None;
                  s.streak <- 0;
                  finalize pos (P_result (verdict, wa))
              | _ -> incr garbage (* stray result frame *))
          | Unit_wire.Hello _ | Unit_wire.Unit _ | Unit_wire.Bye ->
              incr garbage (* protocol violation from the worker *));
          go ()
    in
    go ();
    let g = Unit_wire.garbage s.dec in
    garbage := !garbage + (g - s.garbage_seen);
    s.garbage_seen <- g
  in
  (* teardown kills (normal completion, interrupt, exception unwind)
     are expected: counting them as deaths would make [p_deaths] depend
     on which workers happened to still be draining when the last
     result landed *)
  let shutdown = ref false in
  let reap (s : slot) =
    Unit_wire.eof s.dec;
    drain_msgs s;
    (try Unix.close s.to_worker with Unix.Unix_error _ -> ());
    (try Unix.close s.from_worker with Unix.Unix_error _ -> ());
    let _, status = waitpid_retry s.pid in
    s.alive <- false;
    let expected = !shutdown || (s.bye_sent && s.running = None) in
    if !shutdown then begin
      (* unfinished units stay P_not_run *)
      s.running <- None;
      s.queued <- None
    end;
    if not expected then begin
      incr deaths;
      let status_str =
        (if s.preempted then "deadline " else "") ^ status_string status
      in
      (match s.queued with
      | Some pos ->
          s.queued <- None;
          attempts.(pos) <- attempts.(pos) - 1;
          Stack.push pos redeal
      | None -> ());
      (match s.running with
      | Some pos ->
          s.running <- None;
          if attempts.(pos) <= retries then begin
            Stack.push pos redeal;
            incr redeals
          end
          else finalize pos (P_died { status = status_str; attempts = attempts.(pos) })
      | None -> ());
      s.streak <- s.streak + 1;
      if breaker_k > 0 && s.streak >= breaker_k && not s.retired then begin
        s.retired <- true;
        incr retired_n
      end
    end
  in
  let kill_slot (s : slot) =
    if s.alive then begin
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap s
    end
  in
  let slots =
    Array.init workers (fun _ ->
        {
          pid = -1;
          to_worker = Unix.stdin;
          from_worker = Unix.stdin;
          dec = Unit_wire.decoder ();
          garbage_seen = 0;
          running = None;
          queued = None;
          last_beat = 0.0;
          alive = false;
          bye_sent = false;
          preempted = false;
          streak = 0;
          retired = false;
        })
  in
  (* writes to a dead worker's pipe must surface as EPIPE, not kill us *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  let buf = Bytes.create 65536 in
  Fun.protect
    ~finally:(fun () ->
      shutdown := true;
      Array.iter kill_slot slots;
      match old_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
      | None -> ())
    (fun () ->
      Array.iter spawn slots;
      let progressing () =
        !finalized < n
        && (Array.exists (fun s -> s.alive) slots
           || (* every slot just died at once, but work remains and at
                 least one slot may be respawned — keep going so the
                 loop body's respawn pass can pick the work back up *)
           (work_waiting () && Array.exists (fun s -> not s.retired) slots))
      in
      while progressing () && not (Interrupt.requested ()) do
        (* respawn retired-free dead slots while work waits *)
        Array.iter
          (fun s ->
            if (not s.alive) && (not s.retired) && work_waiting () then spawn s)
          slots;
        (* deal to idle workers first, then queue one unit behind each
           running one (stable order: lowest slot first); a slot that
           was already sent Bye is exiting and must not be handed late
           redeals it will never run *)
        Array.iter
          (fun s -> if s.alive && (not s.bye_sent) && s.running = None then deal s)
          slots;
        Array.iter
          (fun s ->
            if s.alive && (not s.bye_sent) && s.running <> None && s.queued = None
            then deal s)
          slots;
        let now = Unix.gettimeofday () in
        let timeout =
          Array.fold_left
            (fun acc s ->
              if s.alive && s.running <> None then
                min acc (max 0.01 (s.last_beat +. deadline_s -. now))
              else acc)
            0.5 slots
        in
        let rds =
          Array.to_list slots
          |> List.filter (fun s -> s.alive)
          |> List.map (fun s -> s.from_worker)
        in
        let readable =
          match Unix.select rds [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            match Array.find_opt (fun s -> s.alive && s.from_worker = fd) slots with
            | None -> ()
            | Some s -> (
                match Unix.read s.from_worker buf 0 (Bytes.length buf) with
                | 0 -> reap s
                | k ->
                    Unit_wire.feed s.dec (Bytes.sub_string buf 0 k);
                    drain_msgs s
                | exception Unix.Unix_error ((Unix.EBADF | Unix.EPIPE | Unix.ECONNRESET), _, _)
                  ->
                    reap s))
          readable;
        (* preemptive wall-clock deadline: a silent busy worker is dead
           to us — SIGKILL it (works on SIGSTOPped processes too) and
           let the EOF path account for the death *)
        let now = Unix.gettimeofday () in
        Array.iter
          (fun s ->
            if
              s.alive && s.running <> None && (not s.preempted)
              && now -. s.last_beat > deadline_s
            then begin
              s.preempted <- true;
              incr preempted;
              try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()
            end)
          slots
      done;
      (* done, interrupted or fully retired: kill the stragglers;
         anything unfinished stays P_not_run *)
      shutdown := true;
      Array.iter kill_slot slots);
  ( outcomes,
    {
      p_workers = workers;
      p_spawned = !spawned;
      p_deaths = !deaths;
      p_preempted = !preempted;
      p_redeals = !redeals;
      p_garbage = !garbage;
      p_retired = !retired_n;
    } )

(* --- worker side --- *)

let worker_main (make : string -> Unit_wire.t -> Unit_wire.verdict * int) : unit =
  Chaos.mark_worker ();
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let proto_in = Unix.dup Unix.stdin in
  let proto_out = Unix.dup Unix.stdout in
  (* point fd 1 (and with it OCaml's stdout channel) at /dev/null so a
     stray print inside unit code cannot corrupt the frame stream — the
     decoder's resync is the backstop, not the plan *)
  (try
     let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     Unix.dup2 devnull Unix.stdout;
     Unix.close devnull
   with Unix.Unix_error _ -> ());
  let dec = Unit_wire.decoder () in
  let buf = Bytes.create 65536 in
  let send_raw s =
    try write_all proto_out s 0 (String.length s)
    with Unix.Unix_error _ -> exit 0 (* coordinator is gone *)
  in
  let send m = send_raw (Unit_wire.encode m) in
  let rec recv () =
    match Unit_wire.next dec with
    | Some m -> Some m
    | None -> (
        match Unix.read proto_in buf 0 (Bytes.length buf) with
        | 0 -> None
        | k ->
            Unit_wire.feed dec (Bytes.sub_string buf 0 k);
            recv ()
        | exception Unix.Unix_error _ -> None)
  in
  let handler =
    match recv () with
    | Some (Unit_wire.Hello config) -> make config
    | _ -> exit 3 (* protocol error: no Hello *)
  in
  let rec loop () =
    match recv () with
    | None | Some Unit_wire.Bye -> exit 0
    | Some (Unit_wire.Unit u) ->
        (* the Ack doubles as the heartbeat: it restarts the
           coordinator's wall-clock deadline for this unit *)
        send (Unit_wire.Ack { index = u.Unit_wire.w_index; attempt = u.Unit_wire.w_attempt });
        let verdict, attempts = handler u in
        (match Chaos.take_pending_garbage () with
        | Some g -> send_raw g
        | None -> ());
        send
          (Unit_wire.Result
             { index = u.Unit_wire.w_index; attempt = u.Unit_wire.w_attempt; attempts; verdict });
        loop ()
    | Some _ -> loop () (* stray frame: ignore *)
  in
  loop ()
