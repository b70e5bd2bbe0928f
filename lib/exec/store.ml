(* The persistent content-addressed cache (the on-disk counterpart of
   {!Memo}).

   Layout: one file per entry under a two-level sharded directory,

     <dir>/<s>/<h>    where <s><h> = md5_hex(namespace NUL key)

   so entries are addressed purely by content (namespace + full cache
   key), never by enumeration order, and concurrent writers of the same
   key write the same bytes.  Each entry is a JSON header line followed
   by the raw payload:

     {"store":"vmtest-store","version":1,"ns":"<hex>","key":"<hex>",
      "len":N,"sum":"<md5 hex of payload>"}
     <payload bytes>

   The header records the *full* namespace and key (hex-armoured), so a
   read verifies it got the entry it asked for — an md5 collision or a
   foreign file is a miss, not a wrong answer.  Torn writes, truncation,
   bit flips, and version/format drift are all tolerated exactly like
   the supervision journal: any anomaly makes the entry a miss, never a
   crash, and the payload checksum is verified *before* the bytes are
   handed back (callers unmarshal them, and [Marshal] must never see
   unverified input).

   Writes go through a temp file + [Sys.rename] so a reader never
   observes a half-written entry under the final name.  Two processes
   racing on the same key write identical bytes (entries are
   deterministic per key), so the race is benign whichever rename wins.

   Key discipline: the namespace carries the layer name and its schema
   version (e.g. "path-summary:1" — bump it whenever the marshalled
   type changes); the key carries the config fingerprint of everything
   the cached value depends on, including {!Jit.Fault.cache_tag} for
   layers whose values depend on compiled code, so mutant entries can
   never hit pristine lookups. *)

type t = {
  dir : string;
  hits : int Atomic.t; (* valid entry found *)
  misses : int Atomic.t; (* nothing usable on disk *)
  loads : int Atomic.t; (* read attempts against an existing file *)
  writes : int Atomic.t; (* entries persisted *)
}

type stats = { hits : int; misses : int; loads : int; writes : int }

let open_store ~dir =
  {
    dir;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    loads = Atomic.make 0;
    writes = Atomic.make 0;
  }

let dir t = t.dir

let stats (t : t) : stats =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    loads = Atomic.get t.loads;
    writes = Atomic.get t.writes;
  }

let reset_stats (t : t) =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.loads 0;
  Atomic.set t.writes 0

(* --- addressing --- *)

let entry_path t ~ns ~key =
  let h = Hex.digest (ns ^ "\x00" ^ key) in
  Filename.concat t.dir
    (Filename.concat (String.sub h 0 2) (String.sub h 2 (String.length h - 2)))

let ensure_dir d =
  if not (Sys.file_exists d) then
    try Sys.mkdir d 0o755 with Sys_error _ -> ()

(* --- entry format --- *)

let header ~ns ~key payload =
  Printf.sprintf
    "{\"store\":\"vmtest-store\",\"version\":1,\"ns\":\"%s\",\"key\":\"%s\",\"len\":%d,\"sum\":\"%s\"}\n"
    (Hex.encode ns) (Hex.encode key) (String.length payload)
    (Hex.digest payload)

(* Minimal parser for the exact header we write (journal style: enough
   to read our own lines back, never a general-purpose parser). *)

let expect line pos lit =
  let n = String.length lit in
  if !pos + n > String.length line || String.sub line !pos n <> lit then
    failwith ("expected " ^ lit);
  pos := !pos + n

let parse_until line pos stop =
  let start = !pos in
  while !pos < String.length line && line.[!pos] <> stop do
    incr pos
  done;
  if !pos >= String.length line then failwith "unterminated field";
  String.sub line start (!pos - start)

let parse_header line =
  let pos = ref 0 in
  expect line pos "{\"store\":\"vmtest-store\",\"version\":1,\"ns\":\"";
  let ns = Hex.decode (parse_until line pos '"') in
  expect line pos "\",\"key\":\"";
  let key = Hex.decode (parse_until line pos '"') in
  expect line pos "\",\"len\":";
  let len = int_of_string (parse_until line pos ',') in
  expect line pos ",\"sum\":\"";
  let sum = parse_until line pos '"' in
  expect line pos "\"}";
  if !pos <> String.length line then failwith "trailing header bytes";
  (ns, key, len, sum)

(* --- read / write --- *)

let find t ~ns ~key : string option =
  let path = entry_path t ~ns ~key in
  let verdict =
    if not (Sys.file_exists path) then None
    else begin
      Atomic.incr t.loads;
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              try
                let line = input_line ic in
                let e_ns, e_key, len, sum = parse_header line in
                if e_ns <> ns || e_key <> key then None
                else if len < 0 then None
                else begin
                  let payload = really_input_string ic len in
                  (* strict: trailing bytes mean the entry was damaged *)
                  if pos_in ic <> in_channel_length ic then None
                  else if Hex.digest payload <> sum then
                    None
                  else Some payload
                end
              with _ -> None)
    end
  in
  (match verdict with
  | Some _ -> Atomic.incr t.hits
  | None -> Atomic.incr t.misses);
  verdict

(* Distinct temp names per writer: two *processes* (or domains) racing
   the same key must each stage into their own file — a shared ".tmp"
   name would interleave their writes and could rename a torn entry
   into place.  Racing renames of complete files remain benign: the
   entries are byte-identical, whichever wins. *)
let tmp_seq = Atomic.make 0

let add t ~ns ~key payload =
  try
    let path = entry_path t ~ns ~key in
    ensure_dir t.dir;
    ensure_dir (Filename.dirname path);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (header ~ns ~key payload);
        output_string oc payload);
    Sys.rename tmp path;
    Atomic.incr t.writes
  with Sys_error _ | Failure _ -> () (* a full/read-only disk drops writes *)

(* --- process-global activation --- *)

let active_store : t option Atomic.t = Atomic.make None

let activate d = Atomic.set active_store (Some (open_store ~dir:d))
let deactivate () = Atomic.set active_store None
let active () = Atomic.get active_store
let enabled () = Atomic.get active_store <> None

let activate_opt = function
  | Some d -> activate d
  | None -> (
      match Sys.getenv_opt "VMTEST_STORE" with
      | Some d when String.trim d <> "" -> activate d
      | _ -> ())

let counters () =
  match Atomic.get active_store with
  | None -> { hits = 0; misses = 0; loads = 0; writes = 0 }
  | Some t -> stats t

let reset_counters () =
  match Atomic.get active_store with
  | None -> ()
  | Some t -> reset_stats t

(* --- marshalling wrappers (the memo layers' entry points) --- *)

let lookup ~ns ~key =
  match Atomic.get active_store with
  | None -> None
  | Some t -> (
      match find t ~ns ~key with
      | None -> None
      | Some payload -> (
          (* the checksum already vouched for the bytes; this guard only
             catches schema drift within an unbumped namespace *)
          try Some (Marshal.from_string payload 0) with _ -> None))

let record ~ns ~key v =
  match Atomic.get active_store with
  | None -> ()
  | Some t -> add t ~ns ~key (Marshal.to_string v [])
