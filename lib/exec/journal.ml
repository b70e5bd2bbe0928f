type status = Ok | Timed_out | Crashed | Worker_died

type entry = {
  key : string;
  status : status;
  attempts : int;
  detail : string;
  payload : string;
}

let status_name = function
  | Ok -> "ok"
  | Timed_out -> "timed_out"
  | Crashed -> "crashed"
  | Worker_died -> "worker_died"

let status_of_name = function
  | "ok" -> Ok
  | "timed_out" -> Timed_out
  | "crashed" -> Crashed
  | "worker_died" -> Worker_died
  | s -> failwith ("unknown journal status " ^ s)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Version 2 added the payload checksum ("sum"); a version-1 journal
   has no valid header for this reader and is ignored. *)
let header_prefix = "{\"journal\":\"vmtest-supervise\",\"version\":2,\"config\":"

let write_header oc ~config =
  Printf.fprintf oc "%s\"%s\"}\n" header_prefix (json_escape config);
  flush oc

let open_append ~config file =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file in
  if out_channel_length oc = 0 then write_header oc ~config;
  oc

let append ?(sync = false) oc e =
  Printf.fprintf oc
    "{\"key\":\"%s\",\"status\":\"%s\",\"attempts\":%d,\"detail\":\"%s\",\"sum\":\"%s\",\"payload\":\"%s\"}\n"
    (json_escape e.key) (status_name e.status) e.attempts (json_escape e.detail)
    (Hex.digest e.payload) (Hex.encode e.payload);
  flush oc;
  (* [--journal-sync]: force the line to stable storage so even a
     power-cut-style kill resumes byte-identically.  The default only
     flushes to the OS — a killed *process* loses nothing, a killed
     *machine* may lose the tail (and resume then recomputes it). *)
  if sync then try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* Minimal parser for the exact shape we write: enough JSON to read our
   own lines back, never a general-purpose parser. *)

let parse_string s pos =
  if String.length s <= !pos || s.[!pos] <> '"' then failwith "expected string";
  incr pos;
  let buf = Buffer.create 32 in
  let rec go () =
    if !pos >= String.length s then failwith "unterminated string";
    match s.[!pos] with
    | '"' -> incr pos; Buffer.contents buf
    | '\\' ->
        incr pos;
        if !pos >= String.length s then failwith "dangling escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if !pos + 4 >= String.length s then failwith "short \\u escape";
            let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
            pos := !pos + 4;
            if code > 0xff then failwith "non-latin \\u escape"
            else Buffer.add_char buf (Char.chr code)
        | c -> failwith (Printf.sprintf "unknown escape \\%c" c));
        incr pos;
        go ()
    | c -> Buffer.add_char buf c; incr pos; go ()
  in
  go ()

let expect s pos lit =
  let n = String.length lit in
  if !pos + n > String.length s || String.sub s !pos n <> lit then
    failwith ("expected " ^ lit);
  pos := !pos + n

let parse_int s pos =
  let start = !pos in
  while
    !pos < String.length s && (match s.[!pos] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr pos
  done;
  if !pos = start then failwith "expected int";
  int_of_string (String.sub s start (!pos - start))

let parse_header line =
  let pos = ref 0 in
  expect line pos header_prefix;
  let config = parse_string line pos in
  expect line pos "}";
  config

let parse_entry line =
  let pos = ref 0 in
  expect line pos "{\"key\":";
  let key = parse_string line pos in
  expect line pos ",\"status\":";
  let status = status_of_name (parse_string line pos) in
  expect line pos ",\"attempts\":";
  let attempts = parse_int line pos in
  expect line pos ",\"detail\":";
  let detail = parse_string line pos in
  expect line pos ",\"sum\":";
  let sum = parse_string line pos in
  expect line pos ",\"payload\":";
  let payload = Hex.decode (parse_string line pos) in
  expect line pos "}";
  (* a flipped payload digit must never reach a decoder *)
  if Hex.digest payload <> sum then failwith "payload checksum mismatch";
  { key; status; attempts; detail; payload }

let load ~config file =
  let tbl = Hashtbl.create 64 in
  (match open_in file with
  | exception Sys_error msg ->
      Printf.eprintf "warning: cannot read journal %s (%s); starting fresh\n%!" file msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file ->
              Printf.eprintf "warning: journal %s is empty; starting fresh\n%!" file
          | first -> (
              match parse_header first with
              | exception _ ->
                  Printf.eprintf
                    "warning: journal %s has no valid header; ignoring it\n%!" file
              | found when found <> config ->
                  Printf.eprintf
                    "warning: journal %s was written under a different configuration; \
                     ignoring it\n\
                     %!"
                    file
              | _ ->
                  let rec go () =
                    match input_line ic with
                    | exception End_of_file -> ()
                    | line ->
                        (match parse_entry line with
                        | e -> Hashtbl.replace tbl e.key e
                        | exception _ -> () (* torn, corrupt or foreign line: skip *));
                        go ()
                  in
                  go ())));
  tbl

(* The only mapping between journal lines and supervisor verdicts. *)

let entry_of_outcome ~key ~encode (o : _ Supervise.outcome) =
  let entry status detail payload =
    { key; status; attempts = o.attempts; detail; payload }
  in
  match o.verdict with
  | Supervise.Ok r -> entry Ok "" (encode r)
  | Supervise.Timed_out reason -> entry Timed_out reason ""
  | Supervise.Unit_crashed f -> entry Crashed f.exn ""
  | Supervise.Worker_died status ->
      (* journaled so a resume skips the poison unit instead of
         re-dying on it *)
      entry Worker_died status ""
  | Supervise.Quarantined _ -> invalid_arg "Journal.entry_of_outcome: quarantined"

let outcome_of_entry ~decode e : _ Supervise.outcome =
  let verdict =
    match e.status with
    | Ok -> Supervise.Ok (decode e.payload)
    | Timed_out -> Supervise.Timed_out e.detail
    | Crashed -> Supervise.Unit_crashed { exn = e.detail; backtrace = "" }
    | Worker_died -> Supervise.Worker_died e.detail
  in
  { verdict; attempts = e.attempts }
