(* Serializable unit wire protocol between the campaign coordinator and
   its worker processes (the procpool).

   Framing follows the journal's armouring discipline: every message is
   one text line,

     vmw1|<len:8 hex>|<md5 hex of payload>|<payload, hex-armoured>\n

   where the payload is [Marshal] output.  The length is the payload's
   byte count before armouring.  Because frames are length-prefixed and
   checksummed, a torn frame (worker killed mid-write), injected
   garbage, or a stray print that escaped onto the protocol pipe is a
   counted incident the decoder resynchronises past — [Marshal] never
   sees unverified bytes, exactly like the store and the journal.

   The decoder resynchronises *within* a line too: garbage written
   without a trailing newline glues onto the front of the next valid
   frame, so after a failed decode it scans for the magic at a later
   offset and retries the suffix. *)

type t = {
  w_index : int; (* stable global unit index — the merge key *)
  w_attempt : int; (* supervisor-side deal count, 1-based *)
  w_key : string; (* journal unit key, for logs and sanity checks *)
  w_payload : string; (* marshalled task-specific unit description *)
}

type verdict =
  | W_ok of string (* marshalled task-specific result *)
  | W_timed_out of string
  | W_crashed of { exn : string; backtrace : string }

type msg =
  | Hello of string (* coordinator -> worker: marshalled run config *)
  | Unit of t (* coordinator -> worker: one unit to execute *)
  | Ack of { index : int; attempt : int } (* worker heartbeat at unit start *)
  | Result of { index : int; attempt : int; attempts : int; verdict : verdict }
  | Bye (* coordinator -> worker: drain and exit 0 *)

let magic = "vmw1|"

(* --- pure frame codec --- *)

let encode m =
  let payload = Marshal.to_string m [] in
  Printf.sprintf "%s%08x|%s|%s\n" magic (String.length payload)
    (Hex.digest payload) (Hex.encode payload)

(* [line] excludes the trailing newline.  Any malformation — wrong
   magic, bad length, checksum mismatch, unmarshallable payload — is
   [None], never an exception. *)
let decode_line line : msg option =
  let ml = String.length magic in
  (* vmw1| 8-hex | 32-hex | at least zero payload chars *)
  if String.length line < ml + 8 + 1 + 32 + 1 then None
  else if String.sub line 0 ml <> magic then None
  else
    match int_of_string ("0x" ^ String.sub line ml 8) with
    | exception _ -> None
    | len ->
        if len < 0 || line.[ml + 8] <> '|' || line.[ml + 41] <> '|' then None
        else
          let sum = String.sub line (ml + 9) 32 in
          let hex_start = ml + 42 in
          if String.length line <> hex_start + (2 * len) then None
          else begin
            match Hex.decode (String.sub line hex_start (2 * len)) with
            | exception _ -> None
            | payload ->
                if Hex.digest payload <> sum then None
                else ( try Some (Marshal.from_string payload 0 : msg) with _ -> None)
          end

(* --- incremental decoder with garbage accounting --- *)

type decoder = {
  mutable dpending : string; (* bytes received, no complete line yet *)
  dqueue : msg Queue.t;
  mutable dgarbage : int; (* invalid lines / torn frames recovered past *)
}

let decoder () = { dpending = ""; dqueue = Queue.create (); dgarbage = 0 }

let find_magic line from =
  let n = String.length line and m = String.length magic in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = magic then Some i
    else go (i + 1)
  in
  go from

let rec handle_line d line =
  if String.length line <> 0 then
    match decode_line line with
    | Some m -> Queue.add m d.dqueue
    | None -> (
        d.dgarbage <- d.dgarbage + 1;
        (* resync: garbage glued in front of a valid frame *)
        match find_magic line 1 with
        | Some i -> handle_line d (String.sub line i (String.length line - i))
        | None -> ())

let feed d s =
  d.dpending <- d.dpending ^ s;
  let rec go () =
    match String.index_opt d.dpending '\n' with
    | None -> ()
    | Some i ->
        let line = String.sub d.dpending 0 i in
        d.dpending <-
          String.sub d.dpending (i + 1) (String.length d.dpending - i - 1);
        handle_line d line;
        go ()
  in
  go ()

let next d = Queue.take_opt d.dqueue
let garbage d = d.dgarbage
let pending d = String.length d.dpending

(* A writer that died mid-frame leaves a newline-less tail; at EOF it
   is either a complete frame missing only its newline or a counted
   torn frame. *)
let eof d =
  let rest = d.dpending in
  d.dpending <- "";
  if String.length rest <> 0 then handle_line d rest
