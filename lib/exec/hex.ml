(* The one hex armour of the execution layer: journal payloads, wire
   frames and store headers all travel as lowercase hex, so no byte of
   a payload can ever look like a delimiter. *)

let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | c -> failwith (Printf.sprintf "bad hex digit %C" c)

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then failwith "odd hex";
  String.init (n / 2) (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let digest s = Digest.to_hex (Digest.string s)
