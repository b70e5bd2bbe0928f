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

(* Digit value by character code, -1 for a non-digit: every result
   frame and store header is decoded, so this runs once per byte of
   everything a worker sends. *)
let nibbles =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) digits;
  String.iteri (fun i c -> t.(Char.code c) <- 10 + i) "ABCDEF";
  t

let nibble s i =
  let c = String.unsafe_get s i in
  let v = Array.unsafe_get nibbles (Char.code c) in
  if v < 0 then failwith (Printf.sprintf "bad hex digit %C" c) else v

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then failwith "odd hex";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.unsafe_set b i
      (Char.unsafe_chr ((nibble s (2 * i) lsl 4) lor nibble s ((2 * i) + 1)))
  done;
  Bytes.unsafe_to_string b

let digest s = Digest.to_hex (Digest.string s)
