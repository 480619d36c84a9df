let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* FNV-1a steps a zero byte with a bare multiply (xor with 0 is the
   identity), so an all-zero 8-byte word advances the state by one multiply
   with [fnv_prime]^8 mod 2^64 — exactly the eight byte steps it replaces.
   Recorded pages are mostly zero words. *)
let fnv_prime8 =
  let p = ref 1L in
  for _ = 1 to 8 do
    p := Int64.mul !p fnv_prime
  done;
  !p

let fnv1a_fold seed b ~pos ~len =
  let h = ref seed and i = ref pos in
  let words_end = pos + (len land lnot 7) and stop = pos + len in
  while !i < words_end do
    if Int64.equal (Bytes.get_int64_le b !i) 0L then h := Int64.mul !h fnv_prime8
    else
      for k = !i to !i + 7 do
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b k)))) fnv_prime
      done;
    i := !i + 8
  done;
  for k = words_end to stop - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b k)))) fnv_prime
  done;
  !h

let fnv1a_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Hashing.fnv1a_sub: slice out of bounds";
  fnv1a_fold fnv_offset b ~pos ~len

let fnv1a_bytes ?(seed = fnv_offset) b = fnv1a_fold seed b ~pos:0 ~len:(Bytes.length b)

let fnv1a_string s = fnv1a_bytes (Bytes.unsafe_of_string s)

let combine a b =
  let h = Int64.logxor a (Int64.add b 0x9E3779B97F4A7C15L) in
  Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) fnv_prime

let hmac ~key data =
  let inner = fnv1a_bytes ~seed:(fnv1a_string ("grt-ipad:" ^ key)) data in
  let outer_seed = fnv1a_string ("grt-opad:" ^ key) in
  combine outer_seed inner

(* Process-internal memo key: FNV-style fold over 8-byte words, so the
   dependency chain advances a word at a time instead of a byte at a time.
   Never serialized — collisions only cost the caller's full comparison. *)
let quick ?(seed = 0x1B873593) b =
  let n = Bytes.length b in
  let h = ref (seed + n) in
  let i = ref 0 in
  while !i + 8 <= n do
    h := (!h lxor Int64.to_int (Bytes.get_int64_le b !i)) * 0x100000001B3;
    i := !i + 8
  done;
  while !i < n do
    h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * 0x100000001B3;
    incr i
  done;
  !h

let crc_table =
  lazy
    (let t = Array.make 256 0l in
     for n = 0 to 255 do
       let c = ref (Int32.of_int n) in
       for _ = 0 to 7 do
         if Int32.logand !c 1l <> 0l then
           c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
         else c := Int32.shift_right_logical !c 1
       done;
       t.(n) <- !c
     done;
     t)

let crc32 b =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = 0 to Bytes.length b - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
