type t = { mutable data : bytes; mutable len : int }

let create ?(capacity = 64) () = { data = Bytes.create (max 1 capacity); len = 0 }

let length t = t.len

let clear t = t.len <- 0

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.data then begin
    let cap = ref (Bytes.length t.data * 2) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit t.data 0 fresh 0 t.len;
    t.data <- fresh
  end

let contents t = Bytes.sub t.data 0 t.len

let add_u8 t v =
  ensure t 1;
  Bytes.unsafe_set t.data t.len (Char.unsafe_chr (v land 0xFF));
  t.len <- t.len + 1

let add_u16 t v =
  add_u8 t v;
  add_u8 t (v lsr 8)

let add_u32 t v =
  add_u16 t v;
  add_u16 t (v lsr 16)

let add_i64 t v =
  ensure t 8;
  Bytes.set_int64_le t.data t.len v;
  t.len <- t.len + 8

let add_varint t v =
  if v < 0 then invalid_arg "Byte_buf.add_varint: negative";
  let rec go v =
    if v < 0x80 then add_u8 t v
    else begin
      add_u8 t (0x80 lor (v land 0x7F));
      go (v lsr 7)
    end
  in
  go v

let add_sub t b ~pos ~len =
  ensure t len;
  Bytes.blit b pos t.data t.len len;
  t.len <- t.len + len

let add_bytes t b = add_sub t b ~pos:0 ~len:(Bytes.length b)

let add_string t s =
  add_varint t (String.length s);
  add_sub t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

module Reader = struct
  type r = { src : bytes; mutable pos : int }

  let of_bytes src = { src; pos = 0 }

  let pos r = r.pos

  let remaining r = Bytes.length r.src - r.pos

  let need r n =
    if n < 0 then failwith "Byte_buf.Reader: negative length";
    if remaining r < n then failwith "Byte_buf.Reader: truncated input"

  let u8 r =
    need r 1;
    let v = Char.code (Bytes.get r.src r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let lo = u8 r in
    let hi = u8 r in
    lo lor (hi lsl 8)

  let u32 r =
    let lo = u16 r in
    let hi = u16 r in
    lo lor (hi lsl 16)

  let i64 r =
    need r 8;
    let v = Bytes.get_int64_le r.src r.pos in
    r.pos <- r.pos + 8;
    v

  (* [add_varint] writes at most [max_int]: nine 7-bit groups, the ninth
     below 0x40. Anything longer would wrap into a negative int. *)
  let varint r =
    let rec go shift acc =
      let b = u8 r in
      if shift = 56 && b >= 0x40 then failwith "Byte_buf.Reader: varint exceeds 62 bits";
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bytes r n =
    need r n;
    let b = Bytes.sub r.src r.pos n in
    r.pos <- r.pos + n;
    b

  let string r =
    let n = varint r in
    Bytes.to_string (bytes r n)
end
