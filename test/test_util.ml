(* Unit and property tests for Grt_util: RNG, byte buffers, hashing, the
   range coder, the delta codec and symbolic expressions. *)

module Rng = Grt_util.Rng
module Byte_buf = Grt_util.Byte_buf
module Hashing = Grt_util.Hashing
module Range_coder = Grt_util.Range_coder
module Delta = Grt_util.Delta
module Sexpr = Grt_util.Sexpr

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Rng ---- *)

let rng_deterministic () =
  let a = Rng.create ~seed:1234L and b = Rng.create ~seed:1234L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  check Alcotest.bool "different streams" false (Int64.equal (Rng.next64 a) (Rng.next64 b))

let rng_int_bounds () =
  let r = Rng.create ~seed:99L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let rng_int_rejects_nonpositive () =
  let r = Rng.create ~seed:1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let rng_float_bounds () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let rng_int64_range () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Rng.int64_range r (-10L) 10L in
    if Int64.compare v (-10L) < 0 || Int64.compare v 10L >= 0 then
      Alcotest.failf "out of range: %Ld" v
  done

let rng_copy_independent () =
  let a = Rng.create ~seed:7L in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let rng_split_diverges () =
  let a = Rng.create ~seed:7L in
  let b = Rng.split a in
  check Alcotest.bool "split stream differs" false (Int64.equal (Rng.next64 a) (Rng.next64 b))

let rng_bytes_len () =
  let r = Rng.create ~seed:3L in
  check Alcotest.int "bytes length" 133 (Bytes.length (Rng.bytes r 133))

(* ---- Byte_buf ---- *)

let byte_buf_primitives () =
  let b = Byte_buf.create () in
  Byte_buf.add_u8 b 0xAB;
  Byte_buf.add_u16 b 0xBEEF;
  Byte_buf.add_u32 b 0xDEADBEEF;
  Byte_buf.add_i64 b (-42L);
  Byte_buf.add_string b "hello";
  let r = Byte_buf.Reader.of_bytes (Byte_buf.contents b) in
  check Alcotest.int "u8" 0xAB (Byte_buf.Reader.u8 r);
  check Alcotest.int "u16" 0xBEEF (Byte_buf.Reader.u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Byte_buf.Reader.u32 r);
  check Alcotest.int64 "i64" (-42L) (Byte_buf.Reader.i64 r);
  check Alcotest.string "string" "hello" (Byte_buf.Reader.string r);
  check Alcotest.int "fully consumed" 0 (Byte_buf.Reader.remaining r)

let byte_buf_varint_roundtrip () =
  List.iter
    (fun v ->
      let b = Byte_buf.create () in
      Byte_buf.add_varint b v;
      let r = Byte_buf.Reader.of_bytes (Byte_buf.contents b) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Byte_buf.Reader.varint r))
    [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1_000_000; max_int / 2; max_int ]

let byte_buf_varint_negative () =
  let b = Byte_buf.create () in
  Alcotest.check_raises "negative rejected" (Invalid_argument "Byte_buf.add_varint: negative")
    (fun () -> Byte_buf.add_varint b (-1))

let byte_buf_truncation () =
  let r = Byte_buf.Reader.of_bytes (Bytes.create 2) in
  ignore (Byte_buf.Reader.u16 r);
  Alcotest.check_raises "truncated" (Failure "Byte_buf.Reader: truncated input") (fun () ->
      ignore (Byte_buf.Reader.u8 r))

(* Forged lengths: a varint past 62 bits would wrap negative, and a
   negative length must never reach [Bytes.sub]. Both are [Failure]. *)
let byte_buf_forged_lengths () =
  let reader s = Byte_buf.Reader.of_bytes (Bytes.of_string s) in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure _ -> ()
  in
  raises "wraps negative" (fun () ->
      Byte_buf.Reader.varint (reader "\x80\x80\x80\x80\x80\x80\x80\x80\x40"));
  raises "ten groups" (fun () ->
      Byte_buf.Reader.varint (reader "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"));
  raises "negative length" (fun () -> Byte_buf.Reader.bytes (reader "abcd") (-1));
  raises "string of forged length" (fun () ->
      Byte_buf.Reader.string (reader "\x80\x80\x80\x80\x80\x80\x80\x80\x40abcd"));
  check Alcotest.int "largest 9-byte varint" max_int
    (Byte_buf.Reader.varint (reader "\xff\xff\xff\xff\xff\xff\xff\xff\x3f"))

let byte_buf_growth () =
  let b = Byte_buf.create ~capacity:1 () in
  for i = 0 to 9999 do
    Byte_buf.add_u8 b (i land 0xFF)
  done;
  check Alcotest.int "length" 10000 (Byte_buf.length b);
  let c = Byte_buf.contents b in
  check Alcotest.int "content survives growth" 0x0F (Char.code (Bytes.get c 0x0F))

let byte_buf_clear () =
  let b = Byte_buf.create () in
  Byte_buf.add_u32 b 7;
  Byte_buf.clear b;
  check Alcotest.int "cleared" 0 (Byte_buf.length b)

(* ---- Hashing ---- *)

let hashing_stable () =
  check Alcotest.int64 "fnv1a of empty" (Hashing.fnv1a_string "")
    (Hashing.fnv1a_bytes Bytes.empty);
  check Alcotest.bool "distinct inputs differ" false
    (Int64.equal (Hashing.fnv1a_string "abc") (Hashing.fnv1a_string "abd"))

let hashing_sub_consistent () =
  let b = Bytes.of_string "hello world" in
  check Alcotest.int64 "sub = whole" (Hashing.fnv1a_bytes b)
    (Hashing.fnv1a_sub b ~pos:0 ~len:(Bytes.length b));
  check Alcotest.bool "different slice differs" false
    (Int64.equal (Hashing.fnv1a_sub b ~pos:0 ~len:5) (Hashing.fnv1a_sub b ~pos:6 ~len:5))

let hashing_hmac_keys () =
  let data = Bytes.of_string "payload" in
  check Alcotest.bool "different keys differ" false
    (Int64.equal (Hashing.hmac ~key:"k1" data) (Hashing.hmac ~key:"k2" data))

let crc32_known () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  check Alcotest.int32 "crc32 check value" 0xCBF43926l
    (Hashing.crc32 (Bytes.of_string "123456789"))

let crc32_detects_flip () =
  let b = Bytes.of_string "some frame payload" in
  let c1 = Hashing.crc32 b in
  Bytes.set b 3 'X';
  check Alcotest.bool "flip detected" false (Int32.equal c1 (Hashing.crc32 b))

(* ---- Range coder ---- *)

let rc_roundtrip_cases () =
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      let enc = Range_coder.encode b in
      check Alcotest.bytes ("roundtrip " ^ String.escaped (String.sub s 0 (min 8 (String.length s))))
        b (Range_coder.decode enc))
    [
      "";
      "a";
      "aaaa";
      "hello world";
      String.make 10_000 '\000';
      String.init 256 Char.chr;
      String.concat "" (List.init 64 (fun i -> Printf.sprintf "line %d\n" i));
    ]

let rc_compresses_sparse () =
  let b = Bytes.make 4096 '\000' in
  let ratio = Range_coder.ratio b in
  if ratio > 0.05 then Alcotest.failf "sparse page should compress hard, got %.3f" ratio

let rc_random_data_no_explosion () =
  let r = Rng.create ~seed:11L in
  let b = Rng.bytes r 4096 in
  let enc = Range_coder.encode b in
  if Bytes.length enc > 4096 + 256 then
    Alcotest.failf "incompressible data exploded: %d" (Bytes.length enc)

let rc_qcheck_roundtrip =
  qtest "range coder roundtrips arbitrary bytes"
    QCheck2.Gen.(string_size (int_bound 3000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Range_coder.decode (Range_coder.encode b)))

let rc_qcheck_sparse =
  qtest ~count:50 "range coder roundtrips sparse pages"
    QCheck2.Gen.(list_size (int_bound 64) (pair (int_bound 4095) (int_bound 255)))
    (fun edits ->
      let b = Bytes.make 4096 '\000' in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
      Bytes.equal b (Range_coder.decode (Range_coder.encode b)))

let rc_guarded_random_bounded () =
  (* The guarded container stores raw whenever coding would expand, so its
     output is never more than one tag byte over the input — even on
     incompressible random bytes, where plain [encode] may expand. *)
  let r = Rng.create ~seed:23L in
  for _ = 1 to 32 do
    let b = Rng.bytes r (Rng.int r 5000) in
    let enc = Range_coder.encode_guarded b in
    if Bytes.length enc > Bytes.length b + 1 then
      Alcotest.failf "guarded output expanded: %d -> %d" (Bytes.length b) (Bytes.length enc);
    check Alcotest.bytes "guarded roundtrip (random)" b (Range_coder.decode_guarded enc)
  done

let rc_guarded_compressible () =
  let b = Bytes.make 4096 '\000' in
  let enc = Range_coder.encode_guarded b in
  if Bytes.length enc >= 4096 then
    Alcotest.failf "guarded output should still compress sparse pages: %d" (Bytes.length enc);
  check Alcotest.bytes "guarded roundtrip (sparse)" b (Range_coder.decode_guarded enc)

let rc_guarded_rejects_garbage () =
  Alcotest.check_raises "empty input" (Failure "Range_coder.decode_guarded: empty input")
    (fun () -> ignore (Range_coder.decode_guarded Bytes.empty));
  Alcotest.check_raises "bad tag" (Failure "Range_coder.decode_guarded: bad tag 7") (fun () ->
      ignore (Range_coder.decode_guarded (Bytes.of_string "\007abc")))

(* Shaped buffers for codec fuzzing: the degenerate inputs memsync traffic
   rarely produces — empty, single-byte, all-equal runs, seeded
   incompressible noise — alongside arbitrary strings. *)
let gen_shaped_bytes =
  QCheck2.Gen.(
    oneof
      [
        return Bytes.empty;
        map (fun c -> Bytes.make 1 c) char;
        map2 (fun n c -> Bytes.make n c) (int_range 1 8192) char;
        map2
          (fun seed n -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n)
          int (int_range 1 8192);
        map Bytes.of_string (string_size (int_bound 4096));
      ])

let rc_qcheck_shaped =
  qtest ~count:300 "range coder roundtrips shaped buffers"
    gen_shaped_bytes
    (fun b ->
      let enc = Range_coder.encode b in
      Bytes.equal b (Range_coder.decode enc)
      (* Incompressible input must not blow up the wire either. *)
      && Bytes.length enc <= Bytes.length b + 256)

let rc_qcheck_guarded =
  qtest ~count:300 "guarded range coder bounded and roundtrips shaped buffers" gen_shaped_bytes
    (fun b ->
      let enc = Range_coder.encode_guarded b in
      Bytes.length enc <= Bytes.length b + 1 && Bytes.equal b (Range_coder.decode_guarded enc))

(* ---- Range coder against the per-byte oracle ----

   The coder as first written: a frequency-array model module, a bit
   writer and a bit reader, each called per symbol or per bit. Kept only as
   the oracle the single-loop coder must match bit for bit, both ways. *)
module Per_byte_coder = struct
  let whole = 1 lsl 32
  let half = whole lsr 1
  let quarter = whole lsr 2
  let three_quarter = half + quarter
  let max_total = (1 lsl 16) - 1

  type model = { freq : int array; mutable total : int }

  let model () = { freq = Array.make 256 1; total = 256 }

  let cumulative m sym =
    let c = ref 0 in
    for i = 0 to sym - 1 do
      c := !c + m.freq.(i)
    done;
    !c

  let find m target =
    let c = ref 0 and sym = ref 0 in
    while !c + m.freq.(!sym) <= target do
      c := !c + m.freq.(!sym);
      incr sym
    done;
    (!sym, !c)

  let update m sym =
    m.freq.(sym) <- m.freq.(sym) + 24;
    m.total <- m.total + 24;
    if m.total >= max_total then begin
      m.total <- 0;
      for i = 0 to 255 do
        m.freq.(i) <- (m.freq.(i) / 2) + 1;
        m.total <- m.total + m.freq.(i)
      done
    end

  let encode data =
    let out = Byte_buf.create () in
    Byte_buf.add_varint out (Bytes.length data);
    let acc = ref 0 and nbits = ref 0 in
    let put bit =
      acc := (!acc lsl 1) lor bit;
      incr nbits;
      if !nbits = 8 then begin
        Byte_buf.add_u8 out !acc;
        acc := 0;
        nbits := 0
      end
    in
    let m = model () in
    let low = ref 0 and high = ref (whole - 1) and pending = ref 0 in
    let emit bit =
      put bit;
      while !pending > 0 do
        put (1 - bit);
        decr pending
      done
    in
    Bytes.iter
      (fun c ->
        let sym = Char.code c in
        let cum_lo = cumulative m sym in
        let cum_hi = cum_lo + m.freq.(sym) and total = m.total in
        let range = !high - !low + 1 in
        high := !low + (range * cum_hi / total) - 1;
        low := !low + (range * cum_lo / total);
        let continue = ref true in
        while !continue do
          if !high < half then emit 0
          else if !low >= half then begin
            emit 1;
            low := !low - half;
            high := !high - half
          end
          else if !low >= quarter && !high < three_quarter then begin
            incr pending;
            low := !low - quarter;
            high := !high - quarter
          end
          else continue := false;
          if !continue then begin
            low := !low lsl 1;
            high := (!high lsl 1) + 1
          end
        done;
        update m sym)
      data;
    incr pending;
    emit (if !low < quarter then 0 else 1);
    while !nbits <> 0 do
      put 0
    done;
    Byte_buf.contents out

  let decode blob =
    let r = Byte_buf.Reader.of_bytes blob in
    let n = Byte_buf.Reader.varint r in
    let acc = ref 0 and nbits = ref 0 in
    let get () =
      if !nbits = 0 then begin
        acc := (if Byte_buf.Reader.remaining r > 0 then Byte_buf.Reader.u8 r else 0);
        nbits := 8
      end;
      decr nbits;
      (!acc lsr !nbits) land 1
    in
    let out = Bytes.create n and m = model () in
    let low = ref 0 and high = ref (whole - 1) and value = ref 0 in
    for _ = 1 to 32 do
      value := (!value lsl 1) lor get ()
    done;
    for i = 0 to n - 1 do
      let total = m.total and range = !high - !low + 1 in
      let target = min (total - 1) ((((!value - !low + 1) * total) - 1) / range) in
      let sym, cum_lo = find m target in
      let cum_hi = cum_lo + m.freq.(sym) in
      high := !low + (range * cum_hi / total) - 1;
      low := !low + (range * cum_lo / total);
      let continue = ref true in
      while !continue do
        if !high < half then ()
        else if !low >= half then begin
          low := !low - half;
          high := !high - half;
          value := !value - half
        end
        else if !low >= quarter && !high < three_quarter then begin
          low := !low - quarter;
          high := !high - quarter;
          value := !value - quarter
        end
        else continue := false;
        if !continue then begin
          low := !low lsl 1;
          high := (!high lsl 1) + 1;
          value := (!value lsl 1) lor get ()
        end
      done;
      update m sym;
      Bytes.set out i (Char.chr sym)
    done;
    out
end

(* Coder inputs: zero-heavy pages with sparse edits, all-0xFF runs and
   seeded noise, up to well past the 2,720-symbol point where the model
   first rescales. *)
let gen_coder_input =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun n edits ->
            let b = Bytes.make n '\000' in
            if n > 0 then List.iter (fun (i, v) -> Bytes.set b (i mod n) (Char.chr v)) edits;
            b)
          (int_bound 12_000)
          (list_size (int_bound 40) (pair nat (int_bound 255)));
        map (fun n -> Bytes.make n '\xff') (int_bound 12_000);
        map2 (fun seed n -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n) int (int_bound 6_000);
        gen_shaped_bytes;
      ])

let rc_matches_per_byte_oracle =
  qtest ~count:150 "range coder matches the per-byte oracle bit for bit, both ways"
    gen_coder_input
    (fun b ->
      let coded = Range_coder.encode b in
      Bytes.equal coded (Per_byte_coder.encode b)
      && Bytes.equal b (Range_coder.decode coded)
      && Bytes.equal b (Per_byte_coder.decode coded))

let rc_encode_within_is_bounded_encode =
  qtest ~count:150 "encode_within ~limit is encode exactly when it fits"
    QCheck2.Gen.(pair gen_coder_input (int_range (-3) 3))
    (fun (b, slack) ->
      let full = Range_coder.encode b in
      let limit = Bytes.length full + slack in
      match Range_coder.encode_within ~limit b with
      | Some coded -> Bytes.length full <= limit && Bytes.equal coded full
      | None -> Bytes.length full > limit)

let rc_encode_within_extremes () =
  let b = Bytes.make 4096 '\000' in
  Bytes.set b 9 'q';
  check Alcotest.(option bytes) "unbounded" (Some (Range_coder.encode b))
    (Range_coder.encode_within ~limit:max_int b);
  check Alcotest.(option bytes) "limit 0" None (Range_coder.encode_within ~limit:0 b);
  check Alcotest.(option bytes) "negative limit" None (Range_coder.encode_within ~limit:(-1) b);
  check Alcotest.(option bytes) "empty input, exact limit" (Some (Range_coder.encode Bytes.empty))
    (Range_coder.encode_within ~limit:(Bytes.length (Range_coder.encode Bytes.empty)) Bytes.empty)

(* A forged length varint must fail with [Failure] before the decoder
   allocates an output buffer for it, while every genuine encode —
   including the longest zero runs, which cost the fewest bits per
   symbol — stays under the bound. *)
let rc_forged_length_rejected () =
  List.iter
    (fun n ->
      let forged = Byte_buf.create () in
      Byte_buf.add_varint forged n;
      Byte_buf.add_bytes forged (Bytes.of_string "\x12\x34\x56");
      let blob = Byte_buf.contents forged in
      let before = Gc.allocated_bytes () in
      (match Range_coder.decode blob with
      | _ -> Alcotest.failf "declared length %d accepted" n
      | exception Failure _ -> ());
      let spent = Gc.allocated_bytes () -. before in
      if spent > 4096. then Alcotest.failf "rejecting length %d allocated %.0f bytes" n spent)
    [ 1 lsl 40; 1 lsl 20; (256 * 8 * 3) + 1 ];
  List.iter
    (fun (name, b) ->
      check Alcotest.bytes (name ^ " round-trips under the bound") b
        (Range_coder.decode (Range_coder.encode b)))
    [
      ("1 MB of zeros", Bytes.make (1 lsl 20) '\000');
      ("1 MB of 0xFF", Bytes.make (1 lsl 20) '\xff');
    ]

(* ---- the decode memo ----

   A working set of 3,000 distinct blobs (fleet-churn's seed 1 recurs over
   1,597, where a 1,024-entry table thrashed), cycled twice on a fresh
   domain so the memo starts empty: the first pass misses on every blob and
   the second hits on every one. Every result equals the coded input, and a
   caller mutating its result cannot reach a later hit. Past its 4,096-entry
   limit the table is wiped, so it stays bounded. *)
let rc_decode_memo_working_set () =
  let module M = Grt_util.Memo_stats in
  let stats = M.register "rc.decode" in
  let limit = 4096 and n = 3000 in
  let data =
    Array.init (limit + 1) (fun i ->
        let b = Bytes.make 64 '\000' in
        Bytes.set_int64_le b 16 (Int64.of_int (0x6D656D6F_0000 + i));
        b)
  in
  let blobs = Array.map Range_coder.encode data in
  let pass () =
    let before = M.snapshot stats in
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (Bytes.equal (Range_coder.decode blobs.(i)) data.(i)) then ok := false
    done;
    let after = M.snapshot stats in
    (!ok, after.M.s_hits - before.M.s_hits, after.M.s_misses - before.M.s_misses)
  in
  let first, second, mutated, past_limit =
    Domain.join
      (Domain.spawn (fun () ->
           let first = pass () in
           let second = pass () in
           let r = Range_coder.decode blobs.(0) in
           Bytes.fill r 0 (Bytes.length r) '\xff';
           let mutated = Range_coder.decode blobs.(0) in
           for i = n to limit do
             ignore (Range_coder.decode blobs.(i))
           done;
           (first, second, mutated, M.snapshot stats)))
  in
  let ok1, hits1, misses1 = first and ok2, hits2, misses2 = second in
  check Alcotest.bool "first pass decodes exactly" true ok1;
  check Alcotest.(pair int int) "first pass misses every blob" (0, n) (hits1, misses1);
  check Alcotest.bool "second pass decodes exactly" true ok2;
  check Alcotest.(pair int int) "second pass hits every blob" (n, 0) (hits2, misses2);
  check Alcotest.bytes "a mutated result does not reach a later hit" data.(0) mutated;
  check Alcotest.(pair int int) "the limit wipes the table" (limit, 1)
    (past_limit.M.s_evictions, past_limit.M.s_resident)

(* ---- FNV-1a against the byte-at-a-time reference ---- *)

let fnv1a_reference seed b ~pos ~len =
  let h = ref seed in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)))) 0x100000001B3L
  done;
  !h

let fnv1a_zero_words_match_reference =
  qtest ~count:300 "zero-word FNV-1a matches the byte-at-a-time reference"
    QCheck2.Gen.(
      triple
        (map2
           (fun n edits ->
             let b = Bytes.make n '\000' in
             if n > 0 then List.iter (fun (i, v) -> Bytes.set b (i mod n) (Char.chr v)) edits;
             b)
           (int_bound 200)
           (list_size (int_bound 6) (pair nat (int_bound 255))))
        int64 (pair nat nat))
    (fun (b, seed, (p, l)) ->
      let n = Bytes.length b in
      let offset = 0xCBF29CE484222325L in
      let slices_agree =
        (* every alignment: each start offset within a word, any length *)
        List.for_all
          (fun pos ->
            pos > n
            ||
            let len = if n - pos = 0 then 0 else l mod (n - pos + 1) in
            Int64.equal (Hashing.fnv1a_sub b ~pos ~len) (fnv1a_reference offset b ~pos ~len))
          (List.init 8 (fun k -> (p + k) mod (n + 1)))
      in
      slices_agree
      && Int64.equal (Hashing.fnv1a_bytes b) (fnv1a_reference offset b ~pos:0 ~len:n)
      && Int64.equal (Hashing.fnv1a_bytes ~seed b) (fnv1a_reference seed b ~pos:0 ~len:n))

(* ---- Delta ---- *)

let delta_identity () =
  let b = Bytes.of_string "unchanged page" in
  let d = Delta.diff ~old_:b ~fresh:b in
  check Alcotest.bool "identity delta" true (Delta.is_identity d);
  check Alcotest.bytes "apply identity" b (Delta.apply ~old_:b ~delta:d)

let delta_basic () =
  let old_ = Bytes.of_string "hello world, how are you" in
  let fresh = Bytes.of_string "hello belts, how are YOU" in
  let d = Delta.diff ~old_ ~fresh in
  check Alcotest.bytes "apply" fresh (Delta.apply ~old_ ~delta:d)

let delta_smaller_than_page () =
  let old_ = Bytes.make 4096 'a' in
  let fresh = Bytes.copy old_ in
  Bytes.set fresh 100 'b';
  Bytes.set fresh 4000 'c';
  let d = Delta.diff ~old_ ~fresh in
  if Bytes.length d > 64 then Alcotest.failf "delta too large: %d" (Bytes.length d);
  check Alcotest.bytes "apply" fresh (Delta.apply ~old_ ~delta:d)

let delta_length_mismatch () =
  Alcotest.check_raises "mismatch rejected" (Invalid_argument "Delta.diff: length mismatch")
    (fun () -> ignore (Delta.diff ~old_:(Bytes.create 4) ~fresh:(Bytes.create 5)))

let delta_wrong_base () =
  let old_ = Bytes.make 16 'a' and fresh = Bytes.make 16 'b' in
  let d = Delta.diff ~old_ ~fresh in
  Alcotest.check_raises "base length checked" (Failure "Delta.apply: base length mismatch")
    (fun () -> ignore (Delta.apply ~old_:(Bytes.create 8) ~delta:d))

let delta_qcheck =
  qtest "delta diff/apply reconstructs"
    QCheck2.Gen.(
      bind (int_range 1 2000) (fun n ->
          pair (string_size (return n)) (list_size (int_bound 50) (pair (int_bound (n - 1)) char))))
    (fun (base, edits) ->
      let old_ = Bytes.of_string base in
      let fresh = Bytes.copy old_ in
      List.iter (fun (i, c) -> Bytes.set fresh i c) edits;
      Bytes.equal fresh (Delta.apply ~old_ ~delta:(Delta.diff ~old_ ~fresh)))

let delta_qcheck_shaped =
  qtest ~count:300 "delta diff/apply handles shaped buffer pairs"
    QCheck2.Gen.(pair gen_shaped_bytes (pair (int_bound 2) int))
    (fun (old_, (variant, seed)) ->
      let n = Bytes.length old_ in
      let fresh =
        match variant with
        | 0 -> Bytes.copy old_ (* identity, incl. the empty/empty pair *)
        | 1 -> Bytes.make n 'x' (* all-equal overwrite *)
        | _ -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n (* incompressible *)
      in
      let d = Delta.diff ~old_ ~fresh in
      Bytes.equal fresh (Delta.apply ~old_ ~delta:d)
      && (not (Bytes.equal old_ fresh) || Delta.is_identity d))

(* ---- Sexpr ---- *)

let sexpr_const_fold () =
  let e = Sexpr.logor (Sexpr.const 0x0FL) (Sexpr.const 0x30L) in
  check Alcotest.bool "folded to const" true (match e with Sexpr.Const 0x3FL -> true | _ -> false)

let sexpr_symbolic_pipeline () =
  (* Listing 1(a): qrk_mmu = read(MMU_CONFIG); write(MMU_CONFIG, qrk | 0x10) *)
  let s = Sexpr.fresh_sym ~origin:"MMU_CONFIG" in
  let written = Sexpr.logor (Sexpr.sym s) (Sexpr.const 0x10L) in
  check Alcotest.bool "unresolved before bind" false (Sexpr.is_concrete written);
  check Alcotest.int "one unbound sym" 1 (List.length (Sexpr.unbound_syms written));
  Sexpr.bind s 0x08L ~speculative:false;
  check (Alcotest.option Alcotest.int64) "resolves after bind" (Some 0x18L) (Sexpr.eval written)

let sexpr_ops () =
  let v e = Option.get (Sexpr.eval e) in
  check Alcotest.int64 "and" 0x0CL (v (Sexpr.logand (Sexpr.const 0xFCL) (Sexpr.const 0x0FL)));
  check Alcotest.int64 "xor" 0xFFL (v (Sexpr.logxor (Sexpr.const 0xF0L) (Sexpr.const 0x0FL)));
  check Alcotest.int64 "add" 5L (v (Sexpr.add (Sexpr.const 2L) (Sexpr.const 3L)));
  check Alcotest.int64 "sub" (-1L) (v (Sexpr.sub (Sexpr.const 2L) (Sexpr.const 3L)));
  check Alcotest.int64 "shl" 8L (v (Sexpr.shift_left (Sexpr.const 1L) 3));
  check Alcotest.int64 "shr" 1L (v (Sexpr.shift_right (Sexpr.const 8L) 3));
  check Alcotest.int64 "not" (-1L) (v (Sexpr.lognot (Sexpr.const 0L)))

let sexpr_force_unbound () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  Alcotest.check_raises "force unbound"
    (Failure "Sexpr.force_exn: expression contains unbound symbols") (fun () ->
      ignore (Sexpr.force_exn (Sexpr.sym s)))

let sexpr_rebind_conflict () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  Sexpr.bind s 1L ~speculative:false;
  (try
     Sexpr.bind s 2L ~speculative:false;
     Alcotest.fail "conflicting bind should raise"
   with Invalid_argument _ -> ());
  Sexpr.bind s 1L ~speculative:false (* same value is fine *)

let sexpr_speculation_taint () =
  let s = Sexpr.fresh_sym ~origin:"JOB_IRQ_STATUS" in
  let e = Sexpr.logand (Sexpr.sym s) (Sexpr.const 0xFFL) in
  Sexpr.bind s 1L ~speculative:true;
  check Alcotest.bool "tainted while speculative" true (Sexpr.speculative e);
  Sexpr.confirm s;
  check Alcotest.bool "clean after confirm" false (Sexpr.speculative e)

let sexpr_rebind_clears_spec () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  Sexpr.bind s 1L ~speculative:true;
  Sexpr.rebind s 5L;
  check Alcotest.bool "not speculative" false (Sexpr.speculative (Sexpr.sym s));
  check (Alcotest.option Alcotest.int64) "new value" (Some 5L) (Sexpr.eval (Sexpr.sym s))

let sexpr_unbound_dedup () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  let e = Sexpr.add (Sexpr.sym s) (Sexpr.sym s) in
  check Alcotest.int "deduplicated" 1 (List.length (Sexpr.unbound_syms e))

let sexpr_qcheck_fold_matches_eval =
  qtest "constant folding agrees with eval"
    QCheck2.Gen.(triple (int_range 0 6) int64 int64)
    (fun (op, a, b) ->
      let build f = f (Sexpr.const a) (Sexpr.const b) in
      let e =
        match op with
        | 0 -> build Sexpr.logor
        | 1 -> build Sexpr.logand
        | 2 -> build Sexpr.logxor
        | 3 -> build Sexpr.add
        | 4 -> build Sexpr.sub
        | 5 -> Sexpr.shift_left (Sexpr.const a) (Int64.to_int b land 31)
        | _ -> Sexpr.shift_right (Sexpr.const a) (Int64.to_int b land 31)
      in
      Sexpr.is_concrete e)

(* ---- Hexdump ---- *)

let hexdump_sizes () =
  check Alcotest.string "bytes" "17 B" (Grt_util.Hexdump.size_to_string 17);
  check Alcotest.string "kb" "1.5 KB" (Grt_util.Hexdump.size_to_string 1536);
  check Alcotest.string "mb" "2.00 MB" (Grt_util.Hexdump.size_to_string (2 * 1024 * 1024));
  check Alcotest.string "gb" "1.00 GB" (Grt_util.Hexdump.size_to_string (1024 * 1024 * 1024))

let contains_substring hay needle = Grt_util.Strutil.contains_sub needle hay

(* ---- Strutil ---- *)

let strutil_basics () =
  let module S = Grt_util.Strutil in
  check Alcotest.bool "prefix yes" true (S.has_prefix "kbase_pm_" "kbase_pm_init_hw");
  check Alcotest.bool "prefix whole" true (S.has_prefix "abc" "abc");
  check Alcotest.bool "prefix no" false (S.has_prefix "kbase_pm_" "kbase_gpuprops");
  check Alcotest.bool "prefix longer than s" false (S.has_prefix "abcd" "abc");
  check Alcotest.bool "suffix yes" true (S.has_suffix "_irq" "kbase_job_irq");
  check Alcotest.bool "suffix no" false (S.has_suffix "_irq" "kbase_job_irqs");
  check Alcotest.bool "sub middle" true (S.contains_sub "irq" "kbase_job_irq_handler");
  check Alcotest.bool "sub absent" false (S.contains_sub "mmu" "kbase_job_irq_handler");
  check Alcotest.bool "sub empty" true (S.contains_sub "" "anything")

let hexdump_renders () =
  let out = Format.asprintf "%a" Grt_util.Hexdump.pp_bytes (Bytes.of_string "hello\x00world!") in
  check Alcotest.bool "contains hex" true (contains_substring out "68 65 6c 6c 6f");
  check Alcotest.bool "contains ascii gutter" true (contains_substring out "|hello.world!|")

let () =
  Alcotest.run "grt_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int rejects <=0" `Quick rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "int64 range" `Quick rng_int64_range;
          Alcotest.test_case "copy" `Quick rng_copy_independent;
          Alcotest.test_case "split" `Quick rng_split_diverges;
          Alcotest.test_case "bytes" `Quick rng_bytes_len;
        ] );
      ( "byte_buf",
        [
          Alcotest.test_case "primitives" `Quick byte_buf_primitives;
          Alcotest.test_case "varint roundtrip" `Quick byte_buf_varint_roundtrip;
          Alcotest.test_case "varint negative" `Quick byte_buf_varint_negative;
          Alcotest.test_case "truncation" `Quick byte_buf_truncation;
          Alcotest.test_case "forged lengths" `Quick byte_buf_forged_lengths;
          Alcotest.test_case "growth" `Quick byte_buf_growth;
          Alcotest.test_case "clear" `Quick byte_buf_clear;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "stable" `Quick hashing_stable;
          Alcotest.test_case "sub consistent" `Quick hashing_sub_consistent;
          Alcotest.test_case "hmac keys" `Quick hashing_hmac_keys;
          Alcotest.test_case "crc32 known value" `Quick crc32_known;
          Alcotest.test_case "crc32 detects flip" `Quick crc32_detects_flip;
          fnv1a_zero_words_match_reference;
        ] );
      ( "range_coder",
        [
          Alcotest.test_case "roundtrip cases" `Quick rc_roundtrip_cases;
          Alcotest.test_case "sparse compresses" `Quick rc_compresses_sparse;
          Alcotest.test_case "no explosion" `Quick rc_random_data_no_explosion;
          Alcotest.test_case "guarded bounded on random" `Quick rc_guarded_random_bounded;
          Alcotest.test_case "guarded still compresses" `Quick rc_guarded_compressible;
          Alcotest.test_case "guarded rejects garbage" `Quick rc_guarded_rejects_garbage;
          rc_qcheck_roundtrip;
          rc_qcheck_sparse;
          rc_qcheck_shaped;
          rc_qcheck_guarded;
          rc_matches_per_byte_oracle;
          rc_encode_within_is_bounded_encode;
          Alcotest.test_case "encode_within extremes" `Quick rc_encode_within_extremes;
          Alcotest.test_case "forged length rejected" `Quick rc_forged_length_rejected;
          Alcotest.test_case "decode memo keeps a recurring working set" `Quick
            rc_decode_memo_working_set;
        ] );
      ( "delta",
        [
          Alcotest.test_case "identity" `Quick delta_identity;
          Alcotest.test_case "basic" `Quick delta_basic;
          Alcotest.test_case "small for sparse edits" `Quick delta_smaller_than_page;
          Alcotest.test_case "length mismatch" `Quick delta_length_mismatch;
          Alcotest.test_case "wrong base" `Quick delta_wrong_base;
          delta_qcheck;
          delta_qcheck_shaped;
        ] );
      ( "sexpr",
        [
          Alcotest.test_case "const folding" `Quick sexpr_const_fold;
          Alcotest.test_case "listing 1a pipeline" `Quick sexpr_symbolic_pipeline;
          Alcotest.test_case "operators" `Quick sexpr_ops;
          Alcotest.test_case "force unbound" `Quick sexpr_force_unbound;
          Alcotest.test_case "rebind conflict" `Quick sexpr_rebind_conflict;
          Alcotest.test_case "speculation taint" `Quick sexpr_speculation_taint;
          Alcotest.test_case "rebind clears speculation" `Quick sexpr_rebind_clears_spec;
          Alcotest.test_case "unbound dedup" `Quick sexpr_unbound_dedup;
          sexpr_qcheck_fold_matches_eval;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "sizes" `Quick hexdump_sizes;
          Alcotest.test_case "renders" `Quick hexdump_renders;
        ] );
      ("strutil", [ Alcotest.test_case "basics" `Quick strutil_basics ]);
    ]
