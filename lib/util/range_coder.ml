(* Adaptive order-0 arithmetic coder in the Witten–Neal–Cleary style:
   32-bit interval registers with underflow (pending-bit) handling, driven by
   an adaptive byte-frequency model whose total is kept below 2^16 so that
   [range * cum] stays within integer precision.

   This runs on every changed page the recorder ships, so each direction is
   one loop with the whole coder state — interval registers, bit
   accumulator, model frequencies and total — in locals: the per-symbol
   path allocates nothing and calls nothing. Every intermediate fits in
   48 bits, so 63-bit int arithmetic is exact and truncating division
   matches the historical Int64 formulation bit for bit. The recorder's
   pages are zero-dominated, so symbol 0 takes a path with no cumulative
   scan (its lower bound is 0 by definition), and the decoder recognises
   it without a division. *)

let code_bits = 32
let whole = 1 lsl code_bits
let half = whole lsr 1
let quarter = whole lsr 2
let three_quarter = half + quarter
let max_total = (1 lsl 16) - 1
let increment = 24

(* Halve every frequency (keeping each at least 1); returns the new total. *)
let rescale freq =
  let total = ref 0 in
  for i = 0 to 255 do
    let f = (Array.unsafe_get freq i / 2) + 1 in
    Array.unsafe_set freq i f;
    total := !total + f
  done;
  !total

let encode_within ~limit data =
  let n = Bytes.length data in
  let out = Byte_buf.create ~capacity:(max 16 (min (n / 4) limit)) () in
  Byte_buf.add_varint out n;
  (* Output only grows and the final flush adds at least one byte, so once
     [limit] bytes are out the result can no longer fit: [put] stops the
     coding loop there. The check runs per output byte, off the per-symbol
     path. *)
  let cap = ref limit and acc = ref 0 and nbits = ref 0 in
  let put bit =
    acc := (!acc lsl 1) lor bit;
    incr nbits;
    if !nbits = 8 then begin
      Byte_buf.add_u8 out !acc;
      acc := 0;
      nbits := 0;
      if Byte_buf.length out >= !cap then raise_notrace Exit
    end
  in
  let emit bit pending =
    put bit;
    for _ = 1 to pending do
      put (1 - bit)
    done
  in
  let freq = Array.make 256 1 and total = ref 256 in
  let low = ref 0 and high = ref (whole - 1) and pending = ref 0 in
  match
    for i = 0 to n - 1 do
      let sym = Char.code (Bytes.unsafe_get data i) in
      let f = Array.unsafe_get freq sym and tot = !total in
      let range = !high - !low + 1 in
      (* [cum_hi = tot] and [cum_lo = 0] make the quotient trivial ([range]
         resp. [0]); skipping the division is exact. *)
      if sym = 0 then begin
        if f <> tot then high := !low + (range * f / tot) - 1
      end
      else begin
        let cum_lo = ref 0 in
        for s = 0 to sym - 1 do
          cum_lo := !cum_lo + Array.unsafe_get freq s
        done;
        let cum_hi = !cum_lo + f in
        if cum_hi <> tot then high := !low + (range * cum_hi / tot) - 1;
        low := !low + (range * !cum_lo / tot)
      end;
      while !high < half || !low >= half || (!low >= quarter && !high < three_quarter) do
        if !high < half then begin
          emit 0 !pending;
          pending := 0
        end
        else if !low >= half then begin
          emit 1 !pending;
          pending := 0;
          low := !low - half;
          high := !high - half
        end
        else begin
          incr pending;
          low := !low - quarter;
          high := !high - quarter
        end;
        low := !low lsl 1;
        high := (!high lsl 1) + 1
      done;
      Array.unsafe_set freq sym (f + increment);
      total := if tot + increment >= max_total then rescale freq else tot + increment
    done
  with
  | exception Exit -> None
  | () ->
    (* Disambiguate the final interval, then pad to a byte. *)
    cap := max_int;
    emit (if !low < quarter then 0 else 1) (!pending + 1);
    while !nbits <> 0 do
      put 0
    done;
    if Byte_buf.length out <= limit then Some (Byte_buf.contents out) else None

let encode data =
  match encode_within ~limit:max_int data with Some coded -> coded | None -> assert false

(* Each coded symbol costs at least log2 (65535 / 65280) ≈ 0.0056 bits, over
   1/178 bit: while coding, the total stays below [max_total] = 65535 and the
   other 255 symbols keep frequency ≥ 1, so no symbol's probability exceeds
   65280/65535. Every bit the encoder emits therefore carries at most ~178
   symbols (the +1 of each floored interval bound adds under 2^-30 per
   step; long zero runs measure ~128), so a declared length above
   [256 × 8 × body bytes] cannot be genuine. Checking it before
   [Bytes.create] keeps a forged varint from allocating. *)
let max_symbols ~body_bytes = 256 * 8 * body_bytes

let decode_raw blob =
  let r = Byte_buf.Reader.of_bytes blob in
  let n = Byte_buf.Reader.varint r in
  let len = Bytes.length blob in
  let pos = ref (Byte_buf.Reader.pos r) in
  if n < 0 || n > max_symbols ~body_bytes:(len - !pos) then
    failwith "Range_coder.decode: declared length exceeds what the body can encode";
  let out = Bytes.create n in
  let freq = Array.make 256 1 and total = ref 256 in
  let acc = ref 0 and nbits = ref 0 in
  let get () =
    if !nbits = 0 then begin
      acc := (if !pos < len then Char.code (Bytes.unsafe_get blob !pos) else 0);
      incr pos;
      nbits := 8
    end;
    decr nbits;
    (!acc lsr !nbits) land 1
  in
  let low = ref 0 and high = ref (whole - 1) and value = ref 0 in
  for _ = 1 to code_bits do
    value := (!value lsl 1) lor get ()
  done;
  for i = 0 to n - 1 do
    let tot = !total and f0 = Array.unsafe_get freq 0 in
    let range = !high - !low + 1 in
    (* Symbol 0 owns targets [0, f0): [target < f0] with [target =
       ((value - low + 1) * tot - 1) / range] is exactly this product test. *)
    let sym =
      if (!value - !low + 1) * tot <= f0 * range then begin
        if f0 <> tot then high := !low + (range * f0 / tot) - 1;
        0
      end
      else begin
        let target = (((!value - !low + 1) * tot) - 1) / range in
        let target = if target > tot - 1 then tot - 1 else target in
        let cum_lo = ref f0 and s = ref 1 in
        while !cum_lo + Array.unsafe_get freq !s <= target do
          cum_lo := !cum_lo + Array.unsafe_get freq !s;
          incr s
        done;
        let cum_hi = !cum_lo + Array.unsafe_get freq !s in
        if cum_hi <> tot then high := !low + (range * cum_hi / tot) - 1;
        low := !low + (range * !cum_lo / tot);
        !s
      end
    in
    while !high < half || !low >= half || (!low >= quarter && !high < three_quarter) do
      if !high < half then ()
      else if !low >= half then begin
        low := !low - half;
        high := !high - half;
        value := !value - half
      end
      else begin
        low := !low - quarter;
        high := !high - quarter;
        value := !value - quarter
      end;
      low := !low lsl 1;
      high := (!high lsl 1) + 1;
      value := (!value lsl 1) lor get ()
    done;
    Array.unsafe_set freq sym (Array.unsafe_get freq sym + increment);
    total := if tot + increment >= max_total then rescale freq else tot + increment;
    Bytes.unsafe_set out i (Char.unsafe_chr sym)
  done;
  out

(* Decode is a pure function of the blob, and the client applies the same
   coded pages every time a workload's sync stream repeats, so a small
   content-keyed memo short-circuits most decodes. Hash collisions cannot
   corrupt output: the stored input is compared byte-for-byte before the
   cached result is reused. The stored input is a copy and every hit builds
   a fresh output, so callers own what they are given and may keep mutating
   their buffers. Domain-local (Domain.DLS): each domain gets a private
   table, so parallel fleet shards never contend on — or corrupt — a shared
   Hashtbl; per-domain cold starts change hit counts only, never output
   bytes.

   The table is wiped when it reaches [memo_limit] entries, so the limit
   must sit above a workload's recurring working set: fleet-churn's seed 1
   decodes 1,597 distinct bodies over and over, and at 1,024 entries the
   memo thrashed. An entry keeps its output as a delta against [len] zero
   bytes: decoded pages are zero-dominated, so it costs the output's nonzero
   spans, not its length (those 1,597 outputs: 6.5 MB as pages, 91 KB as
   spans). *)
let memo_limit = 4096

type entry = { input : bytes; len : int; spans : bytes }

let decode_memo_key : (int, entry) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let decode_stats = Memo_stats.register "rc.decode"

let footprint e = Bytes.length e.input + Bytes.length e.spans

let decode blob =
  let memo = Domain.DLS.get decode_memo_key in
  let key = Hashing.quick blob in
  match Hashtbl.find_opt memo key with
  | Some e when Bytes.equal e.input blob ->
    Memo_stats.hit decode_stats;
    let out = Bytes.make e.len '\000' in
    Delta.patch out ~delta:e.spans;
    out
  | prior ->
    let data = decode_raw blob in
    Memo_stats.miss decode_stats;
    let len = Bytes.length data in
    let e =
      { input = Bytes.copy blob; len; spans = Delta.diff ~old_:(Bytes.make len '\000') ~fresh:data }
    in
    (match prior with
    | None -> ()
    | Some old_e ->
      Memo_stats.mismatch decode_stats;
      Memo_stats.replaced decode_stats ~old_bytes:(footprint old_e) ~bytes:(footprint e));
    if Hashtbl.length memo >= memo_limit then begin
      Memo_stats.evicted decode_stats ~entries:(Hashtbl.length memo);
      Hashtbl.reset memo
    end;
    if not (Hashtbl.mem memo key) then Memo_stats.added decode_stats ~bytes:(footprint e);
    Hashtbl.replace memo key e;
    data

let ratio data =
  let n = Bytes.length data in
  if n = 0 then 1.0 else float_of_int (Bytes.length (encode data)) /. float_of_int n

(* Guarded container: a leading tag byte distinguishes range-coded output
   from a stored-raw fallback, so incompressible input never expands by more
   than the tag byte. The bare [encode]/[decode] pair is kept untouched for
   callers that do their own accounting. *)

let guard_tag_raw = 0
let guard_tag_rc = 1

let encode_guarded data =
  let tag, body =
    match encode_within ~limit:(Bytes.length data - 1) data with
    | Some coded -> (guard_tag_rc, coded)
    | None -> (guard_tag_raw, data)
  in
  let out = Bytes.create (Bytes.length body + 1) in
  Bytes.set out 0 (Char.chr tag);
  Bytes.blit body 0 out 1 (Bytes.length body);
  out

let decode_guarded blob =
  if Bytes.length blob = 0 then failwith "Range_coder.decode_guarded: empty input"
  else begin
    let body = Bytes.sub blob 1 (Bytes.length blob - 1) in
    match Char.code (Bytes.get blob 0) with
    | 0 -> body
    | 1 -> decode body
    | tag -> failwith (Printf.sprintf "Range_coder.decode_guarded: bad tag %d" tag)
  end
