exception Kernel_fault of string

(* Kernels see memory as 4 KiB pages of bytes, through per-buffer streams.
   Each stream is a one-entry TLB: a page-aligned VA plus the backing bytes
   of that page, refilled by [smiss] (which performs MMU translation on the
   device, or page-table lookup in [Flat]). Separate streams per operand
   keep one operand's reads from evicting another's page. The hit path is
   pure unboxed int arithmetic — no [int64] or float boxing. The heavy
   kernels go one step further and gather each operand through its stream
   into flat scratch before computing (see "Gather-then-compute" below). *)

type stream = {
  mutable sbase : int;  (** page-aligned VA of the cached page; -1 = empty *)
  mutable spage : bytes;  (** backing bytes of that page *)
  smiss : stream -> int -> bytes;
      (** refill: resolve [va]'s page, store it in the stream, return it *)
}

type ctx = { c_in : stream; c_in2 : stream; c_bias : stream; c_out : stream }

let new_stream smiss = { sbase = -1; spage = Bytes.empty; smiss }

external get32 : bytes -> int -> int32 = "%caml_bytes_get32"
external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32_le b i = if Sys.big_endian then swap32 (get32 b i) else get32 b i
let[@inline] set32_le b i v = set32 b i (if Sys.big_endian then swap32 v else v)

let[@inline] getf (s : stream) va =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  Int32.float_of_bits (get32_le p (va land 0xFFF))

let[@inline] setf (s : stream) va v =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  set32_le p (va land 0xFFF) (Int32.bits_of_float v)

(* A self-contained paged address space: the reference executor and kernel
   unit tests need [ctx]s that are not backed by a simulated device. Pages
   materialize on first touch (reads of untouched memory see zeros) and are
   shared between all four streams, so reads always observe prior writes. *)
module Flat = struct
  type t = (int, bytes) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let page (t : t) va =
    let pn = va lsr 12 in
    match Hashtbl.find_opt t pn with
    | Some p -> p
    | None ->
      let p = Bytes.make 4096 '\000' in
      Hashtbl.replace t pn p;
      p

  let ctx t =
    let miss (s : stream) va =
      let p = page t va in
      s.sbase <- va land lnot 0xFFF;
      s.spage <- p;
      p
    in
    { c_in = new_stream miss; c_in2 = new_stream miss; c_bias = new_stream miss; c_out = new_stream miss }

  let read_f32 t va =
    let va = Int64.to_int va in
    Int32.float_of_bits (get32_le (page t va) (va land 0xFFF))

  let write_f32 t va v =
    let va = Int64.to_int va in
    set32_le (page t va) (va land 0xFFF) (Int32.bits_of_float v)
end

let fail fmt = Printf.ksprintf (fun s -> raise (Kernel_fault s)) fmt

let partition_range ~total ~part_idx ~part_count =
  if part_count <= 0 || part_idx < 0 || part_idx >= part_count then
    fail "bad partition %d/%d" part_idx part_count;
  let q = total / part_count and r = total mod part_count in
  let first = (part_idx * q) + min part_idx r in
  let count = q + if part_idx < r then 1 else 0 in
  (first, count)

(* CHW indexing *)
let chw ~h ~w c y x = (((c * h) + y) * w) + x

let check_conv_geometry p =
  let open Job_desc in
  if p.stride <= 0 then fail "conv stride %d" p.stride;
  if p.in_c < 0 || p.in_h < 0 || p.in_w < 0 || p.kh < 0 || p.kw < 0 || p.out_h < 0 || p.out_w < 0 then
    fail "conv: negative shape";
  let expect_h = ((p.in_h + (2 * p.pad) - p.kh) / p.stride) + 1 in
  let expect_w = ((p.in_w + (2 * p.pad) - p.kw) / p.stride) + 1 in
  if expect_h <> p.out_h || expect_w <> p.out_w then
    fail "conv geometry mismatch: got %dx%d want %dx%d" p.out_h p.out_w expect_h expect_w

(* Gather-then-compute. The heavy kernels (conv2d, depthwise, fc, maxpool)
   read each operand once, through its stream, into a domain-local unboxed
   [Float.Array] scratch, then loop over flat arrays: the stream page-tag
   check and the f32-bits-to-float conversion are paid once per element
   instead of once per multiply-accumulate. Going through the streams keeps
   MMU translation, the zero-page rule and translation faults as they are
   for every other access. Results go back through the output stream in
   (channel, row, column) order.

   Summation-order contract (what keeps replay bit-exact): every output
   starts at its bias (0 without one) and adds its products in double, in
   (ic, ky, kx) order, skipping padded taps; it is rounded to f32 only at
   the store. Loops may be reorganised freely as long as each output still
   sees that sequence of additions. conv2d and depthwise accumulate a whole
   output row at once (taps outside, columns inside), which changes no bit;
   maxpool compares a row at once the same way. *)

(* Scratch arrays grow to the exact size needed and are then reused. They
   are domain-local, so parallel fleet shards never share one, and no kernel
   yields mid-job, so two jobs never share one either. *)
let float_scratch () = Domain.DLS.new_key (fun () -> ref (Float.Array.create 0))

let scratch_in = float_scratch ()
let scratch_w = float_scratch ()
let scratch_row = float_scratch ()
let scratch_cols : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let scratch key n =
  let r = Domain.DLS.get key in
  if Float.Array.length !r >= n then !r
  else begin
    let a = Float.Array.create n in
    r := a;
    a
  end

(* [gather s va n dst] reads the [n] f32s at [va] into [dst.(0 .. n-1)],
   one stream lookup per page. *)
let gather (s : stream) va n dst =
  let i = ref 0 and va = ref va in
  while !i < n do
    let v = !va and base = !i in
    let page = v land lnot 0xFFF in
    let p = if page = s.sbase then s.spage else s.smiss s v in
    let off = v land 0xFFF in
    let m = Int.min (n - base) ((0x1000 - off) lsr 2) in
    for k = 0 to m - 1 do
      Float.Array.unsafe_set dst (base + k) (Int32.float_of_bits (get32_le p (off + (4 * k))))
    done;
    i := base + m;
    va := v + (4 * m)
  done

(* Tensor base VAs are unboxed ints; element [idx] of a buffer at [base] is
   the f32 at [base + 4*idx]. The stream accessors index bytes within a
   4 KiB page, so bases must be 4-aligned — [execute] checks this once.

   Padding is clamped, never tested per tap: output row [oy] sees filter
   rows [max 0 (-iy0), min kh (in_h - iy0)) where [iy0 = oy*stride - pad],
   and filter column [kx] lands inside the input for output columns
   [cols.(2kx), cols.(2kx+1)), computed once per job. *)
let col_ranges (p : Job_desc.params) =
  let r = Domain.DLS.get scratch_cols in
  if Array.length !r < 2 * p.kw then r := Array.make (2 * p.kw) 0;
  let cols = !r in
  for kx = 0 to p.kw - 1 do
    let lo = if kx >= p.pad then 0 else (p.pad - kx + p.stride - 1) / p.stride in
    let t = p.in_w - 1 - kx + p.pad in
    cols.(2 * kx) <- lo;
    cols.((2 * kx) + 1) <- (if t < 0 then 0 else Int.min p.out_w ((t / p.stride) + 1))
  done;
  cols

(* [row.(ox) += inp.(b + kx + ox*stride) * filt.(fb + kx)] for each filter
   column [kx] in order, over the output columns it reaches. It takes the
   filter array and an index, not the weight: without flambda a float
   argument would be boxed on every call. *)
let add_filter_row row inp cols ~b ~stride filt ~fb ~kw =
  for kx = 0 to kw - 1 do
    let w = Float.Array.unsafe_get filt (fb + kx) and b = b + kx in
    for ox = Array.unsafe_get cols (2 * kx) to Array.unsafe_get cols ((2 * kx) + 1) - 1 do
      Float.Array.unsafe_set row ox
        (Float.Array.unsafe_get row ox +. (Float.Array.unsafe_get inp (b + (ox * stride)) *. w))
    done
  done

let store_row ctx ~relu ~va row n =
  for ox = 0 to n - 1 do
    let v = Float.Array.unsafe_get row ox in
    setf ctx.c_out (va + (4 * ox)) (if relu && v < 0.0 then 0.0 else v)
  done

let conv2d ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  let first_oc, n_oc = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
  let in_c = p.in_c and in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let stride = p.stride and out_h = p.out_h and out_w = p.out_w in
  let wb = Int64.to_int d.input2_va and bb = Int64.to_int d.bias_va and ob = Int64.to_int d.output_va in
  let n_in = in_c * in_h * in_w and flen = in_c * kh * kw in
  let inp = scratch scratch_in n_in and filt = scratch scratch_w flen and row = scratch scratch_row out_w in
  let cols = col_ranges p in
  if n_oc > 0 then gather ctx.c_in (Int64.to_int d.input_va) n_in inp;
  for oc = first_oc to first_oc + n_oc - 1 do
    let bias = if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * oc)) in
    (* One output channel's filter at a time: each weight is reused over the
       whole output plane either way, and the scratch stays small. *)
    gather ctx.c_in2 (wb + (4 * oc * flen)) flen filt;
    for oy = 0 to out_h - 1 do
      let iy0 = (oy * stride) - p.pad in
      let ky_lo = Int.max 0 (-iy0) and ky_hi = Int.min kh (in_h - iy0) in
      (* not [Float.Array.fill], which would box [bias] on every call *)
      for ox = 0 to out_w - 1 do
        Float.Array.unsafe_set row ox bias
      done;
      for ic = 0 to in_c - 1 do
        for ky = ky_lo to ky_hi - 1 do
          add_filter_row row inp cols
            ~b:((((ic * in_h) + iy0 + ky) * in_w) - p.pad)
            ~stride filt
            ~fb:(((ic * kh) + ky) * kw)
            ~kw
        done
      done;
      store_row ctx ~relu:p.relu ~va:(ob + (4 * ((oc * out_h) + oy) * out_w)) row out_w
    done
  done

let depthwise ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  if p.in_c <> p.out_c then fail "depthwise needs in_c = out_c";
  let n_c = p.out_c and in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let stride = p.stride and out_h = p.out_h and out_w = p.out_w in
  let bb = Int64.to_int d.bias_va and ob = Int64.to_int d.output_va in
  let n_in = n_c * in_h * in_w and n_w = n_c * kh * kw in
  let inp = scratch scratch_in n_in and filt = scratch scratch_w n_w and row = scratch scratch_row out_w in
  let cols = col_ranges p in
  gather ctx.c_in (Int64.to_int d.input_va) n_in inp;
  gather ctx.c_in2 (Int64.to_int d.input2_va) n_w filt;
  for c = 0 to n_c - 1 do
    let bias = if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * c)) in
    for oy = 0 to out_h - 1 do
      let iy0 = (oy * stride) - p.pad in
      let ky_lo = Int.max 0 (-iy0) and ky_hi = Int.min kh (in_h - iy0) in
      for ox = 0 to out_w - 1 do
        Float.Array.unsafe_set row ox bias
      done;
      for ky = ky_lo to ky_hi - 1 do
        add_filter_row row inp cols
          ~b:((((c * in_h) + iy0 + ky) * in_w) - p.pad)
          ~stride filt
          ~fb:(((c * kh) + ky) * kw)
          ~kw
      done;
      store_row ctx ~relu:p.relu ~va:(ob + (4 * ((c * out_h) + oy) * out_w)) row out_w
    done
  done

let fc ctx (d : Job_desc.t) =
  let p = d.params in
  let in_n = p.in_c * p.in_h * p.in_w in
  let out_n = p.out_c in
  if in_n <= 0 || out_n <= 0 then fail "fc: empty shape";
  let first, count = partition_range ~total:out_n ~part_idx:p.part_idx ~part_count:p.part_count in
  let wb = Int64.to_int d.input2_va and bb = Int64.to_int d.bias_va and ob = Int64.to_int d.output_va in
  let inp = scratch scratch_in in_n and wrow = scratch scratch_w in_n in
  if count > 0 then gather ctx.c_in (Int64.to_int d.input_va) in_n inp;
  for o = first to first + count - 1 do
    let acc = ref (if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * o))) in
    gather ctx.c_in2 (wb + (4 * o * in_n)) in_n wrow;
    for i = 0 to in_n - 1 do
      acc := !acc +. (Float.Array.unsafe_get inp i *. Float.Array.unsafe_get wrow i)
    done;
    setf ctx.c_out (ob + (4 * o)) (if p.relu && !acc < 0.0 then 0.0 else !acc)
  done

let maxpool ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  if p.in_c <> p.out_c then fail "maxpool needs in_c = out_c";
  let n_c = p.out_c and in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let stride = p.stride and out_h = p.out_h and out_w = p.out_w in
  let ob = Int64.to_int d.output_va in
  let n_in = n_c * in_h * in_w in
  let inp = scratch scratch_in n_in and row = scratch scratch_row out_w in
  let cols = col_ranges p in
  gather ctx.c_in (Int64.to_int d.input_va) n_in inp;
  for c = 0 to n_c - 1 do
    for oy = 0 to out_h - 1 do
      let iy0 = (oy * stride) - p.pad in
      let ky_lo = Int.max 0 (-iy0) and ky_hi = Int.min kh (in_h - iy0) in
      Float.Array.fill row 0 out_w neg_infinity;
      for ky = ky_lo to ky_hi - 1 do
        let b = (((c * in_h) + iy0 + ky) * in_w) - p.pad in
        for kx = 0 to kw - 1 do
          for ox = Array.unsafe_get cols (2 * kx) to Array.unsafe_get cols ((2 * kx) + 1) - 1 do
            let v = Float.Array.unsafe_get inp (b + kx + (ox * stride)) in
            if v > Float.Array.unsafe_get row ox then Float.Array.unsafe_set row ox v
          done
        done
      done;
      store_row ctx ~relu:false ~va:(ob + (4 * ((c * out_h) + oy) * out_w)) row out_w
    done
  done

let avgpool_global ctx (d : Job_desc.t) =
  let p = d.params in
  if p.out_h <> 1 || p.out_w <> 1 || p.in_c <> p.out_c then fail "avgpool: expects global CxHxW -> Cx1x1";
  let n = p.in_h * p.in_w in
  let in_idx = chw ~h:p.in_h ~w:p.in_w in
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for c = 0 to p.in_c - 1 do
    let acc = ref 0.0 in
    for y = 0 to p.in_h - 1 do
      for x = 0 to p.in_w - 1 do
        acc := !acc +. getf ctx.c_in (inb + (4 * in_idx c y x))
      done
    done;
    setf ctx.c_out (ob + (4 * c)) (!acc /. float_of_int n)
  done

let flat_len (p : Job_desc.params) = p.out_c * p.out_h * p.out_w

let relu ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    let v = getf ctx.c_in (inb + (4 * i)) in
    setf ctx.c_out (ob + (4 * i)) (if v < 0.0 then 0.0 else v)
  done

let copy ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_in (inb + (4 * i)))
  done

let add ctx (d : Job_desc.t) =
  let p = d.params in
  let inb = Int64.to_int d.input_va
  and in2b = Int64.to_int d.input2_va
  and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len p - 1 do
    let v = getf ctx.c_in (inb + (4 * i)) +. getf ctx.c_in2 (in2b + (4 * i)) in
    setf ctx.c_out (ob + (4 * i)) (if p.relu && v < 0.0 then 0.0 else v)
  done

let unary_elementwise f ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setf ctx.c_out (ob + (4 * i)) (f (getf ctx.c_in (inb + (4 * i))))
  done

let mul ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va
  and in2b = Int64.to_int d.input2_va
  and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_in (inb + (4 * i)) *. getf ctx.c_in2 (in2b + (4 * i)))
  done

let concat2 ctx (d : Job_desc.t) =
  let p = d.params in
  if p.in_c + p.in2_c <> p.out_c then fail "concat2: channel mismatch";
  if p.in_h <> p.out_h || p.in_w <> p.out_w then fail "concat2: spatial mismatch";
  let plane = p.out_h * p.out_w in
  let inb = Int64.to_int d.input_va
  and in2b = Int64.to_int d.input2_va
  and ob = Int64.to_int d.output_va in
  for i = 0 to (p.in_c * plane) - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_in (inb + (4 * i)))
  done;
  let off = p.in_c * plane in
  for i = 0 to (p.in2_c * plane) - 1 do
    setf ctx.c_out (ob + (4 * (off + i))) (getf ctx.c_in2 (in2b + (4 * i)))
  done

let softmax ctx (d : Job_desc.t) =
  let p = d.params in
  let n = p.in_c * p.in_h * p.in_w in
  if n <= 0 then fail "softmax: empty";
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    let v = getf ctx.c_in (inb + (4 * i)) in
    if v > !m then m := v
  done;
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    let e = exp (getf ctx.c_in (inb + (4 * i)) -. !m) in
    setf ctx.c_out (ob + (4 * i)) e;
    sum := !sum +. e
  done;
  for i = 0 to n - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_out (ob + (4 * i)) /. !sum)
  done

(* Stream offsets are computed page-relative, so tensor bases must be f32
   aligned (real command streams guarantee this; a descriptor that does not
   is malformed). *)
let check_aligned (d : Job_desc.t) =
  let bad v = Int64.logand v 3L <> 0L in
  if bad d.input_va || bad d.input2_va || bad d.bias_va || bad d.output_va then
    fail "tensor VA not 4-byte aligned"

let execute ctx (d : Job_desc.t) =
  check_aligned d;
  match d.op with
  | Shader.Conv2d -> conv2d ctx d
  | Shader.Depthwise -> depthwise ctx d
  | Shader.Fc -> fc ctx d
  | Shader.Maxpool -> maxpool ctx d
  | Shader.Avgpool -> avgpool_global ctx d
  | Shader.Relu -> relu ctx d
  | Shader.Copy -> copy ctx d
  | Shader.Add -> add ctx d
  | Shader.Concat2 -> concat2 ctx d
  | Shader.Softmax -> softmax ctx d
  | Shader.Tanh -> unary_elementwise tanh ctx d
  | Shader.Sigmoid -> unary_elementwise (fun x -> 1.0 /. (1.0 +. exp (-.x))) ctx d
  | Shader.Mul -> mul ctx d

let flops op (p : Job_desc.params) =
  let i64 = Int64.of_int in
  let out_plane = p.out_h * p.out_w in
  match op with
  | Shader.Conv2d ->
    let _, n_oc = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
    i64 (2 * n_oc * out_plane * p.in_c * p.kh * p.kw)
  | Shader.Depthwise -> i64 (2 * p.out_c * out_plane * p.kh * p.kw)
  | Shader.Fc ->
    let in_n = p.in_c * p.in_h * p.in_w in
    let _, count = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
    i64 (2 * count * in_n)
  | Shader.Maxpool -> i64 (p.out_c * out_plane * p.kh * p.kw)
  | Shader.Avgpool -> i64 (p.in_c * p.in_h * p.in_w)
  | Shader.Relu | Shader.Copy -> i64 (p.out_c * out_plane)
  | Shader.Add | Shader.Mul -> i64 (2 * p.out_c * out_plane)
  | Shader.Tanh | Shader.Sigmoid -> i64 (8 * p.out_c * out_plane)
  | Shader.Concat2 -> i64 (p.out_c * out_plane)
  | Shader.Softmax -> i64 (4 * p.in_c * p.in_h * p.in_w)
