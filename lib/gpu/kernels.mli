(** Compute kernels — the numerics the shader cores perform.

    Tensors are FP32 in CHW layout at GPU virtual addresses. Kernels see
    memory as 4 KiB pages of bytes through per-operand {!stream}s — one-entry
    TLBs the memory provider refills on miss (performing MMU translation on
    the device), exactly as real shader cores fetch through their own TLBs.
    The stream hit path is free of [int64] and float boxing.

    Gather-then-compute: [Conv2d], [Depthwise], [Fc] and [Maxpool] read each
    operand once through its stream into a domain-local unboxed
    [Float.Array] scratch (conv2d one output channel's filter at a time),
    loop over flat arrays with padding clamped per output row and column,
    and write results through the output stream in (channel, row, column)
    order. Translation faults and the zero-page rule therefore behave as for
    any other access; the scratch grows to the largest job seen and is
    reused, so the hot path allocates nothing.

    Summation order (the bit-exactness contract): each output starts at its
    bias (0 without one) and adds its products in double, in (ic, ky, kx)
    order, skipping padded taps, and is rounded to f32 only at the store.
    Output-channel partitioning ([part_idx]/[part_count]) lets the runtime
    split one logical operator across several GPU jobs without changing a
    bit of the result. *)

exception Kernel_fault of string

type stream = {
  mutable sbase : int;  (** page-aligned VA of the cached page; -1 = empty *)
  mutable spage : bytes;  (** backing bytes of that page (4 KiB) *)
  smiss : stream -> int -> bytes;
      (** refill: resolve the page holding [va], cache it in the stream
          ([sbase]/[spage]), and return it. May raise (e.g. a translation
          fault). *)
}

type ctx = {
  c_in : stream;  (** first input tensor *)
  c_in2 : stream;  (** second input / weights *)
  c_bias : stream;  (** bias vector *)
  c_out : stream;  (** output tensor (write stream) *)
}

val new_stream : (stream -> int -> bytes) -> stream
(** Fresh empty stream with the given miss handler. *)

val getf : stream -> int -> float
(** Read the FP32 at a (4-aligned) GPU VA through the stream's page cache. *)

val setf : stream -> int -> float -> unit
(** Write the FP32 at a (4-aligned) GPU VA through the stream's page cache. *)

(** A self-contained paged address space for [ctx]s not backed by a simulated
    device: the CPU reference executor and kernel unit tests. Pages
    materialize on first touch (untouched memory reads as zeros) and are
    shared across all four streams, so reads observe prior writes. *)
module Flat : sig
  type t

  val create : unit -> t
  val ctx : t -> ctx

  val read_f32 : t -> int64 -> float
  val write_f32 : t -> int64 -> float -> unit
end

val execute : ctx -> Job_desc.t -> unit
(** Run the job's operator. Raises {!Kernel_fault} on inconsistent shapes or
    unaligned tensor VAs. *)

val partition_range : total:int -> part_idx:int -> part_count:int -> int * int
(** [(first, count)] of the slice a partition covers; partitions differ by at
    most one element and tile the whole range. *)

val flops : Shader.op -> Job_desc.params -> int64
(** Analytic FLOP count of a job at the shapes given — used both by the
    runtime to stamp [flops_hint] at model scale and by tests. *)
