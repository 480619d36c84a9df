(** Recorder configurations compared in the evaluation (§7.2).

    - [Naive]: a blocking round trip per register access, full GPU memory
      synchronized before/after every job.
    - [Ours_m]: adds meta-only memory synchronization (§5).
    - [Ours_md]: adds register access deferral (§4.1) — one RTT per commit.
    - [Ours_mds]: adds speculation and polling-loop offload (§4.2, §4.3) —
      GR-T with all techniques. *)

type t = Naive | Ours_m | Ours_md | Ours_mds

val all : t list
val name : t -> string
val of_name : string -> t option
val pp : Format.formatter -> t -> unit

val meta_only_sync : t -> bool
val deferral : t -> bool
val speculation : t -> bool

(** Fine-grained knobs, for the ablation benches. *)
type config = {
  mode : t;
  spec_history_k : int;  (** confidence threshold (paper: 3) *)
  offload_polling : bool;
  compress_dumps : bool;
  delta_dumps : bool;
  commit_on_kernel_api : bool;
      (** commit at lock/unlock boundaries (disabling this is unsound under
          concurrency and exists only to measure the cost of soundness) *)
  hot_function_scope : bool;  (** restrict deferral to profiled hot functions *)
  continuous_validation : bool;
      (** §5's safety net: unmap dumped regions from the CPU between a job
          start and its completion so spurious accesses trap *)
  degraded_mode : bool;
      (** when the link reports a persistently lossy channel, suspend
          speculation and commit synchronously until it recovers *)
  max_inflight : int;
      (** cap on speculative commits outstanding at once. 0 (the default)
          means unbounded — the historical behaviour, where only epoch and
          dependency stalls drain the queue. With [n > 0], dispatching the
          (n+1)-th speculative commit first validates the oldest outstanding
          one in FIFO order; pair with a [Link] window of the same size to
          pipeline the wire ([net.window_stalls] then backpressures the
          shim). Validation order, [validated_prefix] and degraded-mode
          suppression are unaffected. *)
  memsync_dedup : bool;
      (** content-addressed page store: ship an 8-byte hash reference when
          the peer provably holds the page body already. Changes the wire
          and recording format (tagged page records), so it is off by
          default. *)
  memsync_adaptive : bool;
      (** pick the cheapest per-page encoding (raw / range-coded raw /
          delta / range-coded delta / hash reference) instead of applying
          delta + range coding unconditionally. Implies the tagged wire
          format; off by default. *)
}

val default_config : t -> config
