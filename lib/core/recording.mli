(** Recordings: the interaction log plus the data-slot binding table.

    A recording is what the cloud service produces from a dry run and what
    the client TEE replays (§2.3, §3.2). It contains:

    - the ordered CPU→GPU stimuli and GPU→CPU responses: register writes,
      register reads (with expected values), polling loops, interrupt waits;
    - memory images: the metastate pages (page tables, shaders, command
      streams) the cloud synchronized before each job;
    - the binding table: where new inputs, model parameters and outputs live
      in the recorded GPU address space — replay injects fresh data there;
    - the SKU identity it was recorded against, and the cloud's signature.

    The replayer refuses recordings whose signature does not verify or whose
    SKU does not match the local GPU (§2.4). *)

type poll_cond = Until_set | Until_clear

type entry =
  | Reg_write of { reg : int; value : int64 }
  | Reg_read of { reg : int; value : int64; verify : bool }
      (** [verify = false] for legitimately nondeterministic registers *)
  | Poll of { reg : int; mask : int64; cond : poll_cond; max_iters : int; spin_ns : int64 }
  | Wait_irq of { line : int }  (** 0 = job, 1 = gpu, 2 = mmu *)
  | Mem_load of { pages : (int64 * bytes) list }  (** (pfn, contents) *)
  | Mem_load_enc of { records : (int64 * Memsync.encoding * bytes) list }
      (** tagged page records under the memsync dedup/adaptive wire format:
          [(pfn, encoding, wire body)]. Decoded in log order against the
          replayer's content store — a hash reference always resolves to a
          body carried in full by an earlier record. *)

type log = { mutable items : entry list; mutable len : int }
(** Entry log under construction, newest first, with O(1) length. *)

val new_log : unit -> log
val log_push : log -> entry -> unit

val irq_line_to_int : Grt_gpu.Device.irq_line -> int
val irq_line_of_int : int -> Grt_gpu.Device.irq_line option

type slot = {
  slot_name : string;
  kind : [ `Input | `Output | `Param ];
  va : int64;
  pa : int64;
  actual_bytes : int;
  model_bytes : int;
}

type t = {
  workload : string;
  gpu_id : int64;
  entries : entry array;
  slots : slot list;
}

val input_slot : t -> slot option
val output_slot : t -> slot option
val param_slots : t -> slot list

val serialize : t -> bytes
(** Flat unsigned encoding of the whole recording, entry log in one piece.
    Nothing parses it back: it measures a recording ({!size_bytes}). *)

val default_chunk_entries : int
(** Entries per chunk used by [sign] unless overridden (64). *)

val sign : ?chunk_entries:int -> key:Grt_tee.Crypto.key -> t -> bytes
(** Signed chunked blob (version 2, the only format a replayer accepts) —
    the artifact the client downloads.
    The entry log is split into chunks of [chunk_entries]; the signed
    header carries each chunk's FNV hash and their Merkle root, so a
    replayer can verify chunks as it streams them. *)

val verify_and_parse : key:Grt_tee.Crypto.key -> bytes -> (t, string) result
(** Full eager verification: header signature, every chunk hash and the
    Merkle root. Any other version field is an [Error]. *)

(** {2 Streaming access}

    The replay compiler parses the signed header once and defers each
    chunk's hash check to just before that chunk executes. *)

type chunk = {
  chunk_first : int;  (** index of the chunk's first entry in the log *)
  chunk_count : int;
  chunk_hash : int64;  (** signed FNV-1a hash of [chunk_raw] *)
  chunk_raw : bytes;
}

type verified = {
  vrec : t;
  vchunks : chunk array;
  vroot : int64;  (** Merkle root over chunk hashes — the recording's identity *)
}

val parse_signed : key:Grt_tee.Crypto.key -> bytes -> (verified, string) result
(** Verify the MACed header and parse. Chunk bodies are {e not}
    hash-checked here — callers stream-verify them with [verify_chunk], or
    use [verify_and_parse] for the eager contract. *)

val verify_chunk : chunk -> bool
(** [verify_chunk c] recomputes [c.chunk_raw]'s hash against the signed
    [c.chunk_hash]. *)

val merkle_root : int64 list -> int64
(** Pairwise [Hashing.combine] fold; the identity attested for a replay. *)

val size_bytes : t -> int
val count_entries : t -> [ `Writes | `Reads | `Polls | `Irqs | `Mem_pages ] -> int
