(** Non-cryptographic and keyed hashing used across the simulator.

    [fnv1a_*] are used for content signatures (page deltas, commit-site
    signatures). [hmac] is a keyed construction over FNV; it stands in for a
    real HMAC in the simulated trust chain — the point is to exercise the
    sign/verify control flow, not to provide actual cryptographic strength. *)

val fnv1a_bytes : ?seed:int64 -> bytes -> int64
(** Hash an entire byte buffer. *)

val fnv1a_sub : bytes -> pos:int -> len:int -> int64
(** Hash a slice of a byte buffer. *)

val fnv1a_string : string -> int64

val combine : int64 -> int64 -> int64
(** Mix two hash values into one (order-sensitive). *)

val hmac : key:string -> bytes -> int64
(** Keyed hash: distinct keys produce unrelated digests for the same data. *)

val quick : ?seed:int -> bytes -> int
(** Fast word-at-a-time content key for process-internal memo tables. This
    is NOT a wire-format hash — it may change between versions — and
    collisions are expected to be resolved by the caller (compare the full
    input before trusting a hit). Roughly 5x the throughput of
    [fnv1a_bytes] on data without zero words. *)

val crc32 : bytes -> int32
(** CRC-32 (IEEE polynomial), used for framing checksums on the simulated
    network channel. *)
