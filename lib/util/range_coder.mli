(** Order-0 adaptive range coder.

    GR-T compresses memory-dump deltas with range encoding (§5). This is a
    real, self-contained implementation: an adaptive byte-frequency model
    driving a 32-bit Witten–Neal–Cleary arithmetic coder with pending-bit
    (underflow) handling. Compression ratios on the sparse, zero-dominated
    dumps the recorder produces are what make the paper's meta-only
    synchronization traffic numbers hold. *)

val encode : bytes -> bytes
(** [encode data] compresses [data]. The output embeds the original length. *)

val encode_within : limit:int -> bytes -> bytes option
(** [encode_within ~limit data] is [Some (encode data)] when that is at most
    [limit] bytes long, and [None] otherwise. It stops coding as soon as the
    output can no longer fit, so a caller that only wants the coded form
    when it beats some alternative pays for no more than that. *)

val decode : bytes -> bytes
(** [decode blob] inverts {!encode}. Raises [Failure] on corrupt input,
    including a declared length the body is too short to have encoded
    (rejected before anything is allocated for it). Results are memoized
    per domain; the caller owns the returned buffer. *)

val ratio : bytes -> float
(** [ratio data] is [compressed_size /. original_size] (1.0 for empty
    input). Convenience for traffic accounting. *)

val encode_guarded : bytes -> bytes
(** Like {!encode} but prefixed with a 1-byte tag and falling back to
    storing the input raw whenever coding would expand it: the output is
    never more than one byte larger than the input. *)

val decode_guarded : bytes -> bytes
(** Inverts {!encode_guarded}. Raises [Failure] on corrupt input. *)
