(** Selective memory synchronization (§5).

    The cloud (GPU stack) and client (GPU) each hold a local memory; at job
    boundaries the shims exchange just enough of it to preserve the semantics
    of CPU/GPU interaction. A [t] tracks one direction's sender state — the
    baseline of pages the peer is known to hold, plus a content-addressed
    store of every body it ever shipped — and the same endpoint's receiver
    state for the opposite direction (the store that resolves inbound hash
    references).

    Metastate = page-table pages (walked from the registered roots) plus the
    materialized pages of regions mapped as [Code] or [Cmd]. Program data
    (inputs, weights, activations) is never shipped in meta-only mode; in
    Naive mode its *model-scale* size is charged per referenced buffer.

    The fast path: {!Grt_gpu.Mem.page_gen} stamps let [sync_meta] skip pages
    untouched since their last examination (always on: it only saves
    visits, the wire is the same); the page-table walk is cached and invalidated by the same stamps, and each
    metastate region registration merges its page range into a flat sorted
    set (data regions leave it alone). With [Mode.memsync_dedup] /
    [Mode.memsync_adaptive] the wire switches to tagged page records
    carrying the cheapest encoding per page, including an 8-byte reference
    to content the peer provably holds. *)

type region = {
  name : string;
  usage : Grt_runtime.Session.usage;
  va : int64;
  pa : int64;
  model_bytes : int;
  actual_bytes : int;
}

val region_of_session : Grt_runtime.Session.region -> region

(** How one shipped page is represented on the wire. [Enc_hash_ref] bodies
    are an 8-byte content hash; the other encodings are self-describing. *)
type encoding = Enc_raw | Enc_raw_rc | Enc_delta | Enc_delta_rc | Enc_hash_ref

val encoding_to_int : encoding -> int
val encoding_of_int : int -> encoding option
val encoding_name : encoding -> string

val hash_page : bytes -> int64
(** Content hash used by the page stores (FNV-1a 64). *)

(** Receiver-side content store, also usable standalone (the replayer keeps
    one to resolve hash references while re-applying a recording). *)
module Store : sig
  type s

  val create : unit -> s

  val learn : s -> bytes -> unit
  (** [learn s data] files [data] itself (not a copy) under its hash: the
      caller must not mutate [data] afterwards. *)

  val find : s -> int64 -> bytes option

  val file : s -> int64 -> bytes -> unit
  (** [file s h data] files [data] itself under [h], replacing what was
      there. {!learn} is [file s (hash_page data) data]; passing any other
      [h] models a hash collision. *)
end

type shared
(** State shared by all sessions recorded under one cache key (see
    {!Service}):
    - the content store of every page body the key's sessions shipped;
    - the codec book: for each (baseline, page) pair a session encoded, the
      encoding the adaptive selection chose. A later session encoding the
      same pair reuses it, provided the store still holds the very buffers
      the entry was computed from and they equal the session's own (no hash
      is trusted). The book keeps references to the store's buffers, never
      copies. *)

val create_shared : unit -> shared

val shared_pages : shared -> Store.s
(** The key's content store. Filing other bytes under a page's hash models
    a hash collision, which the book must not trust. *)

type t

val create : ?shared:shared -> Mode.config -> t
(** [?shared] is the key's {!shared} state: a page body some earlier
    same-key session already shipped is charged to the wire as an 8-byte
    hash reference ([cross = true] on its record) instead of its full
    encoding, and adaptive selection goes through the codec book. Sharing
    affects wire accounting, metrics and host time only — the logged record
    keeps the full self-contained encoding, so recordings are byte-identical
    with or without it. *)

val register_region : t -> region -> unit
val regions : t -> region list
val region_containing : t -> va:int64 -> region option

val register_pt_root : t -> fmt:Grt_gpu.Sku.pt_format -> root_pa:int64 -> unit
(** Called when the shim observes an AS_TRANSTAB programming. *)

val meta_set : t -> Grt_gpu.Mem.t -> int array
(** Current metastate page set, sorted. Cached: the page-table walk reruns
    only when a walked table page's generation stamp moved, and the merged
    set is rebuilt only when a root or a metastate region was registered.
    The array is the cache itself: the caller must not mutate it. *)

type page_record = {
  pfn : int64;
  data : bytes;
      (** full page contents; read-only: the sender keeps the same buffer
          as its baseline and, on the tagged wire, in its content stores —
          under a {!shared} state, across every session of the key *)
  enc : encoding;
  body : bytes;  (** wire form of the contents under [enc] *)
  wire : int;  (** bytes charged to the link for this record, header included *)
  cross : bool;
      (** the shared cross-session store already held this content, so [wire]
          is a hash reference's size; [enc]/[body] (and the logged record)
          still carry the full encoding *)
}

val tagged_record_wire : pfn:int64 -> body:bytes -> int
(** Wire-accounting bytes for one tagged page record — exactly its
    serialized size: varint pfn + encoding-tag byte + varint length +
    body. *)

val hash_ref_wire : pfn:int64 -> int
(** Wire-accounting bytes for a hash-reference record for [pfn] (8-byte
    body) — what a cross-session dedup hit is charged. *)

type sync_payload = {
  records : page_record list;
  tagged : bool;
      (** true when the wire carries per-record encoding tags ([Mode.memsync_dedup]
          or [Mode.memsync_adaptive]); false is the historical full-page format *)
  wire_bytes : int;  (** bytes on the wire after encoding *)
  raw_bytes : int;  (** bytes before delta + compression *)
  visited : int;  (** meta pages examined (dirty tracking skips the rest) *)
  total : int;  (** meta pages in scope *)
}

val pages : sync_payload -> (int64 * bytes) list
(** The shipped pages as [(pfn, full contents)], in record order. *)

val wire_records : sync_payload -> (int64 * encoding * bytes) list
(** The tagged wire form of the payload, for logging into a recording. *)

val payload_of_pages : (int64 * bytes) list -> sync_payload
(** Wrap already-known full pages (e.g. from a logged [Mem_load] entry)
    into an untagged payload with zero wire accounting. *)

val per_page_header : int
(** Wire-accounting bytes charged per page record (pfn + length). *)

val sync_meta : t -> Grt_gpu.Mem.t -> sync_payload
(** Diff the metastate against the baseline, advance the baseline, and
    return what must be shipped. *)

val apply : t -> Grt_gpu.Mem.t -> sync_payload -> unit
(** Install the shipped pages into the receiving memory, [t] being the
    receiving endpoint: tagged payloads are decoded through [t]'s content
    store (which learns every installed body), untagged ones install the
    full contents directly. *)

val apply_records : t -> Grt_gpu.Mem.t -> (int64 * encoding * bytes) list -> (int64 * bytes) list
(** Decode and install tagged wire records (e.g. from a logged
    [Mem_load_enc] entry) through [t]'s receiver store; returns the full
    installed contents in order. *)

val decode_records :
  Store.s -> Grt_gpu.Mem.t -> (int64 * encoding * bytes) list -> (int64 * bytes) list
(** Same, against a standalone store — the replayer's path. Raises
    [Failure] on a hash reference the store cannot resolve. *)

val note_peer_page : t -> int64 -> bytes -> unit
(** Teach the baseline that the peer now holds [contents] for [pfn] —
    called when a page arrives from the other direction, so it is not
    echoed back on the next sync. Deliberately does {e not} feed the dedup
    store: hash references must only point at content this sender shipped
    itself, or a recording's references could dangle on replay. Like
    {!Store.learn}, it keeps [contents] itself: the caller must not mutate
    it afterwards (decoded and recorded pages never are). *)

val note_shipped : t -> int64 -> bytes -> unit
(** Re-teach the sender state while replaying a validated log prefix
    (§4.2): baseline plus, under the tagged format, the shipped-content
    store — as if this endpoint had shipped the page live. Keeps
    [contents] itself, as {!note_peer_page} does. *)

val naive_down_bytes : t -> Grt_gpu.Mem.t -> chain_va:int64 -> int
(** Model-scale bytes Naive mode must push to the client before the job at
    [chain_va]: every referenced data buffer the client does not hold yet
    (weights and staged inputs ship once; activations the GPU produced are
    already client-side). *)

val naive_up_bytes : t -> Grt_gpu.Mem.t -> chain_va:int64 -> int
(** Model-scale bytes Naive mode pulls back after the job: the output
    buffers the GPU wrote. *)
