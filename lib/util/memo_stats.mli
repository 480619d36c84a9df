(** Process-wide profiling registry for the content-keyed memo tables.

    The one hot-path memo left (range-coder decode, [rc.decode]) is a pure
    cache: it can only change performance, never bytes. That also makes
    it invisible — a memo that thrashes or whose quick-key collides shows
    up as wall-clock, not as a counter. Each memo registers one [t] here
    and bumps it from its own hit/miss branches, so [bench speed --json]
    can attribute cache behaviour per memo.

    Counters are plain [int] cells on the host side of the simulation: they
    are deliberately outside the virtual clock, the {!Counters} plane and
    every recorded blob, so instrumentation cannot perturb outcomes.

    Cells are *domain-local* (via [Domain.DLS]), matching the memo tables
    they profile: each domain counts against its own private caches, so a
    parallel fleet run is race-free by construction. [t] itself is a
    process-wide handle — register at module-initialisation time, before
    any domain is spawned. A worker domain hands its numbers back with
    {!export}; the spawning domain folds them in with {!absorb}, after
    which {!to_json} reports the whole run. Only a spawned domain exports:
    work run on the calling domain already counts into its cells.

    - [hits]        full-verification hits ([Bytes.equal] passed)
    - [misses]      lookups that had to recompute (absent or mismatched)
    - [mismatches]  quick-key matched but the full compare failed (the
                    collision the full verification exists to catch); every
                    mismatch is also counted as a miss
    - [evictions]   entries dropped by capacity resets, summed
    - [resident] / [resident_bytes]  live-entry gauges (approximate key +
      payload footprint as reported by the call site) *)

type t

val register : string -> t
(** [register name] returns the stats cell for [name], creating it on first
    use. Idempotent: the same name always yields the same cell, so module
    initialisers can call it unconditionally. *)

val name : t -> string

val hit : t -> unit
val miss : t -> unit
val mismatch : t -> unit

val evicted : t -> entries:int -> unit
(** A capacity reset dropped [entries] live entries: adds to the eviction
    counter and zeroes both resident gauges. *)

val added : t -> bytes:int -> unit
(** A new entry became resident, occupying roughly [bytes]. *)

val replaced : t -> old_bytes:int -> bytes:int -> unit
(** An existing entry was overwritten in place (quick-key collision):
    resident count is unchanged, the byte gauge moves by the difference. *)

type snap = {
  s_hits : int;
  s_misses : int;
  s_mismatches : int;
  s_evictions : int;
  s_resident : int;
  s_resident_bytes : int;
}

val snapshot : t -> snap
(** The calling domain's counters for [t]. *)

val export : unit -> (string * snap) list
(** Every cell of the *calling domain*, sorted by name — a worker domain
    calls this just before finishing so the spawner can {!absorb} it. *)

val absorb : (string * snap) list -> unit
(** Fold an {!export}ed worker profile into the calling domain's cells
    (counters and resident gauges sum; unknown names are ignored). *)

val all : unit -> t list
(** Every registered cell, sorted by name. *)

val reset_counters : unit -> unit
(** Zero hit/miss/mismatch/eviction counters on every cell, keeping the
    resident gauges (they describe live tables, not a sampling window).
    The bench harness calls this before each measured row. *)

val snap_json : snap -> Json.t
val to_json : unit -> Json.t
(** Object keyed by memo name, each value a {!snap_json}. *)
