(** Domain-level parallelism for fleet sharding. Domain-local state (the
    memo tables and their {!Memo_stats} cells) uses [Domain.DLS] directly;
    this module only fans shards out over domains. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — an upper bound worth using for
    fleet sharding on this host. *)

val run_shards : (int -> 'a -> 'b) -> 'a array -> 'b array
(** [run_shards f shards] computes [[| f 0 shards.(0); f 1 shards.(1); .. |]].

    With two or more shards, every shard runs on a fresh spawned domain
    (the caller only joins), so [f]'s domain-local state is private to its
    shard. A single shard (or none) runs on the calling domain.

    Shards may only share state that is immutable (or domain-local) for the
    duration of the call. If any shard raises, the remaining shards still
    run to completion (domains must be joined) and the lowest-indexed
    shard's exception is re-raised. *)
