(** Statistic counters, one per {!Metrics.key}.

    The recorder, shims and network layer account everything they do
    (register accesses, commits, round trips, bytes, speculation hits) into a
    counter set which the benchmark harness turns into the paper's tables.
    A set is one dense store indexed by key: writes are typed, so a counter
    outside the {!Metrics} schema cannot exist. *)

type t

val create : unit -> t
val incr : t -> Metrics.key -> unit
val add : t -> Metrics.key -> int -> unit

val read : t -> Metrics.key -> int
(** Typed read; a key never written reads 0. *)

val get : t -> string -> int64
(** By-name read through {!Metrics.of_name}; a name outside the schema, or a
    key never written, reads 0. *)

val get_int : t -> string -> int

val to_alist : t -> (string * int64) list
(** Every key written so far (a write of 0 counts), by {!Metrics.name},
    sorted by name. *)

val merge_into : dst:t -> src:t -> unit
(** Adds every counter [src] has written into [dst]. *)

val pp : Format.formatter -> t -> unit
