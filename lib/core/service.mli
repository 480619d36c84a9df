(** The multi-session recording service.

    The cloud side of §3.1 at fleet scale: many clients request recordings;
    the service multiplexes their sessions over one virtual timeline
    ({!Grt_sim.Sched}) and answers repeat requests from a content-addressed
    cache of already-signed blobs, so the expensive dry run happens once per
    distinct (workload, GPU, stack, wire format) and every other client
    pays only the attested download.

    Cross-session state (§7.3): sessions of the same (network, SKU) share
    one {!Spec_history} table — later recordings speculate confidently from
    the first access — and same-key sessions share a {!Memsync.Store} so a
    re-recording after eviction ships mostly hash references.

    Determinism: cache decisions are taken at client *arrival*, in arrival
    order, and recordings of a share group are serialized in ticket order
    assigned at decision time. A failed recording re-arms its entry by
    promoting the earliest coalesced waiter into the recorder role (it
    inherits the failed ticket's turnstile slot), mirroring sequential
    mode's retry at the next same-key arrival. The multiplexed and
    sequential execution modes therefore produce identical signed blobs
    and identical per-session counters (only waiting time and outcome
    labelling — [Cache_hit] vs [Coalesced] — differ), which the
    interleaving-determinism property test checks, lossy channels and
    bounded caches included. *)

type key = int64

val runtime_version : string
(** The GPU-stack identity baked into every cache key (the image name of
    {!Cloudvm.default_image}). *)

val cache_key : cfg:Mode.config -> sku:Grt_gpu.Sku.t -> net:Grt_mlfw.Network.t -> key
(** FNV-1a over (network, SKU, runtime version, recording-format mode
    flags). *)

val key_label : cfg:Mode.config -> sku:Grt_gpu.Sku.t -> net:Grt_mlfw.Network.t -> string
(** Human-readable form of the key's components. *)

val recording_seed : key -> int64
(** The seed recordings under [key] run with. Key-derived — not
    client-derived — so the cached blob is a deterministic function of the
    key, whichever client triggers the recording. *)

type client_spec = {
  client_id : int;  (** unique per fleet *)
  arrival_ns : int64;  (** global virtual arrival time *)
  net : Grt_mlfw.Network.t;
  sku : Grt_gpu.Sku.t;
  profile : Grt_net.Profile.t;
  cfg : Mode.config;
  inject_fault_after : int option;
      (** armed only if this client ends up recording *)
}

type outcome =
  | Recorded of Orchestrate.record_outcome  (** this client ran the dry run *)
  | Cache_hit  (** served from a resident blob *)
  | Coalesced  (** waited on an in-flight recording, then served *)
  | Failed of string

val outcome_name : outcome -> string

val served : outcome -> bool
(** [Cache_hit] or [Coalesced]. *)

type session_report = {
  spec : client_spec;
  key : key;
  label : string;
  outcome : outcome;
  turnaround_s : float;
      (** session-clock time from arrival to served/recorded, including any
          coalescing wait *)
  blob_bytes : int;
  counters : Grt_sim.Counters.t;  (** this session's counter set *)
}

type t

val create : ?cache_capacity:int -> unit -> t
(** [cache_capacity] bounds resident entries (LRU by decision-time touch
    order, preferring victims idle since before the current run); 0
    (default) = unbounded. Per-key shared stores and per-group histories
    survive eviction — only the signed blob is dropped. *)

type shard_stat = {
  shard_index : int;
  shard_groups : int;  (** distinct share groups executed on this shard *)
  shard_clients : int;
  shard_yields : int;
  shard_switches : int;
}

type run_stats = {
  rs_mode : string;  (** ["sequential"], ["multiplexed"] or ["parallel"] *)
  rs_domains : int;  (** domains requested (1 unless mode is parallel) *)
  rs_parallel : bool;
      (** the shards actually ran on separate domains — [false] when only
          one shard materialized *)
  rs_virtual_ns : int64;  (** fleet makespan on the virtual timeline *)
  rs_yields : int;  (** task suspensions, summed over shards *)
  rs_switches : int;  (** task resumptions, summed over shards *)
  rs_shards : shard_stat list;  (** one row per executed shard *)
}

val run :
  ?sequential:bool ->
  ?observe:bool ->
  ?domains:int ->
  t ->
  client_spec list ->
  session_report list * run_stats
(** Process a fleet. Clients are ordered by (arrival, id) first. With
    [sequential] (default false) each session runs to completion at its
    arrival — the reference semantics; otherwise sessions are multiplexed
    over a virtual-time scheduler. Reports come back in arrival order. The
    service may be reused across runs — the cache and shared stores
    persist.

    [domains] (default 1; ignored when [sequential]) shards the fleet by
    share group across up to that many OCaml domains, one scheduler per
    shard. Cache decisions are still taken serially at plan time in
    arrival order, sessions that share any mutable state stay on one
    shard, and the per-domain planes are folded back in deterministic
    shard order — so outcomes, signed blobs, per-session counters and
    every [svc.*] total are identical to [~domains:1] (the qcheck fleet
    property pins this). Raises [Invalid_argument] when [domains < 1].

    [observe] (default false) turns on the fleet observability plane for
    this run: per-session span tracers (one Perfetto track each, see
    {!fleet_tracks}), service-phase spans/markers, and the SLO histogram
    set exposed via {!observation}. Observation is write-only — outcomes,
    blobs and per-session counters are identical with it on or off. *)

val aggregate : t -> session_report list -> Grt_sim.Counters.t
(** Fleet-wide counter set: every session's counters merged
    ({!Grt_sim.Counters.merge_into}) plus the service's own [svc.*]
    counters. *)

val service_counters : t -> Grt_sim.Counters.t
(** The service's own counters ([svc.sessions], [svc.cache_hits],
    [svc.coalesced], [svc.recordings], [svc.evictions], [svc.failures],
    plus [svc.cache_misses] and — multiplexed runs only —
    [svc.promotions]). *)

val service_trace : t -> Grt_sim.Trace.t
(** The service's always-on bounded post-mortem ring (topic ["service"]):
    cache evictions, waiter promotions and entry re-arms as typed payloads,
    timestamped on the service-plane clock. Dump it next to the link/shim
    rings when a fleet run fails. *)

type stats = {
  sessions : int;
  recordings : int;
  cache_hits : int;
  cache_misses : int;  (** admissions that had to record (retries included) *)
  coalesced : int;
  promotions : int;  (** waiters promoted to recorder (multiplexed runs only) *)
  failures : int;
  evictions : int;
  resident : int;  (** entries currently in the cache *)
  resident_bytes : int;  (** signed-blob bytes held *)
}

val stats : t -> stats
val hit_rate : stats -> float

val cached_blob : t -> key -> bytes option
(** A copy of [key]'s resident blob — the bytes a served client downloads.
    The cache keeps its own copy of every blob it publishes, verified once
    by the record pipeline; [None] when [key] is not resident. *)

(** {2 The fleet observability plane}

    Enabled per run with [run ~observe:true]; everything below reads back
    what that run collected. The plane is write-only: its clock is advanced
    but never yielded, and nothing it records feeds back into decisions,
    seeds or counters — outcomes are bit-identical with it on or off. *)

type track = {
  track_client : int;
  track_arrival_ns : int64;  (** shift onto the fleet-global timeline *)
  track_order : int;
      (** the session's decision index; [max_int] for a promoted waiter's
          record track, which lists after every session track *)
  track_tracer : Grt_sim.Tracer.t;
}

type observation = {
  obs_hists : Grt_sim.Hist.set;
      (** fleet SLO series: [Svc_turnaround_us], [Svc_ttfb_us],
          [Svc_coalesce_wait_us], [Svc_turnstile_wait_us],
          [Sched_runnable] *)
  obs_tracer : Grt_sim.Tracer.t;
      (** the service's own track: cache-lookup/evict/promotion markers on
          the service-plane clock *)
  mutable obs_tracks : track list;
      (** per-session tracks, newest registration first; sessions register
          when they start, so {!fleet_tracks} sorts by [track_order] *)
  obs_key_ttfb : (string, Grt_sim.Hist.t) Hashtbl.t;
  obs_key_turnaround : (string, Grt_sim.Hist.t) Hashtbl.t;
}

val observation : t -> observation option
(** The last run's observation; [None] when the run was unobserved. *)

val fleet_tracks : t -> Grt_sim.Tracer.track list
(** The last observed run as Perfetto tracks: tid 0 is the service plane,
    client [i] renders on lane [i+1] offset by its arrival (a promoted
    waiter's record tracer rides its own lane too). Session tracks come in
    decision order, then promoted waiters' record tracks. Empty when
    unobserved. Feed to {!Grt_sim.Tracer.tracks_chrome_json}. *)

type listing_row = {
  row_key : key;
  row_label : string;
  row_resident : bool;
  row_blob_bytes : int;
  row_hits : int;
  row_recordings : int;
  row_evictions : int;
}

val cache_listing : t -> listing_row list
(** Every key the service has ever recorded (resident or evicted), sorted
    by label — the [grt_fleet]/[grt_inspect] cache-contents view. *)

type fleet_options = {
  clients : int;
  zipf_s : float;  (** popularity skew over (net, sku) ranks *)
  nets : Grt_mlfw.Network.t list;
  skus : Grt_gpu.Sku.t list;
  fleet_cfg : Mode.config;
  mean_interarrival_s : float;
  fault_fraction : float;  (** clients that arm [inject_fault_after] *)
  degraded_fraction : float;  (** clients behind a lossy channel *)
  fleet_seed : int64;
}

val fastpath_cfg : Mode.config
(** [Ours_mds] + dedup + adaptive encoding — the fleet default. *)

val default_fleet : fleet_options
(** 10k clients, Zipf 1.1 over the full Zoo × SKU catalog, 5 ms mean
    interarrival, 5% fault clients, 10% degraded channels. *)

val zipf_fleet : fleet_options -> client_spec list
(** Deterministic fleet generation from [fleet_seed]: Zipf-popular
    (net, sku) picks, a WiFi-heavy profile mix with optional degradation,
    exponential interarrivals. Raises [Invalid_argument] on a non-positive
    [clients], an empty catalog, a negative or non-finite
    [mean_interarrival_s], or a non-finite [zipf_s]. *)
