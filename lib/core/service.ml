module Sched = Grt_sim.Sched
module Clock = Grt_sim.Clock
module Counters = Grt_sim.Counters
module Metrics = Grt_sim.Metrics
module Hist = Grt_sim.Hist
module Tracer = Grt_sim.Tracer
module Trace = Grt_sim.Trace
module Sku = Grt_gpu.Sku
module Network = Grt_mlfw.Network
module Profile = Grt_net.Profile
module Hashing = Grt_util.Hashing
module Ctx = Session_ctx

type key = int64

(* Lookup-or-create, for the service's many keyed tables. *)
let find_or_add tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add tbl k v;
    v

let runtime_version = Cloudvm.default_image.Cloudvm.image_name

(* ---- cache key derivation ----

   A recording is reusable across clients exactly when it was produced by
   the same GPU stack for the same workload on the same silicon with the
   same wire format. The key folds each of those dimensions with FNV-1a;
   only the recording-format-bearing mode flags participate. *)

let flag b = if b then 1L else 0L

let cache_key ~(cfg : Mode.config) ~(sku : Sku.t) ~(net : Network.t) =
  let h = Hashing.fnv1a_string net.Network.name in
  let h = Hashing.combine h (Hashing.fnv1a_string sku.Sku.name) in
  let h = Hashing.combine h (Hashing.fnv1a_string runtime_version) in
  let h = Hashing.combine h (Hashing.fnv1a_string (Mode.name cfg.Mode.mode)) in
  let h = Hashing.combine h (flag cfg.Mode.memsync_dedup) in
  Hashing.combine h (flag cfg.Mode.memsync_adaptive)

let key_label ~(cfg : Mode.config) ~(sku : Sku.t) ~(net : Network.t) =
  Printf.sprintf "%s/%s/%s/%s%s%s" net.Network.name sku.Sku.name runtime_version
    (Mode.name cfg.Mode.mode)
    (if cfg.Mode.memsync_dedup then "+dedup" else "")
    (if cfg.Mode.memsync_adaptive then "+adaptive" else "")

(* Recording sessions run under a key-derived seed, not a client-derived
   one: the signed blob depends on the seed (device salts, dry-run data),
   so deriving it from the key makes the cached artifact a deterministic
   function of the key — whichever client happens to trigger the recording,
   and however many times an evicted key is re-recorded. *)
let recording_seed key = Hashing.combine key 0x7265636f7264L (* "record" *)

let serve_seed key ~client_id = Hashing.combine (recording_seed key) (Int64.of_int client_id)

(* ---- clients ---- *)

type client_spec = {
  client_id : int;
  arrival_ns : int64;
  net : Network.t;
  sku : Sku.t;
  profile : Profile.t;
  cfg : Mode.config;
  inject_fault_after : int option;
}

type outcome =
  | Recorded of Orchestrate.record_outcome
  | Cache_hit
  | Coalesced
  | Failed of string

let outcome_name = function
  | Recorded _ -> "recorded"
  | Cache_hit -> "cache_hit"
  | Coalesced -> "coalesced"
  | Failed _ -> "failed"

let served = function Cache_hit | Coalesced -> true | Recorded _ | Failed _ -> false

type session_report = {
  spec : client_spec;
  key : key;
  label : string;
  outcome : outcome;
  turnaround_s : float;
  blob_bytes : int;
  counters : Counters.t;
}

(* ---- service state ---- *)

(* Per-key state that outlives cache residency: eviction drops the signed
   blob, not the fleet's knowledge. The shared memsync store models what
   the client population already holds, so a re-recording after eviction
   ships mostly hash references, and its codec book spares re-encoding the
   pages an earlier recording of the key encoded; the stats feed the cache
   listing. *)
type keyed = {
  key : key;
  label : string;
  sync_store : Memsync.shared;
  mutable hits : int;  (* cache hits + coalesced serves *)
  mutable recordings : int;
  mutable evictions : int;
}

type entry = {
  uid : int;  (* identity for per-run condition variables *)
  keyed : keyed;
  mutable blob : bytes option;
      (* the service's own copy of the published blob, verified once by the
         record pipeline that produced it; never handed out, so nothing done
         to a report's bytes can reach a later serve *)
  mutable inflight : bool;
  mutable last_touch : int;  (* decision sequence number (LRU order) *)
  mutable touch_epoch : int;  (* run counter at the last touch *)
}

(* ---- observability plane ----

   The fleet plane is strictly write-only with respect to outcomes: its
   clock is advanced with [advance_to] (never yielded), its histograms and
   tracer read clocks without moving them, and nothing here feeds back into
   decisions, seeds or session counters — so a run with the plane enabled
   is outcome-identical to one without (the differential test pins this). *)

type track = {
  track_client : int;
  track_arrival_ns : int64;
  track_order : int;  (* decision index; [max_int] for a promoted waiter's record track *)
  track_tracer : Tracer.t;
}

type observation = {
  obs_hists : Hist.set;  (* fleet-wide SLO series (turnaround, TTFB, waits) *)
  obs_tracer : Tracer.t;  (* the service's own track: lookups, evicts, promotions *)
  mutable obs_tracks : track list;  (* per-session span tracks, newest first *)
  obs_key_ttfb : (string, Hist.t) Hashtbl.t;  (* label -> TTFB series *)
  obs_key_turnaround : (string, Hist.t) Hashtbl.t;  (* label -> turnaround series *)
}

type t = {
  capacity : int;  (* resident entries; 0 = unbounded *)
  cache : (key, entry) Hashtbl.t;
  keyed_tbl : (key, keyed) Hashtbl.t;
  histories : (string, Spec_history.t) Hashtbl.t;
      (* (net, sku) -> speculation history shared across all sessions of
         that pair, whatever their mode flags (§7.3) *)
  svc : Counters.t;
  svc_clock : Clock.t;
      (* service-plane timeline: advanced (never yielded) to each admission's
         arrival, so service events carry fleet-global timestamps *)
  svc_trace : Trace.t;
      (* always-on bounded post-mortem ring (topic "service"): evictions,
         waiter promotions, re-arms — dumped when a fleet run fails *)
  mutable touch_seq : int;
  mutable uid_seq : int;
  mutable run_epoch : int;  (* bumped per [run]; feeds eviction preference *)
  mutable obs : observation option;  (* present for the duration of an observed run *)
}

let create ?(cache_capacity = 0) () =
  if cache_capacity < 0 then invalid_arg "Service.create: negative capacity";
  let svc = Counters.create () in
  let svc_clock = Clock.create () in
  {
    capacity = cache_capacity;
    cache = Hashtbl.create 64;
    keyed_tbl = Hashtbl.create 64;
    histories = Hashtbl.create 16;
    svc;
    svc_clock;
    svc_trace = Trace.create ~capacity:1024 svc_clock;
    touch_seq = 0;
    uid_seq = 0;
    run_epoch = 0;
    obs = None;
  }

let service_counters t = t.svc
let service_trace t = t.svc_trace
let observation t = t.obs

(* ---- execution planes ----

   Everything a *running* session body writes on the service side — typed
   counters, the service clock, the post-mortem ring, the observation — is
   reached through a [worker] plane rather than [t] directly. A
   single-domain run executes against the identity plane ({!worker_of}:
   every field aliases [t]'s own, so behaviour is byte-identical to the
   pre-sharding code). A parallel run gives each domain a private plane
   and folds the planes back into [t] deterministically after the join
   ([merge_worker]). [w_histories] is the exception: it aliases the shared
   per-group table in every plane, and is read-only during execution (all
   groups are materialized at plan time). *)

type worker = {
  w_svc : Counters.t;
  w_clock : Clock.t;
  w_trace : Trace.t;
  w_obs : observation option;
  w_histories : (string, Spec_history.t) Hashtbl.t;
}

let worker_of t =
  {
    w_svc = t.svc;
    w_clock = t.svc_clock;
    w_trace = t.svc_trace;
    w_obs = t.obs;
    w_histories = t.histories;
  }

let key_hist tbl label = find_or_add tbl label (fun () -> Hist.create ~name:label ())

(* Sample a session-local duration (ns so far on the session clock) into a
   fleet series, in µs, plus the per-key table when one is given. *)
let obs_sample w ?label hkey ns =
  match w.w_obs with
  | None -> ()
  | Some o ->
    let us = Int64.to_int (Int64.div ns 1_000L) in
    Hist.record o.obs_hists hkey us;
    (match label with
    | Some (tbl, l) -> Hist.observe (key_hist (tbl o) l) us
    | None -> ())

let obs_ttfb w (e : entry) ctx =
  obs_sample w
    ~label:((fun o -> o.obs_key_ttfb), e.keyed.label)
    Hist.Svc_ttfb_us
    (Clock.now_ns ctx.Ctx.clock)

let register_track w (spec : client_spec) ~order ctx =
  match (w.w_obs, ctx.Ctx.tracer) with
  | Some o, Some tr ->
    o.obs_tracks <-
      {
        track_client = spec.client_id;
        track_arrival_ns = spec.arrival_ns;
        track_order = order;
        track_tracer = tr;
      }
      :: o.obs_tracks
  | _ -> ()

(* Perfetto lanes: tid 0 is the service plane, client [i] renders on lane
   [i + 1], shifted onto global time by its arrival. A promoted waiter's
   record-phase tracer registers a second track on the same lane. Session
   tracks are listed in decision order, whenever their sessions started;
   the promoted waiters' record tracks follow, in registration order. *)
let fleet_tracks t =
  match t.obs with
  | None -> []
  | Some o ->
    {
      Tracer.track_tid = 0;
      track_name = "service";
      track_offset_ns = 0L;
      track_tracer = o.obs_tracer;
    }
    :: (List.rev o.obs_tracks
       |> List.stable_sort (fun a b -> compare (a.track_order : int) b.track_order)
       |> List.map (fun tr ->
              {
                Tracer.track_tid = tr.track_client + 1;
                track_name = Printf.sprintf "client-%d" tr.track_client;
                track_offset_ns = tr.track_arrival_ns;
                track_tracer = tr.track_tracer;
              }))

let share_group_of ~(net : Network.t) ~(sku : Sku.t) = net.Network.name ^ "|" ^ sku.Sku.name
let share_group (spec : client_spec) = share_group_of ~net:spec.net ~sku:spec.sku

(* Plan-time lookup-or-create; during parallel execution the table is only
   ever *read* (every group a session can name was materialized by its own
   plan pass), so concurrent shards never mutate it. *)
let history_for w spec = find_or_add w.w_histories (share_group spec) Spec_history.create

let keyed_for t key ~label =
  find_or_add t.keyed_tbl key (fun () ->
      {
        key;
        label;
        sync_store = Memsync.create_shared ();
        hits = 0;
        recordings = 0;
        evictions = 0;
      })

(* ---- arrival-time decisions ----

   The cache decision for every client is taken at its *arrival*, in
   arrival order, before any session work runs. Decisions therefore form
   the same sequence whether the sessions then run multiplexed or
   sequentially — which makes eviction, recorder identity and the shared
   stores deterministic across execution modes (the interleaving-
   determinism property leans on this). *)

type decision =
  | D_serve of entry  (* blob resident *)
  | D_wait of entry  (* recording in flight: coalesce onto it *)
  | D_record of entry  (* this client triggers the recording *)

let evict_if_full t ~for_client =
  if t.capacity > 0 && Hashtbl.length t.cache >= t.capacity then begin
    (* LRU victim, preferring entries idle since before this run: an entry
       touched this run may (under multiplexed execution) carry an
       in-flight recording or coalesced waiters, so it is the worse
       victim. The preference is computed from the decision sequence
       alone — never from [inflight], which reads differently under the
       two execution modes at decision time (sequential settles every
       recording before the next arrival is examined), so consulting it
       would break cross-mode determinism. When every resident entry is
       active this run this degrades to plain LRU, and evicting an entry
       mid-recording stays safe: its waiters keep their reference and are
       served when it settles, while a later same-key miss re-records
       through the key-shared stores — the exact analogue of sequential
       mode's re-record after eviction. *)
    let worse (a : entry) (b : entry) =
      (a.touch_epoch = t.run_epoch, a.last_touch) > (b.touch_epoch = t.run_epoch, b.last_touch)
    in
    let victim =
      Hashtbl.fold
        (fun _ e acc -> match acc with Some b when worse e b -> acc | _ -> Some e)
        t.cache None
    in
    match victim with
    | Some e ->
      Hashtbl.remove t.cache e.keyed.key;
      e.keyed.evictions <- e.keyed.evictions + 1;
      Counters.incr t.svc Metrics.Svc_evictions;
      let blob_bytes = match e.blob with Some b -> Bytes.length b | None -> 0 in
      Trace.event t.svc_trace
        (Trace.Evict { label = e.keyed.label; client = for_client; blob_bytes });
      Option.iter
        (fun o ->
          Tracer.instant o.obs_tracer ~cat:Tracer.Svc_evict
            ~args:
              [
                ("label", e.keyed.label);
                ("for", Printf.sprintf "client-%d" for_client);
                ("blob_bytes", string_of_int blob_bytes);
              ]
            "evict")
        t.obs
    | None -> ()
  end

let decision_name = function D_serve _ -> "serve" | D_wait _ -> "wait" | D_record _ -> "record"
let decision_entry = function D_serve e | D_wait e | D_record e -> e

let decide t (spec : client_spec) =
  (* Admissions are examined in arrival order (the plan pass sorts), so the
     service clock only ever moves forward here. *)
  Clock.advance_to t.svc_clock spec.arrival_ns;
  let key = cache_key ~cfg:spec.cfg ~sku:spec.sku ~net:spec.net in
  t.touch_seq <- t.touch_seq + 1;
  let touch = t.touch_seq in
  let touch_entry e =
    e.last_touch <- touch;
    e.touch_epoch <- t.run_epoch
  in
  let d =
    match Hashtbl.find_opt t.cache key with
    | Some e when e.blob <> None ->
      touch_entry e;
      D_serve e
    | Some e when e.inflight ->
      touch_entry e;
      D_wait e
    | Some e ->
      (* resident but its recording failed: this client retries *)
      touch_entry e;
      e.inflight <- true;
      Counters.incr t.svc Metrics.Svc_cache_misses;
      Trace.event t.svc_trace (Trace.Rearm { label = e.keyed.label; client = spec.client_id });
      D_record e
    | None ->
      evict_if_full t ~for_client:spec.client_id;
      let keyed = keyed_for t key ~label:(key_label ~cfg:spec.cfg ~sku:spec.sku ~net:spec.net) in
      t.uid_seq <- t.uid_seq + 1;
      let e =
        {
          uid = t.uid_seq;
          keyed;
          blob = None;
          inflight = true;
          last_touch = touch;
          touch_epoch = t.run_epoch;
        }
      in
      Hashtbl.replace t.cache key e;
      Counters.incr t.svc Metrics.Svc_cache_misses;
      D_record e
  in
  (match t.obs with
  | Some o ->
    Tracer.instant o.obs_tracer ~cat:Tracer.Svc_cache_lookup
      ~args:
        [
          ("client", string_of_int spec.client_id);
          ("key", (decision_entry d).keyed.label);
          ("decision", decision_name d);
        ]
      "cache-lookup"
  | None -> ());
  d

(* ---- session bodies ----

   Under the scheduler a session's clock is created at plan time, because
   the scheduler needs it at spawn; the rest of its context is built on
   that clock when the session starts, so only in-flight sessions hold
   one. The ctx clock is the task clock, so every blocking wait inside the
   session is a scheduler yield point. *)

let serve_ctx ?clock w (spec : client_spec) (e : entry) =
  let options = { Ctx.default_options with Ctx.observe = w.w_obs <> None } in
  Ctx.create ~options ?clock ~cfg:spec.cfg ~profile:spec.profile ~sku:spec.sku ~net:spec.net
    ~seed:(serve_seed e.keyed.key ~client_id:spec.client_id)
    ~granularity:`Monolithic ()

let record_ctx ?clock w (spec : client_spec) (e : entry) =
  let options =
    {
      Ctx.default_options with
      Ctx.history = Some (history_for w spec);
      sync_store = Some e.keyed.sync_store;
      inject_fault_after = spec.inject_fault_after;
      observe = w.w_obs <> None;
    }
  in
  Ctx.create ~options ?clock ~cfg:spec.cfg ~profile:spec.profile ~sku:spec.sku ~net:spec.net
    ~seed:(recording_seed e.keyed.key) ~granularity:`Monolithic ()

(* Build a starting session's context and register its track. *)
let start_session ?clock w spec ~order d =
  let ctx =
    match d with
    | D_record e -> record_ctx ?clock w spec e
    | D_serve e | D_wait e -> serve_ctx ?clock w spec e
  in
  register_track w spec ~order ctx;
  ctx

let report_of ctx (spec : client_spec) (e : entry) outcome ~blob_bytes =
  {
    spec;
    key = e.keyed.key;
    label = e.keyed.label;
    outcome;
    turnaround_s = Grt_sim.Clock.now_s ctx.Ctx.clock;
    blob_bytes;
    counters = ctx.Ctx.counters;
  }

(* Serve a resident blob over [ctx]: attested establishment + download —
   everything of a session except the dry run. The blob was verified when
   it was published ([record_into]), so a serve does not verify it again. *)
let serve w spec (e : entry) ctx ~coalesced =
  let blob = Option.get e.blob in
  (match ctx.Ctx.tracer with
  | Some tr ->
    Tracer.with_span tr ~cat:Tracer.Svc_serve_cached
      ~args:[ ("key", e.keyed.label) ]
      ~name:"serve-cached"
      (fun () -> Orchestrate.serve_cached ctx ~blob)
  | None -> Orchestrate.serve_cached ctx ~blob);
  e.keyed.hits <- e.keyed.hits + 1;
  Counters.incr w.w_svc (if coalesced then Metrics.Svc_coalesced else Metrics.Svc_cache_hits);
  report_of ctx spec e
    (if coalesced then Coalesced else Cache_hit)
    ~blob_bytes:(Bytes.length blob)

(* Record under the key-derived seed and publish the blob into the entry.
   The pipeline has just verified exactly these bytes; the entry keeps its
   own copy, because the outcome's blob also goes out in the [Recorded]
   report. The caller owns turnstile ordering and completion signalling. *)
let record_into w spec (e : entry) ctx =
  let history = history_for w spec in
  Spec_history.new_epoch history;
  let cross0 = Spec_history.cross_hits history in
  match
    Tracer.span_opt ctx.Ctx.tracer ~cat:Tracer.Svc_record
      ~args:[ ("key", e.keyed.label) ]
      ~name:"record"
      (fun () -> Orchestrate.Pipeline.run (Orchestrate.Pipeline.create ctx))
  with
  | outcome ->
    let cross = Spec_history.cross_hits history - cross0 in
    if cross > 0 then Counters.add ctx.Ctx.counters Metrics.Spec_cross_hits cross;
    e.blob <- Some (Bytes.copy outcome.Orchestrate.blob);
    e.inflight <- false;
    e.keyed.recordings <- e.keyed.recordings + 1;
    Counters.incr w.w_svc Metrics.Svc_recordings;
    report_of ctx spec e (Recorded outcome) ~blob_bytes:(Bytes.length outcome.Orchestrate.blob)
  | exception exn ->
    e.inflight <- false;
    Counters.incr w.w_svc Metrics.Svc_failures;
    report_of ctx spec e (Failed (Printexc.to_string exn)) ~blob_bytes:0

(* Report a client that never got a session body to run. [ctx] is the
   session's real context, so turnaround and counters reflect any wait the
   client actually spent (not a fresh zeroed clock). *)
let fail_report w spec (e : entry) ctx msg =
  Counters.incr w.w_svc Metrics.Svc_failures;
  report_of ctx spec e (Failed msg) ~blob_bytes:0

(* A serve can fail live (ARQ collapse on a degraded channel, verification
   failure): keep the fleet running and report the client as failed. *)
let serve_safe w spec (e : entry) ctx ~coalesced =
  try serve w spec e ctx ~coalesced
  with exn ->
    Counters.incr w.w_svc Metrics.Svc_failures;
    report_of ctx spec e (Failed (Printexc.to_string exn)) ~blob_bytes:0

(* ---- sequential execution ----

   Each session runs to completion at its decision point. [D_wait] is
   unreachable: a recording always finishes (or fails) before the next
   arrival is examined. *)

let run_sequential t specs =
  let w = worker_of t in
  List.mapi
    (fun i spec ->
      Counters.incr t.svc Metrics.Svc_sessions;
      let d = decide t spec in
      let ctx = start_session w spec ~order:i d in
      match d with
      | D_serve e ->
        obs_ttfb w e ctx;
        serve_safe w spec e ctx ~coalesced:false
      | D_record e ->
        obs_ttfb w e ctx;
        record_into w spec e ctx
      | D_wait e -> fail_report w spec e ctx "recording in flight with no scheduler")
    specs

(* ---- multiplexed execution ----

   Decisions are taken up front (arrival order), then every session becomes
   a scheduler task entering the shared timeline at its arrival time.
   Same-key sessions coalesce on the entry's condition; recordings of the
   same share group are serialized through a FIFO turnstile (they mutate
   the shared speculation history, and the ticket order — assigned at
   decision time — keeps that mutation order identical to the sequential
   mode's).

   Recording failure re-arms the entry: sequential mode retries a failed
   key at the next same-key arrival, so the failed recorder promotes the
   earliest planned waiter into the recorder role. The promoted waiter
   takes the turnstile slot its own decision position dictates — behind
   group recorders that were decided between the failed recording and the
   waiter's arrival — keeping the shared history/store mutation order, and
   therefore every signed blob and counter, identical to the sequential
   schedule. *)

type entry_sync = {
  e_cond : Sched.cond;  (* signalled whenever the entry's recording settles *)
  mutable e_waiting : int list;  (* plan-order FIFO of coalesced client ids *)
  mutable e_elected : int option;  (* waiter promoted to recorder, if any *)
}

(* Shared planning state. Fully populated by the plan pass (main domain);
   during execution the tables themselves are only read — shards mutate
   the *interior* of per-group/per-entry values they own (queue refs,
   entry syncs), which sharding confines to one domain each. *)
type run_aux = {
  entry_syncs : (int, entry_sync) Hashtbl.t;  (* entry uid -> sync state *)
  group_queues : (string, int list ref) Hashtbl.t;  (* group -> ticket FIFO *)
  group_conds : (string, Sched.cond) Hashtbl.t;
  decision_idx : (int, int) Hashtbl.t;  (* client id -> plan (decision) order *)
}

let aux_cond tbl k = find_or_add tbl k Sched.new_cond

let entry_sync aux uid =
  find_or_add aux.entry_syncs uid (fun () ->
      { e_cond = Sched.new_cond (); e_waiting = []; e_elected = None })

let group_queue aux g = find_or_add aux.group_queues g (fun () -> ref [])

(* One planned session: the decision taken at its arrival, its place in
   decision order, and the clock the scheduler drives it on. The rest of
   its context is built on that clock when the session starts. *)
type plan = { p_spec : client_spec; p_idx : int; p_decision : decision; p_clock : Clock.t }

(* Execute planned sessions over one scheduler against one worker plane.
   [plans] must be share-group-complete: every planned session of every
   group it contains is in the list, so the conds, entries, shared stores
   and speculation histories those sessions touch are driven by exactly
   one scheduler — this is the invariant the sharding below maintains. *)
let exec_sessions aux sched w reports plans =
  let put (spec : client_spec) r = Hashtbl.replace reports spec.client_id r in
  (* Record while holding (or acquiring) a group-turnstile ticket. On
     failure, promote the next planned waiter so the key retries exactly
     where sequential mode would. *)
  let record_with_ticket (spec : client_spec) (e : entry) ctx =
    let q = group_queue aux (share_group spec) in
    let gcond = aux_cond aux.group_conds (share_group spec) in
    let es = entry_sync aux e.uid in
    let promoted = ref None in
    (* Sequential mode runs a group's recordings in decision order — the
       promoted waiter's retry included, at the waiter's own decision
       position. Insert accordingly: group recorders decided between the
       failed recording and the waiter's arrival keep their earlier
       turnstile slots. *)
    let insert_by_decision wid rest =
      let idx id = Hashtbl.find aux.decision_idx id in
      let rec ins = function
        | x :: tl when idx x < idx wid -> x :: ins tl
        | tl -> wid :: tl
      in
      ins rest
    in
    let finish () =
      (match !promoted with
      | Some wid -> q := insert_by_decision wid (List.tl !q)
      | None -> q := List.filter (fun id -> id <> spec.client_id) !q);
      Sched.signal_all sched gcond;
      Sched.signal_all sched es.e_cond
    in
    Fun.protect ~finally:finish (fun () ->
        let rec turn () =
          match !q with
          | head :: _ when head = spec.client_id -> ()
          | _ ->
            Sched.await sched gcond;
            turn ()
        in
        let t0 = Clock.now_ns ctx.Ctx.clock in
        Tracer.span_opt ctx.Ctx.tracer ~cat:Tracer.Svc_turnstile_wait
          ~args:[ ("group", share_group spec) ]
          ~name:"turnstile-wait" turn;
        obs_sample w Hist.Svc_turnstile_wait_us (Int64.sub (Clock.now_ns ctx.Ctx.clock) t0);
        obs_ttfb w e ctx;
        let r = record_into w spec e ctx in
        (match r.outcome with
        | Failed _ -> (
          match es.e_waiting with
          | wid :: rest ->
            (* Re-arm the entry for the promoted waiter — the retry this
               key would get at its next arrival in sequential mode. *)
            es.e_waiting <- rest;
            es.e_elected <- Some wid;
            e.inflight <- true;
            promoted := Some wid;
            Counters.incr w.w_svc Metrics.Svc_promotions;
            (* the promoted waiter re-records: the miss a sequential run
               would charge at its retry arrival *)
            Counters.incr w.w_svc Metrics.Svc_cache_misses;
            Clock.advance_to w.w_clock
              (Int64.add spec.arrival_ns (Clock.now_ns ctx.Ctx.clock));
            Trace.event w.w_trace (Trace.Promote { label = e.keyed.label; client = wid });
            Option.iter
              (fun o ->
                Tracer.instant o.obs_tracer ~cat:Tracer.Svc_promotion
                  ~args:
                    [
                      ("label", e.keyed.label);
                      ("failed", Printf.sprintf "client-%d" spec.client_id);
                      ("promoted", Printf.sprintf "client-%d" wid);
                    ]
                  "waiter-promotion")
              w.w_obs
          | [] -> ())
        | Recorded _ | Cache_hit | Coalesced -> ());
        put spec r)
  in
  (* Spawn pass: one task per session, entering at its arrival time. *)
  List.iter
    (fun { p_spec = spec; p_idx; p_decision = d; p_clock = clock } ->
      let body () =
        let ctx = start_session ~clock w spec ~order:p_idx d in
        match d with
        | D_serve e ->
          obs_ttfb w e ctx;
          put spec (serve_safe w spec e ctx ~coalesced:false)
        | D_wait e ->
          let es = entry_sync aux e.uid in
          let rec wait () =
            if es.e_elected = Some spec.client_id then `Record
            else
              match e.blob with
              | Some _ -> `Serve
              | None when e.inflight ->
                Sched.await sched es.e_cond;
                wait ()
              | None -> `Orphaned
          in
          let t0 = Clock.now_ns ctx.Ctx.clock in
          let got =
            match ctx.Ctx.tracer with
            | Some tr ->
              Tracer.with_span tr ~cat:Tracer.Svc_coalesce_wait
                ~args:[ ("key", e.keyed.label) ]
                ~name:"coalesce-wait" wait
            | None -> wait ()
          in
          obs_sample w Hist.Svc_coalesce_wait_us (Int64.sub (Clock.now_ns ctx.Ctx.clock) t0);
          (match got with
          | `Serve ->
            obs_ttfb w e ctx;
            put spec (serve_safe w spec e ctx ~coalesced:true)
          | `Record ->
            es.e_elected <- None;
            (* Promoted: re-record on this task's scheduler-registered
               clock, under the same key-derived seed and options a planned
               recorder uses. *)
            let rctx = record_ctx w spec e ~clock:ctx.Ctx.clock in
            register_track w spec ~order:max_int rctx;
            record_with_ticket spec e rctx
          | `Orphaned ->
            (* Unreachable while promotion elects every remaining waiter;
               kept so an unexpected settle still yields a report. *)
            put spec (fail_report w spec e ctx "recording failed upstream"))
        | D_record e -> record_with_ticket spec e ctx
      in
      ignore
        (Sched.spawn sched ~arrival_ns:spec.arrival_ns
           ~name:(fun () -> Printf.sprintf "client-%d" spec.client_id)
           ~clock body))
    plans;
  Sched.run sched

(* Plan pass: decisions + session clocks, taken on the calling domain in
   arrival order — identically whatever [domains] the execution then uses,
   so eviction, recorder identity and the shared stores never depend on the
   execution geometry. Pre-creates every cond/sync/queue and speculation
   history a planned session can name, leaving the [aux] tables and
   [t.histories] structurally read-only during (possibly parallel)
   execution. The ticket queues and waiter lists are built newest-first
   (an O(1) cons per arrival) and reversed into FIFO order once the whole
   fleet is planned. *)
let plan_fleet t aux specs =
  let w = worker_of t in
  let plans =
    List.mapi
      (fun i (spec : client_spec) ->
        Hashtbl.replace aux.decision_idx spec.client_id i;
        Counters.incr t.svc Metrics.Svc_sessions;
        let d = decide t spec in
        (match d with
        | D_record e ->
          let g = share_group spec in
          let q = group_queue aux g in
          q := spec.client_id :: !q;
          ignore (aux_cond aux.group_conds g);
          ignore (entry_sync aux e.uid);
          ignore (history_for w spec)
        | D_wait e ->
          let es = entry_sync aux e.uid in
          es.e_waiting <- spec.client_id :: es.e_waiting
        | D_serve _ -> ());
        { p_spec = spec; p_idx = i; p_decision = d; p_clock = Clock.create () })
      specs
  in
  Hashtbl.iter (fun _ q -> q := List.rev !q) aux.group_queues;
  Hashtbl.iter (fun _ es -> es.e_waiting <- List.rev es.e_waiting) aux.entry_syncs;
  plans

(* ---- sharded (domain-parallel) execution ----

   Sessions only share mutable state *within* a share group: the group's
   turnstile queue/cond, its speculation history, and — because the cache
   key refines the group with runtime and mode flags — every entry, keyed
   record and memsync store a session can touch. Partitioning the plan by
   share group therefore yields shards with no shared mutable session
   state, and each shard's virtual-time facts (waits, signal instants,
   turnstile order) are intrinsic to the shard: a scheduler only ever
   interleaves tasks that could interact anyway. That is why running the
   shards on separate domains and folding the worker planes back in shard
   order reproduces the single-scheduler run's outcomes bit for bit. *)

let distinct_groups plans =
  let seen = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace seen (share_group p.p_spec) ()) plans;
  Hashtbl.length seen

(* Partition a plan into at most [domains] share-group-complete shards.
   Greedy bin-packing: groups by descending session count (ties: earliest
   first decision), each to the least-loaded shard (ties: lowest index).
   Deterministic — shard composition is a pure function of the plan. *)
let shard_plans ~domains plans =
  let first_idx = Hashtbl.create 16 and counts = Hashtbl.create 16 in
  List.iteri
    (fun i p ->
      let g = share_group p.p_spec in
      if not (Hashtbl.mem first_idx g) then Hashtbl.add first_idx g i;
      Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)))
    plans;
  let groups =
    Hashtbl.fold (fun g c acc -> (g, Hashtbl.find first_idx g, c) :: acc) counts []
    |> List.sort (fun (_, ia, ca) (_, ib, cb) ->
           match compare (cb : int) ca with 0 -> compare (ia : int) ib | c -> c)
  in
  let loads = Array.make domains 0 in
  let assign = Hashtbl.create 16 in
  List.iter
    (fun (g, _, c) ->
      let best = ref 0 in
      for k = 1 to domains - 1 do
        if loads.(k) < loads.(!best) then best := k
      done;
      Hashtbl.replace assign g !best;
      loads.(!best) <- loads.(!best) + c)
    groups;
  let buckets = Array.make domains [] in
  List.iter
    (fun p ->
      let k = Hashtbl.find assign (share_group p.p_spec) in
      buckets.(k) <- p :: buckets.(k))
    plans;
  Array.to_list buckets
  |> List.filter_map (function [] -> None | b -> Some (List.rev b))
  |> Array.of_list

(* One executed shard: its worker plane, scheduler and private report
   table, kept for the deterministic merge and the run stats. *)
type shard = {
  sh_worker : worker;
  sh_sched : Sched.t;
  sh_reports : (int, session_report) Hashtbl.t;
  sh_groups : int;
  sh_clients : int;
}

let new_observation_over clock =
  {
    obs_hists = Hist.create_set ();
    obs_tracer = Tracer.create clock;
    obs_tracks = [];
    obs_key_ttfb = Hashtbl.create 32;
    obs_key_turnaround = Hashtbl.create 32;
  }

let new_observation t = new_observation_over t.svc_clock

let observe_switches sched = function
  | Some o ->
    Sched.set_switch_observer sched
      (Some (fun runnable -> Hist.record o.obs_hists Hist.Sched_runnable runnable))
  | None -> ()

(* Fold one shard's private planes back into [t]. Called in shard-index
   order; every fold is either commutative (counter sums, histogram bucket
   sums) or made deterministic by that fixed order (tracer streams, track
   lists), so the merged run is a pure function of the plan — never of
   domain scheduling. *)
let merge_shard t sh =
  let w = sh.sh_worker in
  Counters.merge_into ~dst:t.svc ~src:w.w_svc;
  Clock.advance_to t.svc_clock (Clock.now_ns w.w_clock);
  match (t.obs, w.w_obs) with
  | Some o, Some wo ->
    Hist.merge_set ~into:o.obs_hists wo.obs_hists;
    Tracer.absorb ~into:o.obs_tracer wo.obs_tracer;
    o.obs_tracks <- wo.obs_tracks @ o.obs_tracks;
    let merge_keyed dst src =
      Hashtbl.fold (fun l h acc -> (l, h) :: acc) src []
      |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
      |> List.iter (fun (l, h) -> Hist.merge ~into:(key_hist dst l) h)
    in
    merge_keyed o.obs_key_ttfb wo.obs_key_ttfb;
    merge_keyed o.obs_key_turnaround wo.obs_key_turnaround
  | _ -> ()

let run_multiplexed ~domains t specs =
  let aux =
    {
      entry_syncs = Hashtbl.create 64;
      group_queues = Hashtbl.create 16;
      group_conds = Hashtbl.create 16;
      decision_idx = Hashtbl.create 64;
    }
  in
  let plans = plan_fleet t aux specs in
  let shards =
    if domains <= 1 then begin
      (* Identity plane on a single scheduler: byte-identical to the
         pre-sharding code path, with nothing to merge. *)
      let sched = Sched.create () in
      observe_switches sched t.obs;
      let sh =
        {
          sh_worker = worker_of t;
          sh_sched = sched;
          sh_reports = Hashtbl.create 256;
          sh_groups = distinct_groups plans;
          sh_clients = List.length plans;
        }
      in
      exec_sessions aux sched sh.sh_worker sh.sh_reports plans;
      [ sh ]
    end
    else begin
      let parts = shard_plans ~domains plans in
      let observing = t.obs <> None in
      let mk plans_k =
        let sched = Sched.create () in
        let w_clock = Clock.create () in
        let w =
          {
            w_svc = Counters.create ();
            w_clock;
            w_trace = Trace.create ~capacity:1024 w_clock;
            w_obs = (if observing then Some (new_observation_over w_clock) else None);
            w_histories = t.histories;
          }
        in
        observe_switches sched w.w_obs;
        {
          sh_worker = w;
          sh_sched = sched;
          sh_reports = Hashtbl.create 64;
          sh_groups = distinct_groups plans_k;
          sh_clients = List.length plans_k;
        }
      in
      let shards = Array.map mk parts in
      (* Run the shards across domains; each returns its domain-local
         memo-cache profile, exported on the domain that owns the tables.
         Export only when shards really run on spawned domains — a lone
         shard executes on the calling domain and already counts into its
         cells, so absorbing an export would double-count. *)
      let exported = Array.length parts > 1 in
      let memo =
        Grt_util.Par.run_shards
          (fun k plans_k ->
            let sh = shards.(k) in
            exec_sessions aux sh.sh_sched sh.sh_worker sh.sh_reports plans_k;
            if exported then Grt_util.Memo_stats.export () else [])
          parts
      in
      Array.iter Grt_util.Memo_stats.absorb memo;
      Array.iter (merge_shard t) shards;
      (* The service ring holds timestamped events: interleave the
         per-shard rings on the global timeline (stable sort — shard order
         breaks ties deterministically). *)
      Array.to_list shards
      |> List.concat_map (fun sh -> Trace.all sh.sh_worker.w_trace)
      |> List.stable_sort (fun (a : Trace.event) b -> Int64.compare a.Trace.at_ns b.Trace.at_ns)
      |> Trace.absorb t.svc_trace;
      Array.to_list shards
    end
  in
  let reports =
    List.map
      (fun (spec : client_spec) ->
        let rec find = function
          | [] ->
            failwith (Printf.sprintf "Service: client %d produced no report" spec.client_id)
          | sh :: tl -> (
            match Hashtbl.find_opt sh.sh_reports spec.client_id with
            | Some r -> r
            | None -> find tl)
        in
        find shards)
      specs
  in
  (reports, shards)

(* Turnaround series are filled from the finished reports — one place, both
   execution modes, labels included. *)
let finalize_obs t reports =
  match t.obs with
  | None -> ()
  | Some o ->
    List.iter
      (fun r ->
        let us = int_of_float (r.turnaround_s *. 1e6) in
        Hist.record o.obs_hists Hist.Svc_turnaround_us us;
        Hist.observe (key_hist o.obs_key_turnaround r.label) us)
      reports

type shard_stat = {
  shard_index : int;
  shard_groups : int;
  shard_clients : int;
  shard_yields : int;
  shard_switches : int;
}

type run_stats = {
  rs_mode : string;  (* "sequential" | "multiplexed" | "parallel" *)
  rs_domains : int;  (* domains requested (1 for sequential/multiplexed) *)
  rs_parallel : bool;  (* shards actually ran on separate domains *)
  rs_virtual_ns : int64;  (* fleet makespan on the virtual timeline *)
  rs_yields : int;
  rs_switches : int;
  rs_shards : shard_stat list;  (* one row per executed shard *)
}

let run ?(sequential = false) ?(observe = false) ?(domains = 1) t specs =
  if domains < 1 then invalid_arg "Service.run: domains must be >= 1";
  t.run_epoch <- t.run_epoch + 1;
  t.obs <- (if observe then Some (new_observation t) else None);
  let specs =
    List.stable_sort
      (fun (a : client_spec) b ->
        match Int64.compare a.arrival_ns b.arrival_ns with
        | 0 -> compare a.client_id b.client_id
        | c -> c)
      specs
  in
  let reports, stats =
    if sequential then begin
      let reports = run_sequential t specs in
      (* Sequential sessions run back-to-back off the shared timeline; the
         fleet makespan is still the last session's completion instant. *)
      let virtual_ns =
        List.fold_left
          (fun acc r ->
            let fin = Int64.add r.spec.arrival_ns (Int64.of_float (r.turnaround_s *. 1e9)) in
            if Int64.compare fin acc > 0 then fin else acc)
          0L reports
      in
      ( reports,
        {
          rs_mode = "sequential";
          rs_domains = 1;
          rs_parallel = false;
          rs_virtual_ns = virtual_ns;
          rs_yields = 0;
          rs_switches = 0;
          rs_shards = [];
        } )
    end
    else begin
      let reports, shards = run_multiplexed ~domains t specs in
      let shard_stats =
        List.mapi
          (fun i sh ->
            {
              shard_index = i;
              shard_groups = sh.sh_groups;
              shard_clients = sh.sh_clients;
              shard_yields = Sched.yields sh.sh_sched;
              shard_switches = Sched.switches sh.sh_sched;
            })
          shards
      in
      ( reports,
        {
          rs_mode = (if domains > 1 then "parallel" else "multiplexed");
          rs_domains = domains;
          rs_parallel = domains > 1 && List.length shards > 1;
          rs_virtual_ns =
            List.fold_left
              (fun acc sh ->
                let v = Sched.now_ns sh.sh_sched in
                if Int64.compare v acc > 0 then v else acc)
              0L shards;
          rs_yields = List.fold_left (fun acc sh -> acc + Sched.yields sh.sh_sched) 0 shards;
          rs_switches = List.fold_left (fun acc sh -> acc + Sched.switches sh.sh_sched) 0 shards;
          rs_shards = shard_stats;
        } )
    end
  in
  finalize_obs t reports;
  (reports, stats)

(* ---- aggregation, stats, cache listing ---- *)

let aggregate t reports =
  let dst = Counters.create () in
  List.iter (fun r -> Counters.merge_into ~dst ~src:r.counters) reports;
  Counters.merge_into ~dst ~src:t.svc;
  dst

type stats = {
  sessions : int;
  recordings : int;
  cache_hits : int;
  cache_misses : int;
  coalesced : int;
  promotions : int;
  failures : int;
  evictions : int;
  resident : int;
  resident_bytes : int;
}

let stats t =
  let get k = Counters.read t.svc k in
  let resident, resident_bytes =
    Hashtbl.fold
      (fun _ e (n, b) ->
        (n + 1, b + (match e.blob with Some blob -> Bytes.length blob | None -> 0)))
      t.cache (0, 0)
  in
  {
    sessions = get Metrics.Svc_sessions;
    recordings = get Metrics.Svc_recordings;
    cache_hits = get Metrics.Svc_cache_hits;
    cache_misses = get Metrics.Svc_cache_misses;
    coalesced = get Metrics.Svc_coalesced;
    promotions = get Metrics.Svc_promotions;
    failures = get Metrics.Svc_failures;
    evictions = get Metrics.Svc_evictions;
    resident;
    resident_bytes;
  }

let cached_blob t key =
  match Hashtbl.find_opt t.cache key with
  | Some { blob = Some b; _ } -> Some (Bytes.copy b)
  | _ -> None

let hit_rate s =
  if s.sessions = 0 then 0. else float_of_int (s.cache_hits + s.coalesced) /. float_of_int s.sessions

type listing_row = {
  row_key : key;
  row_label : string;
  row_resident : bool;
  row_blob_bytes : int;
  row_hits : int;
  row_recordings : int;
  row_evictions : int;
}

let cache_listing t =
  Hashtbl.fold
    (fun key (k : keyed) acc ->
      let resident, blob_bytes =
        match Hashtbl.find_opt t.cache key with
        | Some { blob = Some b; _ } -> (true, Bytes.length b)
        | Some { blob = None; _ } -> (true, 0)
        | None -> (false, 0)
      in
      {
        row_key = key;
        row_label = k.label;
        row_resident = resident;
        row_blob_bytes = blob_bytes;
        row_hits = k.hits;
        row_recordings = k.recordings;
        row_evictions = k.evictions;
      }
      :: acc)
    t.keyed_tbl []
  |> List.sort (fun a b -> compare a.row_label b.row_label)

(* ---- fleet generation ---- *)

type fleet_options = {
  clients : int;
  zipf_s : float;  (* popularity skew over (net, sku) ranks *)
  nets : Network.t list;
  skus : Sku.t list;
  fleet_cfg : Mode.config;
  mean_interarrival_s : float;
  fault_fraction : float;  (* clients that arm [inject_fault_after] *)
  degraded_fraction : float;  (* clients behind a lossy channel *)
  fleet_seed : int64;
}

(* The fast-path configuration: the small tagged wire keeps 10k+ downloads
   and verifications cheap, and it is the configuration whose recordings
   benefit from the shared dedup store. *)
let fastpath_cfg =
  { (Mode.default_config Mode.Ours_mds) with Mode.memsync_dedup = true; memsync_adaptive = true }

let default_fleet =
  {
    clients = 10_000;
    zipf_s = 1.1;
    nets = Grt_mlfw.Zoo.all;
    skus = Grt_gpu.Sku.all;
    fleet_cfg = fastpath_cfg;
    mean_interarrival_s = 0.005;
    fault_fraction = 0.05;
    degraded_fraction = 0.10;
    fleet_seed = 0x666C656574L (* "fleet" *);
  }

let zipf_fleet (o : fleet_options) =
  if o.clients <= 0 then invalid_arg "Service.zipf_fleet: clients must be positive";
  if o.nets = [] || o.skus = [] then invalid_arg "Service.zipf_fleet: empty catalog";
  if not (Float.is_finite o.mean_interarrival_s && o.mean_interarrival_s >= 0.) then
    invalid_arg "Service.zipf_fleet: mean_interarrival_s must be finite and >= 0";
  if not (Float.is_finite o.zipf_s) then invalid_arg "Service.zipf_fleet: zipf_s must be finite";
  let rng = Grt_util.Rng.create ~seed:o.fleet_seed in
  let pairs =
    Array.of_list (List.concat_map (fun n -> List.map (fun s -> (n, s)) o.skus) o.nets)
  in
  let n = Array.length pairs in
  (* Zipf over popularity ranks: weight(rank r) = r^-s. *)
  let cum = Array.make n 0. in
  let total = ref 0. in
  Array.iteri
    (fun i _ ->
      total := !total +. (1. /. (float_of_int (i + 1) ** o.zipf_s));
      cum.(i) <- !total)
    pairs;
  let pick_pair u =
    let target = u *. !total in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < target then bisect (mid + 1) hi else bisect lo mid
    in
    pairs.(bisect 0 (n - 1))
  in
  let arrival = ref 0. in
  List.init o.clients (fun client_id ->
      let net, sku = pick_pair (Grt_util.Rng.float rng 1.0) in
      (* WiFi-heavy mix, echoing §7.2's evaluated conditions. *)
      let base_profile =
        let p = Grt_util.Rng.float rng 1.0 in
        if p < 0.5 then Profile.wifi else if p < 0.85 then Profile.cellular else Profile.lan
      in
      let profile =
        if Grt_util.Rng.float rng 1.0 < o.degraded_fraction then
          Profile.degrade
            ~drop_prob:(0.005 +. Grt_util.Rng.float rng 0.015)
            ~jitter_s:(Grt_util.Rng.float rng 0.002) base_profile
        else base_profile
      in
      let inject_fault_after =
        if Grt_util.Rng.float rng 1.0 < o.fault_fraction then
          Some (1 + Grt_util.Rng.int rng 4)
        else None
      in
      (* Exponential interarrivals: a Poisson arrival process. *)
      let u = Grt_util.Rng.float rng 1.0 in
      arrival := !arrival +. (-.log (1. -. u) *. o.mean_interarrival_s);
      {
        client_id;
        arrival_ns = Int64.of_float (!arrival *. 1e9);
        net;
        sku;
        profile;
        cfg = o.fleet_cfg;
        inject_fault_after;
      })
