(* The two fleet workloads.

   fleet-hot: Service.default_fleet's shape (Zipf 1.1 over 6 NNs x 5 SKUs,
   fastpath_cfg, 5 ms mean interarrival, 5% fault clients, 10% degraded
   channels) on an unbounded cache that set-up pre-fills with the first
   arrival of every distinct key. The timed section replays the whole
   fleet, multiplexed on one domain, against that cache: every session is a
   resident-blob hit and no recording runs.

   fleet-churn: the same generator at Zipf 0.8 and 250 ms mean
   interarrival, on a cold cache capped at 6 of the 30 keys, so most
   sessions evict and re-record. Both fleets run on one domain: on a 2-core
   host a 2-domain run's wall time swings with whatever else holds either
   core (its throughput spread over ten seeds was 0.33, against 0.08 on one
   domain), and every [Service.run] result is identical at any domain
   count.

   The workload seed only feeds [Service.zipf_fleet]'s [fleet_seed]; the
   program sees nothing but the generated client specs. *)

open Grt
open Common
module Svc = Service

type kind = Hot | Churn

type shape = { opts : Svc.fleet_options; cache_capacity : int }

let shape ~scale ~seed kind =
  let fleet_seed = Grt_util.Hashing.combine Svc.default_fleet.Svc.fleet_seed (Int64.of_int seed) in
  match kind with
  | Hot ->
    {
      opts =
        { Svc.default_fleet with Svc.clients = (if scale = Full then 2000 else 200); fleet_seed };
      cache_capacity = 0;
    }
  | Churn ->
    {
      opts =
        {
          Svc.default_fleet with
          Svc.clients = (if scale = Full then 360 else 40);
          zipf_s = 0.8;
          mean_interarrival_s = 0.25;
          fleet_seed;
        };
      cache_capacity = 6;
    }

let key_of (s : Svc.client_spec) = Svc.cache_key ~cfg:s.Svc.cfg ~sku:s.Svc.sku ~net:s.Svc.net

let first_per_key specs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun s ->
      let k = key_of s in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    specs

let outcome_class = function
  | Svc.Recorded _ -> "recorded"
  | Svc.Cache_hit | Svc.Coalesced -> "served"
  | Svc.Failed _ -> "failed"

let counters_digest c =
  Grt_util.Hashing.fnv1a_string
    (String.concat ";"
       (List.map (fun (k, v) -> k ^ "=" ^ Int64.to_string v) (Grt_sim.Counters.to_alist c)))

(* Per client: outcome class, blob size and counter digest — what the
   multiplexed and the sequential execution modes must agree on. *)
let digest reports =
  List.map
    (fun (r : Svc.session_report) ->
      (r.Svc.spec.Svc.client_id, outcome_class r.Svc.outcome, r.Svc.blob_bytes, counters_digest r.Svc.counters))
    reports

(* Check one run's reports against the verified blobs seen so far (one per
   key — recordings are a function of the key) and learn new ones. Recorded
   blobs must verify and agree with every earlier blob of their key; a
   served client must have downloaded exactly that blob's size. *)
let check_reports ck blobs reports =
  let recorded, rest =
    List.partition (fun r -> match r.Svc.outcome with Svc.Recorded _ -> true | _ -> false) reports
  in
  List.iter
    (fun (r : Svc.session_report) ->
      match r.Svc.outcome with
      | Svc.Recorded o -> (
        let blob = o.Orchestrate.blob in
        if r.Svc.blob_bytes <> Bytes.length blob then
          fail ck "client %d: reported %d bytes for a %d-byte blob" r.Svc.spec.Svc.client_id
            r.Svc.blob_bytes (Bytes.length blob);
        match Hashtbl.find_opt blobs r.Svc.key with
        | Some b ->
          if not (Bytes.equal b blob) then
            fail ck "client %d: re-recording of %s differs from its first blob" r.Svc.spec.Svc.client_id
              r.Svc.label
        | None -> (
          match Recording.verify_and_parse ~key:Orchestrate.cloud_signing_key blob with
          | Ok _ -> Hashtbl.replace blobs r.Svc.key blob
          | Error e -> fail ck "client %d: recorded blob does not verify: %s" r.Svc.spec.Svc.client_id e))
      | _ -> ())
    recorded;
  List.iter
    (fun (r : Svc.session_report) ->
      match r.Svc.outcome with
      | Svc.Failed msg -> fail ck "client %d failed: %s" r.Svc.spec.Svc.client_id msg
      | _ -> (
        match Hashtbl.find_opt blobs r.Svc.key with
        | Some b when Bytes.length b = r.Svc.blob_bytes -> ()
        | _ ->
          fail ck "client %d: served %d bytes that match no verified blob of %s"
            r.Svc.spec.Svc.client_id r.Svc.blob_bytes r.Svc.label))
    rest

type setup = {
  specs : Svc.client_spec list;
  svc : Svc.t;
  prefill : Svc.session_report list;
  setup_s : float;
}

(* Generate the fleet and build its service; fleet-hot also pre-fills the
   cache, sequentially, with the first arrival of each distinct key.
   fleet-churn's set-up is sub-millisecond, so it is timed [churn_setup_reps]
   times and the median reported. *)
let churn_setup_reps = 25

let set_up sh kind =
  let once () =
    let t0 = wall () in
    let specs = Svc.zipf_fleet sh.opts in
    let svc = Svc.create ~cache_capacity:sh.cache_capacity () in
    let prefill = if kind = Hot then fst (Svc.run ~sequential:true svc (first_per_key specs)) else [] in
    { specs; svc; prefill; setup_s = wall () -. t0 }
  in
  match kind with
  | Hot -> once ()
  | Churn ->
    let runs = List.init churn_setup_reps (fun _ -> once ()) in
    { (List.hd runs) with setup_s = median (List.map (fun s -> s.setup_s) runs) }

let setup_only ~scale ~seed kind = (set_up (shape ~scale ~seed kind) kind).setup_s

let turnaround_ms reports = List.map (fun r -> r.Svc.turnaround_s *. 1e3) reports

let info sh kind =
  let open Grt_util.Json in
  [
    ("clients", int sh.opts.Svc.clients);
    ("zipf_s", Num sh.opts.Svc.zipf_s);
    ("mean_interarrival_s", Num sh.opts.Svc.mean_interarrival_s);
    ("cache_capacity", int sh.cache_capacity);
    ("domains", int 1);
    ("fleet_seed", Str (Int64.to_string sh.opts.Svc.fleet_seed));
    ("cache", Str (if kind = Hot then "pre-filled, unbounded" else "cold, capped"));
  ]

(* ---- end-to-end pass ----

   fleet-hot: rounds of one multiplexed [Service.run] of the whole fleet
   against the pre-filled service until [seconds] have passed; every round
   must reproduce the first round's per-client digest. fleet-churn: one
   multiplexed run on the cold service — a fixed amount of work (about ten
   seconds on a 2-core host), because a second run in the same process would
   meet warm memos and a grown heap, which is a different workload.
   Throughput is sessions over the summed wall time of the runs. *)
let e2e ~scale ~seed ~seconds kind =
  let ck = checks () in
  let sh = shape ~scale ~seed kind in
  let st = set_up sh kind in
  let blobs = Hashtbl.create 32 in
  check_reports ck blobs st.prefill;
  Grt_util.Memo_stats.reset_counters ();
  let t_start = wall () in
  let rounds = ref 0 and busy = ref 0. and first = ref None in
  let r0 = (Svc.stats st.svc).Svc.recordings in
  while !rounds = 0 || (kind = Hot && wall () -. t_start < seconds) do
    (* Start every round from a collected heap, so the top-heap reading is
       one round's peak rather than however much garbage earlier rounds
       left behind. *)
    Gc.full_major ();
    let w0 = wall () in
    let reports, _ = Svc.run st.svc st.specs in
    busy := !busy +. (wall () -. w0);
    incr rounds;
    ck.attempted <- ck.attempted + List.length reports;
    check_reports ck blobs reports;
    match !first with
    | None -> first := Some (digest reports, turnaround_ms reports)
    | Some (d, _) -> if d <> digest reports then fail ck "round %d: per-client digest differs from round 1" !rounds
  done;
  let recordings = (Svc.stats st.svc).Svc.recordings - r0 in
  if kind = Hot && recordings > 0 then fail ck "fleet-hot recorded %d times in its timed section" recordings;
  let virt = match !first with Some (_, v) -> v | None -> [] in
  {
    ck;
    values =
      [
        ("throughput_per_s", float_of_int ck.attempted /. !busy);
        ("setup_s", st.setup_s);
        ("top_heap_mb", top_heap_mb ());
        ("fail_ratio", ratio ck.failed ck.attempted);
        ("virt_ms_p50", percentile 0.5 virt);
        ("virt_ms_p95", percentile 0.95 virt);
      ];
    info =
      info sh kind
      @ [
          ("mode", Grt_util.Json.Str "multiplexed");
          ("rounds", Grt_util.Json.int !rounds);
          ("recordings", Grt_util.Json.int recordings);
          ("memo_after_timed", Grt_util.Memo_stats.to_json ());
        ];
  }

(* ---- traced pass ----

   First the end-to-end pass's call, once and untraced: one multiplexed run
   of the fleet on a freshly set-up service, for the scheduler, shard, memo,
   GC and counter readings. Then, on a second identically set-up service,
   the traced pass proper — a different execution mode: one
   [Service.run ~sequential:true] per client in arrival order, each in a
   span tagged by outcome, whose per-client digest must equal the
   multiplexed run's. Then spans around the serve path's parts for every
   served client, and around each pipeline stage and [Recording.sign] in a
   standalone record of each distinct key. *)
let traced ~scale ~seed kind =
  let ck = checks () in
  let sh = shape ~scale ~seed kind in
  let st = set_up sh kind in
  let blobs = Hashtbl.create 32 in
  check_reports ck blobs st.prefill;
  let s0 = Svc.stats st.svc in
  Grt_util.Memo_stats.reset_counters ();
  let c0 = cpu () and w0 = wall () in
  let (mux, rs), minor_words, majors = gc_delta (fun () -> Svc.run st.svc st.specs) in
  let mux_wall = wall () -. w0 and mux_cpu = cpu () -. c0 in
  let memo = memo_ratios () and memo_json = Grt_util.Memo_stats.to_json () in
  let s1 = Svc.stats st.svc in
  ck.attempted <- ck.attempted + List.length mux;
  check_reports ck blobs mux;
  let shard_clients = List.map (fun s -> float_of_int s.Svc.shard_clients) rs.Svc.rs_shards in
  (* The traced pass proper. *)
  let seq_st = set_up sh kind in
  check_reports ck blobs seq_st.prefill;
  let q0 = Svc.stats seq_st.svc in
  let tr = Span.create () in
  let seq =
    List.concat_map
      (fun spec ->
        fst
          (Span.with_ tr ~layer:"service"
             ~tag_of:(fun (rs, _) -> match rs with [ r ] -> outcome_class r.Svc.outcome | _ -> "?")
             (fun () -> Svc.run ~sequential:true seq_st.svc [ spec ])))
      st.specs
  in
  let q1 = Svc.stats seq_st.svc in
  ck.attempted <- ck.attempted + List.length seq;
  check_reports ck blobs seq;
  List.iter2
    (fun ((id, _, _, _) as a) b -> if a <> b then fail ck "client %d: sequential pass differs from multiplexed" id)
    (digest mux) (digest seq);
  if s1.Svc.evictions - s0.Svc.evictions <> q1.Svc.evictions - q0.Svc.evictions then
    fail ck "evictions differ: multiplexed %d, sequential %d" (s1.Svc.evictions - s0.Svc.evictions)
      (q1.Svc.evictions - q0.Svc.evictions);
  (* The serve path's parts, for every served client. *)
  let create_kw = ref [] and serve_kw = ref [] in
  List.iter
    (fun (r : Svc.session_report) ->
      if outcome_class r.Svc.outcome = "served" then
        match Hashtbl.find_opt blobs r.Svc.key with
        | None -> ()
        | Some blob -> (
          let s = r.Svc.spec in
          (* the seed the service derives for this client's serve session *)
          let seed = Grt_util.Hashing.combine (Svc.recording_seed r.Svc.key) (Int64.of_int s.Svc.client_id) in
          let ctx, kw, _ =
            gc_delta (fun () ->
                Span.with_ tr ~layer:"session_ctx" ~tag:"serve" (fun () ->
                    Session_ctx.create ~cfg:s.Svc.cfg ~profile:s.Svc.profile ~sku:s.Svc.sku ~net:s.Svc.net ~seed
                      ~granularity:`Monolithic ()))
          in
          create_kw := kw :: !create_kw;
          (match
             gc_delta (fun () ->
                 Span.with_ tr ~layer:"orchestrate.serve_cached" (fun () -> Orchestrate.serve_cached ctx ~blob))
           with
          | (), kw, _ -> serve_kw := kw :: !serve_kw
          | exception e -> fail ck "client %d: serve_cached raised %s" s.Svc.client_id (Printexc.to_string e));
          match
            Span.with_ tr ~layer:"recording.verify" (fun () ->
                Recording.verify_and_parse ~key:Orchestrate.cloud_signing_key blob)
          with
          | Ok _ -> ()
          | Error e -> fail ck "client %d: served blob does not verify: %s" s.Svc.client_id e))
    seq;
  (* A standalone record of each distinct key: it must reproduce the
     service's blob for that key (recordings are a function of the key),
     and signing its recording again must give the same bytes. *)
  let keys = first_per_key st.specs in
  let accesses = ref 0 in
  List.iter
    (fun (s : Svc.client_spec) ->
      let key = key_of s in
      match
        let ctx =
          Span.with_ tr ~layer:"session_ctx" ~tag:"record" (fun () ->
              Session_ctx.create ~cfg:s.Svc.cfg ~profile:s.Svc.profile ~sku:s.Svc.sku ~net:s.Svc.net
                ~seed:(Svc.recording_seed key) ~granularity:`Monolithic ())
        in
        record_stepped (Some tr) ctx
      with
      | exception e -> fail ck "standalone record of client %d raised %s" s.Svc.client_id (Printexc.to_string e)
      | o ->
        accesses := !accesses + o.Orchestrate.accesses_total;
        let signed =
          Span.with_ tr ~layer:"recording.sign" (fun () ->
              Recording.sign ~key:Orchestrate.cloud_signing_key o.Orchestrate.recording)
        in
        if not (Bytes.equal signed o.Orchestrate.blob) then
          fail ck "key of client %d: re-signing changed the blob" s.Svc.client_id;
        match Hashtbl.find_opt blobs key with
        | Some b when not (Bytes.equal b o.Orchestrate.blob) ->
          fail ck "key of client %d: standalone record differs from the service's blob" s.Svc.client_id
        | _ -> ())
    keys;
  let selfs = self_layers tr in
  let us p xs = 1e6 *. percentile p xs and ms p xs = 1e3 *. percentile p xs in
  let served = Span.durations ~tag:"served" tr "service" in
  let recorded = Span.durations ~tag:"recorded" tr "service" in
  let n_served = List.length (List.filter (fun (_, c, _, _) -> c = "served") (digest mux)) in
  let virt = turnaround_ms mux in
  let values =
    [
      ("service.served_ratio", ratio n_served (List.length mux));
      ("service.recordings", float_of_int (s1.Svc.recordings - s0.Svc.recordings));
      ("service.evictions", float_of_int (s1.Svc.evictions - s0.Svc.evictions));
      ("service.failures", float_of_int (s1.Svc.failures - s0.Svc.failures));
      ("service.serve_us_p50", us 0.5 served);
      ("service.serve_us_p95", us 0.95 served);
      ("service.record_ms_p50", ms 0.5 recorded);
      ("service.record_ms_p95", ms 0.95 recorded);
      ("sched.yields", float_of_int rs.Svc.rs_yields);
      ("sched.switches", float_of_int rs.Svc.rs_switches);
      ("par.shard_clients_max_over_mean", List.fold_left Float.max 0. shard_clients /. Float.max 1. (mean shard_clients));
      ("par.cpu_over_wall", mux_cpu /. mux_wall);
      ("session_ctx.create_us", us 0.5 (Span.durations ~tag:"serve" tr "session_ctx"));
      ("session_ctx.create_kwords", mean !create_kw /. 1e3);
      ("orchestrate.serve_cached_us_p50", us 0.5 (Span.durations tr "orchestrate.serve_cached"));
      ("orchestrate.serve_cached_us_p95", us 0.95 (Span.durations tr "orchestrate.serve_cached"));
      ("orchestrate.serve_cached_kwords", mean !serve_kw /. 1e3);
      ("recording.verify_us", us 0.5 (Span.durations tr "recording.verify"));
      ("recording.sign_us", us 0.5 (Span.durations tr "recording.sign"));
      ("gc.minor_kwords_per_op", minor_words /. 1e3 /. float_of_int (max 1 (List.length mux)));
      ("gc.major_collections", float_of_int majors);
      ("virt_ms_p50", percentile 0.5 virt);
      ("virt_ms_p95", percentile 0.95 virt);
      ("fail_ratio", ratio ck.failed ck.attempted);
    ]
    @ pipeline_layers tr ~recordings:(List.length keys) ~accesses:!accesses
    @ counter_layers (merged_counters (List.map (fun r -> r.Svc.counters) mux))
    @ memo @ selfs
  in
  {
    ck;
    values;
    info =
      info sh kind
      @ [
          ("mode", Grt_util.Json.Str "traced: sequential, one Service.run per client (end-to-end pass is multiplexed)");
          ("memo_during_multiplexed", memo_json);
        ];
  }
