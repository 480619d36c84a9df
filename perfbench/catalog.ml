(* The benchmark's metric catalog: every metric it reports, with its unit
   and — for per-layer metrics — the end-to-end metric and workload it is
   expected to move. BENCHMARK.json at the repository root lists the same
   names; [grtbench spec] prints the catalog in that file's shape and the
   self-test checks the two agree. *)

(* Seconds one benchmark run measures. fleet-hot and replay-tee repeat their
   timed section for this long; fleet-churn's single fleet pass is sized to
   take about as long on a 2-core host. *)
let run_seconds = 30

let workloads =
  [
    ("fleet-hot", "warm-cache serve fleet: every session is a resident-blob hit, so the serve path is all the host work");
    ("fleet-churn", "working set 5x the cache: evict and re-record dominate the host time, serving is negligible");
    ("replay-tee", "compiled in-TEE replay of the six paper NNs with bit-checked outputs: GPU model and replay executor only");
  ]

type e2e = {
  e_name : string;
  e_unit : string;
  e_better : string;
  e_bound : float option;
      (** [Some b]: listed in BENCHMARK.json with bound [b]. [None]: printed
          by every untraced run but not gated in BENCHMARK.json (it is 0, or
          a deterministic virtual time that can repeat exactly). *)
}

let end_to_end =
  [
    { e_name = "throughput_per_s"; e_unit = "1/s"; e_better = "higher"; e_bound = Some 0.25 };
    { e_name = "setup_s"; e_unit = "s"; e_better = "lower"; e_bound = Some 0.25 };
    { e_name = "top_heap_mb"; e_unit = "MB"; e_better = "lower"; e_bound = Some 0.25 };
    { e_name = "fail_ratio"; e_unit = "ratio"; e_better = "lower"; e_bound = None };
    { e_name = "virt_ms_p50"; e_unit = "virt_ms"; e_better = "lower"; e_bound = None };
    { e_name = "virt_ms_p95"; e_unit = "virt_ms"; e_better = "lower"; e_bound = None };
  ]

type layer = { l_name : string; l_unit : string; l_better : string; l_moves : string }

let hot = "throughput_per_s@fleet-hot"
let churn = "throughput_per_s@fleet-churn"
let replay = "throughput_per_s@replay-tee"
let replay_setup = "setup_s@replay-tee"
let virt = "virt_ms_p50,virt_ms_p95@fleet-churn"

let replay_nets = List.map (fun n -> n.Grt_mlfw.Network.name) Grt_mlfw.Zoo.all

let memo_names =
  [ "recording.verify"; "rc.encode"; "rc.decode"; "memsync.hash_page"; "recording.sign" ]

let self_layers =
  [ "service"; "session_ctx"; "orchestrate"; "recording"; "replay_prog"; "gpushim"; "reference"; "replayer"; "mlfw" ]

let l ?(better = "lower") l_name l_unit l_moves = { l_name; l_unit; l_better = better; l_moves }

let per_layer =
  [
    l ~better:"higher" "service.served_ratio" "ratio" churn;
    l "service.recordings" "count" churn;
    l "service.evictions" "count" churn;
    l "service.failures" "count" churn;
    l "service.serve_us_p50" "us" hot;
    l "service.serve_us_p95" "us" hot;
    l "service.record_ms_p50" "ms" churn;
    l "service.record_ms_p95" "ms" churn;
    l "sched.yields" "count" hot;
    l "sched.switches" "count" hot;
    l "par.shard_clients_max_over_mean" "ratio" (churn ^ " on >1 domain");
    l ~better:"higher" "par.cpu_over_wall" "ratio" (churn ^ " on >1 domain");
    l "session_ctx.create_us" "us" "throughput_per_s,top_heap_mb@fleet-hot";
    l "session_ctx.create_kwords" "kwords" "throughput_per_s,top_heap_mb@fleet-hot";
    l "orchestrate.serve_cached_us_p50" "us" hot;
    l "orchestrate.serve_cached_us_p95" "us" hot;
    l "orchestrate.serve_cached_kwords" "kwords" hot;
  ]
  @ List.map
      (fun s -> l ("orchestrate.pipeline." ^ s ^ "_ms") "ms" (churn ^ "," ^ replay_setup))
      [ "establish"; "boot"; "attempt"; "finalize" ]
  @ [
      l "orchestrate.pipeline.us_per_access" "us" (churn ^ "," ^ replay_setup);
      l "recording.verify_us" "us" hot;
      l "recording.sign_us" "us" churn;
      l "drivershim.commits" "count" virt;
      l ~better:"higher" "drivershim.speculated_ratio" "ratio" virt;
      l "drivershim.rollbacks" "count" virt;
      l "link.blocking_rtts" "count" virt;
      l "link.retransmits" "count" virt;
      l "memsync.wire_kb" "kB" virt;
      l ~better:"higher" "memsync.cross_hits" "count" virt;
      l ~better:"higher" "spec_history.cross_hits" "count" virt;
      l "replay_prog.compile_ms" "ms" replay_setup;
      l "replay_prog.static_pages" "count" replay_setup;
      l "replay_prog.dynamic_loads" "count" replay_setup;
      l "gpushim.session_ms" "ms" replay_setup;
      l "reference.run_ms" "ms" replay_setup;
    ]
  @ List.map (fun n -> l ("replayer.replay_ms." ^ n) "ms" replay) replay_nets
  @ [ l "replayer.us_per_entry" "us" replay ]
  @ List.map
      (fun m -> l ~better:"higher" ("memo." ^ m ^ ".hit_ratio") "ratio" (if m = "recording.verify" then hot else churn))
      memo_names
  @ [
      l "gc.minor_kwords_per_op" "kwords" "throughput_per_s,top_heap_mb@fleet-hot";
      l "gc.major_collections" "count" "throughput_per_s,top_heap_mb@fleet-hot";
      l "virt_ms_p50" "virt_ms" "exact guardrail@all";
      l "virt_ms_p95" "virt_ms" "exact guardrail@all";
      l "fail_ratio" "ratio" "exact guardrail@all";
    ]
  @ List.map (fun s -> l ("self_ms." ^ s) "ms" "traced wall split@all") self_layers
  @ [
      l "trace.unattributed_share" "ratio" "traced wall split@all";
      l "trace.overhead_ratio" "ratio" replay;
    ]

(* The BENCHMARK.json document this catalog implies. *)
let spec_json () =
  let open Grt_util.Json in
  Obj
    [
      ("command", Arr [ Str "python3"; Str "perfbench/run.py" ]);
      ("paths", Arr [ Str "perfbench" ]);
      ("run_seconds", int run_seconds);
      ( "workloads",
        Arr (List.map (fun (n, why) -> Obj [ ("name", Str n); ("why", Str why) ]) workloads) );
      ( "end_to_end",
        Arr
          (List.filter_map
             (fun e ->
               Option.map
                 (fun b ->
                   Obj
                     [
                       ("name", Str e.e_name);
                       ("unit", Str e.e_unit);
                       ("better", Str e.e_better);
                       ("bound", Num b);
                     ])
                 e.e_bound)
             end_to_end) );
      ( "per_layer",
        Arr
          (List.map
             (fun m ->
               Obj
                 [
                   ("name", Str m.l_name);
                   ("unit", Str m.l_unit);
                   ("better", Str m.l_better);
                 ])
             per_layer) );
    ]
