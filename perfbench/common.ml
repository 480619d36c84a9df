(* Helpers shared by the workloads: output checks, order statistics, GC and
   memo readings taken at call boundaries, and a record session stepped
   stage by stage so the traced pass can time each stage. *)

open Grt

let wall = Unix.gettimeofday

(* Process CPU seconds, all domains included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- output checks ---- *)

type checks = {
  mutable attempted : int;  (** operations the workload ran *)
  mutable failed : int;  (** operations that failed or missed a check *)
  mutable problems : string list;  (** the first few failures, newest first *)
}

let checks () = { attempted = 0; failed = 0; problems = [] }

let fail ck fmt =
  Printf.ksprintf
    (fun msg ->
      ck.failed <- ck.failed + 1;
      if List.length ck.problems < 10 then ck.problems <- msg :: ck.problems)
    fmt

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int32.equal (Int32.bits_of_float x) (Int32.bits_of_float y)) a b

(* ---- order statistics ---- *)

(* Nearest-rank percentile: always one of the samples. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- host readings ---- *)

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* Minor words and major collections over [f]. *)
let gc_delta f =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let v = f () in
  (v, Gc.minor_words () -. w0, (Gc.quick_stat ()).Gc.major_collections - m0)

(* Hit ratio of each memo since the last [Memo_stats.reset_counters]. *)
let memo_ratios () =
  List.map
    (fun m ->
      let s = Grt_util.Memo_stats.snapshot (Grt_util.Memo_stats.register m) in
      ( "memo." ^ m ^ ".hit_ratio",
        ratio s.Grt_util.Memo_stats.s_hits (s.Grt_util.Memo_stats.s_hits + s.Grt_util.Memo_stats.s_misses) ))
    Catalog.memo_names

(* Deterministic fleet-wide counts from a merged counter set. *)
let counter_layers (c : Grt_sim.Counters.t) =
  let g k = Grt_sim.Counters.get_int c (Grt_sim.Metrics.name k) in
  let open Grt_sim.Metrics in
  [
    ("drivershim.commits", float_of_int (g Commits_total));
    ("drivershim.speculated_ratio", ratio (g Commits_speculated) (g Commits_total));
    ("drivershim.rollbacks", float_of_int (g Spec_mispredicts));
    ("link.blocking_rtts", float_of_int (g Net_blocking_rtts));
    ("link.retransmits", float_of_int (g Net_retransmits));
    ("memsync.wire_kb", float_of_int (g Sync_down_wire_bytes + g Sync_up_wire_bytes) /. 1e3);
    ("memsync.cross_hits", float_of_int (g Sync_cross_hits));
    ("spec_history.cross_hits", float_of_int (g Spec_cross_hits));
  ]

let merged_counters cs =
  let dst = Grt_sim.Counters.create () in
  List.iter (fun src -> Grt_sim.Counters.merge_into ~dst ~src) cs;
  dst

(* ---- traced calls ---- *)

(* [span tr ~layer f]: [f] inside a span when tracing, bare otherwise. *)
let span tr ~layer ?tag f =
  match tr with Some t -> Span.with_ t ~layer ?tag f | None -> f ()

let stage_label = function
  | "created" -> "establish"
  | "established" -> "boot"
  | "booted" -> "attempt"
  | "attempted" -> "finalize"
  | s -> s

(* Record one session by stepping its pipeline, a span per stage under an
   ["orchestrate.record"] parent. *)
let record_stepped tr ctx =
  span tr ~layer:"orchestrate.record" (fun () ->
      let p = Orchestrate.Pipeline.create ctx in
      let rec go () =
        let stage = stage_label (Orchestrate.Pipeline.stage_name p) in
        match span tr ~layer:"orchestrate.pipeline" ~tag:stage (fun () -> Orchestrate.Pipeline.step p) with
        | `More -> go ()
        | `Done o -> o
      in
      go ())

(* Mean milliseconds per recording of each pipeline stage, and attempt-loop
   host microseconds per simulated register access. *)
let pipeline_layers t ~recordings ~accesses =
  List.map
    (fun s ->
      ( "orchestrate.pipeline." ^ s ^ "_ms",
        List.fold_left ( +. ) 0. (Span.durations ~tag:s t "orchestrate.pipeline")
        *. 1e3 /. float_of_int (max 1 recordings) ))
    [ "establish"; "boot"; "attempt"; "finalize" ]
  @ [
      ( "orchestrate.pipeline.us_per_access",
        List.fold_left ( +. ) 0. (Span.durations ~tag:"attempt" t "orchestrate.pipeline")
        *. 1e6 /. float_of_int (max 1 accesses) );
    ]

(* Self milliseconds per layer family ("orchestrate.pipeline" counts as
   "orchestrate") and the unattributed share of the traced wall. *)
let self_layers t =
  let fam l = match String.index_opt l '.' with Some i -> String.sub l 0 i | None -> l in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (l, s) ->
      let f = fam l in
      Hashtbl.replace totals f (s +. Option.value ~default:0. (Hashtbl.find_opt totals f)))
    (Span.self_times t);
  List.map
    (fun f -> ("self_ms." ^ f, 1e3 *. Option.value ~default:0. (Hashtbl.find_opt totals f)))
    Catalog.self_layers
  @ [ ("trace.unattributed_share", Span.unattributed_share t) ]

(* What one workload run hands back to the command line: its checks, the metric
   values it measured (by catalog name) and facts for the result stamp. *)
type run = { ck : checks; values : (string * float) list; info : (string * Grt_util.Json.t) list }

type scale = Full | Small
