(* Tests for the simulation substrate: virtual clock, counters, energy
   meter, trace ring and the cost-constant invariants the model relies on. *)

module Clock = Grt_sim.Clock
module Counters = Grt_sim.Counters
module Energy = Grt_sim.Energy
module Trace = Grt_sim.Trace
module Costs = Grt_sim.Costs

let check = Alcotest.check

(* ---- Clock ---- *)

let clock_starts_at_zero () =
  let c = Clock.create () in
  check Alcotest.int64 "zero" 0L (Clock.now_ns c);
  check (Alcotest.float 1e-12) "zero s" 0.0 (Clock.now_s c)

let clock_advances () =
  let c = Clock.create () in
  Clock.advance_ns c 1500L;
  Clock.advance_s c 0.5e-6;
  check Alcotest.int64 "sum" 2000L (Clock.now_ns c)

let clock_rejects_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance_ns: negative delta")
    (fun () -> Clock.advance_ns c (-1L))

let clock_advance_to () =
  let c = Clock.create () in
  Clock.advance_ns c 100L;
  Clock.advance_to c 50L;
  check Alcotest.int64 "no backwards move" 100L (Clock.now_ns c);
  Clock.advance_to c 400L;
  check Alcotest.int64 "forward" 400L (Clock.now_ns c)

let clock_observers () =
  let c = Clock.create () in
  let total = ref 0L in
  Clock.on_advance c (fun old_now new_now -> total := Int64.add !total (Int64.sub new_now old_now));
  Clock.advance_ns c 10L;
  Clock.advance_ns c 0L;
  (* zero advance must not fire *)
  Clock.advance_ns c 32L;
  check Alcotest.int64 "observer saw all time" 42L !total

let clock_time_span () =
  let c = Clock.create () in
  let v, span =
    Clock.time c (fun () ->
        Clock.advance_s c 0.25;
        "done")
  in
  check Alcotest.string "value" "done" v;
  check (Alcotest.float 1e-9) "span" 0.25 (Clock.span_s span)

(* ---- Counters (one dense store keyed by Metrics.key) ---- *)

module K = Grt_sim.Metrics

let counters_basic () =
  let t = Counters.create () in
  Counters.incr t K.Net_msgs;
  Counters.add t K.Net_msgs 4;
  Counters.add t K.Net_bytes_tx 7;
  check Alcotest.int "typed read" 5 (Counters.read t K.Net_msgs);
  check Alcotest.int64 "by name" 7L (Counters.get t "net.bytes_tx");
  check Alcotest.int "unwritten is zero" 0 (Counters.read t K.Net_drops);
  check Alcotest.int64 "unknown name is zero" 0L (Counters.get t "zzz");
  check Alcotest.int "get_int" 5 (Counters.get_int t "net.msgs")

let counters_alist_sorted () =
  let t = Counters.create () in
  Counters.incr t K.Svc_sessions;
  Counters.incr t K.Commits_total;
  check (Alcotest.list Alcotest.string) "sorted keys" [ "commits.total"; "svc.sessions" ]
    (List.map fst (Counters.to_alist t))

let counters_merge () =
  let a = Counters.create () and b = Counters.create () in
  Counters.add a K.Reg_reads 2;
  Counters.add b K.Reg_reads 3;
  Counters.add b K.Reg_writes 1;
  Counters.merge_into ~dst:a ~src:b;
  check Alcotest.int64 "merged reads" 5L (Counters.get a "reg.reads");
  check Alcotest.int64 "merged writes" 1L (Counters.get a "reg.writes")

(* ---- Metrics keys over Counters ---- *)

(* A typed write goes straight into the one store that by-name reads see.
   A key is listed once written, even with 0; [merge_into] carries that
   over. *)
let metrics_write_through () =
  let a = Counters.create () and b = Counters.create () in
  Counters.incr a K.Net_blocking_rtts;
  Counters.add a K.Net_blocking_rtts 2;
  Counters.add a K.Sync_pages_visited 0;
  Counters.add b K.Net_blocking_rtts 4;
  Counters.add b K.Spec_cross_hits 0;
  check Alcotest.int64 "typed write, read by name" 3L (Counters.get a "net.blocking_rtts");
  check Alcotest.int "typed read" 3 (Counters.read a K.Net_blocking_rtts);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    "written zero is listed"
    [ ("net.blocking_rtts", 3L); ("sync.pages_visited", 0L) ]
    (Counters.to_alist a);
  Counters.merge_into ~dst:a ~src:b;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    "merge sums"
    [ ("net.blocking_rtts", 7L); ("spec.history_cross_hits", 0L); ("sync.pages_visited", 0L) ]
    (Counters.to_alist a)

(* The dump is [to_alist], one key per line, the name padded to 40
   columns. *)
let metrics_pp_matches_counters () =
  let c = Counters.create () in
  Counters.add c K.Net_blocking_rtts 7;
  Counters.add c K.Sync_up_wire_bytes 1234;
  Counters.add c K.Spec_cross_hits 0;
  let dump = Format.asprintf "%a" Counters.pp c in
  check Alcotest.string "pp is the alist"
    (String.concat ""
       (List.map (fun (n, v) -> Printf.sprintf "%-40s %Ld\n" n v) (Counters.to_alist c)))
    dump;
  check Alcotest.string "pp layout"
    (Printf.sprintf "%-40s 7\n%-40s 0\n%-40s 1234\n" "net.blocking_rtts" "spec.history_cross_hits"
       "sync.up_wire_bytes")
    dump

let metrics_names_roundtrip () =
  List.iteri
    (fun i key ->
      check Alcotest.int "index is the position in all" i (K.index key);
      match K.of_name (K.name key) with
      | Some k -> check Alcotest.bool "roundtrip" true (k = key)
      | None -> Alcotest.failf "of_name failed for %s" (K.name key))
    K.all;
  check (Alcotest.option Alcotest.reject) "unknown name" None (K.of_name "no.such.counter");
  (* Names must stay unique or two keys would alias one counter. *)
  let names = List.map K.name K.all in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---- Energy ---- *)

let energy_base_rail_integrates () =
  let c = Clock.create () in
  let e = Energy.create c in
  Clock.advance_s c 2.0;
  check (Alcotest.float 1e-9) "soc base only"
    (2.0 *. Energy.rail_power_w Energy.Soc_base)
    (Energy.total_j e)

let energy_rail_toggling () =
  let c = Clock.create () in
  let e = Energy.create c in
  Energy.set_active e Energy.Gpu_busy true;
  Clock.advance_s c 1.0;
  Energy.set_active e Energy.Gpu_busy false;
  Clock.advance_s c 1.0;
  let by_rail = Energy.by_rail_j e in
  check (Alcotest.float 1e-9) "gpu for 1s"
    (Energy.rail_power_w Energy.Gpu_busy)
    (List.assoc Energy.Gpu_busy by_rail)

let energy_with_rail_restores () =
  let c = Clock.create () in
  let e = Energy.create c in
  (try Energy.with_rail e Energy.Cpu_busy (fun () -> failwith "boom") with Failure _ -> ());
  Clock.advance_s c 1.0;
  check (Alcotest.float 1e-9) "cpu rail off after exception" 0.0
    (List.assoc Energy.Cpu_busy (Energy.by_rail_j e))

let energy_charge_j () =
  let c = Clock.create () in
  let e = Energy.create c in
  Energy.charge_j e Energy.Radio_tx 1.5;
  check (Alcotest.float 1e-9) "direct charge" 1.5 (List.assoc Energy.Radio_tx (Energy.by_rail_j e))

let energy_reset () =
  let c = Clock.create () in
  let e = Energy.create c in
  Clock.advance_s c 1.0;
  Energy.reset e;
  check (Alcotest.float 1e-9) "reset" 0.0 (Energy.total_j e)

(* ---- Trace ---- *)

let trace_recent_order () =
  let c = Clock.create () in
  let t = Trace.create ~capacity:8 c in
  Trace.emit t ~topic:"a" "first";
  Clock.advance_ns c 5L;
  Trace.emit t ~topic:"b" "second";
  match Trace.recent t 2 with
  | [ e2; e1 ] ->
    check Alcotest.string "most recent first" "second" (Trace.detail e2);
    check Alcotest.string "older second" "first" (Trace.detail e1);
    check Alcotest.int64 "timestamped" 5L e2.Trace.at_ns
  | _ -> Alcotest.fail "expected two events"

let trace_topic_filter () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.emit t ~topic:"x" "1";
  Trace.emit t ~topic:"y" "2";
  Trace.emit t ~topic:"x" "3";
  check Alcotest.int "filtered" 2 (List.length (Trace.recent ~topic:"x" t 10))

let trace_ring_eviction () =
  let c = Clock.create () in
  let t = Trace.create ~capacity:4 c in
  for i = 1 to 10 do
    Trace.emitf t ~topic:"n" "%d" i
  done;
  check Alcotest.int "total counts all" 10 (Trace.count t);
  let recents = Trace.recent t 10 in
  check Alcotest.int "bounded by capacity" 4 (List.length recents);
  check Alcotest.string "newest survives" "10" (Trace.detail (List.hd recents))

(* ---- Costs ---- *)

let costs_sane () =
  (* The entire delay model rests on MMIO being orders of magnitude cheaper
     than a WiFi RTT; guard that relationship. *)
  check Alcotest.bool "mmio << 1ms" true (Int64.compare Costs.mmio_access_ns 1_000_000L < 0);
  check Alcotest.bool "jit is macroscopic" true
    (Int64.compare Costs.jit_compile_ns_per_kernel 1_000_000L > 0);
  check Alcotest.bool "replayer step < driver submit" true
    (Int64.compare Costs.replayer_step_ns Costs.driver_submit_overhead_ns < 0);
  check Alcotest.bool "gpu throughput positive" true (Costs.gpu_flops_per_s > 1e9)

let () =
  Alcotest.run "grt_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick clock_starts_at_zero;
          Alcotest.test_case "advances" `Quick clock_advances;
          Alcotest.test_case "rejects negative" `Quick clock_rejects_negative;
          Alcotest.test_case "advance_to" `Quick clock_advance_to;
          Alcotest.test_case "observers" `Quick clock_observers;
          Alcotest.test_case "time span" `Quick clock_time_span;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick counters_basic;
          Alcotest.test_case "alist sorted" `Quick counters_alist_sorted;
          Alcotest.test_case "merge" `Quick counters_merge;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "write-through bridge" `Quick metrics_write_through;
          Alcotest.test_case "name roundtrip" `Quick metrics_names_roundtrip;
          Alcotest.test_case "pp matches Counters.pp" `Quick metrics_pp_matches_counters;
        ] );
      ( "energy",
        [
          Alcotest.test_case "base rail integrates" `Quick energy_base_rail_integrates;
          Alcotest.test_case "rail toggling" `Quick energy_rail_toggling;
          Alcotest.test_case "with_rail restores" `Quick energy_with_rail_restores;
          Alcotest.test_case "direct charge" `Quick energy_charge_j;
          Alcotest.test_case "reset" `Quick energy_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "recent order" `Quick trace_recent_order;
          Alcotest.test_case "topic filter" `Quick trace_topic_filter;
          Alcotest.test_case "ring eviction" `Quick trace_ring_eviction;
        ] );
      ("costs", [ Alcotest.test_case "sane relationships" `Quick costs_sane ]);
    ]
