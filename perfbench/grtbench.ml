(* grtbench: the GR-T benchmark (see README.md in this directory).

     grtbench run --workload W --seed N --seconds S --trace 0|1
     grtbench setup --workload W --seed N
     grtbench spec
     grtbench selftest BENCHMARK.json

   [run] prints a human-readable table, a [stamp] line and, last, one JSON
   result line; it exits non-zero when any output check failed. [setup]
   only times the workload's set-up (run.py repeats it in fresh processes
   so every set-up is memo-cold). [spec] prints the BENCHMARK.json the
   metric catalog implies and [selftest] runs the benchmark's own tests. *)

open Common
module Json = Grt_util.Json

let workload_names = List.map fst Catalog.workloads

let run_workload ~scale ~seed ~seconds ~trace = function
  | "fleet-hot" -> if trace then Fleet.traced ~scale ~seed Fleet.Hot else Fleet.e2e ~scale ~seed ~seconds Fleet.Hot
  | "fleet-churn" ->
    if trace then Fleet.traced ~scale ~seed Fleet.Churn else Fleet.e2e ~scale ~seed ~seconds Fleet.Churn
  | "replay-tee" -> if trace then Replay.traced ~scale ~seed ~seconds else Replay.e2e ~scale ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

let setup_workload ~scale ~seed = function
  | "fleet-hot" -> Fleet.setup_only ~scale ~seed Fleet.Hot
  | "fleet-churn" -> Fleet.setup_only ~scale ~seed Fleet.Churn
  | "replay-tee" -> Replay.setup_only ~scale ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let stamp ~workload ~seed ~seconds ~trace (r : run) =
  let g = Gc.get () in
  Json.Obj
    ([
       ("workload", Json.Str workload);
       ("seed", Json.int seed);
       ("seconds", Json.Num seconds);
       ("trace", Json.Bool trace);
       ("host_cores", Json.int (Grt_util.Par.recommended_domains ()));
       ("ocaml_version", Json.Str Sys.ocaml_version);
       ( "gc",
         Json.Obj
           [
             ("minor_heap_words", Json.int g.Gc.minor_heap_size);
             ("space_overhead", Json.int g.Gc.space_overhead);
             ("OCAMLRUNPARAM", Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
           ] );
       ("memo_state", Json.Str "cold at process start");
     ]
    @ r.info)

let value r name = List.assoc_opt name r.values

let print_report ~workload ~trace r =
  if trace then begin
    Printf.printf "%-40s %14s %-8s  %s\n" "per-layer metric" "value" "unit" "should move";
    List.iter
      (fun (m : Catalog.layer) ->
        match value r m.Catalog.l_name with
        | Some v -> Printf.printf "%-40s %14.6g %-8s  %s\n" m.Catalog.l_name v m.Catalog.l_unit m.Catalog.l_moves
        | None -> Printf.printf "%-40s %14s %-8s  (not exercised by %s)\n" m.Catalog.l_name "n/a" m.Catalog.l_unit workload)
      Catalog.per_layer
  end
  else
    List.iter
      (fun (e : Catalog.e2e) ->
        Printf.printf "%-12s %-18s %14.6g %s\n" workload e.Catalog.e_name
          (Option.value ~default:0. (value r e.Catalog.e_name))
          e.Catalog.e_unit)
      Catalog.end_to_end;
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) (List.rev r.ck.problems)

(* The result line: the BENCHMARK.json metrics of this mode. *)
let result_json ~trace r =
  let metric name unit =
    (name, Json.Obj [ ("value", Json.Num (Option.value ~default:0. (value r name))); ("unit", Json.Str unit) ])
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.ck.failed = 0));
      ("attempted", Json.int r.ck.attempted);
      ("failed", Json.int r.ck.failed);
      ( "metrics",
        Json.Obj
          (if trace then List.map (fun (m : Catalog.layer) -> metric m.Catalog.l_name m.Catalog.l_unit) Catalog.per_layer
           else
             List.filter_map
               (fun (e : Catalog.e2e) ->
                 Option.map (fun _ -> metric e.Catalog.e_name e.Catalog.e_unit) e.Catalog.e_bound)
               Catalog.end_to_end) );
    ]

(* ---- self-test ----

   At the small scale: one seed, run twice, must give identical virtual-time
   metrics and deterministic counts; a second seed must pass every output
   check; and BENCHMARK.json must list exactly the catalog's metrics. *)

let deterministic name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [
      "virt_ms_"; "service.recordings"; "service.evictions"; "service.failures"; "service.served_ratio"; "sched.";
      "drivershim."; "link."; "memsync."; "spec_history."; "replay_prog.static_pages"; "replay_prog.dynamic_loads";
    ]

let selftest spec_path =
  let ok = ref true in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") msg;
        if not cond then ok := false)
      fmt
  in
  let text = In_channel.with_open_bin spec_path In_channel.input_all in
  (match Json.parse (String.trim text) with
  | Error e -> check false "BENCHMARK.json parses (%s)" e
  | Ok j ->
    check
      (Json.to_string j = Json.to_string (Catalog.spec_json ()))
      "BENCHMARK.json is exactly the catalog's workloads, metrics and run length");
  let scale = Small in
  List.iter
    (fun w ->
      let det r = List.filter (fun (n, _) -> deterministic n) r.values in
      let a = run_workload ~scale ~seed:1 ~seconds:0. ~trace:true w in
      let b = run_workload ~scale ~seed:1 ~seconds:0. ~trace:true w in
      check (a.ck.failed = 0 && b.ck.failed = 0) "%s seed 1: every output check passes" w;
      check (det a <> [] && det a = det b) "%s seed 1 twice: identical virtual times and counts (%d values)" w
        (List.length (det a));
      let e = run_workload ~scale ~seed:1 ~seconds:0. ~trace:false w in
      check
        (List.for_all (fun n -> value e n = value a n) [ "virt_ms_p50"; "virt_ms_p95" ])
        "%s seed 1: end-to-end and traced passes agree on virtual times" w;
      let h = run_workload ~scale ~seed:2 ~seconds:0. ~trace:false w in
      let ht = run_workload ~scale ~seed:2 ~seconds:0. ~trace:true w in
      check (h.ck.failed = 0 && ht.ck.failed = 0 && h.ck.attempted > 0)
        "%s held-out seed 2: every output check passes (%d + %d operations)" w h.ck.attempted ht.ck.attempted)
    workload_names;
  if not !ok then exit 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: grtbench run --workload W --seed N --seconds S --trace 0|1\n\
    \       grtbench setup --workload W --seed N\n\
    \       grtbench spec\n\
    \       grtbench selftest BENCHMARK.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let get o k ~default = Option.value ~default (List.assoc_opt k o) in
  let num o k ~default conv = try conv (get o k ~default) with Failure _ -> usage () in
  match args with
  | ("run" | "setup") as cmd :: rest ->
    let o = opts [] rest in
    let workload = get o "--workload" ~default:"" in
    if not (List.mem workload workload_names) then usage ();
    let seed = num o "--seed" ~default:"1" int_of_string in
    let scale = Full in
    if cmd = "setup" then
      print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Num (setup_workload ~scale ~seed workload)) ]))
    else begin
      let seconds = num o "--seconds" ~default:(string_of_int Catalog.run_seconds) float_of_string in
      let trace = get o "--trace" ~default:"0" = "1" in
      let r = run_workload ~scale ~seed ~seconds ~trace workload in
      print_report ~workload ~trace r;
      print_endline ("stamp " ^ Json.to_string (stamp ~workload ~seed ~seconds ~trace r));
      print_endline (Json.to_string (result_json ~trace r));
      if r.ck.failed > 0 then exit 1
    end
  | [ "spec" ] -> print_endline (Json.to_string (Catalog.spec_json ()))
  | [ "selftest"; spec ] -> selftest spec
  | _ -> usage ()
