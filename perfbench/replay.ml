(* The replay-tee workload: compiled in-TEE inference.

   Set-up records each of the six paper NNs once on G71 MP8 (fastpath_cfg,
   WiFi) by stepping [Orchestrate.Pipeline], compiles each blob once, opens
   one client session per NN, and draws seeded inputs whose expected
   outputs come from [Grt_mlfw.Reference.run]. The timed section runs rounds
   of one [Replayer.replay_compiled] per NN, each on the next input of that
   NN's pool, and compares every output bit for bit. No link, service,
   driver shim or memory sync runs in the timed section.

   The workload seed feeds only the input seeds; recordings and model
   weights are fixed. *)

open Grt
open Common

let sku = Grt_gpu.Sku.g71_mp8
let record_seed = 42L
let weights_seed = 42L

type case = {
  net : Grt_mlfw.Network.t;
  outcome : Orchestrate.record_outcome;
  prog : Replay_prog.t;
  gpushim : Gpushim.t;
  energy : Grt_sim.Energy.t;
  params : (string * float array) list;
  inputs : float array array;
  expected : float array array;
}

let inputs_per_net = function Full -> 4 | Small -> 2
let nets = function Full -> Grt_mlfw.Zoo.all | Small -> [ Grt_mlfw.Zoo.mnist; Grt_mlfw.Zoo.alexnet ]

let set_up ?tr ~scale ~seed () =
  let t0 = wall () in
  let cases =
    List.mapi
      (fun ni net ->
        let ctx =
          span tr ~layer:"session_ctx" ~tag:"record" (fun () ->
              Session_ctx.create ~cfg:Service.fastpath_cfg ~profile:Grt_net.Profile.wifi ~sku ~net
                ~seed:record_seed ~granularity:`Monolithic ())
        in
        let outcome = record_stepped tr ctx in
        let prog =
          span tr ~layer:"replay_prog.compile" (fun () ->
              Orchestrate.compile_recording ~blob:outcome.Orchestrate.blob ())
        in
        let gpushim, _, energy =
          span tr ~layer:"gpushim.session" (fun () -> Orchestrate.replay_gpushim ~sku ~seed:record_seed ())
        in
        let plan = ctx.Session_ctx.plan in
        let params, inputs =
          span tr ~layer:"mlfw.inputs" (fun () ->
              ( Grt_mlfw.Runner.weight_values plan ~seed:weights_seed,
                Array.init (inputs_per_net scale) (fun i ->
                    Grt_mlfw.Runner.input_values plan
                      ~seed:(Grt_util.Hashing.combine (Int64.of_int seed) (Int64.of_int ((ni * 1000) + i)))) ))
        in
        let expected =
          Array.map
            (fun input ->
              span tr ~layer:"reference.run" (fun () -> Grt_mlfw.Reference.run plan ~weights:params ~input))
            inputs
        in
        { net; outcome; prog; gpushim; energy; params; inputs; expected })
      (nets scale)
  in
  (cases, wall () -. t0)

let setup_only ~scale ~seed = snd (set_up ~scale ~seed ())

(* One replay per NN; returns the round's wall seconds. Each replay's
   virtual delay and applied-entry count are handed to [note]. *)
let round ?tr ck cases i ~note =
  let w0 = wall () in
  List.iter
    (fun c ->
      let k = i mod Array.length c.inputs in
      ck.attempted <- ck.attempted + 1;
      match
        span tr ~layer:"replayer.replay" ~tag:c.net.Grt_mlfw.Network.name (fun () ->
            Replayer.replay_compiled ~gpushim:c.gpushim ~prog:c.prog ~input:c.inputs.(k) ~params:c.params
              ~energy:c.energy ())
      with
      | r ->
        note r;
        if not (bits_equal r.Replayer.output c.expected.(k)) then
          fail ck "%s input %d: replay output differs from Reference.run" c.net.Grt_mlfw.Network.name k
      | exception e -> fail ck "%s input %d: replay raised %s" c.net.Grt_mlfw.Network.name k (Printexc.to_string e))
    cases;
  wall () -. w0

(* Rounds until [seconds] have passed; [traced i] says whether round [i]
   runs under the span recorder. Returns the wall seconds of the traced
   and of the untraced rounds, with the number of each. *)
let timed ?tr ?(traced = fun _ -> true) ck cases ~seconds ~note =
  let t0 = wall () in
  let acc = [| 0.; 0. |] and n = [| 0; 0 |] and i = ref 0 in
  while !i = 0 || wall () -. t0 < seconds do
    let on = tr <> None && traced !i in
    let dt =
      match tr with
      | Some t when on -> round ~tr:t ck cases !i ~note
      | Some t -> Span.untraced t (fun () -> round ck cases !i ~note)
      | None -> round ck cases !i ~note
    in
    let slot = if on then 0 else 1 in
    acc.(slot) <- acc.(slot) +. dt;
    n.(slot) <- n.(slot) + 1;
    incr i
  done;
  ((acc.(0), n.(0)), (acc.(1), n.(1)))

let info cases =
  let open Grt_util.Json in
  [
    ("sku", Str sku.Grt_gpu.Sku.name);
    ("nets", Arr (List.map (fun c -> Str c.net.Grt_mlfw.Network.name) cases));
    ("inputs_per_net", int (match cases with c :: _ -> Array.length c.inputs | [] -> 0));
    ("domains", int 1);
  ]

let e2e ~scale ~seed ~seconds =
  let ck = checks () in
  let cases, setup_s = set_up ~scale ~seed () in
  Grt_util.Memo_stats.reset_counters ();
  let virt = ref [] in
  let _, (busy, rounds) = timed ck cases ~seconds ~note:(fun r -> virt := (r.Replayer.delay_s *. 1e3) :: !virt) in
  {
    ck;
    values =
      [
        ("throughput_per_s", float_of_int ck.attempted /. busy);
        ("setup_s", setup_s);
        ("top_heap_mb", top_heap_mb ());
        ("fail_ratio", ratio ck.failed ck.attempted);
        ("virt_ms_p50", percentile 0.5 !virt);
        ("virt_ms_p95", percentile 0.95 !virt);
      ];
    info =
      info cases
      @ [
          ("rounds", Grt_util.Json.int rounds);
          ("memo_after_timed", Grt_util.Memo_stats.to_json ());
        ];
  }

(* Traced set-up, then rounds that alternate between traced and untraced:
   the same calls under the same machine conditions, so the ratio of their
   wall times is the tracing overhead. *)
let traced ~scale ~seed ~seconds =
  let ck = checks () in
  let tr = Span.create () in
  let cases, _ = set_up ~tr ~scale ~seed () in
  Grt_util.Memo_stats.reset_counters ();
  let virt = ref [] and entries = ref [] in
  let note r =
    virt := (r.Replayer.delay_s *. 1e3) :: !virt;
    entries := float_of_int r.Replayer.entries_applied :: !entries
  in
  let ((on_s, on_n), (off_s, off_n)), minor_words, majors =
    gc_delta (fun () -> timed ~tr ~traced:(fun i -> i mod 2 = 0) ck cases ~seconds ~note)
  in
  let ops = List.length cases * (on_n + off_n) in
  let selfs = self_layers tr in
  let memo = memo_ratios () in
  let replays = Span.durations tr "replayer.replay" in
  let ms_mean xs = 1e3 *. mean xs in
  let stats = List.map (fun c -> Replay_prog.stats c.prog) cases in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let accesses = List.fold_left (fun a c -> a + c.outcome.Orchestrate.accesses_total) 0 cases in
  let values =
    List.map
      (fun c ->
        let n = c.net.Grt_mlfw.Network.name in
        ("replayer.replay_ms." ^ n, 1e3 *. percentile 0.5 (Span.durations ~tag:n tr "replayer.replay")))
      cases
    @ [
        ("replayer.us_per_entry", 1e6 *. mean replays /. Float.max 1. (mean !entries));
        ("replay_prog.compile_ms", ms_mean (Span.durations tr "replay_prog.compile"));
        ("replay_prog.static_pages", sum (fun s -> s.Replay_prog.static_pages));
        ("replay_prog.dynamic_loads", sum (fun s -> s.Replay_prog.dynamic_loads));
        ("gpushim.session_ms", ms_mean (Span.durations tr "gpushim.session"));
        ("reference.run_ms", ms_mean (Span.durations tr "reference.run"));
        ("gc.minor_kwords_per_op", minor_words /. 1e3 /. float_of_int (max 1 ops));
        ("gc.major_collections", float_of_int majors);
        ("virt_ms_p50", percentile 0.5 !virt);
        ("virt_ms_p95", percentile 0.95 !virt);
        ("fail_ratio", ratio ck.failed ck.attempted);
        ( "trace.overhead_ratio",
          if on_n = 0 || off_n = 0 then 0. else (on_s /. float_of_int on_n /. (off_s /. float_of_int off_n)) -. 1. );
      ]
    @ pipeline_layers tr ~recordings:(List.length cases) ~accesses
    @ counter_layers (merged_counters (List.map (fun c -> c.outcome.Orchestrate.counters) cases))
    @ memo @ selfs
  in
  { ck; values; info = info cases @ [ ("mode", Grt_util.Json.Str "traced set-up, then alternating traced and untraced rounds") ] }
