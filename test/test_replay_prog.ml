(* The replay compiler and its streaming verifier: differential equivalence
   against the interpreted replayer (property-tested and across the full
   model zoo), streaming chunk-tamper detection, version-1 blob rejection,
   replay attestation tokens, and the bench-row JSON schema. *)

module Orchestrate = Grt.Orchestrate
module Replayer = Grt.Replayer
module Replay_prog = Grt.Replay_prog
module Recording = Grt.Recording
module Mode = Grt.Mode
module E = Grt.Experiments
module Attestation = Grt_tee.Attestation
module Network = Grt_mlfw.Network
module Zoo = Grt_mlfw.Zoo
module Runner = Grt_mlfw.Runner
module Profile = Grt_net.Profile
module Sku = Grt_gpu.Sku
module Json = Grt_util.Json

let check = Alcotest.check

let sku = Sku.g71_mp8

let record ?(net = Zoo.mnist) () =
  Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku ~net ~seed:42L ()

let mnist_recording = lazy (record ())

let replay_both ?(blob = (Lazy.force mnist_recording).Orchestrate.blob) ~net ~input_seed () =
  let plan = Network.expand net in
  let input = Runner.input_values plan ~seed:input_seed in
  let params = Runner.weight_values plan ~seed:42L in
  let interp = Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:input_seed () in
  let prog = Orchestrate.compile_recording ~blob () in
  let compiled = Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:input_seed () in
  (interp.Orchestrate.r, compiled.Orchestrate.r)

(* Property: for any fresh input, the compiled path is indistinguishable
   from the interpreted one — same output bits, same entry/verification
   counts. The input seed is the whole state space of a replay. *)
let compiled_equals_interpreted_prop =
  QCheck.Test.make ~count:12 ~name:"compiled replay == interpreted replay (any input)"
    QCheck.(map Int64.of_int small_int)
    (fun input_seed ->
      let i, c = replay_both ~net:Zoo.mnist ~input_seed () in
      i.Replayer.output = c.Replayer.output
      && i.Replayer.entries_applied = c.Replayer.entries_applied
      && i.Replayer.reads_verified = c.Replayer.reads_verified
      && i.Replayer.reads_skipped_nondet = c.Replayer.reads_skipped_nondet)

let compiled_bit_identical_all_nets () =
  (* The acceptance bar: bit-identical on every network in the zoo. *)
  List.iter
    (fun net ->
      let o = record ~net () in
      let i, c = replay_both ~blob:o.Orchestrate.blob ~net ~input_seed:7L () in
      check Alcotest.bool (net.Network.name ^ " bit-identical") true
        (i.Replayer.output = c.Replayer.output);
      check Alcotest.int
        (net.Network.name ^ " same entries applied")
        i.Replayer.entries_applied c.Replayer.entries_applied)
    Zoo.all

let warm_session_reuse_stays_identical () =
  (* Compile once, one session, many replays: hints and cached images must
     not change semantics between the cold and warm executions. *)
  let blob = (Lazy.force mnist_recording).Orchestrate.blob in
  let plan = Network.expand Zoo.mnist in
  let params = Runner.weight_values plan ~seed:42L in
  let prog = Orchestrate.compile_recording ~blob () in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  List.iter
    (fun seed ->
      let input = Runner.input_values plan ~seed in
      let warm = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
      let interp = Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed () in
      check Alcotest.bool
        (Printf.sprintf "warm replay (seed %Ld) bit-identical" seed)
        true
        (warm.Replayer.output = interp.Orchestrate.r.Replayer.output))
    [ 7L; 8L; 7L; 9L; 7L ]

let compile_stats_sensible () =
  let blob = (Lazy.force mnist_recording).Orchestrate.blob in
  let prog = Orchestrate.compile_recording ~blob () in
  let st = Replay_prog.stats prog in
  let rec_t = (Lazy.force mnist_recording).Orchestrate.recording in
  check Alcotest.int "entry count preserved" (Array.length rec_t.Recording.entries)
    st.Replay_prog.entries;
  check Alcotest.bool "write runs fused" true (st.Replay_prog.fused_writes > 0);
  check Alcotest.bool "memory image precompiled" true (st.Replay_prog.static_pages > 0);
  check Alcotest.bool "ops below entries" true (st.Replay_prog.ops < st.Replay_prog.entries)

let streaming_rejects_tampered_chunk () =
  (* The blob layout is header ∥ mac ∥ chunk bodies: flipping the blob's last
     byte corrupts a chunk body but leaves the signed header intact, so
     compilation (header-only verification) must succeed and the executor's
     streaming hash check must catch it mid-replay. *)
  let blob = Bytes.copy (Lazy.force mnist_recording).Orchestrate.blob in
  let last = Bytes.length blob - 1 in
  Bytes.set blob last (Char.chr (Char.code (Bytes.get blob last) lxor 0xFF));
  let prog =
    match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
    | Ok p -> p
    | Error e -> Alcotest.fail ("header verification should pass, got: " ^ e)
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  match Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:7L () with
  | _ -> Alcotest.fail "tampered chunk replayed"
  | exception Replayer.Rejected _ -> ()

let tampered_header_rejected_at_compile () =
  let blob = Bytes.copy (Lazy.force mnist_recording).Orchestrate.blob in
  Bytes.set blob 16 '\xFF';
  match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
  | Ok _ -> Alcotest.fail "tampered header compiled"
  | Error _ -> ()

let version1_blob_rejected () =
  (* The old flat format — the unsigned encoding with a MAC over all of
     it — is no longer accepted, even correctly signed. *)
  let o = Lazy.force mnist_recording in
  let key = Orchestrate.cloud_signing_key in
  let body = Recording.serialize o.Orchestrate.recording in
  let buf = Grt_util.Byte_buf.create () in
  Grt_util.Byte_buf.add_bytes buf body;
  Grt_util.Byte_buf.add_i64 buf (Grt_tee.Crypto.mac ~key body);
  let v1 = Grt_util.Byte_buf.contents buf in
  let want = Error "recording: unsupported version 1" in
  check
    Alcotest.(result reject string)
    "parse_signed" want
    (Result.map ignore (Recording.parse_signed ~key v1));
  check
    Alcotest.(result reject string)
    "Replay_prog.of_blob" want
    (Result.map ignore (Replay_prog.of_blob ~key v1))

let divergence_releases_gpu () =
  (* An exception mid-execution must still reset and release the GPU so the
     session object remains usable for the next replay. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_read { reg; value; verify = true } when not !patched ->
        entries.(i) <- Recording.Reg_read { reg; value = Int64.logxor value 0x5L; verify = true };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a verified read to corrupt" true !patched;
  let bad_blob =
    Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries }
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  let bad_prog = Orchestrate.compile_recording ~blob:bad_blob () in
  (match Replayer.replay_compiled ~gpushim:g ~prog:bad_prog ~input ~params () with
  | _ -> Alcotest.fail "divergence not detected"
  | exception Replayer.Divergence _ -> ());
  check Alcotest.bool "GPU released after divergence" false (Grt.Gpushim.isolated g);
  (* Same session replays the honest program afterwards. *)
  let prog = Orchestrate.compile_recording ~blob:o.Orchestrate.blob () in
  let r = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
  let interp = Orchestrate.replay_recording ~sku ~blob:o.Orchestrate.blob ~input ~params ~seed:7L () in
  check Alcotest.bool "session reusable after divergence" true
    (r.Replayer.output = interp.Orchestrate.r.Replayer.output)

let attest_token_roundtrip () =
  let o = Lazy.force mnist_recording in
  let prog = Orchestrate.compile_recording ~blob:o.Orchestrate.blob () in
  let root = Replay_prog.root prog in
  let key = Orchestrate.client_attestation_key in
  let token =
    Attestation.make_replay_token ~signing_key:key ~root ~gpu_id:sku.Sku.gpu_id ~entries:1024
      ~nonce:99L
  in
  check Alcotest.bool "token verifies" true
    (Result.is_ok
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:99L token));
  check Alcotest.bool "wrong nonce rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:100L token));
  check Alcotest.bool "wrong root rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root:(Int64.add root 1L)
          ~gpu_id:sku.Sku.gpu_id ~nonce:99L token));
  check Alcotest.bool "tampered signature rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:99L
          (Attestation.tamper_replay_token token)))

let root_stable_across_resigning () =
  (* The Merkle root is the recording's identity: re-signing the same log
     yields the same root; changing one entry changes it. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let root_of blob =
    match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
    | Ok p -> Replay_prog.root p
    | Error e -> Alcotest.fail e
  in
  let r1 = root_of (Recording.sign ~key:Orchestrate.cloud_signing_key rec_t) in
  let r2 = root_of (Recording.sign ~key:Orchestrate.cloud_signing_key rec_t) in
  check Alcotest.int64 "same log, same root" r1 r2;
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_write { reg; value } when not !patched ->
        entries.(i) <- Recording.Reg_write { reg; value = Int64.logxor value 1L };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a register write to flip" true !patched;
  let r3 =
    root_of (Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries })
  in
  check Alcotest.bool "different log, different root" true (not (Int64.equal r1 r3))

let bench_row_json_schema () =
  (* The bench's machine-readable row must carry exactly the printed
     fields, with the types the plotting scripts expect. *)
  let ctx = E.create_ctx () in
  let rows = E.replay_bench ~nets:[ Zoo.mnist ] ~iters:1 ctx in
  check Alcotest.int "one row per net" 1 (List.length rows);
  let row = List.hd rows in
  check Alcotest.bool "bit-identical" true row.E.bit_identical;
  check Alcotest.bool "rates positive" true
    (row.E.interpreted_rps > 0. && row.E.compiled_cold_rps > 0. && row.E.compiled_warm_rps > 0.);
  match E.replay_bench_row_json row with
  | Json.Obj fields ->
    let expect name pred =
      match List.assoc_opt name fields with
      | Some v when pred v -> ()
      | Some _ -> Alcotest.fail (name ^ " has the wrong JSON type")
      | None -> Alcotest.fail (name ^ " missing from JSON row")
    in
    let is_num = function Json.Num _ -> true | _ -> false in
    let is_bool = function Json.Bool _ -> true | _ -> false in
    expect "workload" (function Json.Str "MNIST" -> true | _ -> false);
    List.iter
      (fun f -> expect f is_num)
      [
        "entries";
        "interpreted_rps";
        "compiled_cold_rps";
        "compiled_warm_rps";
        "warm_speedup";
        "fused_writes";
        "static_pages";
        "dynamic_loads";
      ];
    expect "bit_identical" is_bool;
    (* Round-trips through the parser (the bench writes these to disk). *)
    (match Json.parse (Json.to_string (Json.Obj fields)) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("row does not re-parse: " ^ e))
  | _ -> Alcotest.fail "row is not a JSON object"

let () =
  Alcotest.run "grt_replay_prog"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest compiled_equals_interpreted_prop;
          Alcotest.test_case "bit-identical on all nets" `Slow compiled_bit_identical_all_nets;
          Alcotest.test_case "warm session reuse" `Quick warm_session_reuse_stays_identical;
          Alcotest.test_case "compile stats" `Quick compile_stats_sensible;
        ] );
      ( "verification",
        [
          Alcotest.test_case "streaming rejects tampered chunk" `Quick
            streaming_rejects_tampered_chunk;
          Alcotest.test_case "tampered header rejected at compile" `Quick
            tampered_header_rejected_at_compile;
          Alcotest.test_case "version-1 blob rejected" `Quick version1_blob_rejected;
          Alcotest.test_case "divergence releases GPU" `Quick divergence_releases_gpu;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "replay token roundtrip" `Quick attest_token_roundtrip;
          Alcotest.test_case "root stable across resigning" `Quick root_stable_across_resigning;
        ] );
      ("bench", [ Alcotest.test_case "replay bench row JSON" `Slow bench_row_json_schema ]);
    ]
