(* Tests for the cloud recording VM (§6): devicetree selection per client
   GPU, one-client sealing, and the continuous-validation page guards the
   recorder arms around each job (§5). *)

module Cloudvm = Grt.Cloudvm
module Sku = Grt_gpu.Sku
module Mem = Grt_gpu.Mem

let check = Alcotest.check

let image = Cloudvm.default_image

let image_covers_catalog () =
  check Alcotest.int "one tree per SKU" (List.length Sku.all)
    (List.length image.Cloudvm.trees);
  List.iter
    (fun sku ->
      match Cloudvm.boot image ~client_gpu_id:sku.Sku.gpu_id with
      | Ok vm ->
        let t = Cloudvm.selected_tree vm in
        check Alcotest.int64 (sku.Sku.name ^ " tree id") sku.Sku.gpu_id t.Cloudvm.gpu_id
      | Error _ -> Alcotest.failf "no devicetree for %s" sku.Sku.name)
    Sku.all

let boot_rejects_unknown_gpu () =
  match Cloudvm.boot image ~client_gpu_id:0xDEAD_BEEFL with
  | Error (Cloudvm.Unsupported_gpu id) -> check Alcotest.int64 "echoes id" 0xDEAD_BEEFL id
  | _ -> Alcotest.fail "unknown GPU booted"

let devicetree_fields () =
  let t = Cloudvm.devicetree_for Sku.g71_mp8 in
  check Alcotest.string "compatible" "arm,mali-bifrost" t.Cloudvm.compatible;
  check Alcotest.string "model" "mali-g71-mp8" t.Cloudvm.model;
  check Alcotest.int "three irq lines" 3 (List.length t.Cloudvm.irq_lines);
  check Alcotest.bool "ACE platform" true t.Cloudvm.coherency_ace;
  let t31 = Cloudvm.devicetree_for Sku.g31_mp2 in
  check Alcotest.bool "G31 not ACE" false t31.Cloudvm.coherency_ace

let vm_seals_to_one_client () =
  match Cloudvm.boot image ~client_gpu_id:Sku.g71_mp8.Sku.gpu_id with
  | Error _ -> Alcotest.fail "boot failed"
  | Ok vm -> (
    (match Cloudvm.begin_session vm ~client:"alice" with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "first client refused");
    (match Cloudvm.begin_session vm ~client:"bob" with
    | Error Cloudvm.Already_serving -> ()
    | _ -> Alcotest.fail "second client accepted — VM not sealed");
    check (Alcotest.option Alcotest.string) "serving alice" (Some "alice") (Cloudvm.serving vm);
    Cloudvm.end_session vm;
    match Cloudvm.begin_session vm ~client:"bob" with
    | Ok () -> check Alcotest.int "two sessions total" 2 (Cloudvm.sessions_served vm)
    | Error _ -> Alcotest.fail "VM not reusable after scrub")

let measurement_covers_trees () =
  (* Changing the set of shipped devicetrees must change the measurement —
     the client's attestation pins the exact image. *)
  let m1 = Grt_tee.Attestation.measure image.Cloudvm.measurement in
  let m2 =
    Grt_tee.Attestation.measure
      { image.Cloudvm.measurement with Grt_tee.Attestation.devicetree = "mali-g71-mp8" }
  in
  check Alcotest.bool "tree set is measured" false (Int64.equal m1 m2)

(* ---- continuous validation (§5) ---- *)

let guard_basic () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 2 in
  Mem.write_u32 m pa 1L;
  Mem.protect_pages m [| Int64.to_int (Mem.page_of_addr pa) |];
  (match Mem.write_u32 m pa 2L with
  | () -> Alcotest.fail "protected write succeeded"
  | exception Mem.Protected_page_write pfn ->
    check Alcotest.int64 "names the page" (Mem.page_of_addr pa) pfn);
  (* Reads remain allowed; other pages remain writable. *)
  check Alcotest.int64 "read ok" 1L (Mem.read_u32 m pa);
  Mem.write_u32 m (Int64.add pa (Int64.of_int Mem.page_size)) 3L;
  Mem.unprotect_all m;
  Mem.write_u32 m pa 2L;
  check Alcotest.int64 "writable after unprotect" 2L (Mem.read_u32 m pa)

let guard_set_page () =
  let m = Mem.create () in
  Mem.protect_pages m [| 0x55 |];
  match Mem.set_page m 0x55L (Bytes.make Mem.page_size 'x') with
  | () -> Alcotest.fail "set_page bypassed protection"
  | exception Mem.Protected_page_write _ -> ()

let record_runs_clean_under_validation () =
  (* The whole record pipeline executes with the guards armed around every
     job; if the driver or runtime touched dumped metastate mid-job, this
     would raise. *)
  let o =
    Grt.Orchestrate.record ~profile:Grt_net.Profile.wifi ~mode:Grt.Mode.Ours_mds
      ~sku:Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed:50L ()
  in
  check Alcotest.bool "completed" true (Array.length o.Grt.Orchestrate.recording.Grt.Recording.entries > 0)

let spurious_access_trapped () =
  (* Simulate the §5 scenario directly: once the job-start dump is shipped,
     a stray CPU write into a dumped (protected) page must trap. *)
  let mem = Mem.create () in
  let pa = Mem.alloc_pages mem 1 in
  Mem.write_u32 mem pa 0xAAL;
  (* "ship the dump" *)
  Mem.protect_pages mem [| Int64.to_int (Mem.page_of_addr pa) |];
  let trapped =
    match Mem.write_u8 mem (Int64.add pa 100L) 1 with
    | () -> false
    | exception Mem.Protected_page_write _ -> true
  in
  check Alcotest.bool "spurious access reported as error" true trapped

let recordings_not_shared_across_clients () =
  (* §3.1: the cloud never caches and reuses recordings across clients,
     even for identical SKUs and workloads — each client session produces
     its own recording (distinct physical-GPU nondeterminism, distinct
     signatures over it). *)
  let record seed =
    Grt.Orchestrate.record ~profile:Grt_net.Profile.wifi ~mode:Grt.Mode.Ours_mds
      ~sku:Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed ()
  in
  let a = record 1L and b = record 2L in
  check Alcotest.bool "per-client recordings differ" false
    (Bytes.equal a.Grt.Orchestrate.blob b.Grt.Orchestrate.blob);
  (* Both are nevertheless valid recordings of the same workload. *)
  List.iter
    (fun (o : Grt.Orchestrate.record_outcome) ->
      match
        Grt.Recording.verify_and_parse ~key:Grt.Orchestrate.cloud_signing_key
          o.Grt.Orchestrate.blob
      with
      | Ok r -> check Alcotest.string "same workload" "MNIST" r.Grt.Recording.workload
      | Error e -> Alcotest.fail e)
    [ a; b ]

let () =
  Alcotest.run "grt_cloudvm"
    [
      ( "devicetrees",
        [
          Alcotest.test_case "image covers catalog" `Quick image_covers_catalog;
          Alcotest.test_case "unknown GPU rejected" `Quick boot_rejects_unknown_gpu;
          Alcotest.test_case "devicetree fields" `Quick devicetree_fields;
          Alcotest.test_case "measurement covers trees" `Quick measurement_covers_trees;
        ] );
      ( "sealing",
        [
          Alcotest.test_case "one client at a time" `Quick vm_seals_to_one_client;
          Alcotest.test_case "recordings not shared across clients" `Quick
            recordings_not_shared_across_clients;
        ] );
      ( "continuous-validation",
        [
          Alcotest.test_case "guard basics" `Quick guard_basic;
          Alcotest.test_case "guard set_page" `Quick guard_set_page;
          Alcotest.test_case "record runs clean" `Quick record_runs_clean_under_validation;
          Alcotest.test_case "spurious access trapped" `Quick spurious_access_trapped;
        ] );
    ]
