(* Memsync fast-path tests: dirty-page tracking (generation stamps),
   content-addressed dedup, per-page adaptive encoding and the tagged wire
   format — exercised standalone over a sender/receiver memory pair and
   end-to-end on a recorded MNIST session. *)

module Mem = Grt_gpu.Mem
module Mode = Grt.Mode
module Memsync = Grt.Memsync
module Recording = Grt.Recording
module Session = Grt_runtime.Session
module Rng = Grt_util.Rng
module E = Grt.Experiments

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let region_pages = 16

let mk_pair ?shared cfg ~pages =
  let mem_s = Mem.create () and mem_r = Mem.create () in
  let pa = Mem.alloc_pages mem_s pages in
  let sender = Memsync.create ?shared cfg and receiver = Memsync.create cfg in
  Memsync.register_region sender
    {
      Memsync.name = "cmd";
      usage = Session.Cmd;
      va = 0x4000_0000L;
      pa;
      model_bytes = pages * Mem.page_size;
      actual_bytes = pages * Mem.page_size;
    };
  (mem_s, mem_r, sender, receiver, Mem.page_of_addr pa)

(* ---- the property: any mutation script, any flag combination ----

   Mutate the sender's region, sync, push the payload across the "wire"
   (the same record list a recording would carry), apply on the receiver —
   repeatedly — and the receiver must end bit-identical. Along the way
   every hash reference must resolve to content the receiver already
   holds (from an earlier full-bodied record, in or before this payload),
   and the payload's wire accounting must equal the sum of its records. *)

let all_flag_combos =
  List.concat_map
    (fun dirty ->
      List.concat_map
        (fun dedup ->
          List.concat_map
            (fun adaptive ->
              List.concat_map
                (fun delta ->
                  List.map
                    (fun compress -> (dirty, dedup, adaptive, delta, compress))
                    [ true; false ])
                [ true; false ])
            [ true; false ])
        [ true; false ])
    [ true; false ]

let cfg_of_combo (dirty, dedup, adaptive, delta, compress) =
  {
    (Mode.default_config Mode.Ours_mds) with
    Mode.memsync_dirty = dirty;
    memsync_dedup = dedup;
    memsync_adaptive = adaptive;
    delta_dumps = delta;
    compress_dumps = compress;
  }

type body_spec = Sparse of (int * int) list | Dense of int | Dup of int

let gen_script =
  let open QCheck2.Gen in
  let body =
    frequency
      [
        (3, map (fun e -> Sparse e) (list_size (int_bound 12) (pair (int_bound 4095) (int_bound 255))));
        (2, map (fun s -> Dense s) small_nat);
        (2, map (fun i -> Dup i) small_nat);
      ]
  in
  list_size (int_range 1 4) (list_size (int_bound 6) (pair (int_bound (region_pages - 1)) body))

let run_script combo script =
  let cfg = cfg_of_combo combo in
  let mem_s, mem_r, sender, receiver, first = mk_pair cfg ~pages:region_pages in
  let pool = ref [] in
  let body_of = function
    | Sparse edits ->
      let b = Bytes.make Mem.page_size '\000' in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
      b
    | Dense seed -> Rng.bytes (Rng.create ~seed:(Int64.of_int (seed + 7))) Mem.page_size
    | Dup i -> (
      match !pool with
      | [] -> Bytes.make Mem.page_size 'd'
      | l -> List.nth l (i mod List.length l))
  in
  let recv_hashes = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun round ->
      List.iter
        (fun (idx, spec) ->
          let b = body_of spec in
          pool := b :: !pool;
          Mem.set_page mem_s (Int64.add first (Int64.of_int idx)) b)
        round;
      let p = Memsync.sync_meta sender mem_s in
      let sum = List.fold_left (fun a (r : Memsync.page_record) -> a + r.Memsync.wire) 0 p.Memsync.records in
      if p.Memsync.wire_bytes <> sum then ok := false;
      List.iter
        (fun (r : Memsync.page_record) ->
          (match r.Memsync.enc with
          | Memsync.Enc_hash_ref ->
            (* reference must resolve from records the receiver decoded
               earlier (previous payloads or earlier in this one) *)
            if not (Hashtbl.mem recv_hashes (Memsync.hash_page r.Memsync.data)) then ok := false
          | _ -> ());
          Hashtbl.replace recv_hashes (Memsync.hash_page r.Memsync.data) ())
        p.Memsync.records;
      Memsync.apply receiver mem_r p)
    script;
  for i = 0 to region_pages - 1 do
    let pfn = Int64.add first (Int64.of_int i) in
    if not (Bytes.equal (Mem.get_page mem_s pfn) (Mem.get_page mem_r pfn)) then ok := false
  done;
  !ok

let memsync_qcheck_reproduces =
  qtest ~count:15 "any mutation script reproduces exactly under every flag combination"
    gen_script
    (fun script -> List.for_all (fun combo -> run_script combo script) all_flag_combos)

(* ---- dirty tracking ---- *)

let addr_of first i = Int64.shift_left (Int64.add first (Int64.of_int i)) Mem.page_shift

let visited_scales_with_dirty () =
  let cfg = Mode.default_config Mode.Ours_mds in
  let mem_s, _mem_r, sender, _receiver, first = mk_pair cfg ~pages:64 in
  let p0 = Memsync.sync_meta sender mem_s in
  check Alcotest.int "first sync examines the whole region" 64 p0.Memsync.visited;
  check Alcotest.int "region size" 64 p0.Memsync.total;
  List.iter (fun i -> Mem.write_u8 mem_s (addr_of first i) 0xAB) [ 1; 7; 42 ];
  let p1 = Memsync.sync_meta sender mem_s in
  check Alcotest.int "revisits only the dirtied pages" 3 p1.Memsync.visited;
  check Alcotest.int "ships the dirtied pages" 3 (List.length p1.Memsync.records);
  check Alcotest.int "scope unchanged" 64 p1.Memsync.total;
  let p2 = Memsync.sync_meta sender mem_s in
  check Alcotest.int "idle sync visits nothing" 0 p2.Memsync.visited

let visited_full_rescan_when_disabled () =
  let cfg = { (Mode.default_config Mode.Ours_mds) with Mode.memsync_dirty = false } in
  let mem_s, _mem_r, sender, _receiver, first = mk_pair cfg ~pages:64 in
  ignore (Memsync.sync_meta sender mem_s);
  List.iter (fun i -> Mem.write_u8 mem_s (addr_of first i) 0xAB) [ 1; 7; 42 ];
  let p = Memsync.sync_meta sender mem_s in
  check Alcotest.int "flag off rescans every meta page" 64 p.Memsync.visited;
  check Alcotest.int "but still ships only the changes" 3 (List.length p.Memsync.records)

(* ---- dedup ---- *)

let dedup_fires_on_reshipped_content () =
  let cfg = { (Mode.default_config Mode.Ours_mds) with Mode.memsync_dedup = true } in
  let mem_s, mem_r, sender, receiver, first = mk_pair cfg ~pages:4 in
  let ship () =
    let p = Memsync.sync_meta sender mem_s in
    Memsync.apply receiver mem_r p;
    p
  in
  ignore (ship ());
  let x = Rng.bytes (Rng.create ~seed:3L) Mem.page_size in
  let y = Rng.bytes (Rng.create ~seed:4L) Mem.page_size in
  Mem.set_page mem_s first x;
  (match (ship ()).Memsync.records with
  | [ r ] when r.Memsync.enc <> Memsync.Enc_hash_ref -> ()
  | _ -> Alcotest.fail "fresh content must ship full-bodied");
  Mem.set_page mem_s first y;
  ignore (ship ());
  Mem.set_page mem_s first x;
  (match (ship ()).Memsync.records with
  | [ r ] ->
    check Alcotest.bool "re-shipped content goes out as a hash reference" true
      (r.Memsync.enc = Memsync.Enc_hash_ref);
    check Alcotest.int "reference body is 8 bytes" 8 (Bytes.length r.Memsync.body);
    if r.Memsync.wire > 16 then Alcotest.failf "reference too expensive: %d" r.Memsync.wire
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  check Alcotest.bytes "receiver resolved the reference" x (Mem.get_page mem_r first)

let hash_ref_unknown_rejected () =
  let store = Memsync.Store.create () in
  let mem = Mem.create () in
  let body = Bytes.create 8 in
  Bytes.set_int64_le body 0 0xDEAD_BEEFL;
  Alcotest.check_raises "unknown reference fails"
    (Failure "Memsync: hash reference to unknown page content") (fun () ->
      ignore (Memsync.decode_records store mem [ (4L, Memsync.Enc_hash_ref, body) ]))

(* ---- adaptive selection against the four-candidate fold ----

   The selection as first written: encode every candidate in full and keep
   the first shortest. The bounded selection must pick the same encoding
   and the same body, with and without a baseline. *)

let fold_oracle ~previous current =
  let candidates =
    (Memsync.Enc_raw, current)
    :: (Memsync.Enc_raw_rc, Grt_util.Range_coder.encode current)
    ::
    (match previous with
    | Some prev ->
      let d = Grt_util.Delta.diff ~old_:prev ~fresh:current in
      [ (Memsync.Enc_delta, d); (Memsync.Enc_delta_rc, Grt_util.Range_coder.encode d) ]
    | None -> [])
  in
  List.fold_left
    (fun (e0, b0) (e, b) -> if Bytes.length b < Bytes.length b0 then (e, b) else (e0, b0))
    (List.hd candidates) (List.tl candidates)

type page_shape = Zeros | Fill of char | Noise of int | Noise_prefix of int * int

let page_of_shape shape edits =
  let b =
    match shape with
    | Zeros -> Bytes.make Mem.page_size '\000'
    | Fill c -> Bytes.make Mem.page_size c
    | Noise seed -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) Mem.page_size
    | Noise_prefix (seed, n) ->
      let b = Bytes.make Mem.page_size '\000' in
      Bytes.blit (Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n) 0 b 0 n;
      b
  in
  List.iter (fun (i, v) -> Bytes.set b (i mod Mem.page_size) (Char.chr v)) edits;
  b

let gen_page_shape =
  QCheck2.Gen.(
    oneof
      [
        return Zeros;
        map (fun c -> Fill c) char;
        map (fun s -> Noise s) small_nat;
        map2 (fun s n -> Noise_prefix (s, n)) small_nat (int_bound Mem.page_size);
      ])

let gen_edits = QCheck2.Gen.(list_size (int_bound 48) (pair nat (int_bound 255)))

let adaptive_matches_fold =
  qtest ~count:300 "bounded adaptive selection equals the four-candidate fold"
    QCheck2.Gen.(triple (pair gen_page_shape gen_edits) (option gen_page_shape) gen_edits)
    (fun ((shape0, edits0), shape1, edits1) ->
      (* dirty tracking and adaptive selection on, dedup off *)
      let cfg = cfg_of_combo (true, false, true, true, true) in
      let mem_s, _, sender, _, pfn = mk_pair cfg ~pages:1 in
      let first = page_of_shape shape0 edits0 in
      (* the second page edits the first, or replaces it outright *)
      let second =
        match shape1 with
        | None ->
          let b = Bytes.copy first in
          List.iter (fun (i, v) -> Bytes.set b (i mod Mem.page_size) (Char.chr v)) edits1;
          b
        | Some s -> page_of_shape s edits1
      in
      let ship page =
        Mem.set_page mem_s pfn page;
        (Memsync.sync_meta sender mem_s).Memsync.records
      in
      let agrees ~previous page = function
        | [ (r : Memsync.page_record) ] ->
          let enc, body = fold_oracle ~previous page in
          r.Memsync.enc = enc && Bytes.equal r.Memsync.body body
        | [] -> ( match previous with Some p -> Bytes.equal p page | None -> false)
        | _ -> false
      in
      agrees ~previous:None first (ship first) && agrees ~previous:(Some first) second (ship second))

(* Ties keep the earlier candidate: a page whose raw+rc coding is exactly
   one page long ships raw, with or without a (useless) baseline. *)
let adaptive_tie_keeps_raw () =
  let noise = Rng.bytes (Rng.create ~seed:5L) Mem.page_size in
  let page k =
    let b = Bytes.make Mem.page_size '\000' in
    Bytes.blit noise 0 b 0 k;
    b
  in
  match
    List.find_opt
      (fun k -> Bytes.length (Grt_util.Range_coder.encode (page k)) = Mem.page_size)
      (List.init 1024 (fun i -> 3072 + i))
  with
  | None -> Alcotest.fail "no noise prefix codes to exactly one page"
  | Some k -> (
    let mem_s, _, sender, _, pfn = mk_pair (cfg_of_combo (true, false, true, true, true)) ~pages:1 in
    let ship name contents =
      Mem.set_page mem_s pfn contents;
      match (Memsync.sync_meta sender mem_s).Memsync.records with
      | [ r ] -> check Alcotest.string name "raw" (Memsync.encoding_name r.Memsync.enc)
      | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)
    in
    ship "no baseline" (page k);
    Mem.set_page mem_s pfn (Bytes.make Mem.page_size 'z');
    ignore (Memsync.sync_meta sender mem_s);
    ship "unrelated baseline" (page k))

(* A delta whose range coding is exactly as long as the delta itself ships
   as plain delta: the bounded delta+rc candidate must keep the tie with
   the earlier candidate, as the four-candidate fold does. *)
let adaptive_delta_tie_keeps_delta () =
  let base = Bytes.make Mem.page_size '\000' in
  let noise = Rng.bytes (Rng.create ~seed:11L) Mem.page_size in
  (* a prefix of [k] noise bytes drawn from an alphabet of [a] symbols:
     slightly compressible, so some (a, k) codes to exactly its length *)
  let page (a, k) =
    let b = Bytes.copy base in
    for i = 0 to k - 1 do
      Bytes.set b i (Char.chr (1 + (Char.code (Bytes.get noise i) mod a)))
    done;
    b
  in
  let tie ak =
    let d = Grt_util.Delta.diff ~old_:base ~fresh:(page ak) in
    Bytes.length (Grt_util.Range_coder.encode d) = Bytes.length d
  in
  let grid =
    List.concat_map
      (fun a -> List.init 64 (fun i -> (a, 64 + (16 * i))))
      (List.init 16 (fun i -> 140 + (7 * i)))
  in
  match List.find_opt tie grid with
  | None -> Alcotest.fail "no noise prefix gives a delta+rc tie"
  | Some ak -> (
    let cfg = cfg_of_combo (true, false, true, true, true) in
    let mem_s, _, sender, _, pfn = mk_pair cfg ~pages:1 in
    Mem.set_page mem_s pfn base;
    ignore (Memsync.sync_meta sender mem_s);
    Mem.set_page mem_s pfn (page ak);
    match (Memsync.sync_meta sender mem_s).Memsync.records with
    | [ r ] ->
      let enc, body = fold_oracle ~previous:(Some base) (page ak) in
      check Alcotest.string "the fold keeps delta" "delta" (Memsync.encoding_name enc);
      check Alcotest.string "so does the selection" "delta" (Memsync.encoding_name r.Memsync.enc);
      check Alcotest.bytes "same body" body r.Memsync.body
    | rs -> Alcotest.failf "expected one record, got %d" (List.length rs))

(* ---- the per-key codec book ----

   A "session" is a fresh sender memory and endpoint replaying one fixed
   script of page writes: sparse edits over the previous contents (delta
   candidates), dense noise (raw+rc or raw) and repeats (hash references).
   Sessions of one key share a [Memsync.shared]; a solo session has none. *)

let book_script =
  let rng = Rng.create ~seed:21L in
  let contents = Array.make region_pages (Bytes.make Mem.page_size '\000') in
  List.init 5 (fun round ->
      List.init 6 (fun j ->
          let idx = ((round * 5) + (j * 3)) mod region_pages in
          let b =
            if j = 5 then Rng.bytes rng Mem.page_size
            else if j = 4 && round > 0 then contents.((idx + 1) mod region_pages)
            else begin
              let b = Bytes.copy contents.(idx) in
              for _ = 0 to 8 + Rng.int rng 200 do
                Bytes.set b (Rng.int rng Mem.page_size) (Char.chr (Rng.int rng 256))
              done;
              b
            end
          in
          contents.(idx) <- b;
          (idx, b)))

let run_session ?shared () =
  let mem_s, _, sender, _, first =
    mk_pair ?shared (cfg_of_combo (true, true, true, true, true)) ~pages:region_pages
  in
  List.concat_map
    (fun round ->
      List.iter (fun (idx, b) -> Mem.set_page mem_s (Int64.add first (Int64.of_int idx)) b) round;
      (Memsync.sync_meta sender mem_s).Memsync.records)
    book_script

let logged records =
  List.map (fun (r : Memsync.page_record) -> (r.Memsync.pfn, r.Memsync.enc, r.Memsync.body)) records

(* Records whose body the adaptive selection built (range-coded or delta):
   each is a fresh buffer unless it came out of the book, so a body
   physically shared with an earlier session's record is a book hit. *)
let computed records =
  List.filter
    (fun (r : Memsync.page_record) ->
      r.Memsync.enc <> Memsync.Enc_raw && r.Memsync.enc <> Memsync.Enc_hash_ref)
    records

let shared_bodies earlier later =
  List.map2
    (fun (a : Memsync.page_record) (b : Memsync.page_record) -> a.Memsync.body == b.Memsync.body)
    (computed earlier) (computed later)

let same_log name expected records =
  check Alcotest.bool name true (logged records = logged expected)

let book_second_session_hits () =
  let solo = run_session () in
  let sh = Memsync.create_shared () in
  let first = run_session ~shared:sh () in
  let second = run_session ~shared:sh () in
  same_log "first session logs the solo records" solo first;
  same_log "second session logs the solo records" solo second;
  if computed second = [] then Alcotest.fail "script ships no computed body";
  check Alcotest.bool "every computed body of the second session comes from the book" true
    (List.for_all Fun.id (shared_bodies first second));
  check Alcotest.bool "and ships as a cross-session reference" true
    (List.for_all
       (fun (r : Memsync.page_record) -> r.Memsync.enc = Memsync.Enc_hash_ref || r.Memsync.cross)
       second)

(* The book never trusts a hash: once the store holds other bytes under a
   page's hash, entries computed for that page are not reused, and the
   session encodes exactly as a solo one. Later sessions hit again, on the
   entries the recomputation left. *)
let book_ignores_colliding_store () =
  let solo = run_session () in
  let sh = Memsync.create_shared () in
  let first = run_session ~shared:sh () in
  let other = Bytes.make Mem.page_size 'x' in
  List.iter
    (fun (r : Memsync.page_record) ->
      Memsync.Store.file (Memsync.shared_pages sh) (Memsync.hash_page r.Memsync.data) other)
    first;
  let second = run_session ~shared:sh () in
  if computed second = [] then Alcotest.fail "script ships no computed body";
  check Alcotest.bool "no entry reused" true
    (List.for_all not (shared_bodies first second));
  same_log "output equals the store-less encoding" solo second;
  check Alcotest.bool "no cross-session reference to the planted bytes" true
    (List.for_all (fun (r : Memsync.page_record) -> not r.Memsync.cross) second);
  let third = run_session ~shared:sh () in
  same_log "a later session still logs the solo records" solo third;
  check Alcotest.bool "and hits the rewritten entries" true
    (List.for_all Fun.id (shared_bodies second third))

(* ---- tagged records in recordings ---- *)

let recording_roundtrips_tagged_records () =
  let page = Rng.bytes (Rng.create ~seed:9L) Mem.page_size in
  let href = Bytes.create 8 in
  Bytes.set_int64_le href 0 (Memsync.hash_page page);
  let records =
    [
      (0x80001L, Memsync.Enc_raw, page);
      (0x80002L, Memsync.Enc_raw_rc, Grt_util.Range_coder.encode page);
      (0x80003L, Memsync.Enc_delta, Grt_util.Delta.diff ~old_:(Bytes.make Mem.page_size '\000') ~fresh:page);
      (0x80004L, Memsync.Enc_delta_rc, Bytes.of_string "rc-delta-body");
      (0x80005L, Memsync.Enc_hash_ref, href);
    ]
  in
  let r =
    {
      Recording.workload = "t";
      gpu_id = 0x1L;
      entries = [| Recording.Mem_load_enc { records } |];
      slots = [];
    }
  in
  match Recording.deserialize (Recording.serialize r) with
  | Ok r' ->
    check Alcotest.bool "entries survive the round trip" true
      (r'.Recording.entries = r.Recording.entries);
    check Alcotest.int "page count includes tagged records" 5
      (Recording.count_entries r' `Mem_pages)
  | Error e -> Alcotest.fail e

(* ---- end to end on MNIST ---- *)

let mnist_fastpath_wins_and_replays () =
  let ctx = E.create_ctx () in
  match E.memsync_workload ctx ~net:Grt_mlfw.Zoo.mnist with
  | [ base; fast ] ->
    check Alcotest.bool "baseline recording replays to the native output" true
      base.E.replay_matches;
    check Alcotest.bool "fast-path recording replays to the native output" true
      fast.E.replay_matches;
    if fast.E.down_wire_bytes >= base.E.down_wire_bytes then
      Alcotest.failf "fast path should shrink down wire: %d vs %d" fast.E.down_wire_bytes
        base.E.down_wire_bytes;
    if fast.E.up_wire_bytes > base.E.up_wire_bytes then
      Alcotest.failf "fast path should not grow up wire: %d vs %d" fast.E.up_wire_bytes
        base.E.up_wire_bytes;
    if fast.E.blob_bytes >= base.E.blob_bytes then
      Alcotest.failf "fast path should shrink the recording: %d vs %d" fast.E.blob_bytes
        base.E.blob_bytes;
    (* dirty tracking: the visit count tracks touched pages, not the
       (much larger) total metastate page count *)
    if fast.E.mpages_visited * 2 >= fast.E.mpages_meta then
      Alcotest.failf "visits should scale with dirtied pages: %d of %d" fast.E.mpages_visited
        fast.E.mpages_meta
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let () =
  Alcotest.run "memsync"
    [
      ( "fastpath",
        [
          memsync_qcheck_reproduces;
          Alcotest.test_case "visited scales with dirtied pages" `Quick visited_scales_with_dirty;
          Alcotest.test_case "full rescan when disabled" `Quick visited_full_rescan_when_disabled;
          Alcotest.test_case "dedup re-ships as hash reference" `Quick
            dedup_fires_on_reshipped_content;
          Alcotest.test_case "unknown hash reference rejected" `Quick hash_ref_unknown_rejected;
          adaptive_matches_fold;
          Alcotest.test_case "raw+rc tie with raw keeps raw" `Quick adaptive_tie_keeps_raw;
          Alcotest.test_case "delta+rc tie with delta keeps delta" `Quick
            adaptive_delta_tie_keeps_delta;
          Alcotest.test_case "second session of a key hits the codec book" `Quick
            book_second_session_hits;
          Alcotest.test_case "codec book ignores a colliding store entry" `Quick
            book_ignores_colliding_store;
          Alcotest.test_case "tagged records roundtrip recordings" `Quick
            recording_roundtrips_tagged_records;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "MNIST fast path wins and replays" `Quick mnist_fastpath_wins_and_replays ] );
    ]
