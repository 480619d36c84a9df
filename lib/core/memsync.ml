module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu
module Session = Grt_runtime.Session

type region = {
  name : string;
  usage : Session.usage;
  va : int64;
  pa : int64;
  model_bytes : int;
  actual_bytes : int;
}

let region_of_session (r : Session.region) =
  {
    name = r.Session.name;
    usage = r.Session.usage;
    va = r.Session.va;
    pa = r.Session.pa;
    model_bytes = r.Session.model_bytes;
    actual_bytes = r.Session.actual_bytes;
  }

type encoding = Enc_raw | Enc_raw_rc | Enc_delta | Enc_delta_rc | Enc_hash_ref

let encoding_to_int = function
  | Enc_raw -> 0
  | Enc_raw_rc -> 1
  | Enc_delta -> 2
  | Enc_delta_rc -> 3
  | Enc_hash_ref -> 4

let encoding_of_int = function
  | 0 -> Some Enc_raw
  | 1 -> Some Enc_raw_rc
  | 2 -> Some Enc_delta
  | 3 -> Some Enc_delta_rc
  | 4 -> Some Enc_hash_ref
  | _ -> None

let encoding_name = function
  | Enc_raw -> "raw"
  | Enc_raw_rc -> "raw+rc"
  | Enc_delta -> "delta"
  | Enc_delta_rc -> "delta+rc"
  | Enc_hash_ref -> "hash-ref"

(* Page content hash. The digest is wire format (hash-ref bodies ship it),
   so it must remain FNV-1a. *)
let hash_page b = Grt_util.Hashing.fnv1a_bytes b

(* Content-addressed page store: hash of a full page body -> the body.
   Collisions are guarded at the lookup sites with [Bytes.equal]. The store
   keeps the buffer it is given, not a copy: every body filed here is
   read-only from then on (memory takes page contents by blit). *)
module Store = struct
  type s = (int64, bytes) Hashtbl.t

  let create () : s = Hashtbl.create 64
  let file (s : s) h data = Hashtbl.replace s h data
  let learn s data = file s (hash_page data) data
  let find (s : s) h = Hashtbl.find_opt s h

  (* The store's own buffer for [data], filed under [h], if it holds that
     content. *)
  let holding s h data =
    match find s h with Some b when b == data || Bytes.equal b data -> Some b | _ -> None
end

(* One cache key's codec book: what [cheapest] chose for a (baseline, page)
   pair, keyed by their content hashes. An entry names the shared store
   buffers it was computed from, and is used only while the store still
   holds those very buffers and they equal the session's: no hash is
   trusted. The buffers are the store's, so the book adds only bodies. *)
type book_entry = {
  base : bytes;  (* the store's baseline buffer; [Bytes.empty] for none *)
  page : bytes;  (* the store's page buffer *)
  b_enc : encoding;
  b_body : bytes;
}

type shared = { pages : Store.s; book : (int64, book_entry) Hashtbl.t }

let create_shared () = { pages = Store.create (); book = Hashtbl.create 256 }
let shared_pages sh = sh.pages

(* Flat scan state for [sync_meta]: the merged meta-pfn set as a sorted int
   array, with the generation each pfn carried when last examined (-1 =
   never). Rebuilt only when the merged set itself changes; stamps carry
   over, so a rebuild never forgets what the scan has seen. *)
type meta_fast = {
  mf_pfns : int array;  (* merged meta pfns, sorted ascending *)
  mf_last : int array;  (* generation at last examination; -1 = never *)
}

(* Walked page-table pages with flat generation stamps: the walk is redone
   whenever any pt page was rewritten (every mapping change), so both the
   validity check and the rewalk must stay off the allocator. *)
type pt_cache = {
  ptc_pfns : int array;  (* sorted, deduped *)
  ptc_gens : int array;  (* stamp of each page when walked *)
  ptc_roots : (Grt_gpu.Sku.pt_format * int64) list;
}

type t = {
  cfg : Mode.config;
  mutable regions : region list;
  mutable pt_roots : (Grt_gpu.Sku.pt_format * int64) list;
  baseline : (int, bytes) Hashtbl.t;
      (* last contents examined per pfn (int-keyed; pfns fit native ints) *)
  sent_store : Store.s;
      (* bodies this endpoint shipped (sender role): the peer decoded each
         of them, so a later identical page can go out as a hash reference *)
  recv_store : Store.s;
      (* bodies received from the peer (receiver role for the opposite
         direction): resolves inbound hash references *)
  mutable meta_regions : int array;
      (* materialized pages of the metastate regions, sorted and deduped;
         each registration merges its contiguous range in *)
  mutable pt_cache : pt_cache option;
  mutable meta_fast : meta_fast option;
  mutable meta_stale : bool;
      (* a root or metastate-region registration may have changed the
         merged set: rebuild it on next use. The stale [meta_fast] is kept —
         its last-examined stamps carry over to the rebuilt set. *)
  mutable walk_scratch : int array;  (* reusable buffer for the pt walk *)
  shipped_data : (string, unit) Hashtbl.t; (* data regions the peer holds (Naive) *)
  shared : shared option;
      (* fleet-wide state shared by every session recorded under the same
         cache key: content another session already pushed to this client
         population travels as a hash reference (wire accounting only — the
         logged record keeps its full self-contained encoding), and the
         codec book spares re-encoding a pair another session encoded *)
}

let create ?shared cfg =
  {
    cfg;
    regions = [];
    pt_roots = [];
    baseline = Hashtbl.create 256;
    sent_store = Store.create ();
    recv_store = Store.create ();
    meta_regions = [||];
    pt_cache = None;
    meta_fast = None;
    meta_stale = false;
    walk_scratch = Array.make 64 0;
    shipped_data = Hashtbl.create 64;
    shared;
  }

let tagged_wire cfg = cfg.Mode.memsync_dedup || cfg.Mode.memsync_adaptive

(* Merge the contiguous run [lo, lo + n) into the sorted, deduped [a];
   returns [a] itself when the run adds nothing. *)
let merge_run a ~lo ~n =
  let hi = lo + n in
  let len = Array.length a in
  (* [i]: first element >= lo; [j]: first element >= hi *)
  let rec first_ge v l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if a.(m) < v then first_ge v (m + 1) r else first_ge v l m
  in
  let i = first_ge lo 0 len in
  let j = first_ge hi i len in
  if j - i = n then a
  else begin
    let out = Array.make (i + n + (len - j)) 0 in
    Array.blit a 0 out 0 i;
    for k = 0 to n - 1 do
      out.(i + k) <- lo + k
    done;
    Array.blit a j out (i + n) (len - j);
    out
  end

let register_region t r =
  t.regions <- r :: t.regions;
  if Session.usage_is_metastate r.usage then begin
    (* Materialized pages of a region: its allocation is PA-contiguous. *)
    let n = max 1 ((r.actual_bytes + Mem.page_size - 1) / Mem.page_size) in
    let merged = merge_run t.meta_regions ~lo:(Int64.to_int (Mem.page_of_addr r.pa)) ~n in
    if merged != t.meta_regions then begin
      t.meta_regions <- merged;
      t.meta_stale <- true
    end
  end

let regions t = List.rev t.regions

let region_containing t ~va =
  List.find_opt
    (fun r ->
      Int64.compare va r.va >= 0
      && Int64.compare va (Int64.add r.va (Int64.of_int (max r.model_bytes r.actual_bytes))) < 0)
    t.regions

let register_pt_root t ~fmt ~root_pa =
  if not (List.exists (fun (_, r) -> Int64.equal r root_pa) t.pt_roots) then begin
    t.pt_roots <- (fmt, root_pa) :: t.pt_roots;
    t.pt_cache <- None;
    t.meta_stale <- true
  end

(* Walk every registered root into [walk_scratch]; returns the table pfns
   as a fresh sorted deduped int array (the only allocation). *)
let pt_walk t mem =
  let n = ref 0 in
  let push pfn =
    let buf = t.walk_scratch in
    let len = Array.length buf in
    if !n >= len then begin
      let bigger = Array.make (2 * len) 0 in
      Array.blit buf 0 bigger 0 !n;
      t.walk_scratch <- bigger
    end;
    t.walk_scratch.(!n) <- pfn;
    incr n
  in
  List.iter (fun (fmt, root) -> Mmu.iter_table_pfns (Mmu.of_root mem ~fmt ~root) push) t.pt_roots;
  let n = !n in
  if n = 0 then [||]
  else begin
    let a = Array.sub t.walk_scratch 0 n in
    (* Table pages are allocated sequentially, so the walk emits them
       near-sorted: insertion sort is O(n) on that input and dodges the
       per-comparison closure dispatch of [Array.sort]. *)
    for i = 1 to n - 1 do
      let v = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get a !j > v do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) v
    done;
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    if !m = n then a else Array.sub a 0 !m
  end

(* Page-table pages, cached with flat per-page generation stamps. Growing a
   table writes the parent table's entry, which restamps the parent page — so
   any structural change invalidates the cache and forces a rewalk. Returns
   the pfns plus whether the page *set* changed: a rewalk that finds the
   same set (tables merely rewritten in place — every mapping change
   restamps pt pages) reports [false], so the merged meta set downstream is
   not rebuilt. *)
let pt_pages t mem =
  let stamps_valid c =
    let n = Array.length c.ptc_pfns in
    let rec go i =
      i >= n
      || Mem.page_gen_at mem (Array.unsafe_get c.ptc_pfns i) = Array.unsafe_get c.ptc_gens i
         && go (i + 1)
    in
    (c.ptc_roots == t.pt_roots || c.ptc_roots = t.pt_roots) && go 0
  in
  match t.pt_cache with
  | Some c when stamps_valid c -> (c.ptc_pfns, false)
  | cached ->
    let pfns = pt_walk t mem in
    let n = Array.length pfns in
    let gens = Array.make n 0 in
    for i = 0 to n - 1 do
      gens.(i) <- Mem.page_gen_at mem pfns.(i)
    done;
    let set_changed = match cached with Some c -> c.ptc_pfns <> pfns | None -> true in
    t.pt_cache <- Some { ptc_pfns = pfns; ptc_gens = gens; ptc_roots = t.pt_roots };
    (pfns, set_changed)

(* The merged meta set (pt pages ∪ metastate-region pages) with its flat
   scan state. Rebuilt — by two-pointer union of the sorted halves — only
   when one of them changed; the last-examined stamps carry over by pfn so
   a rebuild never re-ships pages the scan already saw. *)
let meta_fast t mem =
  let pt, set_changed = pt_pages t mem in
  let rebuild = set_changed || t.meta_stale in
  match t.meta_fast with
  | Some mf when not rebuild -> mf
  | cur ->
    t.meta_stale <- false;
    (
    let regions = t.meta_regions in
    let np = Array.length pt and nr = Array.length regions in
    let out = Array.make (np + nr) 0 in
    let rec merge i j k =
      if i < np && j < nr then begin
        let a = pt.(i) and b = regions.(j) in
        if a < b then begin
          out.(k) <- a;
          merge (i + 1) j (k + 1)
        end
        else if b < a then begin
          out.(k) <- b;
          merge i (j + 1) (k + 1)
        end
        else begin
          out.(k) <- a;
          merge (i + 1) (j + 1) (k + 1)
        end
      end
      else if i < np then begin
        out.(k) <- pt.(i);
        merge (i + 1) j (k + 1)
      end
      else if j < nr then begin
        out.(k) <- regions.(j);
        merge i (j + 1) (k + 1)
      end
      else k
    in
    let m = merge 0 0 0 in
    let pfns = if m = Array.length out then out else Array.sub out 0 m in
    match cur with
    | Some mf when mf.mf_pfns = pfns -> mf (* same set after all: keep scan stamps *)
    | _ ->
      let last = Array.make m (-1) in
      (match cur with
      | Some old ->
        (* both sorted: carry last-examined stamps over by two-pointer walk *)
        let no = Array.length old.mf_pfns in
        let oi = ref 0 in
        for i = 0 to m - 1 do
          let p = pfns.(i) in
          while !oi < no && old.mf_pfns.(!oi) < p do
            incr oi
          done;
          if !oi < no && old.mf_pfns.(!oi) = p then last.(i) <- old.mf_last.(!oi)
        done
      | None -> ());
      let mf = { mf_pfns = pfns; mf_last = last } in
      t.meta_fast <- Some mf;
      mf)

let meta_set t mem = (meta_fast t mem).mf_pfns

type page_record = {
  pfn : int64;
  data : bytes;  (* full page contents *)
  enc : encoding;
  body : bytes;  (* wire form of the contents under [enc] *)
  wire : int;  (* bytes charged to the link for this record, header included *)
  cross : bool;
      (* a cross-session dedup hit: the shared store held this content, so
         only a hash reference is charged to the wire. [enc]/[body] keep the
         full encoding, which is what gets logged — recordings stay
         self-contained and byte-identical with or without sharing. *)
}

type sync_payload = {
  records : page_record list;
  tagged : bool;
  wire_bytes : int;
  raw_bytes : int;
  visited : int;
  total : int;
}

let pages p = List.map (fun r -> (r.pfn, r.data)) p.records
let wire_records p = List.map (fun r -> (r.pfn, r.enc, r.body)) p.records

let payload_of_pages pgs =
  {
    records =
      List.map
        (fun (pfn, data) -> { pfn; data; enc = Enc_raw; body = data; wire = 0; cross = false })
        pgs;
    tagged = false;
    wire_bytes = 0;
    raw_bytes = 0;
    visited = 0;
    total = 0;
  }

let per_page_header = 12 (* untagged wire: fixed pfn + length per page *)

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max n 0) 1

(* Tagged wire accounting mirrors the record's serialized form exactly:
   varint pfn + one encoding-tag byte + varint body length + body. *)
let tagged_record_wire ~pfn ~body =
  varint_size (Int64.to_int pfn) + 1 + varint_size (Bytes.length body) + Bytes.length body

(* The historical pipeline: delta against the baseline when enabled, then
   range coding when enabled. *)
let chain t ~previous current =
  match (t.cfg.Mode.delta_dumps, previous) with
  | true, Some prev ->
    let d = Grt_util.Delta.diff ~old_:prev ~fresh:current in
    if t.cfg.Mode.compress_dumps then (Enc_delta_rc, Grt_util.Range_coder.encode d)
    else (Enc_delta, d)
  | _ ->
    if t.cfg.Mode.compress_dumps then (Enc_raw_rc, Grt_util.Range_coder.encode current)
    else (Enc_raw, current)

(* Untagged records: the body doubles as the wire-accounting form; it is
   never decoded (untagged payloads carry the full contents). *)
let encode_legacy t ~previous ~pfn ~view =
  let current = Bytes.copy view in
  let enc, body = chain t ~previous current in
  { pfn; data = current; enc; body; wire = Bytes.length body + per_page_header; cross = false }

(* Tagged encoding: bodies are decoded on the receiving side. The encoding
   tag itself says whether a body is range-coded, so no in-band container
   byte is needed — the adaptive min-selection below is the expansion guard
   at this layer (the codec-level [encode_guarded] serves callers without a
   side channel). A hash reference ships only when the sender itself put
   that exact body on the wire before — which the receiver, by
   construction, has decoded and stored. *)
let hash_ref_wire ~pfn = varint_size (Int64.to_int pfn) + 1 + varint_size 8 + 8

(* Adaptive selection: the shortest of raw, raw+rc, delta and delta+rc, the
   earlier candidate winning ties. Range-coding the raw page is the costly
   candidate and, once a baseline exists, it almost never wins; so it runs
   last, bounded by the length it has to match — it can only win at or
   under both the raw page less one byte and the best delta. *)
let cheapest ~previous current =
  let n = Bytes.length current in
  let best_delta =
    match previous with
    | None -> None
    | Some prev -> (
      let d = Grt_util.Delta.diff ~old_:prev ~fresh:current in
      match Grt_util.Range_coder.encode_within ~limit:(Bytes.length d - 1) d with
      | Some d_rc -> Some (Enc_delta_rc, d_rc)
      | None -> Some (Enc_delta, d))
  in
  let limit = match best_delta with None -> n - 1 | Some (_, b) -> min (n - 1) (Bytes.length b) in
  match (Grt_util.Range_coder.encode_within ~limit current, best_delta) with
  | Some rc, _ -> (Enc_raw_rc, rc)
  | None, Some (enc, b) when Bytes.length b < n -> (enc, b)
  | None, _ -> (Enc_raw, current)

(* [cheapest] through the key's book. [h] is [current]'s hash, and
   [current] is the store's buffer for that content or a fresh copy about
   to be filed. A pair whose baseline the store does not hold is computed
   without the book. *)
let cheapest_booked sh ~previous ~h current =
  let base, key =
    match previous with
    | None -> (Some Bytes.empty, h)
    | Some prev ->
      let hb = hash_page prev in
      (Store.holding sh.pages hb prev, Grt_util.Hashing.combine hb h)
  in
  match base with
  | None -> cheapest ~previous current
  | Some base -> (
    match Hashtbl.find_opt sh.book key with
    | Some e when e.base == base && e.page == current -> (e.b_enc, e.b_body)
    | _ ->
      let enc, body = cheapest ~previous current in
      Hashtbl.replace sh.book key { base; page = current; b_enc = enc; b_body = body };
      (enc, body))

let encode_tagged t ~previous ~pfn ~view =
  let h = hash_page view in
  (* A page the key's shared store holds is not copied: the session takes
     the store's buffer, so every session of the key shares one copy. *)
  let held = match t.shared with Some sh -> Store.holding sh.pages h view | None -> None in
  let current = match held with Some b -> b | None -> Bytes.copy view in
  let mk enc body =
    { pfn; data = current; enc; body; wire = tagged_record_wire ~pfn ~body; cross = false }
  in
  let hash_hit =
    t.cfg.Mode.memsync_dedup
    &&
    match Store.find t.sent_store h with
    | Some body -> Bytes.equal body current
    | None -> false
  in
  let r =
    if hash_hit then begin
      let body = Bytes.create 8 in
      Bytes.set_int64_le body 0 h;
      mk Enc_hash_ref body
    end
    else
      (* dedup without adaptive selection: a store miss falls back to the
         historical chain, byte-identical to the untagged wire format *)
      let enc, body =
        if not t.cfg.Mode.memsync_adaptive then chain t ~previous current
        else
          match t.shared with
          | Some sh -> cheapest_booked sh ~previous ~h current
          | None -> cheapest ~previous current
      in
      mk enc body
  in
  (* Cross-session dedup: content an earlier same-key session shipped to
     this client population needs only a hash reference on the wire. The
     record keeps its full encoding ([enc]/[body] untouched) so the logged
     recording is identical with or without a shared store; only the wire
     charge and the [cross] flag change. *)
  let r =
    if t.cfg.Mode.memsync_dedup && r.enc <> Enc_hash_ref && Option.is_some held then
      { r with wire = hash_ref_wire ~pfn; cross = true }
    else r
  in
  Store.file t.sent_store h current;
  (* an equal buffer already filed stays: the book's entries name it *)
  (match t.shared with Some sh when Option.is_none held -> Store.file sh.pages h current | _ -> ());
  r

(* Stand-in contents of a never-materialized page: compared against (and
   copied from) but never written through. *)
let zero_page = Bytes.make Mem.page_size '\000'

(* Read-only view of a page's contents, never materializing it. *)
let page_view mem pfn =
  let view = Mem.borrow_ro mem pfn in
  if view == Bytes.empty then zero_page else view

let sync_meta t mem =
  let mf = meta_fast t mem in
  let pfns = mf.mf_pfns and last = mf.mf_last in
  let total = Array.length pfns in
  let tagged = tagged_wire t.cfg in
  let records = ref [] and wire = ref 0 and raw = ref 0 and visited = ref 0 in
  for i = 0 to total - 1 do
    let pfn = Array.unsafe_get pfns i in
    let gen = Mem.page_gen_at mem pfn in
    let seen = Array.unsafe_get last i in
    let unchanged = seen >= 0 && gen <= seen in
    if not unchanged then begin
      incr visited;
      Array.unsafe_set last i gen;
      (* Compare in place against the baseline; the encoder takes a
         read-only copy only when the page actually changed (shared by the
         shipped record and the new baseline entry — both are read-only
         downstream). *)
      let view = page_view mem pfn in
      let prev = try Hashtbl.find t.baseline pfn with Not_found -> Bytes.empty in
      let same = prev != Bytes.empty && Bytes.equal prev view in
      if not same then begin
        raw := !raw + Mem.page_size;
        let previous = if prev == Bytes.empty then None else Some prev in
        let pfn64 = Int64.of_int pfn in
        let r =
          if tagged then encode_tagged t ~previous ~pfn:pfn64 ~view
          else encode_legacy t ~previous ~pfn:pfn64 ~view
        in
        records := r :: !records;
        wire := !wire + r.wire;
        Hashtbl.replace t.baseline pfn r.data
      end
    end
  done;
  { records = List.rev !records; tagged; wire_bytes = !wire; raw_bytes = !raw; visited = !visited; total }

let decode_records store mem records =
  List.map
    (fun (pfn, enc, body) ->
      let data =
        match enc with
        | Enc_raw -> body
        | Enc_raw_rc -> Grt_util.Range_coder.decode body
        | Enc_delta -> Grt_util.Delta.apply ~old_:(page_view mem (Int64.to_int pfn)) ~delta:body
        | Enc_delta_rc ->
          Grt_util.Delta.apply
            ~old_:(page_view mem (Int64.to_int pfn))
            ~delta:(Grt_util.Range_coder.decode body)
        | Enc_hash_ref -> (
          if Bytes.length body <> 8 then failwith "Memsync: malformed hash reference";
          match Store.find store (Bytes.get_int64_le body 0) with
          | Some d -> d
          | None -> failwith "Memsync: hash reference to unknown page content")
      in
      Mem.set_page mem pfn data;
      (* a resolved reference is already filed under its hash *)
      if enc <> Enc_hash_ref then Store.learn store data;
      (pfn, data))
    records

let apply_records t mem records = decode_records t.recv_store mem records

let apply t mem payload =
  if payload.tagged then ignore (apply_records t mem (wire_records payload))
  else List.iter (fun r -> Mem.set_page mem r.pfn r.data) payload.records

let note_peer_page t pfn contents = Hashtbl.replace t.baseline (Int64.to_int pfn) contents

let note_shipped t pfn contents =
  note_peer_page t pfn contents;
  if tagged_wire t.cfg then begin
    let h = hash_page contents in
    Store.file t.sent_store h contents;
    match t.shared with
    | Some sh when Option.is_none (Store.holding sh.pages h contents) ->
      Store.file sh.pages h contents
    | _ -> ()
  end

(* Walk the descriptor chain in local memory and apply [f] to every data
   region it references, tagged with its role. *)
let fold_chain_regions t mem ~chain_va f =
  let desc_pa_of_va va =
    match region_containing t ~va with
    | Some r -> Some (Int64.add r.pa (Int64.sub va r.va))
    | None -> None
  in
  let note role va =
    if not (Int64.equal va 0L) then
      match region_containing t ~va with
      | Some r when not (Session.usage_is_metastate r.usage) -> f role r
      | _ -> ()
  in
  let rec walk va guard =
    if guard > 0 && not (Int64.equal va 0L) then
      match desc_pa_of_va va with
      | None -> ()
      | Some pa -> (
        match Grt_gpu.Job_desc.read mem ~pa with
        | Error _ -> ()
        | Ok d ->
          note `In d.Grt_gpu.Job_desc.input_va;
          note `In d.Grt_gpu.Job_desc.input2_va;
          note `In d.Grt_gpu.Job_desc.bias_va;
          note `Out d.Grt_gpu.Job_desc.output_va;
          walk d.Grt_gpu.Job_desc.next_va (guard - 1))
  in
  walk chain_va 64

let naive_down_bytes t mem ~chain_va =
  let total = ref 0 in
  fold_chain_regions t mem ~chain_va (fun _role r ->
      if not (Hashtbl.mem t.shipped_data r.name) then begin
        Hashtbl.add t.shipped_data r.name ();
        total := !total + r.model_bytes
      end);
  !total

let naive_up_bytes t mem ~chain_va =
  let seen = Hashtbl.create 4 in
  let total = ref 0 in
  fold_chain_regions t mem ~chain_va (fun role r ->
      match role with
      | `Out ->
        if not (Hashtbl.mem seen r.name) then begin
          Hashtbl.add seen r.name ();
          total := !total + r.model_bytes
        end
      | `In -> ());
  !total
