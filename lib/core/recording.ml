module Byte_buf = Grt_util.Byte_buf

type poll_cond = Until_set | Until_clear

type entry =
  | Reg_write of { reg : int; value : int64 }
  | Reg_read of { reg : int; value : int64; verify : bool }
  | Poll of { reg : int; mask : int64; cond : poll_cond; max_iters : int; spin_ns : int64 }
  | Wait_irq of { line : int }
  | Mem_load of { pages : (int64 * bytes) list }
  | Mem_load_enc of { records : (int64 * Memsync.encoding * bytes) list }

(* Entry log under construction (newest first), with O(1) length — the
   speculation machinery marks log positions on every commit, so length
   must not cost a traversal. Shared by the shim and its recovery
   replayer. *)
type log = { mutable items : entry list; mutable len : int }

let new_log () = { items = []; len = 0 }

let log_push l e =
  l.items <- e :: l.items;
  l.len <- l.len + 1

let irq_line_to_int = function
  | Grt_gpu.Device.Job_irq -> 0
  | Grt_gpu.Device.Gpu_irq -> 1
  | Grt_gpu.Device.Mmu_irq -> 2

let irq_line_of_int = function
  | 0 -> Some Grt_gpu.Device.Job_irq
  | 1 -> Some Grt_gpu.Device.Gpu_irq
  | 2 -> Some Grt_gpu.Device.Mmu_irq
  | _ -> None

type slot = {
  slot_name : string;
  kind : [ `Input | `Output | `Param ];
  va : int64;
  pa : int64;
  actual_bytes : int;
  model_bytes : int;
}

type t = {
  workload : string;
  gpu_id : int64;
  entries : entry array;
  slots : slot list;
}

let input_slot t = List.find_opt (fun s -> s.kind = `Input) t.slots
let output_slot t = List.find_opt (fun s -> s.kind = `Output) t.slots
let param_slots t = List.filter (fun s -> s.kind = `Param) t.slots

let magic = 0x47525452 (* "GRTR" *)
let version_flat = 1 (* [serialize]'s header; no parser accepts it *)
let version_chunked = 2

let default_chunk_entries = 64

let kind_to_int = function `Input -> 0 | `Output -> 1 | `Param -> 2

let kind_of_int = function 0 -> Some `Input | 1 -> Some `Output | 2 -> Some `Param | _ -> None

let add_entry buf = function
  | Reg_write { reg; value } ->
    Byte_buf.add_u8 buf 1;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf value
  | Reg_read { reg; value; verify } ->
    Byte_buf.add_u8 buf 2;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf value;
    Byte_buf.add_u8 buf (if verify then 1 else 0)
  | Poll { reg; mask; cond; max_iters; spin_ns } ->
    Byte_buf.add_u8 buf 3;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf mask;
    Byte_buf.add_u8 buf (match cond with Until_set -> 1 | Until_clear -> 0);
    Byte_buf.add_varint buf max_iters;
    Byte_buf.add_i64 buf spin_ns
  | Wait_irq { line } ->
    Byte_buf.add_u8 buf 4;
    Byte_buf.add_u8 buf line
  | Mem_load { pages } ->
    Byte_buf.add_u8 buf 5;
    Byte_buf.add_varint buf (List.length pages);
    List.iter
      (fun (pfn, data) ->
        Byte_buf.add_i64 buf pfn;
        Byte_buf.add_varint buf (Bytes.length data);
        Byte_buf.add_bytes buf data)
      pages
  | Mem_load_enc { records } ->
    Byte_buf.add_u8 buf 6;
    Byte_buf.add_varint buf (List.length records);
    List.iter
      (fun (pfn, enc, body) ->
        (* pfns are page frame numbers, well within varint range *)
        Byte_buf.add_varint buf (Int64.to_int pfn);
        Byte_buf.add_u8 buf (Memsync.encoding_to_int enc);
        Byte_buf.add_varint buf (Bytes.length body);
        Byte_buf.add_bytes buf body)
      records

(* An element count read off the wire, bounded by what the rest of the
   input could hold at [min_bytes] per element: a forged count fails as a
   typed error before anything is allocated for it. *)
let read_count r ~min_bytes =
  let n = Byte_buf.Reader.varint r in
  if n < 0 || n > Byte_buf.Reader.remaining r / min_bytes then
    failwith "recording: element count exceeds the input";
  n

let read_entry r =
  match Byte_buf.Reader.u8 r with
  | 1 ->
    let reg = Byte_buf.Reader.u32 r in
    let value = Byte_buf.Reader.i64 r in
    Reg_write { reg; value }
  | 2 ->
    let reg = Byte_buf.Reader.u32 r in
    let value = Byte_buf.Reader.i64 r in
    let verify = Byte_buf.Reader.u8 r = 1 in
    Reg_read { reg; value; verify }
  | 3 ->
    let reg = Byte_buf.Reader.u32 r in
    let mask = Byte_buf.Reader.i64 r in
    let cond = if Byte_buf.Reader.u8 r = 1 then Until_set else Until_clear in
    let max_iters = Byte_buf.Reader.varint r in
    let spin_ns = Byte_buf.Reader.i64 r in
    Poll { reg; mask; cond; max_iters; spin_ns }
  | 4 ->
    let line = Byte_buf.Reader.u8 r in
    (* Reject unmapped IRQ lines here, where the blob is being validated —
       not at replay time, where they would surface as a confusing
       [Irq_mismatch] divergence against a line that cannot exist. *)
    if irq_line_of_int line = None then
      failwith (Printf.sprintf "recording: invalid IRQ line %d" line);
    Wait_irq { line }
  | 5 ->
    let n = read_count r ~min_bytes:9 in
    let pages =
      List.init n (fun _ ->
          let pfn = Byte_buf.Reader.i64 r in
          let len = Byte_buf.Reader.varint r in
          (pfn, Byte_buf.Reader.bytes r len))
    in
    Mem_load { pages }
  | 6 ->
    let n = read_count r ~min_bytes:3 in
    let records =
      List.init n (fun _ ->
          let pfn = Int64.of_int (Byte_buf.Reader.varint r) in
          let enc =
            match Memsync.encoding_of_int (Byte_buf.Reader.u8 r) with
            | Some e -> e
            | None -> failwith "recording: bad page encoding tag"
          in
          let len = Byte_buf.Reader.varint r in
          (pfn, enc, Byte_buf.Reader.bytes r len))
    in
    Mem_load_enc { records }
  | tag -> failwith (Printf.sprintf "recording: unknown entry tag %d" tag)

let add_slot buf s =
  Byte_buf.add_string buf s.slot_name;
  Byte_buf.add_u8 buf (kind_to_int s.kind);
  Byte_buf.add_i64 buf s.va;
  Byte_buf.add_i64 buf s.pa;
  Byte_buf.add_varint buf s.actual_bytes;
  Byte_buf.add_varint buf s.model_bytes

let read_slot r =
  let slot_name = Byte_buf.Reader.string r in
  let kind =
    match kind_of_int (Byte_buf.Reader.u8 r) with
    | Some k -> k
    | None -> failwith "recording: bad slot kind"
  in
  let va = Byte_buf.Reader.i64 r in
  let pa = Byte_buf.Reader.i64 r in
  let actual_bytes = Byte_buf.Reader.varint r in
  let model_bytes = Byte_buf.Reader.varint r in
  { slot_name; kind; va; pa; actual_bytes; model_bytes }

let serialize t =
  let buf = Byte_buf.create ~capacity:4096 () in
  Byte_buf.add_u32 buf magic;
  Byte_buf.add_u16 buf version_flat;
  Byte_buf.add_string buf t.workload;
  Byte_buf.add_i64 buf t.gpu_id;
  Byte_buf.add_varint buf (List.length t.slots);
  List.iter (add_slot buf) t.slots;
  Byte_buf.add_varint buf (Array.length t.entries);
  Array.iter (add_entry buf) t.entries;
  Byte_buf.contents buf

(* ---- the signed blob (version 2) ----

   The blob splits the entry log into chunks so verification can stream:

     header  := magic ∥ u16 2 ∥ workload ∥ gpu_id ∥ slots
                ∥ varint total_entries ∥ varint n_chunks
                ∥ n_chunks × (varint entry_count ∥ varint byte_len ∥ i64 hash)
                ∥ i64 merkle_root
     blob    := header ∥ i64 mac(header) ∥ chunk bodies

   Only the header is MACed; each chunk body is covered by its signed FNV
   hash, and the Merkle root over the chunk hashes names the whole entry
   log for attestation. A replayer may therefore verify the header once and
   check each chunk hash just before executing that chunk (streaming), while
   [verify_and_parse] keeps the eager everything-up-front contract. *)

type chunk = {
  chunk_first : int;
  chunk_count : int;
  chunk_hash : int64;
  chunk_raw : bytes;
}

type verified = {
  vrec : t;
  vchunks : chunk array;
  vroot : int64;
}

(* Merkle fold over the leaf hashes: pairwise [Hashing.combine], odd leaf
   promoted; a single leaf is its own root; zero leaves hash the empty
   string (an empty entry log still has a well-defined identity). *)
let merkle_root hashes =
  let rec up = function
    | [] -> Grt_util.Hashing.fnv1a_bytes Bytes.empty
    | [ h ] -> h
    | hs ->
      let rec pair = function
        | a :: b :: rest -> Grt_util.Hashing.combine a b :: pair rest
        | [ a ] -> [ a ]
        | [] -> []
      in
      up (pair hs)
  in
  up hashes

(* Serialize the whole entry log once, recording where each chunk of
   [chunk_entries] entries ends: [bounds.(i)] is the byte offset at which
   chunk [i] starts, [bounds.(n_chunks)] the total length. Chunk bodies and
   their hashes are then slices of this one buffer — no per-chunk copies. *)
let chunk_bounds ~chunk_entries entries =
  let n = Array.length entries in
  let n_chunks = (n + chunk_entries - 1) / chunk_entries in
  let buf = Byte_buf.create ~capacity:4096 () in
  let bounds = Array.make (n_chunks + 1) 0 in
  Array.iteri
    (fun i e ->
      add_entry buf e;
      if (i + 1) mod chunk_entries = 0 then bounds.((i + 1) / chunk_entries) <- Byte_buf.length buf)
    entries;
  bounds.(n_chunks) <- Byte_buf.length buf;
  (Byte_buf.contents buf, bounds)

let sign ?(chunk_entries = default_chunk_entries) ~key t =
  if chunk_entries <= 0 then invalid_arg "Recording.sign: chunk_entries must be positive";
  let body, bounds = chunk_bounds ~chunk_entries t.entries in
  let n = Array.length t.entries in
  let n_chunks = Array.length bounds - 1 in
  let hashes =
    Array.init n_chunks (fun i ->
        Grt_util.Hashing.fnv1a_sub body ~pos:bounds.(i) ~len:(bounds.(i + 1) - bounds.(i)))
  in
  let header = Byte_buf.create ~capacity:4096 () in
  Byte_buf.add_u32 header magic;
  Byte_buf.add_u16 header version_chunked;
  Byte_buf.add_string header t.workload;
  Byte_buf.add_i64 header t.gpu_id;
  Byte_buf.add_varint header (List.length t.slots);
  List.iter (add_slot header) t.slots;
  Byte_buf.add_varint header n;
  Byte_buf.add_varint header n_chunks;
  Array.iteri
    (fun i h ->
      Byte_buf.add_varint header (min chunk_entries (n - (i * chunk_entries)));
      Byte_buf.add_varint header (bounds.(i + 1) - bounds.(i));
      Byte_buf.add_i64 header h)
    hashes;
  Byte_buf.add_i64 header (merkle_root (Array.to_list hashes));
  let hdr = Byte_buf.contents header in
  let blob = Byte_buf.create ~capacity:(Bytes.length hdr + 8 + Bytes.length body) () in
  Byte_buf.add_bytes blob hdr;
  Byte_buf.add_i64 blob (Grt_tee.Crypto.mac ~key hdr);
  Byte_buf.add_bytes blob body;
  Byte_buf.contents blob

let parse_chunk_entries chunk =
  let r = Byte_buf.Reader.of_bytes chunk.chunk_raw in
  let entries = Array.init chunk.chunk_count (fun _ -> read_entry r) in
  if Byte_buf.Reader.remaining r <> 0 then failwith "recording: trailing bytes in chunk";
  entries

(* Parse + verify the MACed header. Chunk bodies are parsed, and their
   lengths checked, but their hashes are the caller's to verify (eagerly in
   [verify_and_parse], streamingly in the replay compiler). *)
let parse_signed ~key blob =
  try
    let n = Bytes.length blob in
    if n < 14 then Error "recording: truncated"
    else begin
      let r = Byte_buf.Reader.of_bytes blob in
      if Byte_buf.Reader.u32 r <> magic then Error "recording: bad magic"
      else begin
        match Byte_buf.Reader.u16 r with
        | 2 ->
          let workload = Byte_buf.Reader.string r in
          let gpu_id = Byte_buf.Reader.i64 r in
          let n_slots = read_count r ~min_bytes:20 in
          let slots = List.init n_slots (fun _ -> read_slot r) in
          let total_entries = Byte_buf.Reader.varint r in
          let n_chunks = read_count r ~min_bytes:10 in
          let metas =
            Array.init n_chunks (fun _ ->
                let count = Byte_buf.Reader.varint r in
                let len = Byte_buf.Reader.varint r in
                let hash = Byte_buf.Reader.i64 r in
                (count, len, hash))
          in
          let root = Byte_buf.Reader.i64 r in
          let header_len = Byte_buf.Reader.pos r in
          let tag = Byte_buf.Reader.i64 r in
          if not (Grt_tee.Crypto.verify ~key (Bytes.sub blob 0 header_len) tag) then
            Error "recording: signature verification failed"
          else if
            not (Int64.equal root (merkle_root (Array.to_list (Array.map (fun (_, _, h) -> h) metas))))
          then Error "recording: Merkle root does not cover the chunk hashes"
          else begin
            let first = ref 0 in
            let chunks =
              Array.map
                (fun (count, len, hash) ->
                  let raw = Byte_buf.Reader.bytes r len in
                  let c = { chunk_first = !first; chunk_count = count; chunk_hash = hash; chunk_raw = raw } in
                  first := !first + count;
                  c)
                metas
            in
            if Byte_buf.Reader.remaining r <> 0 then Error "recording: trailing bytes after chunks"
            else if !first <> total_entries then Error "recording: chunk entry counts disagree with header"
            else
              let entries = Array.concat (Array.to_list (Array.map parse_chunk_entries chunks)) in
              Ok { vrec = { workload; gpu_id; entries; slots }; vchunks = chunks; vroot = root }
          end
        | v -> Error (Printf.sprintf "recording: unsupported version %d" v)
      end
    end
  with Failure msg -> Error msg

let verify_chunk c =
  Int64.equal (Grt_util.Hashing.fnv1a_bytes c.chunk_raw) c.chunk_hash

let verify_and_parse ~key blob =
  match parse_signed ~key blob with
  | Error e -> Error e
  | Ok v ->
    let bad = ref None in
    Array.iter
      (fun c -> if !bad = None && not (verify_chunk c) then bad := Some c.chunk_first)
      v.vchunks;
    (match !bad with
    | Some first -> Error (Printf.sprintf "recording: chunk at entry %d failed verification" first)
    | None -> Ok v.vrec)

let size_bytes t = Bytes.length (serialize t)

let count_entries t what =
  Array.fold_left
    (fun acc e ->
      match (what, e) with
      | `Writes, Reg_write _ -> acc + 1
      | `Reads, Reg_read _ -> acc + 1
      | `Polls, Poll _ -> acc + 1
      | `Irqs, Wait_irq _ -> acc + 1
      | `Mem_pages, Mem_load { pages } -> acc + List.length pages
      | `Mem_pages, Mem_load_enc { records } -> acc + List.length records
      | _ -> acc)
    0 t.entries
