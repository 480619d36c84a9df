(* Cells are domain-local: each memo's Hashtbl lives in Domain.DLS (see the
   call sites), so the counters that profile it must too — a shared cell
   would be both racy and wrong (it would attribute one domain's misses to
   another's table). [t] is therefore a process-wide *handle* (a name and a
   dense id, assigned at module initialisation on the main domain) and the
   mutable counters live in a per-domain array indexed by that id. Worker
   domains export their arrays ({!export}) and the main domain folds them
   in ({!absorb}) when a parallel fleet run merges. *)

type t = { id : int; ms_name : string }

type cell = {
  mutable hits : int;
  mutable misses : int;
  mutable mismatches : int;
  mutable evictions : int;
  mutable resident : int;
  mutable resident_bytes : int;
}

let new_cell () =
  { hits = 0; misses = 0; mismatches = 0; evictions = 0; resident = 0; resident_bytes = 0 }

(* Registration order; read-only once domains are spawned. A handful of
   memos per process, registered from module initialisers. *)
let handles : t list ref = ref []
let next_id = ref 0

let cells_key : cell array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

(* The calling domain's cell for [h], growing this domain's array to cover
   every handle registered so far. After the first growth the lookup is two
   loads and a bounds check — nothing on the memo hot path allocates. *)
let cell (h : t) =
  let store = Domain.DLS.get cells_key in
  let arr = !store in
  if h.id < Array.length arr then arr.(h.id)
  else begin
    let n = !next_id in
    let grown =
      Array.init n (fun i -> if i < Array.length arr then arr.(i) else new_cell ())
    in
    store := grown;
    grown.(h.id)
  end

let register name =
  match List.find_opt (fun t -> String.equal t.ms_name name) !handles with
  | Some t -> t
  | None ->
    let t = { id = !next_id; ms_name = name } in
    incr next_id;
    handles := t :: !handles;
    t

let name t = t.ms_name

let hit t =
  let c = cell t in
  c.hits <- c.hits + 1

let miss t =
  let c = cell t in
  c.misses <- c.misses + 1

let mismatch t =
  let c = cell t in
  c.mismatches <- c.mismatches + 1

let evicted t ~entries =
  let c = cell t in
  c.evictions <- c.evictions + entries;
  c.resident <- 0;
  c.resident_bytes <- 0

let added t ~bytes =
  let c = cell t in
  c.resident <- c.resident + 1;
  c.resident_bytes <- c.resident_bytes + bytes

let replaced t ~old_bytes ~bytes =
  let c = cell t in
  c.resident_bytes <- c.resident_bytes - old_bytes + bytes

type snap = {
  s_hits : int;
  s_misses : int;
  s_mismatches : int;
  s_evictions : int;
  s_resident : int;
  s_resident_bytes : int;
}

let snapshot t =
  let c = cell t in
  {
    s_hits = c.hits;
    s_misses = c.misses;
    s_mismatches = c.mismatches;
    s_evictions = c.evictions;
    s_resident = c.resident;
    s_resident_bytes = c.resident_bytes;
  }

let all () = List.sort (fun a b -> compare a.ms_name b.ms_name) !handles

let reset_counters () =
  List.iter
    (fun t ->
      let c = cell t in
      c.hits <- 0;
      c.misses <- 0;
      c.mismatches <- 0;
      c.evictions <- 0)
    !handles

let export () = List.map (fun t -> (t.ms_name, snapshot t)) (all ())

let absorb snaps =
  List.iter
    (fun (nm, s) ->
      match List.find_opt (fun t -> String.equal t.ms_name nm) !handles with
      | None -> ()
      | Some t ->
        let c = cell t in
        c.hits <- c.hits + s.s_hits;
        c.misses <- c.misses + s.s_misses;
        c.mismatches <- c.mismatches + s.s_mismatches;
        c.evictions <- c.evictions + s.s_evictions;
        c.resident <- c.resident + s.s_resident;
        c.resident_bytes <- c.resident_bytes + s.s_resident_bytes)
    snaps

let snap_json s =
  Json.Obj
    [
      ("hits", Json.int s.s_hits);
      ("misses", Json.int s.s_misses);
      ("mismatches", Json.int s.s_mismatches);
      ("evictions", Json.int s.s_evictions);
      ("resident", Json.int s.s_resident);
      ("resident_bytes", Json.int s.s_resident_bytes);
    ]

let to_json () =
  Json.Obj (List.map (fun t -> (t.ms_name, snap_json (snapshot t))) (all ()))
