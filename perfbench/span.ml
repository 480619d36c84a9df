(* In-memory span recorder for the traced pass.

   Spans are opened and closed by the benchmark around its own calls into
   the program's public functions; nothing inside lib/ is instrumented. A
   span records its layer, a free-form tag (an outcome, a network name),
   host wall start/end and the span that was open when it started, so a
   layer's self time is its duration minus the part its child spans cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  layer : string;
  tag : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;
  started : float;
  mutable excluded : float;  (** seconds run deliberately untraced *)
}

let now = Unix.gettimeofday
let create () = { spans = []; next = 0; stack = []; started = now (); excluded = 0. }

(* Run [f] deliberately untraced (the baseline of the overhead
   measurement): its time is left out of the traced wall. *)
let untraced t f =
  let t0 = now () in
  Fun.protect f ~finally:(fun () -> t.excluded <- t.excluded +. (now () -. t0))

(* [with_ t ~layer f] runs [f] inside a span; [tag_of] labels it from the
   result (a raising call is tagged ["raised"] and re-raised). *)
let with_ t ~layer ?(tag = "") ?tag_of f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let close tag =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; layer; tag; t0; t1 } :: t.spans
  in
  match f () with
  | v ->
    close (match tag_of with Some g -> g v | None -> tag);
    v
  | exception e ->
    close "raised";
    raise e

let dur s = s.t1 -. s.t0

(* Durations (seconds) of the spans of [layer], optionally only those
   carrying [tag], oldest first. *)
let durations ?tag t layer =
  List.rev
    (List.filter_map
       (fun s ->
         if s.layer = layer && match tag with Some g -> s.tag = g | None -> true then
           Some (dur s)
         else None)
       t.spans)

(* Self seconds per layer: each span's duration minus its children's. *)
let self_times t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer)))
    t.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [])

(* Share of the traced wall time — since [create], less [untraced]
   sections — that no top-level span covers: benchmark glue (checks,
   digests, list handling). *)
let unattributed_share t =
  let wall = now () -. t.started -. t.excluded in
  let covered =
    List.fold_left (fun acc s -> if s.parent < 0 then acc +. dur s else acc) 0. t.spans
  in
  if wall <= 0. then 0. else Float.max 0. ((wall -. covered) /. wall)
