(* One slot per key. [written] keeps "absent" apart from "zero": a key
   shows up in [to_alist] (and so in [pp] dumps and reports) once anything
   was added to it, even 0. *)
type t = { values : int array; written : bool array }

let n_keys = List.length Metrics.all

let create () = { values = Array.make n_keys 0; written = Array.make n_keys false }

let add t k v =
  let i = Metrics.index k in
  t.values.(i) <- t.values.(i) + v;
  t.written.(i) <- true

let incr t k = add t k 1
let read t k = t.values.(Metrics.index k)

let get_int t name = match Metrics.of_name name with Some k -> read t k | None -> 0
let get t name = Int64.of_int (get_int t name)

(* Keys in [to_alist] order, sorted once. *)
let by_name =
  Array.of_list (List.sort (fun a b -> String.compare (Metrics.name a) (Metrics.name b)) Metrics.all)

let to_alist t =
  Array.fold_right
    (fun k acc ->
      let i = Metrics.index k in
      if t.written.(i) then (Metrics.name k, Int64.of_int t.values.(i)) :: acc else acc)
    by_name []

let merge_into ~dst ~src =
  Array.iteri
    (fun i w ->
      if w then begin
        dst.values.(i) <- dst.values.(i) + src.values.(i);
        dst.written.(i) <- true
      end)
    src.written

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-40s %Ld@\n" k v) (to_alist t)
