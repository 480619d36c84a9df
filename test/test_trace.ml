(* The diagnostic event ring against a reference list model, and the
   footprint of a serve session's context. *)

module Trace = Grt_sim.Trace
module Clock = Grt_sim.Clock
module Json = Grt_util.Json
module Network = Grt_mlfw.Network
module Zoo = Grt_mlfw.Zoo
module Ctx = Grt.Session_ctx

let check = Alcotest.check

(* ---- Trace ring ≡ "the last [cap] events, in order" ---- *)

let payload_of i =
  match i mod 4 with
  | 0 -> Trace.Commit { site = Printf.sprintf "s%d" i; accesses = i }
  | 1 -> Trace.Retransmit { op = "rt"; attempt = i; outage = i mod 3 = 0 }
  | 2 -> Trace.Message { topic = "user"; text = string_of_int i }
  | _ -> Trace.Evict { label = "k"; client = i; blob_bytes = 8 * i }

let events = Alcotest.testable (Fmt.Dump.list Trace.pp_event) ( = )

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l
let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let dedup_in_order l =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

let model_jsonl model =
  String.concat "" (List.map (fun e -> Json.to_string (Trace.event_json e) ^ "\n") model)

let check_against ~what ~cap ~pushed t model =
  let ctx s = Printf.sprintf "cap=%d pushed=%d %s: %s" cap pushed what s in
  check Alcotest.int (ctx "count") pushed (Trace.count t);
  check Alcotest.int (ctx "retained") (List.length model) (Trace.retained t);
  check Alcotest.int (ctx "capacity") cap (Trace.capacity t);
  check events (ctx "all") model (Trace.all t);
  check (Alcotest.list Alcotest.string) (ctx "topics")
    (dedup_in_order (List.map Trace.topic model))
    (Trace.topics t);
  check Alcotest.string (ctx "to_jsonl") (model_jsonl model) (Trace.to_jsonl t);
  List.iter
    (fun topic ->
      let matching =
        match topic with
        | None -> model
        | Some tp -> List.filter (fun e -> String.equal (Trace.topic e) tp) model
      in
      check events (ctx "all ?topic") matching (Trace.all ?topic t);
      List.iter
        (fun n ->
          check events
            (ctx (Printf.sprintf "recent %d" n))
            (take n (List.rev matching))
            (Trace.recent ?topic t n))
        [ 0; 1; 2; cap - 1; cap; cap + 1; 3 * cap ])
    [ None; Some "link"; Some "shim"; Some "service"; Some "user"; Some "absent" ]

let ring_model () =
  List.iter
    (fun cap ->
      List.iter
        (fun pushed ->
          let clock = Clock.create () in
          let t = Trace.create ~capacity:cap clock in
          let pushed_events =
            List.init pushed (fun i ->
                Clock.advance_ns clock (Int64.of_int (1 + (i mod 7)));
                Trace.event t (payload_of i);
                { Trace.at_ns = Clock.now_ns clock; payload = payload_of i })
          in
          let model = drop (pushed - cap) pushed_events in
          check_against ~what:"pushed" ~cap ~pushed t model;
          (* absorb keeps the events' own timestamps and the same bound *)
          let into = Trace.create ~capacity:cap (Clock.create ()) in
          Trace.absorb into pushed_events;
          check_against ~what:"absorbed" ~cap ~pushed into model;
          (* absorbing a ring's own retained events on top of it *)
          Trace.absorb into (Trace.all t);
          let twice = drop (2 * List.length model - cap) (model @ model) in
          check_against ~what:"re-absorbed" ~cap ~pushed:(pushed + List.length model) into twice)
        (List.sort_uniq compare [ 0; cap - 1; cap; (3 * cap) + 1 ]))
    [ 1; 2; 5; 4096 ]

let ring_default_capacity () =
  let t = Trace.create (Clock.create ()) in
  check Alcotest.int "default capacity" 4096 (Trace.capacity t);
  check Alcotest.int "non-positive capacity clamps to 1" 1
    (Trace.capacity (Trace.create ~capacity:0 (Clock.create ())))

let ring_quiet_is_small () =
  let t = Trace.create ~capacity:4096 (Clock.create ()) in
  check Alcotest.bool "an empty 4096-slot ring stays small" true
    (Obj.reachable_words (Obj.repr t) < 64)

(* ---- serve-session context footprint ---- *)

let serve_ctx ?(seed = 7L) net =
  Ctx.create ~cfg:Grt.Service.fastpath_cfg ~profile:Grt_net.Profile.wifi ~sku:Grt_gpu.Sku.g71_mp8
    ~net ~seed ~granularity:`Monolithic ()

let ctx_words_budget = 1024

let plan_shared_per_network () =
  List.iter
    (fun (net : Network.t) ->
      let a = serve_ctx net and b = serve_ctx ~seed:8L net in
      check Alcotest.bool (net.Network.name ^ ": plan physically shared") true
        (a.Ctx.plan == b.Ctx.plan);
      check Alcotest.bool (net.Network.name ^ ": plan = fresh expand") true
        (a.Ctx.plan = Network.expand net);
      let other_words =
        Obj.reachable_words (Obj.repr a) - Obj.reachable_words (Obj.repr a.Ctx.plan)
      in
      if other_words > ctx_words_budget then
        Alcotest.failf "%s: serve ctx holds %d words besides its plan (budget %d)"
          net.Network.name other_words ctx_words_budget)
    Zoo.all_with_extensions

let plan_keyed_structurally () =
  let net = Zoo.mnist in
  let shared = (serve_ctx net).Ctx.plan in
  (* the same network rebuilt: structurally equal, physically distinct *)
  let copy = { net with Network.nodes = Array.copy net.Network.nodes } in
  check Alcotest.bool "structural twin shares the plan" true ((serve_ctx copy).Ctx.plan == shared);
  (* same name, different graph: must never receive MNIST's plan *)
  let n = Array.length net.Network.nodes in
  let truncated = { net with Network.nodes = Array.sub net.Network.nodes 0 (n - 1) } in
  let p = (serve_ctx truncated).Ctx.plan in
  check Alcotest.bool "different network, different plan" false (p == shared);
  check Alcotest.bool "different network gets its own expansion" true (p = Network.expand truncated);
  let resized = { net with Network.mat_input = { net.Network.mat_input with Network.h = 8; w = 8 } } in
  let q = (serve_ctx resized).Ctx.plan in
  check Alcotest.bool "different input shape gets its own expansion" true
    (q = Network.expand resized && not (q == shared))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "matches the last-cap list model" `Quick ring_model;
          Alcotest.test_case "default and clamped capacity" `Quick ring_default_capacity;
          Alcotest.test_case "quiet ring stays small" `Quick ring_quiet_is_small;
        ] );
      ( "serve ctx",
        [
          Alcotest.test_case "plan shared per network, footprint bounded" `Quick
            plan_shared_per_network;
          Alcotest.test_case "plan keyed structurally" `Quick plan_keyed_structurally;
        ] );
    ]
