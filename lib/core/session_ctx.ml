module Link = Grt_net.Link

type options = {
  history : Spec_history.t option;
  sync_store : Memsync.shared option;
  inject_fault_after : int option;
  window : int;
  trace_capacity : int option;
  observe : bool;
}

let default_options =
  {
    history = None;
    sync_store = None;
    inject_fault_after = None;
    window = 1;
    trace_capacity = None;
    observe = false;
  }

type t = {
  cfg : Mode.config;
  seed : int64;
  sku : Grt_gpu.Sku.t;
  net : Grt_mlfw.Network.t;
  plan : Grt_mlfw.Network.plan;
  granularity : [ `Monolithic | `Per_layer ];
  clock : Grt_sim.Clock.t;
  energy : Grt_sim.Energy.t;
  counters : Grt_sim.Counters.t;
  metrics : Grt_sim.Metrics.t;
  trace : Grt_sim.Trace.t;
  tracer : Grt_sim.Tracer.t option;
  hists : Grt_sim.Hist.set option;
  link : Link.t;
  history : Spec_history.t;
  sync_store : Memsync.shared option;
  mutable inject_fault_after : int option;
  mutable rollbacks : int;
  mutable rollback_s : float;
}

(* Expanded plans, one per distinct network, shared by every session built
   on this domain. A plan is immutable (records, lists, strings; the one
   array, [plan.net.nodes], is never written after construction), so
   sharing it cannot leak state between sessions. The table is keyed on the
   network itself — [Hashtbl]'s structural hash and equality — so a
   structurally different network always gets its own expansion, whatever
   its name. Domain-local (Domain.DLS) like the content memos; bounded by a
   reset, which only costs re-expansion. *)
let plan_limit = 64

let plan_key : (Grt_mlfw.Network.t, Grt_mlfw.Network.plan) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let shared_plan net =
  let plans = Domain.DLS.get plan_key in
  match Hashtbl.find_opt plans net with
  | Some plan -> plan
  | None ->
    let plan = Grt_mlfw.Network.expand net in
    if Hashtbl.length plans >= plan_limit then Hashtbl.reset plans;
    Hashtbl.add plans net plan;
    plan

let create ?(options = default_options) ?clock ~cfg ~profile ~sku ~net ~seed ~granularity () =
  let clock = match clock with Some c -> c | None -> Grt_sim.Clock.create () in
  let energy = Grt_sim.Energy.create clock in
  let counters = Grt_sim.Counters.create () in
  let trace = Grt_sim.Trace.create ?capacity:options.trace_capacity clock in
  let tracer = if options.observe then Some (Grt_sim.Tracer.create clock) else None in
  let hists = if options.observe then Some (Grt_sim.Hist.create_set ()) else None in
  (* The link's fault draws derive from the session seed so a lossy run is
     exactly reproducible. *)
  let link =
    Link.create ~clock ~energy ~counters ~trace ?tracer ?hists
      ~seed:(Grt_util.Hashing.combine seed 0x6C696E6BL)
      ~window:options.window profile
  in
  {
    cfg;
    seed;
    sku;
    net;
    plan = shared_plan net;
    granularity;
    clock;
    energy;
    counters;
    metrics = Grt_sim.Metrics.of_counters counters;
    trace;
    tracer;
    hists;
    link;
    history = (match options.history with Some h -> h | None -> Spec_history.create ());
    sync_store = options.sync_store;
    inject_fault_after = options.inject_fault_after;
    rollbacks = 0;
    rollback_s = 0.;
  }

let session_salt t = Grt_util.Hashing.combine t.seed 0x5a17L

let charge_rollback t cost =
  t.rollbacks <- t.rollbacks + 1;
  t.rollback_s <- t.rollback_s +. cost;
  Grt_sim.Clock.advance_s t.clock cost;
  Grt_sim.Clock.yield t.clock

let stat t key = Grt_sim.Metrics.get_int t.metrics key
