module Backend = Grt_driver.Backend
module Regs = Grt_gpu.Regs
module Sexpr = Grt_util.Sexpr
module Metrics = Grt_sim.Metrics

exception Recovery_diverged of string

type t = {
  cfg : Mode.config;
  gpushim : Gpushim.t;
  cloud_mem : Grt_gpu.Mem.t;
  downlink : Memsync.t;
  clock : Grt_sim.Clock.t;
  counters : Grt_sim.Counters.t option;
  trace : Grt_sim.Trace.t option;
  log : Recording.log; (* shared with the shim; newest first *)
  sniff : int -> int64 -> unit; (* root/head sniffing on replayed writes *)
  mutable prefix : Recording.entry list; (* oldest first; empty once live *)
  mutable replayed : int;
}

let create ~cfg ~gpushim ~cloud_mem ~downlink ~clock ?counters ?trace ~log ~sniff prefix =
  { cfg; gpushim; cloud_mem; downlink; clock; counters; trace; log; sniff; prefix; replayed = 0 }

let count t key v = match t.counters with Some c -> Grt_sim.Counters.add c key v | None -> ()

let step_cost t = Grt_sim.Clock.advance_ns t.clock Grt_sim.Costs.replayer_step_ns

let active t = t.prefix <> []

(* One entry left the prefix; on the last one, note the transition to live. *)
let note_pop t =
  t.replayed <- t.replayed + 1;
  if t.prefix = [] then
    Grt_sim.Trace.event_opt t.trace (Grt_sim.Trace.Replay_live { replayed = t.replayed })

let fail fmt = Printf.ksprintf (fun m -> raise (Recovery_diverged m)) fmt

(* Apply any memory snapshots sitting at the head of the prefix. *)
let rec pop_memloads t =
  match t.prefix with
  | Recording.Mem_load { pages } :: rest ->
    t.prefix <- rest;
    note_pop t;
    step_cost t;
    count t Metrics.Recovery_pages (List.length pages);
    Gpushim.load_pages t.gpushim (Memsync.payload_of_pages pages);
    List.iter (fun (pfn, data) -> Memsync.note_shipped t.downlink pfn data) pages;
    Recording.log_push t.log (Recording.Mem_load { pages });
    pop_memloads t
  | Recording.Mem_load_enc { records } :: rest ->
    t.prefix <- rest;
    note_pop t;
    step_cost t;
    count t Metrics.Recovery_pages (List.length records);
    (* Decode on the client, then re-teach this attempt's fresh downlink
       sender state so later live syncs delta/dedup against the same view
       the recording's replayer will hold. *)
    let pages = Gpushim.load_records t.gpushim records in
    List.iter (fun (pfn, data) -> Memsync.note_shipped t.downlink pfn data) pages;
    Recording.log_push t.log (Recording.Mem_load_enc { records });
    pop_memloads t
  | _ -> ()

let prefix_pop t =
  pop_memloads t;
  match t.prefix with
  | [] -> None
  | e :: rest ->
    t.prefix <- rest;
    note_pop t;
    step_cost t;
    count t Metrics.Recovery_entries 1;
    Some e

let read t reg =
  match prefix_pop t with
  | Some (Recording.Reg_read { reg = r; value; verify = _ }) when r = reg ->
    (* The client replays the read against its GPU to keep read-sensitive
       hardware state moving; the driver consumes the logged value. *)
    ignore (Grt_gpu.Device.read_reg (Gpushim.device t.gpushim) reg);
    Recording.log_push t.log
      (Recording.Reg_read { reg; value; verify = not (Regs.is_nondeterministic reg) });
    Sexpr.const value
  | Some e ->
    fail "expected read of %s, log has %s" (Regs.name reg)
      (match e with
      | Recording.Reg_write { reg; _ } -> "write " ^ Regs.name reg
      | Recording.Reg_read { reg; _ } -> "read " ^ Regs.name reg
      | Recording.Poll { reg; _ } -> "poll " ^ Regs.name reg
      | Recording.Wait_irq _ -> "wait_irq"
      | Recording.Mem_load _ | Recording.Mem_load_enc _ -> "mem_load")
  | None -> fail "prefix exhausted mid-access (read %s)" (Regs.name reg)

let write t reg =
  match prefix_pop t with
  | Some (Recording.Reg_write { reg = r; value }) when r = reg ->
    t.sniff reg value;
    Grt_gpu.Device.write_reg (Gpushim.device t.gpushim) reg value;
    Recording.log_push t.log (Recording.Reg_write { reg; value })
  | Some _ -> fail "log does not expect a write of %s here" (Regs.name reg)
  | None -> fail "prefix exhausted mid-access (write %s)" (Regs.name reg)

let poll t ~reg ~mask ~cond ~max_iters ~spin_ns =
  match prefix_pop t with
  | Some (Recording.Poll { reg = r; _ }) when r = reg ->
    Recording.log_push t.log
      (Recording.Poll
         {
           reg;
           mask;
           cond =
             (match cond with
             | Backend.Bits_set -> Recording.Until_set
             | Backend.Bits_clear -> Recording.Until_clear);
           max_iters;
           spin_ns;
         });
    (match Gpushim.run_poll t.gpushim ~reg ~mask ~cond ~max_iters ~spin_ns with
    | Some (iters, value) -> Backend.Poll_ok { iters; value }
    | None -> Backend.Poll_timeout)
  | Some _ -> fail "log does not expect a poll of %s here" (Regs.name reg)
  | None -> fail "prefix exhausted mid-access (poll %s)" (Regs.name reg)

let wait_irq t ~timeout_us =
  match prefix_pop t with
  | Some (Recording.Wait_irq { line }) -> (
    match Gpushim.wait_irq t.gpushim ~timeout_ns:(Int64.of_int (timeout_us * 1000)) with
    | Some got ->
      Recording.log_push t.log (Recording.Wait_irq { line = Recording.irq_line_to_int got });
      (* Local status exchange, no network: the cloud's memory learns the
         GPU-written words directly. *)
      if t.cfg.Mode.continuous_validation then Grt_gpu.Mem.unprotect_all t.cloud_mem;
      let payload = Gpushim.upload_meta t.gpushim in
      Memsync.apply t.downlink t.cloud_mem payload;
      List.iter
        (fun (pfn, data) -> Memsync.note_peer_page t.downlink pfn data)
        (Memsync.pages payload);
      ignore line;
      Some got
    | None -> fail "no interrupt while replaying the log")
  | Some _ -> fail "log does not expect an interrupt wait here"
  | None -> fail "prefix exhausted mid-access (wait_irq)"
