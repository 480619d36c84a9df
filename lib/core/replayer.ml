module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem

exception Rejected of string

type divergence_kind = Value_mismatch | Poll_timeout | Irq_mismatch

let divergence_kind_name = function
  | Value_mismatch -> "value mismatch"
  | Poll_timeout -> "poll timeout"
  | Irq_mismatch -> "IRQ mismatch"

exception
  Divergence of { kind : divergence_kind; index : int; reg : int; expected : int64; got : int64 }

type result = {
  output : float array;
  delay_s : float;
  entries_applied : int;
  reads_verified : int;
  reads_skipped_nondet : int;
  energy_j : float option;
}

let write_slot_floats mem (slot : Recording.slot) values =
  (* A silent [min] here once truncated oversized arrays and left stale
     bytes beyond short ones — either way the replay computes on data the
     caller did not supply. Reject mismatches outright. *)
  let expected = slot.Recording.actual_bytes / 4 in
  if Array.length values <> expected then
    raise
      (Rejected
         (Printf.sprintf "slot %s expects %d floats but got %d" slot.Recording.slot_name
            expected (Array.length values)));
  Mem.write_f32_array mem slot.Recording.pa values

let read_slot_floats mem (slot : Recording.slot) =
  Mem.read_f32_array mem slot.Recording.pa (slot.Recording.actual_bytes / 4)

let apply_entries ~gpushim ~clock ~mem ~dev ~store ~reads_verified ~skipped ~applied entries =
  Array.iteri
    (fun index entry ->
      incr applied;
      Grt_sim.Clock.advance_ns clock Grt_sim.Costs.replayer_step_ns;
      match entry with
      | Recording.Mem_load { pages } ->
        (* The metastate snapshot for the upcoming interactions. *)
        List.iter (fun (pfn, data) -> Mem.set_page mem pfn data) pages
      | Recording.Mem_load_enc { records } ->
        (* Tagged snapshot: decode in log order; hash references resolve
           against bodies earlier entries carried in full. *)
        ignore (Memsync.decode_records store mem records)
      | Recording.Reg_write { reg; value } -> Device.write_reg dev reg value
      | Recording.Reg_read { reg; value; verify } ->
        let got = Device.read_reg dev reg in
        if verify then begin
          incr reads_verified;
          if not (Int64.equal got value) then
            raise (Divergence { kind = Value_mismatch; index; reg; expected = value; got })
        end
        else incr skipped
      | Recording.Poll { reg; mask; cond; max_iters; spin_ns } ->
        let rec loop i =
          if i >= max_iters then
            (* Not a wrong value — the condition never held within the
               recorded iteration budget. [expected] carries the mask. *)
            raise (Divergence { kind = Poll_timeout; index; reg; expected = mask; got = -1L })
          else begin
            let v = Device.read_reg dev reg in
            let ok =
              match cond with
              | Recording.Until_set -> Int64.logand v mask = mask
              | Recording.Until_clear -> Int64.logand v mask = 0L
            in
            if not ok then begin
              Grt_sim.Clock.advance_ns clock spin_ns;
              loop (i + 1)
            end
          end
        in
        loop 0
      | Recording.Wait_irq { line } -> (
        let want = Recording.irq_line_of_int line in
        match Gpushim.wait_irq gpushim ~timeout_ns:4_000_000_000L with
        | Some got when Some got = want -> ()
        | Some got_line ->
          raise
            (Divergence
               {
                 kind = Irq_mismatch;
                 index;
                 reg = -1;
                 expected = Int64.of_int line;
                 got = Int64.of_int (Recording.irq_line_to_int got_line);
               })
        | None ->
          raise
            (Divergence
               { kind = Irq_mismatch; index; reg = -1; expected = Int64.of_int line; got = -1L })))
    entries

(* §3.2 cleanup, exception-safe: a [Divergence] (or any other exception)
   raised mid-session must not leave the GPU isolated and dirty — the next
   session would find it locked to the TEE with stale jobs pending. On the
   success path the body has already reset and released, so the finalizer
   sees [isolated = false] and does nothing; the observable behaviour of a
   clean replay is unchanged. *)
let protect_session gpushim body =
  Fun.protect
    ~finally:(fun () ->
      if Gpushim.isolated gpushim then begin
        (try Gpushim.reset_gpu gpushim with _ -> ());
        Gpushim.release gpushim
      end)
    body

let check_sku dev (rec_t : Recording.t) =
  let sku = Device.sku dev in
  if not (Int64.equal rec_t.Recording.gpu_id sku.Grt_gpu.Sku.gpu_id) then
    raise
      (Rejected
         (Printf.sprintf "recording is for GPU %Lx but this device is %Lx (SKU mismatch)"
            rec_t.Recording.gpu_id sku.Grt_gpu.Sku.gpu_id))

let replay ~gpushim ~signing_key ~blob ~input ~params ?energy () =
  let rec_t =
    match Recording.verify_and_parse ~key:signing_key blob with
    | Ok r -> r
    | Error e -> raise (Rejected e)
  in
  let dev = Gpushim.device gpushim in
  check_sku dev rec_t;
  let clock = Device.clock dev in
  let mem = Gpushim.mem gpushim in
  let energy_start = Option.map Grt_sim.Energy.total_j energy in
  let start_s = Grt_sim.Clock.now_s clock in
  Gpushim.isolate gpushim;
  protect_session gpushim @@ fun () ->
  Gpushim.reset_gpu gpushim;
  (* Install fresh data into the recorded slots before feeding stimuli. *)
  (match Recording.input_slot rec_t with
  | Some slot -> write_slot_floats mem slot input
  | None -> raise (Rejected "recording has no input slot"));
  let param_slots = Recording.param_slots rec_t in
  List.iter
    (fun (name, values) ->
      match List.find_opt (fun s -> String.equal s.Recording.slot_name name) param_slots with
      | Some slot -> write_slot_floats mem slot values
      | None -> raise (Rejected (Printf.sprintf "unknown parameter slot %s" name)))
    params;
  let reads_verified = ref 0 and skipped = ref 0 and applied = ref 0 in
  let store = Memsync.Store.create () in
  apply_entries ~gpushim ~clock ~mem ~dev ~store ~reads_verified ~skipped ~applied
    rec_t.Recording.entries;
  let output =
    match Recording.output_slot rec_t with
    | Some slot -> read_slot_floats mem slot
    | None -> raise (Rejected "recording has no output slot")
  in
  (* Clean up all hardware state before handing the GPU back (§3.2). *)
  Gpushim.reset_gpu gpushim;
  Gpushim.release gpushim;
  {
    output;
    delay_s = Grt_sim.Clock.now_s clock -. start_s;
    entries_applied = !applied;
    reads_verified = !reads_verified;
    reads_skipped_nondet = !skipped;
    energy_j =
      (match (energy, energy_start) with
      | Some e, Some j0 -> Some (Grt_sim.Energy.total_j e -. j0)
      | _ -> None);
  }

let replay_segments ~gpushim ~signing_key ~blobs ~input ~params ?energy () =
  if blobs = [] then raise (Rejected "no segments");
  let dev = Gpushim.device gpushim in
  let sku = Device.sku dev in
  let segments =
    List.map
      (fun blob ->
        match Recording.verify_and_parse ~key:signing_key blob with
        | Ok r ->
          if not (Int64.equal r.Recording.gpu_id sku.Grt_gpu.Sku.gpu_id) then
            raise (Rejected "segment recorded on a different GPU SKU");
          r
        | Error e -> raise (Rejected e))
      blobs
  in
  let clock = Device.clock dev in
  let mem = Gpushim.mem gpushim in
  let energy_start = Option.map Grt_sim.Energy.total_j energy in
  let start_s = Grt_sim.Clock.now_s clock in
  Gpushim.isolate gpushim;
  protect_session gpushim @@ fun () ->
  Gpushim.reset_gpu gpushim;
  (* Fresh input into the first segment; parameters into whichever segment
     declares their slot. *)
  (match Recording.input_slot (List.hd segments) with
  | Some slot -> write_slot_floats mem slot input
  | None -> raise (Rejected "first segment has no input slot"));
  List.iter
    (fun (name, values) ->
      let slot =
        List.find_map
          (fun seg ->
            List.find_opt (fun s -> String.equal s.Recording.slot_name name)
              (Recording.param_slots seg))
          segments
      in
      match slot with
      | Some slot -> write_slot_floats mem slot values
      | None -> raise (Rejected (Printf.sprintf "unknown parameter slot %s" name)))
    params;
  let reads_verified = ref 0 and skipped = ref 0 and applied = ref 0 in
  let store = Memsync.Store.create () in
  List.iter
    (fun seg ->
      apply_entries ~gpushim ~clock ~mem ~dev ~store ~reads_verified ~skipped ~applied
        seg.Recording.entries)
    segments;
  let last = List.nth segments (List.length segments - 1) in
  let output =
    match Recording.output_slot last with
    | Some slot -> read_slot_floats mem slot
    | None -> raise (Rejected "last segment has no output slot")
  in
  Gpushim.reset_gpu gpushim;
  Gpushim.release gpushim;
  {
    output;
    delay_s = Grt_sim.Clock.now_s clock -. start_s;
    entries_applied = !applied;
    reads_verified = !reads_verified;
    reads_skipped_nondet = !skipped;
    energy_j =
      (match (energy, energy_start) with
      | Some e, Some j0 -> Some (Grt_sim.Energy.total_j e -. j0)
      | _ -> None);
  }

(* ---- compiled replay (Replay_prog fast path) ---- *)

(* Execute a poll op. Warm path: charge the clock for the [hint] failed
   iterations the interpreter would have spun through — each one a register
   read plus the recorded spin — then read once. The device model fires
   events by deadline against the virtual clock, so one read at the
   advanced time observes exactly what the interpreter's (hint+1)-th read
   observed, at the same virtual cost. If the GPU is not ready at the
   hinted iteration we fall back to the live spin from hint+1, which again
   matches the interpreter's clock arithmetic exactly; either way the
   first-success iteration is re-learned for the next execution. *)
let exec_poll ~clock ~dev ~reg ~mask ~cond ~max_iters ~spin_ns ~index ~hint =
  let ok v =
    match cond with
    | Recording.Until_set -> Int64.logand v mask = mask
    | Recording.Until_clear -> Int64.logand v mask = 0L
  in
  let rec live i =
    if i >= max_iters then
      raise (Divergence { kind = Poll_timeout; index; reg; expected = mask; got = -1L })
    else begin
      let v = Device.read_reg dev reg in
      if ok v then i
      else begin
        Grt_sim.Clock.advance_ns clock spin_ns;
        live (i + 1)
      end
    end
  in
  if hint > 0 && hint < max_iters then begin
    Grt_sim.Clock.advance_ns clock
      (Int64.mul (Int64.of_int hint) (Int64.add spin_ns Grt_sim.Costs.mmio_access_ns));
    let v = Device.read_reg dev reg in
    if ok v then hint
    else begin
      Grt_sim.Clock.advance_ns clock spin_ns;
      live (hint + 1)
    end
  end
  else live 0

let exec_prog ~gpushim ~clock ~mem ~dev ?tracer ?hists (prog : Replay_prog.t) ~reads_verified
    ~skipped ~applied () =
  let open Replay_prog in
  (* A live store is needed only while some dynamic load is still uncached;
     once every decode is memoized, replays skip content-store bookkeeping
     entirely. While it exists, every entry that would have fed the
     interpreter's store must feed this one, or a later hash reference
     could dangle. *)
  let needs_store =
    Array.exists
      (fun (g : group) ->
        Array.exists (function Load_dynamic { cached = None; _ } -> true | _ -> false) g.ops)
      prog.groups
  in
  let store = if needs_store then Some (Memsync.Store.create ()) else None in
  let step () =
    incr applied;
    Grt_sim.Clock.advance_ns clock Grt_sim.Costs.replayer_step_ns
  in
  Array.iter
    (fun (g : group) ->
      if not g.checked then begin
        let c = g.chunk in
        Grt_sim.Tracer.span_opt tracer ~cat:Grt_sim.Tracer.Replay_verify ~name:"chunk"
          ~args:[ ("entry", string_of_int c.Recording.chunk_first) ]
          (fun () ->
            Grt_sim.Hist.record_opt hists Grt_sim.Hist.Replay_chunk_bytes
              (Bytes.length c.Recording.chunk_raw);
            if not (Recording.verify_chunk c) then
              raise
                (Rejected
                   (Printf.sprintf "recording: chunk at entry %d failed verification"
                      c.Recording.chunk_first)));
        g.checked <- true
      end;
      Array.iter
        (fun op ->
          match op with
          | Write_run { regs; values } ->
            for k = 0 to Array.length regs - 1 do
              step ();
              Device.write_reg dev regs.(k) values.(k)
            done
          | Read { reg; value; verify; index } ->
            step ();
            let got = Device.read_reg dev reg in
            if verify then begin
              incr reads_verified;
              if not (Int64.equal got value) then
                raise (Divergence { kind = Value_mismatch; index; reg; expected = value; got })
            end
            else incr skipped
          | Poll p ->
            step ();
            p.hint <-
              exec_poll ~clock ~dev ~reg:p.reg ~mask:p.mask ~cond:p.cond ~max_iters:p.max_iters
                ~spin_ns:p.spin_ns ~index:p.index ~hint:p.hint
          | Wait_irq { want; line; index } -> (
            step ();
            match Gpushim.wait_irq gpushim ~timeout_ns:4_000_000_000L with
            | Some got when got = want -> ()
            | Some got_line ->
              raise
                (Divergence
                   {
                     kind = Irq_mismatch;
                     index;
                     reg = -1;
                     expected = Int64.of_int line;
                     got = Int64.of_int (Recording.irq_line_to_int got_line);
                   })
            | None ->
              raise
                (Divergence
                   { kind = Irq_mismatch; index; reg = -1; expected = Int64.of_int line; got = -1L }))
          | Load_static l ->
            step ();
            (if l.learn then
               match store with
               | Some s -> Array.iter (fun (_, data) -> Memsync.Store.learn s data) l.pages
               | None -> ());
            let install () =
              let stamps =
                Array.map
                  (fun (pfn, data) ->
                    Mem.set_page mem pfn data;
                    Mem.page_gen mem pfn)
                  l.pages
              in
              l.stamps <- Some (mem, stamps)
            in
            (* Warm sessions re-install the same image into the same memory;
               an unchanged generation proves the page still holds it. *)
            (match l.stamps with
            | Some (m, stamps) when m == mem ->
              Array.iteri
                (fun k (pfn, data) ->
                  if not (Int64.equal (Mem.page_gen mem pfn) stamps.(k)) then begin
                    Mem.set_page mem pfn data;
                    stamps.(k) <- Mem.page_gen mem pfn
                  end)
                l.pages
            | _ -> install ());
          | Load_dynamic d -> (
            step ();
            match d.cached with
            | Some pages ->
              Array.iter
                (fun (_, data) ->
                  match store with Some s -> Memsync.Store.learn s data | None -> ())
                pages;
              Array.iter (fun (pfn, data) -> Mem.set_page mem pfn data) pages
            | None ->
              let s =
                match store with Some s -> s | None -> assert false (* needs_store saw us *)
              in
              d.cached <- Some (Array.of_list (Memsync.decode_records s mem d.records))))
        g.ops)
    prog.groups

let replay_compiled ~gpushim ~prog ~input ~params ?energy ?tracer ?hists () =
  let rec_t = Replay_prog.source prog in
  let dev = Gpushim.device gpushim in
  check_sku dev rec_t;
  let clock = Device.clock dev in
  let mem = Gpushim.mem gpushim in
  let energy_start = Option.map Grt_sim.Energy.total_j energy in
  let start_s = Grt_sim.Clock.now_s clock in
  Gpushim.isolate gpushim;
  protect_session gpushim @@ fun () ->
  (* Batch sessions reuse one shim: power-cycle back to the pristine state
     the recording was made against (free on a fresh shim), then run the
     same recorded-cost soft reset the interpreter runs. *)
  Gpushim.power_cycle gpushim;
  Gpushim.reset_gpu gpushim;
  (match Recording.input_slot rec_t with
  | Some slot -> write_slot_floats mem slot input
  | None -> raise (Rejected "recording has no input slot"));
  let param_slots = Recording.param_slots rec_t in
  List.iter
    (fun (name, values) ->
      match List.find_opt (fun s -> String.equal s.Recording.slot_name name) param_slots with
      | Some slot -> write_slot_floats mem slot values
      | None -> raise (Rejected (Printf.sprintf "unknown parameter slot %s" name)))
    params;
  let reads_verified = ref 0 and skipped = ref 0 and applied = ref 0 in
  Grt_sim.Tracer.span_opt tracer ~cat:Grt_sim.Tracer.Replay_execute ~name:"execute" (fun () ->
      exec_prog ~gpushim ~clock ~mem ~dev ?tracer ?hists prog ~reads_verified ~skipped ~applied ());
  Grt_sim.Hist.record_opt hists Grt_sim.Hist.Replay_exec_entries !applied;
  let output =
    match Recording.output_slot rec_t with
    | Some slot -> read_slot_floats mem slot
    | None -> raise (Rejected "recording has no output slot")
  in
  Gpushim.reset_gpu gpushim;
  Gpushim.release gpushim;
  {
    output;
    delay_s = Grt_sim.Clock.now_s clock -. start_s;
    entries_applied = !applied;
    reads_verified = !reads_verified;
    reads_skipped_nondet = !skipped;
    energy_j =
      (match (energy, energy_start) with
      | Some e, Some j0 -> Some (Grt_sim.Energy.total_j e -. j0)
      | _ -> None);
  }
