(** Misprediction recovery: local replay of the validated prefix (§4.2).

    After a misprediction (or a link outage), both parties fast-forward
    without the network: the client feeds the logged stimuli to its
    physical GPU, rebuilding its hardware state, while the cloud feeds the
    logged responses to the re-executing driver. Entries are appended to
    the shared interaction log as they replay, so the final recording is
    the validated prefix plus the live continuation.

    The module owns only the shrinking prefix; the log itself is a
    [Recording.entry list ref] shared with {!Drivershim} (newest first),
    and page-table-root / job-head sniffing on replayed writes is delegated
    back to the shim through the [sniff] callback — recovery replays
    through the same bookkeeping the live path uses, so going live after
    the prefix runs dry is seamless. *)

exception Recovery_diverged of string
(** Re-execution departed from the validated log — the driver asked for an
    access the prefix does not contain at this position. Indicates
    nondeterminism the recorder failed to forestall. *)

type t

val create :
  cfg:Mode.config ->
  gpushim:Gpushim.t ->
  cloud_mem:Grt_gpu.Mem.t ->
  downlink:Memsync.t ->
  clock:Grt_sim.Clock.t ->
  ?counters:Grt_sim.Counters.t ->
  ?trace:Grt_sim.Trace.t ->
  log:Recording.log ->
  sniff:(int -> int64 -> unit) ->
  Recording.entry list ->
  t
(** The trailing argument is the validated prefix to replay, oldest first.
    Each replayed entry charges [Grt_sim.Costs.replayer_step_ns] to
    [clock] and bumps [recovery.entries] / [recovery.pages]. [trace]
    receives a [Replay_live] event when the prefix runs dry. *)

val active : t -> bool
(** Entries remain to replay; the shim must route accesses here. *)

val pop_memloads : t -> unit
(** Install any memory snapshots sitting at the head of the prefix. Called
    before each access dispatch so a trailing [Mem_load] cannot strand the
    replay in recovery mode. *)

val prefix_pop : t -> Recording.entry option
(** Consume the next non-[Mem_load] entry ([None] once live). *)

val read : t -> int -> Grt_util.Sexpr.t
(** Serve a register read from the log (always a concrete constant) while
    replaying it against the client GPU. Raises {!Recovery_diverged} on any
    mismatch with the logged entry. *)

val write : t -> int -> unit
(** Replay a register write: the logged value goes to the client GPU and
    through the shim's [sniff] bookkeeping. Raises {!Recovery_diverged} on
    mismatch. *)

val poll :
  t ->
  reg:int ->
  mask:int64 ->
  cond:Grt_driver.Backend.poll_cond ->
  max_iters:int ->
  spin_ns:int64 ->
  Grt_driver.Backend.poll_result
(** Re-run an offloaded polling loop locally against the client GPU (the
    log stores the loop, not its iterations). Raises {!Recovery_diverged}
    on mismatch. *)

val wait_irq : t -> timeout_us:int -> Grt_gpu.Device.irq_line option
(** Replay an interrupt wait; the client's metastate dump is applied
    locally with no network traffic. Raises {!Recovery_diverged} on
    mismatch or if no interrupt arrives. *)
