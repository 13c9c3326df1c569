(** The campaign driver: {!Campaign} cells dealt as leases to an
    {!Engine.Shard} worker pool — inline, or on forked worker
    processes.

    The work unit is one campaign cell — (fuzzer, compiler), optionally
    crossed with a [-O] level ({!run}'s [opt_levels] axis).  Each unit
    derives its own RNG stream, fault stream, and coverage map
    ({!Campaign.run_one}), and the coordinator merges worker registries,
    trace buffers, coverage, and crash sets in canonical unit order — so
    coverage, crashes, and the campaign report are byte-identical at any
    worker count ([shards:1 ≡ shards:K]).

    Worker failure flows into one supervision story: a worker that
    dies, hangs, or garbles a frame loses its lease back to the queue
    ({!Engine.Shard.run_pool}), and with [checkpoint] each committed
    unit is journaled, so an interrupted campaign resumes at any worker
    count. *)

type unit_id = {
  u_fuzzer : Campaign.fuzzer_id;
  u_compiler : Simcomp.Compiler.compiler;
  u_opt : int option;
      (** [-O] level; [None] = the campaign default ([-O2]) *)
}

val unit_name : unit_id -> string
(** ["<fuzzer>-<compiler>"], suffixed ["-O<l>"] on the opt axis. *)

val unit_tag : unit_id -> int
(** Stable trace/derivation tag (cell tag, disambiguated per level). *)

val units :
  ?fuzzers:Campaign.fuzzer_id list ->
  ?compilers:Simcomp.Compiler.compiler list ->
  ?opt_levels:int list ->
  unit ->
  unit_id list
(** The canonical work list: fuzzers × compilers (× levels when
    [opt_levels <> []]) in deterministic order. *)

type quarantined_unit = {
  qu_unit : unit_id;
  qu_reason : string;      (** stable category, e.g. ["worker-oom"] *)
  qu_attempts : int;
  qu_fingerprint : string; (** the unit's cell fingerprint, for re-runs *)
}

type t = {
  config : Campaign.config;
  shards : int;
  opt_levels : int list;
  results : (unit_id * Fuzz_result.t) list;  (** canonical unit order *)
  failures : (unit_id * string) list;
  quarantined : quarantined_unit list;
      (** units set aside by the resource governor / circuit breaker *)
  resumed_units : int;
  shard_stats : Engine.Shard.stats;
}

val run :
  ?cfg:Campaign.config ->
  ?fuzzers:Campaign.fuzzer_id list ->
  ?compilers:Simcomp.Compiler.compiler list ->
  ?opt_levels:int list ->
  ?engine:Engine.Ctx.t ->
  ?faults:Engine.Faults.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?shards:int ->
  ?backend:Engine.Shard.backend ->
  ?limits:Engine.Shard.limits ->
  ?status:Engine.Status.t ->
  ?progress:(completed:int -> total:int -> string -> unit) ->
  ?serve:Engine.Serve.t ->
  ?flight_dir:string ->
  unit ->
  t
(** Run the unit matrix across [shards] forked worker processes
    (default 1 = inline on the calling process, the mode every other run
    is compared against).  [backend] is not read: its one value is the
    fork pool.  The [jobs] field of [cfg] is not read either.

    Each lease carries the campaign config, the unit id, and the root
    fault harness; the worker executes it with a {e fresh}
    {!Engine.Ctx} and ships back the result plus its metrics registry
    and trace buffer.  At the join the coordinator
    {!Engine.Metrics.merge}s registries and {!Engine.Trace.merge}s
    buffers (tagged {!unit_tag}, labelled {!unit_name}) into [engine]
    in canonical unit order.  [engine] also receives the [shard.*]
    intervention counters, which stay silent in a healthy run, so
    merged registries are invariant in the worker count.

    [faults] additionally arms the shard-layer chaos sites (see
    {!Engine.Faults.site}) in the pool and its workers.  [limits] is the
    per-lease resource governor ({!Engine.Shard.limits}; pooled runs
    only): leases that blow their deadline/budget are retried and
    eventually {!quarantined_unit}-ed, never fatal to the run.

    [status] receives aggregated heartbeat totals (one line for the
    whole pool; workers relinquish TTY ownership).  [progress] ticks
    once per completed unit with its display name.

    [serve] wires the pool into a live scrape server: heartbeats feed
    its per-shard table and time series, quarantines its list, and the
    socket is polled once per supervision round (and per heartbeat on
    the inline path).  [flight_dir] enables the flight
    recorder: each quarantined unit dumps its supervision trail to
    [flight-<unit>.json] there.

    When [engine] carries a {!Engine.Log.t}, leases instruct workers to
    record at the same level; worker log bodies are replayed into the
    coordinator log under the unit's scope at the join barrier, so the
    rendered log is byte-identical at any shard count (for the
    shard-count-invariant event categories).

    With [checkpoint]/[resume], completed units are restored from their
    journal files ([journal-<unit>.ckpt]: the full worker result,
    written as each lease commits, so a coordinator SIGKILL
    mid-campaign resumes with telemetry intact) and interrupted μCFuzz
    units continue from their [cell-<unit>.ckpt] snapshots. *)

val to_campaign : t -> Campaign.t
(** View a default-axis run as a {!Campaign.t} (for the RQ1 table and
    {!Run_report.campaign}).  Opt-axis units keep their level only in
    the {!t}; calling this on an opt-matrix run collapses levels onto
    the same cell, so callers gate on [opt_levels = []]. *)

val report : ?engine:Engine.Ctx.t -> ?attribution:Bisect.attribution list
  -> t -> string
(** The aggregated [campaign-report.md]: {!Run_report.campaign} on the
    default axis, an opt-matrix variant (one summary row per unit)
    otherwise.  Quarantined units render as their own table (unit,
    reason, attempts, cell fingerprint) only when any exist. *)

val aggregate_coverage : t -> Simcomp.Coverage.t
(** Fresh map holding the union of every unit's coverage. *)

val all_crashes : t -> string list
(** Sorted union of compiler-prefixed crash keys across all units. *)
