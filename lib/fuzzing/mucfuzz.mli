(** μCFuzz: the paper's micro coverage-guided fuzzer (Algorithm 1).

    Given seed programs S, mutators M, and a compiler C, each iteration
    picks a random pool program P, shuffles M, and applies mutators until
    one produces a mutant covering a branch the pool has not covered; the
    mutant then joins the pool (only if it compiles — breeding from broken
    mutants would collapse the pool).  No havoc, no forking, no culling.

    Every run owns an {!Engine.Ctx}: mutator attempts/accepts/rejects are
    counted per mutator ([mucfuzz.attempt.<m>] / [.accept.<m>] /
    [.reject.<m>] / [.inapplicable.<m>]), and crashes, coverage gains and
    trend samples are emitted as events.  Mutants, crashes and the
    coverage trend are recorded in the result through
    {!Fuzz_result.record}, {!Fuzz_result.sample} and
    {!Fuzz_result.finish}, as in every other fuzz loop. *)

type config = {
  mutators : Mutators.Mutator.t list;
  fragility : bool;
      (** apply the text-rewriting fragility model (see {!Fragility}) *)
  coverage_guided : bool;
      (** ablation switch: accept every mutant when [false] *)
  max_attempts_per_iteration : int;
      (** mutator budget per iteration (|M| in the paper) *)
  sample_every : int;  (** coverage-trend sampling period *)
  schedule : bool;
      (** AFL-style corpus scheduling: per-edge claims by the smallest
          covering entry, 4:1 favored-entry picks, non-favored trimming
          past [pool_max].  Off by default — the paper's Algorithm 1
          has no culling, and the default RNG stream stays
          byte-identical to pre-scheduling builds. *)
  pool_max : int;
      (** pool size the scheduler trims back to (favored entries are
          never dropped); ignored unless [schedule] is on *)
}

val default_config : ?mutators:Mutators.Mutator.t list -> unit -> config
(** Defaults to the 118-mutator core corpus with fragility and coverage
    guidance on, scheduling off, [pool_max = 4096]. *)

type pool_entry = {
  src : string;
  tu : Cparse.Ast.tu;
  pe_len : int;  (** [String.length src]: the scheduling rank *)
  mutable pe_tops : int;
      (** number of coverage edges this entry currently claims (the
          entry is {e favored} iff positive); maintained only when the
          run schedules *)
}

type mutator_counters = {
  mc_attempt : Engine.Metrics.counter;
  mc_inapplicable : Engine.Metrics.counter;
  mc_accept : Engine.Metrics.counter;
  mc_reject : Engine.Metrics.counter;
  mc_fresh : Engine.Metrics.counter;
      (** fresh coverage edges attributed to this mutator's mutants
          ([mucfuzz.fresh_edges.<name>]) — the per-mutator yield signal *)
}
(** Pre-resolved per-mutator instruments (O(1) hot-path bumps). *)

type state = {
  cfg : config;
  rng : Cparse.Rng.t;
  compiler : Simcomp.Compiler.compiler;
  options : Simcomp.Compiler.options;
  engine : Engine.Ctx.t;
  per_mutator : (string, mutator_counters) Hashtbl.t;
  mutable pool : pool_entry Engine.Vec.t;
      (** amortized-O(1) accepts (an [Array.append] pool is quadratic);
          replaced wholesale on checkpoint resume *)
  scratch : Simcomp.Coverage.t;
      (** the per-mutant coverage map every compile reports into,
          consumed (merged-and-zeroed in one pass) between compiles
          instead of reallocated *)
  mutable cache : Simcomp.Compiler.cache;
      (** byte-identical mutant dedup: every compile goes through
          {!Simcomp.Compiler.compile_cached} [~emit:false] over this
          cache; replaced wholesale on checkpoint resume *)
  mutable faults : Engine.Faults.t option;
      (** consulted (as [Compile_hang]) on every real compile; replaced
          wholesale on checkpoint resume *)
  sched_top : Bytes.t;
      (** per-coverage-cell claimant (little-endian u16 pool index,
          [0xFFFF] = unclaimed); allocated and written only when
          [cfg.schedule], empty otherwise *)
  sched_scratch : int Engine.Vec.t;
      (** reusable favored-index buffer for the scheduled pick *)
  mutable result : Fuzz_result.t;
}

val init :
  ?options:Simcomp.Compiler.options ->
  ?engine:Engine.Ctx.t ->
  ?faults:Engine.Faults.t ->
  cfg:config ->
  rng:Cparse.Rng.t ->
  compiler:Simcomp.Compiler.compiler ->
  seeds:string list ->
  unit ->
  state
(** Parse the seeds into the pool and record their baseline coverage.
    A seed that crashes the compiler is recorded in the result (as
    iteration 0), and the baseline coverage becomes the trend's first
    sample.  When [engine] is omitted a private context is created. *)

val step : state -> iteration:int -> unit
(** One iteration of Algorithm 1. *)

val run :
  ?options:Simcomp.Compiler.options ->
  ?cfg:config ->
  ?engine:Engine.Ctx.t ->
  ?faults:Engine.Faults.t ->
  ?checkpoint:string * int ->
  ?resume:string ->
  rng:Cparse.Rng.t ->
  compiler:Simcomp.Compiler.compiler ->
  seeds:string list ->
  iterations:int ->
  name:string ->
  unit ->
  Fuzz_result.t
(** Run a whole campaign and return the accumulated statistics.  The
    trend is sampled every [sample_every] iterations and always ends at
    [iterations]; it lives in the result, so runs sharing an [engine]
    do not see each other's samples.

    [checkpoint:(path, every)] snapshots the complete run state (RNG,
    pool, result, compile cache, fault-harness counters) atomically to
    [path] every [every] iterations; saves are best-effort and consult
    the [Io_failure] fault site.  [resume:path] restores a snapshot
    whose fingerprint (name, compiler, budget, fault spec) matches and
    continues from the saved iteration — producing a result *identical*
    to an uninterrupted run with the same inputs; a missing or
    mismatched snapshot falls back to a full run. *)
