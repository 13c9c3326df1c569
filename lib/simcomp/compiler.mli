(** The simulated compiler driver.

    Front-end (parse + type check) → IR generation → optimization →
    back-end, with branch-coverage instrumentation at every stage and the
    latent-bug database ({!Bugdb}) consulted at every stage boundary.

    Two compiler "products" share the pipeline but have distinct bug sets
    and coverage-id salts, modelling GCC vs Clang in the paper's RQ1. *)

type compiler = Bugdb.compiler = Gcc | Clang

(** IR-snapshot requests honoured by {!optimize}: the CLI's
    [compile --dump-ir[=PASS]]. *)
type dump_ir =
  | Dump_none
  | Dump_all  (** [-fdump-ir]: snapshot around every pass *)
  | Dump_pass of string  (** [-fdump-ir=PASS]: only around that pass *)

type options = {
  opt_level : int;                (** 0..3; the paper fuzzes at -O2 *)
  disabled_passes : string list;  (** -fno-<pass> *)
  pass_list : string list option;
      (** [-fpasses=a,b,c]: explicit ordered pipeline overriding the
          level's spec (still subject to [disabled_passes]) *)
  dump_ir : dump_ir;
}

val default_options : options
(** [-O2] with every pass enabled, no pipeline override, no dumps. *)

val pipeline_of : options -> string list
(** The ordered pass names the optimizer will run under these options.
    @raise Invalid_argument if [pass_list] names an unknown pass. *)

type outcome =
  | Compiled of { asm : string; warnings : int; ir_size : int; spills : int }
      (** [asm] is the emitted assembly, or [""] when the compile stopped
          before emission ([~emit:false]) *)
  | Compile_error of string list
  | Crashed of Crash.t
      (** an internal compiler error: a latent bug fired *)

val outcome_is_success : outcome -> bool

val engine_stage : Crash.stage -> Engine.Event.stage
(** Crash stages and engine stages name the same pipeline boundaries. *)

val compile :
  ?cov:Coverage.t -> ?engine:Engine.Ctx.t -> ?faults:Engine.Faults.t ->
  ?emit:bool -> compiler -> options -> string -> outcome
(** Compile C source.  With [emit] (the default) the back-end renders the
    assembly into [Compiled.asm]; [~emit:false] stops it after register
    allocation and selection, for callers that read only the outcome
    and the coverage: the outcome is the same except for [asm = ""],
    and the coverage is the same.  When [cov] is given, every pipeline
    stage reports branch coverage into it (including error-handling
    paths for inputs that fail to lex/parse/type check).  When [engine] is given, each
    stage runs under a span ([span.compile.frontend] / [.lower] / [.opt]
    / [.backend]), outcome counters are bumped, and a
    {!Engine.Event.Compile_finished} event carrying the outcome kind and
    the last stage reached is emitted.  The source is lexed exactly once
    (the parser and lexical coverage share the token stream).
    When [faults] is given, the watchdog fuel barrier consults its
    [Compile_hang] site before compiling: a fired fault stands in for a
    compile that would stall its worker and is recorded as a [Crashed]
    hang (stable identity [<compiler>-watchdog-timeout]) with a
    [compile.watchdog_hang] counter bump, instead of wedging the
    scheduler. *)

val compile_tu :
  ?cov:Coverage.t -> ?engine:Engine.Ctx.t -> ?faults:Engine.Faults.t ->
  ?emit:bool -> ?tree:Cparse.Ast.tu -> ?tokens:Cparse.Lexer.tokens ->
  compiler -> options -> string -> outcome * Cparse.Ast.tu option
(** Like {!compile}, but also returns the parsed translation unit when
    the front-end parse succeeded (always [Some] when the outcome is
    [Compiled]).  Fuzz loops that pool compiled mutants use this to
    avoid re-parsing a source the compiler just parsed; the returned
    tree is exactly what [Parser.parse] of the same source yields.

    [tree] is a tree the source is the printing of
    ([Pretty.tu_to_string tree = src]; the caller's promise, not
    checked).  When {!Cparse.Pretty.parsed_form} vouches for it, that
    form stands in for the parse: the parser does not run.  [tokens] is
    the printer's token stream of that printing
    ({!Cparse.Pretty.render}, [Scratch.render_tu]), read during the call
    only; for a vouched-for tree it stands in for the lexer's, so
    lexical coverage walks it and the lexer does not run either.
    Without [tokens] the lexer runs only when [cov] needs its stream.
    For a tree [parsed_form] refuses, the source takes the text path and
    [tokens] is ignored.  Either way the outcome, the coverage, the
    engine accounting and the returned tree are those of a compile
    without [tree]. *)

type cache
(** A mutant dedup cache: memoizes compile outcomes.  Lookups go through
    a cheap 64-bit fingerprint of the mutant source (salted with the
    compiler and options), but every entry stores the exact
    (compiler, options, source) triple and probes compare all three —
    a fingerprint collision falls back to the exact key, so decisions
    are identical to a full-text-keyed cache.  Whether the compile
    emitted is part of the exact key: an emitting probe is never served
    an asm-less outcome.  The pipeline is
    deterministic in that triple, so byte-identical mutants — which the
    fragility model produces often — skip the whole compile. *)

val cache_create :
  ?capacity:int -> ?fingerprint:(string -> int) -> unit -> cache
(** The table is cleared wholesale when it reaches [capacity]
    (default 2048 entries).  [fingerprint] overrides the source hash —
    meant for tests forcing collisions (e.g. a constant function) to
    exercise the exact-key fallback.  Caches built with the default
    fingerprint survive [Marshal]-based checkpointing; a custom
    fingerprint is a closure and does not. *)

val cache_hits : cache -> int
val cache_misses : cache -> int

val cache_collisions : cache -> int
(** Misses and cross-option probes that landed in an occupied
    fingerprint bucket without an exact-triple match.  A nonzero count
    only costs a bucket walk; outcomes are unaffected. *)

val compile_cached :
  cache:cache -> ?cov:Coverage.t -> ?engine:Engine.Ctx.t ->
  ?faults:Engine.Faults.t -> ?emit:bool -> ?tree:Cparse.Ast.tu ->
  ?tokens:Cparse.Lexer.tokens -> compiler -> options -> string ->
  outcome * Cparse.Ast.tu option
(** {!compile_tu} through the cache, which is keyed by the source alone;
    [tree] and [tokens] are passed on to {!compile_tu} on a miss and
    ignored on a hit (the tree is normalized only when a compile runs).
    On a hit the memoized outcome is
    returned with [None] for the tree, nothing is recorded into [cov]
    (the identical coverage was already produced by the first compile —
    any accumulator the caller merged it into subsumes it), and engine
    accounting is replayed exactly as for a real compile, plus a
    [compile.cached] counter bump.  The [Compile_hang] fault draw
    happens only on misses: a byte-identical mutant replays its
    memoized outcome, injected hang included. *)

(** One executed pipeline step, as recorded by {!optimize}.  A step's
    position in [pt_steps] is its position in the executed
    pipeline. *)
type pass_step = {
  st_pass : string;
  st_changes : int;
  st_ir_before : string option;  (** per [options.dump_ir] *)
  st_ir_after : string option;
  st_diverged : bool option;
      (** given a [reference]: does the IR's observable behaviour after
          this pass differ from the pre-opt IR's?  [None] without a
          [reference], or when either run falls outside the
          interpreter's subset. *)
}

type pass_trace = {
  pt_steps : pass_step list;
  pt_first_divergent : string option;
      (** the first pass after which behaviour diverged — per-pass
          differential testing's culprit estimate *)
}

val lower :
  ?tree:Cparse.Ast.tu -> compiler -> string ->
  (Ir.program * Features.ast, string) result
(** The first stage of the crash-free pipeline behind {!compile_ir},
    the CLI's [compile --dump-ir/--emit-ir] and the wrong-code oracle:
    the front-end {!compile} runs (same lexer, parser and type
    checker), but without the seeded bug checks, then lowering.  The result is the unoptimized IR with
    the AST features the optimizer's miscompile gates read.  It reads
    no options, so one lowering serves every level: [-O0] plans no
    pass, so the lowered IR is the [-O0] program as it stands, and
    {!optimize} on an {!Ir.copy} forks it across levels.  The channel
    is crash-free, so seeded ICEs cannot mask a wrong-code finding.  On
    an input {!compile} rejects, [Error] carries the same diagnostics
    as its [Compile_error], joined by newlines.  [tree] is as for
    {!compile_tu}; with no coverage to feed, a vouched-for tree skips
    both the lexer and the parser without a token stream. *)

val optimize :
  ?reference:int * bool -> compiler -> options ->
  Ir.program * Features.ast -> pass_trace
(** Run the optimizer pipeline under the options over a {!lower}ed
    program, in place, recording each executed pass (change counts and
    IR snapshots per [options.dump_ir]).  The culprit pass still
    injects its miscompilation.  Given [reference], the program's
    pre-opt observable behaviour (say, {!Ir_interp.observable} of the
    lowered IR), the IR is interpreted after every pass and compared
    against it ([st_diverged], [pt_first_divergent]); without it no
    pass is interpreted.  The optimized (possibly miscompiled) program
    is the one passed in.
    @raise Invalid_argument if [pass_list] names an unknown pass. *)

val compile_ir :
  ?tree:Cparse.Ast.tu -> compiler -> options -> string ->
  (Ir.program, string) result
(** {!lower}, then {!optimize}, returning the (possibly silently
    miscompiled) optimized IR. *)

val random_options : Cparse.Rng.t -> options
(** Sample a random command line, as the macro fuzzer does (§3.4). *)

val options_to_string : options -> string
(** Render as a GCC-style command line ("-O2 -fno-dce ..."). *)
