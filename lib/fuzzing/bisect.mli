(** Automatic culprit-pass bisection: GCC's [debug-bisect-passes]
    workflow, done natively against the pass manager.

    Given a source that produces a finding — an ICE or an EMI-style
    wrong-code mismatch — re-compile it with individual passes (then
    pass subsets) additionally disabled and report the minimal set of
    passes whose disabling makes the finding vanish.  For wrong-code
    findings the per-pass differential channel
    ({!Simcomp.Compiler.optimize} given the [-O0] reference) supplies an
    independent first-divergent-pass estimate. *)

type finding =
  | Ice of { key : string; bug_id : string }
      (** internal compiler error, identified by its crash key *)
  | Wrong_code of { reference : int * bool; observed : int * bool }
      (** observable behaviour at the target options vs [-O0] *)

val finding_to_string : finding -> string

type verdict = {
  v_finding : finding;
  v_pipeline : string list;  (** the planned pass sequence bisected over *)
  v_culprits : string list;
      (** minimal pass set whose disabling clears the finding, in
          pipeline order; empty when [v_attributable] is false *)
  v_first_divergent : string option;
      (** wrong-code only: first pass whose output diverges from the
          pre-opt semantics (per-pass differential testing) *)
  v_attributable : bool;
      (** false when the finding persists with every pass disabled
          (front-end or level-gated, not pass-attributable) *)
  v_recompiles : int;
      (** probes spent: compiles for an ICE, optimizations of a copy of
          the one lowering for wrong code *)
}

val run :
  ?engine:Engine.Ctx.t ->
  Simcomp.Compiler.compiler ->
  Simcomp.Compiler.options ->
  string ->
  verdict option
(** Detect a finding for [src] under the given options (compile for an
    ICE, then the wrong-code differential) and bisect it; [None] when
    the compile is clean.  With [engine], bumps [bisect.runs],
    [bisect.recompiles], and [bisect.unattributable] counters.
    Deterministic in (compiler, options, source). *)

type attribution = {
  at_compiler : Simcomp.Compiler.compiler;
  at_bug_id : string;  (** the seeded bug behind the recorded crash *)
  at_input : string;   (** the triggering source, from the campaign *)
  at_verdict : verdict;
}

val attribute :
  ?engine:Engine.Ctx.t ->
  ?options:Simcomp.Compiler.options ->
  Campaign.t ->
  attribution list
(** Bisect every unique optimizer-stage crash a campaign recorded
    (deduplicated by compiler and crash key, sorted canonically — the
    result is identical at any job count).  Non-optimizer crashes are
    skipped: bisecting a front-end crash always yields an
    unattributable verdict. *)
