(** The optimizer of the simulated compiler: a fixed list of passes run
    as a pipeline.

    Each pass has a name, a default placement (the lowest [-O] level
    that schedules it), and a [run] over the IR. Optimization levels
    are named pipeline {e specs} — ordered pass-name lists resolved
    against the pass list — so drivers can introspect the pipeline,
    disable passes, override the order, and wrap each pass as it
    executes (spans, IR dumps, differential testing, culprit
    bisection).

    Default specs:
    {ul
    {- [-O1]: constfold, simplify-cfg, dce}
    {- [-O2]: + inline, strlen-opt, a second constfold}
    {- [-O3]: + loop-opt (the "vectorizer" of the GCC #111820 hang)}}

    Passes mutate the IR in place, report branch coverage per decision,
    and are semantics-preserving (verified by differential tests against
    {!Ir_interp}). *)

type pass = {
  pass_name : string;
  pass_since : int;
      (** default placement: lowest [-O] level that schedules the pass *)
  run : ?cov:Coverage.t -> Ir.program -> int;  (** returns changes made *)
}

val const_fold_pass : pass
(** Per-block constant folding and copy propagation; folds constant
    branches, switches, and returns. *)

val simplify_cfg_pass : pass
(** Jump threading through empty forwarding blocks and unreachable-block
    elimination. *)

val dce_pass : pass
(** Removes pure instructions whose destinations are never read. *)

val inline_pass : pass
(** Folds calls to functions that immediately return a constant. *)

val strlen_pass : pass
(** The GCC strlen-pass analogue: rewrites the result of
    [sprintf(dst, "%s", src)] into [strlen(src)]. *)

val loop_pass : pass
(** Back-edge detection and trip-count analysis (coverage-bearing; the
    stage where the vectorizer-hang bug is keyed). *)

(** {1 Pass list} *)

val all_passes : unit -> pass list
(** Every pass, in the canonical enumeration order (option fuzzing draws
    one coin per pass in this order). *)

val pass_names : unit -> string list

val find_pass : string -> pass option

(** {1 Pipeline specs} *)

type spec = { spec_name : string; spec_level : int; spec_passes : string list }

val specs : spec list
(** One spec per optimization level, [O0] through [O3]. *)

val spec_for_level : int -> spec
(** Clamps the level into [0, 3]. *)

val planned :
  ?pass_list:string list -> level:int -> disabled:string list -> unit ->
  string list
(** The ordered pass names the driver will execute: [pass_list] when
    given (an explicit pipeline override), else the spec for [level],
    minus [disabled].
    @raise Invalid_argument if [pass_list] names an unknown pass. *)

val run_pipeline :
  ?cov:Coverage.t ->
  ?instrument:(pass -> (unit -> int) -> int) ->
  ?pass_list:string list ->
  level:int ->
  disabled:string list ->
  Ir.program ->
  (string * int) list
(** Run the planned pipeline over the program; returns [(pass, changes)]
    per executed pass. [instrument], the one per-pass hook, is handed
    each pass and the thunk that runs it, and returns the thunk's change
    count: around the call it can time the pass (spans), and after it
    read or rewrite the program (metrics, IR snapshots, differential
    checks, injected miscompilations).
    @raise Invalid_argument if [pass_list] names an unknown pass. *)
