(** EMI-style wrong-code detection (extension beyond the paper's
    crash-oriented campaign, following its Orion/EMI related work).

    Compiles the same program at -O0 and at the target level, executes
    both IRs in the IR interpreter, and flags observable differences —
    exposing the silent miscompilations of [Simcomp.Bugdb.miscompiles]
    that never crash the compiler. *)

type mismatch = {
  mm_source : string;
  mm_options : Simcomp.Compiler.options;
  mm_reference : int * bool;  (** (exit code, trapped) at -O0 *)
  mm_observed : int * bool;   (** at the target level *)
}

val check_program :
  ?tree:Cparse.Ast.tu ->
  Simcomp.Compiler.compiler ->
  Simcomp.Compiler.options ->
  string ->
  mismatch option
(** Difference one program against its -O0 baseline; [None] when the
    program is outside the IR interpreter's subset or behaves equally.
    [tree], a tree the source is the printing of, is handed to both
    compiles (see {!Simcomp.Compiler.compile_ir}). *)

type report = { r_mismatches : mismatch list; r_checked : int }

val hunt :
  ?mutators:Mutators.Mutator.t list ->
  rng:Cparse.Rng.t ->
  compiler:Simcomp.Compiler.compiler ->
  seeds:string list ->
  iterations:int ->
  unit ->
  report
(** Mutate seeds with the corpus and difference every mutant
    (deduplicated by difference signature). *)
