(** EMI-style wrong-code detection (extension beyond the paper's
    crash-oriented campaign, following its Orion/EMI related work).

    Lowers a program once, executes it at -O0 and, optimized, at the
    target level in the IR interpreter, and flags observable
    differences — exposing the silent miscompilations of
    [Simcomp.Bugdb.miscompiles] that never crash the compiler. *)

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
    program does not compile, is outside the IR interpreter's subset or
    behaves equally.  The program is lowered once
    ({!Simcomp.Compiler.lower}): the lowered IR is the -O0 reference,
    and only when it has an observable behaviour is it optimized for
    the target.  [tree], a tree the source is the printing of, is
    handed to the lowering (see {!Simcomp.Compiler.lower}).
    @raise Invalid_argument if the options' [pass_list] names an
    unknown pass and the program compiles. *)

val run_ir : Simcomp.Ir.program -> (int * bool) option
(** The oracle's observation: {!Simcomp.Ir_interp.observable} at a
    fixed fuel of 1,000,000.  On a lowered program, the -O0 reference. *)

val observe :
  Simcomp.Compiler.compiler ->
  Simcomp.Compiler.options ->
  Simcomp.Ir.program * Simcomp.Features.ast ->
  (int * bool) option
(** Optimize a lowered program in place under the options
    ({!Simcomp.Compiler.optimize}) and observe the optimized program
    with {!run_ir}.  Pass an {!Simcomp.Ir.copy} to keep the lowered
    program for other levels. *)

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
