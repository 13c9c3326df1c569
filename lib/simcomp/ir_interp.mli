(** IR interpreter.

    Executes the register-machine IR produced by {!Lower}, before or
    after optimizer passes.  Together with the AST-level {!Interp} this
    enables differential testing: for a deterministic program, the AST
    semantics, the freshly lowered IR, and the optimized IR must agree —
    the optimizer-soundness property exercised by the test suite.

    Scope: the integer/float scalar subset with named slots and arrays.
    Programs outside the subset report [o_unsupported] rather than a
    wrong answer.

    Each {!run} first resolves the program — slot names, jump targets
    and callees to indices — and then executes the resolved form; the
    outcome is a function of the program and the fuel alone.

    {b Fuel.}  One unit is spent on every call, on every block entry
    (also when the jump target does not exist) and on every instruction,
    each before the thing it pays for runs; the run hangs when the fuel
    reaches zero.  A call nested more than 100 deep also hangs.

    {b Names.}  A call or a jump reaches the first function with that
    name, or the first block with that label.  Every name that is not a
    global has one cell per run, shared by all frames; a global is sized
    and initialized by its last declaration.  Call arguments are
    evaluated left to right, before the callee runs.

    {b Malformed IR} never raises: a read of a register outside the
    function's [fn_nregs + 1], a write to one, a jump to a missing label,
    a call to an unknown builtin and a function without blocks each
    report [o_unsupported] when execution reaches them. *)

exception Trap
exception Out_of_fuel
exception Unsupported of string

type outcome = {
  o_exit : int;              (** low 8 bits of [main]'s return value *)
  o_trapped : bool;          (** division by zero, OOB, null deref, abort *)
  o_hang : bool;             (** fuel exhausted *)
  o_unsupported : string option;
      (** the program used a feature outside the interpreter's subset *)
}

val run : ?fuel:int -> Ir.program -> outcome
(** Execute from [main] (default fuel 500_000). *)

val observable : ?fuel:int -> Ir.program -> (int * bool) option
(** The program's observable behaviour [(exit, trapped)], or [None] when
    the program hangs or falls outside the interpreter's subset.  The
    comparison key used by wrong-code detection and the per-pass
    differential check. *)
