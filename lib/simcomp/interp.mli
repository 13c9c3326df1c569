(** Reference interpreter for the C subset (AST level).

    In the library its one caller is [Fuzzing.Mutation_score], which
    classifies each mutant by its observable behaviour (exit code and
    output) against the original program's.  MetaMut's validation loop
    type checks mutants and runs none.  The tests use it for
    seed-generator sanity checks and differential properties, and the
    examples to run programs.  Execution is bounded by a fuel counter,
    so the interpreter itself always terminates. *)

type value =
  | VInt of int64
  | VFlt of float
  | VStr of string
  | VPtr of cell option
  | VArr of cell array
  | VStruct of (string, cell) Hashtbl.t

and cell = value ref

type outcome = {
  o_exit : int;      (** process exit code (0-255) *)
  o_output : string; (** everything written via printf/puts/putchar *)
  o_aborted : bool;  (** abort(), trap (division by zero, OOB, null deref) *)
  o_hang : bool;     (** ran out of fuel *)
  o_stack_overflow : bool;
      (** call depth exceeded 200 frames (or the host stack overflowed):
          a crash (exit 139), distinct from fuel exhaustion *)
}

val run : ?fuel:int -> Cparse.Ast.tu -> outcome
(** Execute from [main] (default fuel 200_000 ticks).  Builtins include
    printf/sprintf/puts/putchar/strlen/strcpy/strcmp/memset/memcpy/
    abort/exit/malloc/free/rand/abs; [rand] is deterministic by design. *)

val run_src : ?fuel:int -> string -> (outcome, string) result
(** Parse then {!run}. *)
