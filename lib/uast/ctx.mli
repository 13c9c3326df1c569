(** Mutation context: the state a mutator sees.

    Mirrors the paper's [Mutator] base class (Fig. 6): the translation
    unit under mutation, its semantic analysis (types of every
    expression), a deterministic RNG, and a unique-name supply. *)

type t = {
  rng : Cparse.Rng.t;
  tu : Cparse.Ast.tu;
  tc : Cparse.Typecheck.result Lazy.t;
      (** forced by the first {!type_of}; a mutator that never asks for
          a type never runs the type checker.  Should the check raise,
          every force raises that exception. *)
  name_base : int;  (** [name_counter]'s value at creation (the max id) *)
  mutable name_counter : int;
}

val create : rng:Cparse.Rng.t -> Cparse.Ast.tu -> t
(** Renumbers the unit if its node ids are not well formed (one walk
    checks them and finds the max id).  The type checker does not run
    here: it runs on the first {!type_of}, on a table the context owns,
    and its result serves every later query.  Callers applying several
    mutators to the same unit should create one context and reuse it
    (see {!Mutators.Mutator.apply_ctx}), so the unit is checked at most
    once. *)

val reset_names : t -> unit
(** Rewind the unique-name supply to its creation state, so a reused
    context hands out the same names a fresh one would. *)

val type_of : t -> Cparse.Ast.expr -> Cparse.Ast.ty option
(** Semantic type of an expression as computed by the front-end; [None]
    for nodes synthesised after the last renumbering. *)

val type_of_exn : t -> Cparse.Ast.expr -> Cparse.Ast.ty
(** Like {!type_of} with an [int] fallback. *)

val generate_unique_name : t -> string -> string
(** μAST [generateUniqueName]: a fresh identifier built from a base. *)

val rand_element : t -> 'a list -> 'a option
(** μAST [randElement]. *)

val rand_int : t -> int -> int

val flip : t -> float -> bool
