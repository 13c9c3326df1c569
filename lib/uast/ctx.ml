(* Mutation context: the state a mutator sees.

   Mirrors the paper's Mutator base class (Fig. 6): the context bundles the
   translation unit under mutation, its semantic analysis (types of every
   expression), a deterministic RNG, and a unique-name supply. *)

open Cparse

type t = {
  rng : Rng.t;
  tu : Ast.tu;
  tc : Typecheck.result Lazy.t;
  name_base : int;
  mutable name_counter : int;
}

let create ~rng (tu : Ast.tu) : t =
  let tu, base =
    match Ast_ids.well_formed_max tu with
    | Some base -> (tu, base)
    | None ->
      let tu = Ast_ids.renumber tu in
      (tu, Ast_ids.max_id tu)
  in
  (* [tc] may outlive a compile of the same source (a fuzz iteration
     holds the context across several mutation attempts and compiles),
     so it must own its type table — never the compile arena's.  A
     renumbered unit has at most [base] expressions, and a [Hashtbl]
     grows only past two bindings per bucket, so [base / 2] buckets
     never resize. *)
  let tc = lazy (Typecheck.check ~types:(Hashtbl.create ((base / 2) + 1)) tu) in
  { rng; tu; tc; name_base = base; name_counter = base }

let reset_names ctx = ctx.name_counter <- ctx.name_base

(* Semantic type of an expression, as computed by the front-end.  [None]
   for nodes synthesised after the last renumbering. *)
let type_of ctx (e : Ast.expr) : Ast.ty option =
  Hashtbl.find_opt (Lazy.force ctx.tc).r_types e.eid

let type_of_exn ctx e =
  match type_of ctx e with
  | Some t -> t
  | None -> Ast.Tint (Ast.Iint, true)

(* μAST: generateUniqueName *)
let generate_unique_name ctx base =
  ctx.name_counter <- ctx.name_counter + 1;
  Fmt.str "%s_%d" base ctx.name_counter

(* μAST: randElement *)
let rand_element ctx xs = Rng.choose_opt ctx.rng xs

let rand_int ctx n = Rng.int ctx.rng n

let flip ctx p = Rng.flip ctx.rng p
