(* Three-address intermediate representation for the simulated compiler.

   Deliberately GCC-GIMPLE-flavoured: named memory slots for variables,
   virtual registers for temporaries, basic blocks with explicit
   terminators.  The optimizer passes (opt_*.ml) and back-end (backend.ml)
   operate on this form. *)

type reg = int
type label = int

type operand =
  | Reg of reg
  | Imm of int64
  | Fimm of float
  | Sym of string          (* address of a named slot / function / string *)

(* Memory addressing. *)
type address =
  | Avar of string                     (* named scalar slot *)
  | Aindex of string * operand * int   (* base slot, index, element size *)
  | Areg of operand                    (* computed pointer *)

type instr =
  | Ibin of Cparse.Ast.binop * reg * operand * operand
  | Iun of Cparse.Ast.unop * reg * operand
  | Imov of reg * operand
  | Icast of reg * Cparse.Ast.ty * operand
  | Iload of reg * address
  | Istore of address * operand
  | Iaddr of reg * address             (* address-of *)
  | Icall of reg option * string * operand list

type terminator =
  | Tret of operand option
  | Tjmp of label
  | Tbr of operand * label * label     (* cond, then, else *)
  | Tswitch of operand * (int64 * label) list * label
  | Tunreachable

type block = {
  b_label : label;
  mutable b_instrs : instr list;
  mutable b_term : terminator;
}

type func = {
  fn_name : string;
  fn_params : string list;
  fn_ret_void : bool;
  mutable fn_blocks : block list;      (* entry first *)
  mutable fn_nregs : int;
}

type global_slot = {
  g_name : string;
  g_size : int;                        (* element count: 1 for scalars *)
  g_init : int64 option;
  g_finit : float option;             (* initializer for float slots *)
  g_float : bool;
}

type program = {
  p_funcs : func list;
  p_globals : global_slot list;
}

(* ------------------------------------------------------------------ *)
(* Utilities                                                           *)
(* ------------------------------------------------------------------ *)

let successors term =
  match term with
  | Tret _ | Tunreachable -> []
  | Tjmp l -> [ l ]
  | Tbr (_, a, b) -> [ a; b ]
  | Tswitch (_, cases, d) -> d :: List.map snd cases

let instr_count func =
  List.fold_left (fun acc b -> acc + List.length b.b_instrs + 1) 0 func.fn_blocks

let program_size p = List.fold_left (fun acc f -> acc + instr_count f) 0 p.p_funcs

(* A copy that the optimizer can rewrite without touching [p].  Passes
   mutate only the mutable fields of blocks and functions; everything
   they hold (instruction lists, terminators, globals) is immutable and
   can be shared, so fresh block and function records are enough. *)
let copy p =
  {
    p with
    p_funcs =
      List.map
        (fun f ->
          { f with fn_blocks = List.map (fun b -> { b with b_instrs = b.b_instrs }) f.fn_blocks })
        p.p_funcs;
  }

(* Destination register of an instruction, if any. *)
let dest = function
  | Ibin (_, r, _, _) | Iun (_, r, _) | Imov (r, _) | Icast (r, _, _)
  | Iload (r, _) | Iaddr (r, _) -> Some r
  | Icall (r, _, _) -> r
  | Istore _ -> None

(* Register operands read by an instruction. *)
let uses instr =
  let of_op = function Reg r -> [ r ] | Imm _ | Fimm _ | Sym _ -> [] in
  let of_addr = function
    | Avar _ -> []
    | Aindex (_, op, _) -> of_op op
    | Areg op -> of_op op
  in
  match instr with
  | Ibin (_, _, a, b) -> of_op a @ of_op b
  | Iun (_, _, a) | Imov (_, a) | Icast (_, _, a) -> of_op a
  | Iload (_, addr) -> of_addr addr
  | Iaddr (_, addr) -> of_addr addr
  | Istore (addr, v) -> of_addr addr @ of_op v
  | Icall (_, _, args) -> List.concat_map of_op args

let uses_of_term = function
  | Tret (Some op) | Tbr (op, _, _) | Tswitch (op, _, _) -> (
    match op with Reg r -> [ r ] | _ -> [])
  | Tret None | Tjmp _ | Tunreachable -> []

(* Allocation-free visit of an instruction's register operands, in
   exactly [dest]-then-[uses] order (liveness scans run this per
   instruction; the list-building spellings above cost a cons per
   operand). *)
let iter_op f = function Reg r -> f r | Imm _ | Fimm _ | Sym _ -> ()

let iter_addr f = function
  | Avar _ -> ()
  | Aindex (_, op, _) | Areg op -> iter_op f op

let iter_regs f = function
  | Ibin (_, r, a, b) ->
    f r;
    iter_op f a;
    iter_op f b
  | Iun (_, r, a) | Imov (r, a) | Icast (r, _, a) ->
    f r;
    iter_op f a
  | Iload (r, addr) | Iaddr (r, addr) ->
    f r;
    iter_addr f addr
  | Istore (addr, v) ->
    iter_addr f addr;
    iter_op f v
  | Icall (r, _, args) ->
    (match r with Some r -> f r | None -> ());
    List.iter (iter_op f) args

let iter_term_regs f = function
  | Tret (Some op) | Tbr (op, _, _) | Tswitch (op, _, _) -> iter_op f op
  | Tret None | Tjmp _ | Tunreachable -> ()

let iter_uses f = function
  | Ibin (_, _, a, b) ->
    iter_op f a;
    iter_op f b
  | Iun (_, _, a) | Imov (_, a) | Icast (_, _, a) -> iter_op f a
  | Iload (_, addr) | Iaddr (_, addr) -> iter_addr f addr
  | Istore (addr, v) ->
    iter_addr f addr;
    iter_op f v
  | Icall (_, _, args) -> List.iter (iter_op f) args

(* [dest] without the option box: -1 when the instruction has none. *)
let dest_reg = function
  | Ibin (_, r, _, _) | Iun (_, r, _) | Imov (r, _) | Icast (r, _, _)
  | Iload (r, _) | Iaddr (r, _) -> r
  | Icall (Some r, _, _) -> r
  | Icall (None, _, _) | Istore _ -> -1

(* Side-effect-free instructions are candidates for dead-code elimination. *)
let is_pure_instr = function
  | Ibin _ | Iun _ | Imov _ | Icast _ | Iload _ | Iaddr _ -> true
  | Istore _ | Icall _ -> false

(* ------------------------------------------------------------------ *)
(* Printing (for -emit-ir debugging and tests)                         *)
(* ------------------------------------------------------------------ *)

let operand_to_string = function
  | Reg r -> Fmt.str "%%r%d" r
  | Imm v -> Int64.to_string v
  | Fimm f -> Fmt.str "%g" f
  | Sym s -> "@" ^ s

let address_to_string = function
  | Avar s -> "[" ^ s ^ "]"
  | Aindex (b, i, sz) -> Fmt.str "[%s + %s*%d]" b (operand_to_string i) sz
  | Areg op -> Fmt.str "[%s]" (operand_to_string op)

let instr_to_string = function
  | Ibin (op, r, a, b) ->
    Fmt.str "%%r%d = %s %s, %s" r
      (Cparse.Pretty.binop_string op)
      (operand_to_string a) (operand_to_string b)
  | Iun (op, r, a) ->
    Fmt.str "%%r%d = %s %s" r (Cparse.Pretty.unop_string op) (operand_to_string a)
  | Imov (r, a) -> Fmt.str "%%r%d = %s" r (operand_to_string a)
  | Icast (r, ty, a) ->
    Fmt.str "%%r%d = cast<%s> %s" r (Cparse.Pretty.ty_string ty)
      (operand_to_string a)
  | Iload (r, addr) -> Fmt.str "%%r%d = load %s" r (address_to_string addr)
  | Istore (addr, v) -> Fmt.str "store %s, %s" (address_to_string addr) (operand_to_string v)
  | Iaddr (r, addr) -> Fmt.str "%%r%d = addr %s" r (address_to_string addr)
  | Icall (r, f, args) ->
    Fmt.str "%scall %s(%s)"
      (match r with Some r -> Fmt.str "%%r%d = " r | None -> "")
      f
      (String.concat ", " (List.map operand_to_string args))

let term_to_string = function
  | Tret None -> "ret"
  | Tret (Some op) -> "ret " ^ operand_to_string op
  | Tjmp l -> Fmt.str "jmp L%d" l
  | Tbr (c, a, b) -> Fmt.str "br %s, L%d, L%d" (operand_to_string c) a b
  | Tswitch (op, cases, d) ->
    Fmt.str "switch %s [%s] default L%d" (operand_to_string op)
      (String.concat "; " (List.map (fun (v, l) -> Fmt.str "%Ld->L%d" v l) cases))
      d
  | Tunreachable -> "unreachable"

let func_to_string f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Fmt.str "func %s(%s):\n" f.fn_name (String.concat ", " f.fn_params));
  List.iter
    (fun b ->
      Buffer.add_string buf (Fmt.str "L%d:\n" b.b_label);
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ instr_to_string i ^ "\n"))
        b.b_instrs;
      Buffer.add_string buf ("  " ^ term_to_string b.b_term ^ "\n"))
    f.fn_blocks;
  Buffer.contents buf

let program_to_string p =
  String.concat "\n" (List.map func_to_string p.p_funcs)
