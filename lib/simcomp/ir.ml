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

(* The printers append to the one buffer [program_to_string] makes
   rather than formatting a string per operand and per instruction:
   per-pass dumps print the whole program around every pass. *)
let add_int buf n = Buffer.add_string buf (Int.to_string n)
let add_reg buf r = Buffer.add_string buf "%r"; add_int buf r
let add_label buf l = Buffer.add_char buf 'L'; add_int buf l

let add_list buf sep add l =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; add buf x) l

let add_operand buf = function
  | Reg r -> add_reg buf r
  | Imm v -> Buffer.add_string buf (Int64.to_string v)
  | Fimm f -> Printf.bprintf buf "%g" f
  | Sym s -> Buffer.add_char buf '@'; Buffer.add_string buf s

let add_address buf a =
  Buffer.add_char buf '[';
  (match a with
  | Avar s -> Buffer.add_string buf s
  | Aindex (b, i, sz) ->
    Buffer.add_string buf b; Buffer.add_string buf " + "; add_operand buf i;
    Buffer.add_char buf '*'; add_int buf sz
  | Areg op -> add_operand buf op);
  Buffer.add_char buf ']'

let add_instr buf i =
  let str = Buffer.add_string buf in
  let def r text = add_reg buf r; str " = "; str text in
  match i with
  | Ibin (op, r, a, b) ->
    def r (Cparse.Pretty.binop_string op); str " "; add_operand buf a; str ", "; add_operand buf b
  | Iun (op, r, a) -> def r (Cparse.Pretty.unop_string op); str " "; add_operand buf a
  | Imov (r, a) -> def r ""; add_operand buf a
  | Icast (r, ty, a) -> def r "cast<"; str (Cparse.Pretty.ty_string ty); str "> "; add_operand buf a
  | Iload (r, addr) -> def r "load "; add_address buf addr
  | Istore (addr, v) -> str "store "; add_address buf addr; str ", "; add_operand buf v
  | Iaddr (r, addr) -> def r "addr "; add_address buf addr
  | Icall (r, f, args) ->
    Option.iter (fun r -> def r "") r;
    str "call "; str f; str "("; add_list buf ", " add_operand args; str ")"

let add_term buf t =
  let str = Buffer.add_string buf in
  match t with
  | Tret None -> str "ret"
  | Tret (Some op) -> str "ret "; add_operand buf op
  | Tjmp l -> str "jmp "; add_label buf l
  | Tbr (c, a, b) ->
    str "br "; add_operand buf c; str ", "; add_label buf a; str ", "; add_label buf b
  | Tswitch (op, cases, d) ->
    str "switch "; add_operand buf op; str " [";
    add_list buf "; " (fun buf (v, l) -> str (Int64.to_string v); str "->"; add_label buf l) cases;
    str "] default "; add_label buf d
  | Tunreachable -> str "unreachable"

let add_func buf f =
  let str = Buffer.add_string buf in
  str "func "; str f.fn_name; str "("; add_list buf ", " Buffer.add_string f.fn_params; str "):\n";
  List.iter
    (fun b ->
      add_label buf b.b_label; str ":\n";
      List.iter (fun i -> str "  "; add_instr buf i; str "\n") b.b_instrs;
      str "  "; add_term buf b.b_term; str "\n")
    f.fn_blocks

let program_to_string p =
  let buf = Buffer.create 4096 in
  add_list buf "\n" add_func p.p_funcs;
  Buffer.contents buf
