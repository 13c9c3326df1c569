(* The optimizer of the simulated compiler: a fixed list of passes run
   as a pipeline.

   Every pass has a name, a default placement (the lowest -O level that
   schedules it), and a [run] that mutates the IR in place and returns a
   change count.  Levels are named pipeline specs — ordered pass-name
   lists resolved against the pass list, GCC-passes.def style — so
   drivers can introspect the pipeline, disable passes, override the
   order outright ([pass_list]), and wrap each pass as it executes
   (spans, per-pass IR dumps, differential testing, culprit bisection).

   Default specs:
     -O1: constfold, simplify-cfg, dce
     -O2: + inline, strlen-opt, a second constfold
     -O3: + loop-opt (unrolling; the "vectorizer" of the GCC hang bug)

   Passes report coverage per decision, so the optimizer's reachable
   behaviour grows with input diversity. *)

open Ir

type pass = {
  pass_name : string;
  pass_since : int; (* default placement: lowest -O level that schedules it *)
  run : ?cov:Coverage.t -> program -> int; (* returns number of changes *)
}

let cov_event cov site a b =
  match cov with
  | Some cov -> Coverage.branch3 cov site a b
  | None -> ()

(* Every pass writes the blocks' instruction arrays in place (each
   block owns its array, see [Ir]): an instruction is stored back only
   when the pass rewrote it, and an array is replaced only when
   instructions are dropped.  The walks over blocks are top-level
   functions, not closures made per function, so a pass that changes
   nothing allocates nothing per block. *)

(* ------------------------------------------------------------------ *)
(* Constant folding + copy propagation (per block)                     *)
(* ------------------------------------------------------------------ *)

let eval_binop op (a : int64) (b : int64) : int64 option =
  let open Int64 in
  let bool_ x = if x then 1L else 0L in
  match (op : Cparse.Ast.binop) with
  | Add -> Some (add a b)
  | Sub -> Some (sub a b)
  | Mul -> Some (mul a b)
  | Div -> if equal b 0L then None else Some (div a b)
  | Mod -> if equal b 0L then None else Some (rem a b)
  | Shl ->
    let s = to_int b in
    if s < 0 || s > 63 then None else Some (shift_left a s)
  | Shr ->
    let s = to_int b in
    if s < 0 || s > 63 then None else Some (shift_right a s)
  | Lt -> Some (bool_ (compare a b < 0))
  | Gt -> Some (bool_ (compare a b > 0))
  | Le -> Some (bool_ (compare a b <= 0))
  | Ge -> Some (bool_ (compare a b >= 0))
  | Eq -> Some (bool_ (equal a b))
  | Ne -> Some (bool_ (not (equal a b)))
  | Band -> Some (logand a b)
  | Bxor -> Some (logxor a b)
  | Bor -> Some (logor a b)
  | Land -> Some (bool_ ((not (equal a 0L)) && not (equal b 0L)))
  | Lor -> Some (bool_ ((not (equal a 0L)) || not (equal b 0L)))

let eval_unop op (a : int64) : int64 =
  match (op : Cparse.Ast.unop) with
  | Neg -> Int64.neg a
  | Uplus -> a
  | Bitnot -> Int64.lognot a
  | Lognot -> if Int64.equal a 0L then 1L else 0L

(* Per-function pass state lives in the arena, in arrays indexed by
   register or by label.  A register outside [0, fn_nregs] has no cell
   and is refused, as the back-end's allocator refuses it. *)
let check_reg n r =
  if r < 0 || r > n then invalid_arg "Opt: register out of range"

(* constfold's per-block constant table: a register holds a constant
   while its stamp is the block's ([Scratch.cf_block]), and [cf_live]
   counts those registers, as the table's length did. *)
let[@inline] cf_mem (s : Scratch.t) n r =
  check_reg n r;
  Array.unsafe_get s.cf_stamp r = s.cf_block

let cf_set (s : Scratch.t) n r v =
  if not (cf_mem s n r) then begin
    s.cf_stamp.(r) <- s.cf_block;
    s.cf_live <- s.cf_live + 1
  end;
  Bytes.set_int64_ne s.cf_val (8 * r) v

let cf_remove (s : Scratch.t) n r =
  if cf_mem s n r then begin
    s.cf_stamp.(r) <- 0;
    s.cf_live <- s.cf_live - 1
  end

let subst (s : Scratch.t) n changes (op : operand) =
  match op with
  | Reg r when cf_mem s n r ->
    incr changes;
    imm (Bytes.get_int64_ne s.cf_val (8 * r))
  | _ -> op

let rec subst_list s n changes = function
  | [] -> []
  | x :: tl as l ->
    let x' = subst s n changes x in
    let tl' = subst_list s n changes tl in
    if x' == x && tl' == tl then l else x' :: tl'

let subst_addr s n changes (addr : address) =
  match addr with
  | Aindex (sl, op, sz) ->
    let op' = subst s n changes op in
    if op' == op then addr else Aindex (sl, op', sz)
  | Areg op ->
    let op' = subst s n changes op in
    if op' == op then addr else Areg op'
  | a -> a

let rec log2 x acc =
  if Int64.compare x 1L <= 0 then acc
  else log2 (Int64.shift_right_logical x 1) (acc + 1)

let fold_instr cov s n changes i =
  match i with
  | Ibin (bop, r, a, bb) -> (
    let a' = subst s n changes a and bb' = subst s n changes bb in
    match a', bb' with
    | Imm va, Imm vb -> (
      match eval_binop bop va vb with
      | Some v ->
        cf_set s n r v;
        cov_event cov 0x3000 (Lower.binop_hash_tag bop) 1;
        (* folded-value bucket: constants drive distinct value-range
           paths downstream *)
        let magnitude = log2 (Int64.abs v) 0 in
        cov_event cov 0x3001
          (Lower.binop_hash_tag bop land 0xf)
          ((2 * magnitude) + if Int64.compare v 0L < 0 then 1 else 0);
        incr changes;
        Imov (r, imm v)
      | None -> if a' == a && bb' == bb then i else Ibin (bop, r, a', bb'))
    | _ ->
      cov_event cov 0x3000 (Lower.binop_hash_tag bop) 0;
      if a' == a && bb' == bb then i else Ibin (bop, r, a', bb'))
  | Iun (uop, r, a) -> (
    match subst s n changes a with
    | Imm v ->
      let v = eval_unop uop v in
      cf_set s n r v;
      incr changes;
      Imov (r, imm v)
    | a' -> if a' == a then i else Iun (uop, r, a'))
  | Imov (r, a) -> (
    match subst s n changes a with
    | Imm v as a' ->
      cf_set s n r v;
      if a' == a then i else Imov (r, a')
    | a' -> if a' == a then i else Imov (r, a'))
  | Icast (r, ty, a) -> (
    match subst s n changes a with
    | Imm v ->
      (* integer truncations fold *)
      let v' =
        match ty with
        | Cparse.Ast.Tint (Ichar, true) ->
          Int64.of_int ((Int64.to_int v land 0xff) - (if Int64.to_int v land 0x80 <> 0 then 0x100 else 0))
        | Cparse.Ast.Tint (Ichar, false) ->
          Int64.of_int (Int64.to_int v land 0xff)
        | Cparse.Ast.Tbool -> if Int64.equal v 0L then 0L else 1L
        | _ -> v
      in
      cf_set s n r v';
      incr changes;
      Imov (r, imm v')
    | a' -> if a' == a then i else Icast (r, ty, a'))
  | Iload (r, addr) ->
    cf_remove s n r;
    let addr' = subst_addr s n changes addr in
    if addr' == addr then i else Iload (r, addr')
  | Istore (addr, v) ->
    let addr' = subst_addr s n changes addr in
    let v' = subst s n changes v in
    if addr' == addr && v' == v then i else Istore (addr', v')
  | Iaddr (r, _) ->
    cf_remove s n r;
    i
  | Icall (r, fn, args) ->
    (match r with Some r -> cf_remove s n r | None -> ());
    let args' = subst_list s n changes args in
    if args' == args then i else Icall (r, fn, args')

(* The first target of [v] among a switch's cases, or [d]. *)
let rec switch_target v d = function
  | [] -> d
  | (v', l) :: tl -> if Int64.equal v v' then l else switch_target v d tl

let fold_block cov (s : Scratch.t) n changes b =
  s.cf_block <- s.cf_block + 1;
  s.cf_live <- 0;
  let code = b.b_instrs in
  for k = 0 to Array.length code - 1 do
    let i = Array.unsafe_get code k in
    let i' = fold_instr cov s n changes i in
    if i' != i then code.(k) <- i'
  done;
  (* per-block optimization context: block size vs fold count *)
  let nb = Array.length code in
  let bucket =
    if nb <= 2 then 0 else if nb <= 6 then 1 else if nb <= 15 then 2
    else if nb <= 40 then 3 else 4
  in
  cov_event cov 0x3002 bucket (s.cf_live land 0x7);
  (* fold conditional branches on constants *)
  match b.b_term with
  | Tbr (Reg r, lt, lf) ->
    if cf_mem s n r then begin
      cov_event cov 0x3010 1 0;
      incr changes;
      b.b_term <- Tjmp (if Int64.equal (Bytes.get_int64_ne s.cf_val (8 * r)) 0L then lf else lt)
    end
  | Tbr (Imm v, lt, lf) ->
    incr changes;
    b.b_term <- Tjmp (if Int64.equal v 0L then lf else lt)
  | Tswitch (Imm v, cases, d) ->
    incr changes;
    b.b_term <- Tjmp (switch_target v d cases)
  | Tret (Some (Reg r)) ->
    if cf_mem s n r then b.b_term <- Tret (Some (imm (Bytes.get_int64_ne s.cf_val (8 * r))))
  | _ -> ()

let rec fold_blocks cov s n changes = function
  | [] -> ()
  | b :: tl ->
    fold_block cov s n changes b;
    fold_blocks cov s n changes tl

let const_fold_pass =
  let run ?cov (p : program) =
    let s = Scratch.get () in
    let changes = ref 0 in
    List.iter
      (fun f ->
        let n = f.fn_nregs in
        Scratch.regs_for s n;
        fold_blocks cov s n changes f.fn_blocks)
      p.p_funcs;
    !changes
  in
  { pass_name = "constfold"; pass_since = 1; run }

(* ------------------------------------------------------------------ *)
(* CFG simplification: drop unreachable blocks, thread trivial jumps   *)
(* ------------------------------------------------------------------ *)

(* [Scratch.lbl_mark] flags *)
let fwd_bit = 1
let reach_bit = 2

let[@inline] marked (s : Scratch.t) k bit = Char.code (Bytes.unsafe_get s.lbl_mark k) land bit <> 0

let mark (s : Scratch.t) k bit =
  Bytes.unsafe_set s.lbl_mark k (Char.unsafe_chr (Char.code (Bytes.unsafe_get s.lbl_mark k) lor bit))

(* Follow forwarding blocks from [l], counting each hop, until a label
   with no forwarding block or one this resolution already left. *)
let rec resolve_from (s : Scratch.t) changes stamp l =
  let k = l - s.lbl_lo in
  if k < 0 || k >= s.lbl_span || not (marked s k fwd_bit) || s.lbl_hop.(k) = stamp then l
  else begin
    s.lbl_hop.(k) <- stamp;
    incr changes;
    resolve_from s changes stamp s.lbl_fwd.(k)
  end

let resolve (s : Scratch.t) changes l =
  s.hop_stamp <- s.hop_stamp + 1;
  resolve_from s changes s.hop_stamp l

let rec resolve_cases s changes = function
  | [] -> []
  | ((v, l) as case) :: tl as cases ->
    let l' = resolve s changes l in
    let case' = if l' = l then case else (v, l') in
    let tl' = resolve_cases s changes tl in
    if case' == case && tl' == tl then cases else case' :: tl'

let thread_term s changes = function
  | Tjmp l as t ->
    let l' = resolve s changes l in
    if l' = l then t else Tjmp l'
  | Tbr (c, a, b') as t ->
    let a' = resolve s changes a in
    let b'' = resolve s changes b' in
    if a' = a && b'' = b' then t else Tbr (c, a', b'')
  | Tswitch (c, cases, d) as t ->
    let cases' = resolve_cases s changes cases in
    let d' = resolve s changes d in
    if cases' == cases && d' = d then t else Tswitch (c, cases', d')
  | t -> t

(* Mark [l] reachable and, the first time, the successors of the first
   block with that label.  A label with no block has nothing to mark. *)
let rec visit (s : Scratch.t) l =
  let k = l - s.lbl_lo in
  if k >= 0 && k < s.lbl_span && not (marked s k reach_bit) then begin
    mark s k reach_bit;
    let i = s.lbl_first.(k) in
    if i >= 0 then
      match s.lbl_blocks.(i).b_term with
      | Tret _ | Tunreachable -> ()
      | Tjmp l -> visit s l
      | Tbr (_, a, b) ->
        visit s a;
        visit s b
      | Tswitch (_, cases, d) ->
        visit s d;
        visit_cases s cases
  end

and visit_cases s = function
  | [] -> ()
  | (_, l) :: tl ->
    visit s l;
    visit_cases s tl

(* Record the forwarding blocks: empty, ending in a jump elsewhere; the
   last one with a label wins. *)
let rec note_forwards (s : Scratch.t) = function
  | [] -> ()
  | b :: tl ->
    (match b.b_term with
    | Tjmp l when Array.length b.b_instrs = 0 && l <> b.b_label ->
      let k = b.b_label - s.lbl_lo in
      s.lbl_fwd.(k) <- l;
      mark s k fwd_bit
    | _ -> ());
    note_forwards s tl

let rec thread_blocks s changes = function
  | [] -> ()
  | b :: tl ->
    let t = b.b_term in
    let t' = thread_term s changes t in
    if t' != t then b.b_term <- t';
    thread_blocks s changes tl

(* The reachable blocks; the list itself when every block is. *)
let rec keep_reachable (s : Scratch.t) = function
  | [] -> []
  | b :: tl as l ->
    let tl' = keep_reachable s tl in
    if marked s (b.b_label - s.lbl_lo) reach_bit then if tl' == tl then l else b :: tl'
    else tl'

let simplify_cfg_pass =
  let run ?cov (p : program) =
    let s = Scratch.get () in
    let changes = ref 0 in
    List.iter
      (fun f ->
        match f.fn_blocks with
        | [] -> ()
        | entry :: _ ->
          ignore (Scratch.index_labels s f);
          Bytes.fill s.lbl_mark 0 s.lbl_span '\000';
          (* thread jumps to empty forwarding blocks *)
          note_forwards s f.fn_blocks;
          thread_blocks s changes f.fn_blocks;
          (* reachability *)
          visit s entry.b_label;
          Scratch.release_blocks s;
          let before = List.length f.fn_blocks in
          f.fn_blocks <- keep_reachable s f.fn_blocks;
          let removed = before - List.length f.fn_blocks in
          if removed > 0 then begin
            cov_event cov 0x3100 removed 0;
            changes := !changes + removed
          end)
      p.p_funcs;
    !changes
  in
  { pass_name = "simplify-cfg"; pass_since = 1; run }

(* ------------------------------------------------------------------ *)
(* Dead code elimination (pure instrs with unused destinations)        *)
(* ------------------------------------------------------------------ *)

let rec mark_blocks mark = function
  | [] -> ()
  | b :: tl ->
    let code = b.b_instrs in
    for k = 0 to Array.length code - 1 do
      iter_uses mark (Array.unsafe_get code k)
    done;
    iter_term_regs mark b.b_term;
    mark_blocks mark tl

(* A pure instruction whose destination no instruction reads. *)
let dead used n i =
  let r = dest_reg i in
  r >= 0 && is_pure_instr i
  && (check_reg n r;
      Bytes.unsafe_get used r = '\000')

(* Drop [b]'s dead instructions into a fresh exact-size array; returns
   how many were dropped. *)
let sweep_block used n b =
  let code = b.b_instrs in
  let len = Array.length code in
  let removed = ref 0 in
  for k = 0 to len - 1 do
    if dead used n (Array.unsafe_get code k) then incr removed
  done;
  if !removed > 0 then begin
    let kept = Array.make (len - !removed) (Array.unsafe_get code 0) in
    let j = ref 0 in
    for k = 0 to len - 1 do
      let i = Array.unsafe_get code k in
      if not (dead used n i) then begin
        kept.(!j) <- i;
        incr j
      end
    done;
    b.b_instrs <- kept
  end;
  !removed

let rec sweep_blocks cov used n changes = function
  | [] -> ()
  | b :: tl ->
    let removed = sweep_block used n b in
    if removed > 0 then begin
      cov_event cov 0x3200 removed 0;
      changes := !changes + removed
    end;
    sweep_blocks cov used n changes tl

let dce_pass =
  let run ?cov (p : program) =
    let s = Scratch.get () in
    let changes = ref 0 in
    List.iter
      (fun f ->
        let n = f.fn_nregs in
        Scratch.regs_for s n;
        let used = s.Scratch.used in
        Bytes.fill used 0 (max 0 (n + 1)) '\000';
        mark_blocks
          (fun r ->
            check_reg n r;
            Bytes.unsafe_set used r '\001')
          f.fn_blocks;
        sweep_blocks cov used n changes f.fn_blocks)
      p.p_funcs;
    !changes
  in
  { pass_name = "dce"; pass_since = 1; run }

(* ------------------------------------------------------------------ *)
(* Inlining of small leaf functions                                    *)
(* ------------------------------------------------------------------ *)

(* The constant operand [name]'s function returns, first match. *)
let rec const_of name = function
  | [] -> None
  | (fn, v) :: tl -> if String.equal fn name then Some v else const_of name tl

let inline_block cov const_fns changes b =
  let code = b.b_instrs in
  for k = 0 to Array.length code - 1 do
    match Array.unsafe_get code k with
    | Icall (Some r, fn, _) -> (
      match const_of fn const_fns with
      | Some op ->
        incr changes;
        cov_event cov 0x3300 (Lower.name_hash fn land 0xff) 0;
        code.(k) <- Imov (r, op)
      | None -> ())
    | _ -> ()
  done

let inline_pass =
  let run ?cov (p : program) =
    (* inline calls to functions that are a single block with <= 4 instrs,
       no calls, returning a constant or a parameter load: replace the
       call by a move of the return operand when it is an Imm. *)
    let changes = ref 0 in
    let returns_const f =
      (* entry block returns a constant immediately (trailing unreachable
         blocks from lowering are ignored) *)
      match f.fn_blocks with
      | { b_term = Tret (Some (Imm _ as op)); b_instrs; _ } :: _ when Array.length b_instrs = 0 ->
        Some op
      | _ -> None
    in
    let const_fns =
      List.filter_map
        (fun f -> Option.map (fun op -> (f.fn_name, op)) (returns_const f))
        p.p_funcs
    in
    (match const_fns with
    | [] -> ()
    | _ ->
      List.iter
        (fun f -> List.iter (inline_block cov const_fns changes) f.fn_blocks)
        p.p_funcs);
    !changes
  in
  { pass_name = "inline"; pass_since = 2; run }

(* ------------------------------------------------------------------ *)
(* strlen/sprintf optimization (the GCC strlen-pass analogue)          *)
(* ------------------------------------------------------------------ *)

let rec strlen_blocks cov changes = function
  | [] -> ()
  | b :: tl ->
    let code = b.b_instrs in
    for k = 0 to Array.length code - 1 do
      match Array.unsafe_get code k with
      | Icall (Some r, "sprintf", [ _; Sym fmt; src ]) when String.length fmt > 4 ->
        (* the return value of sprintf(dst, "%s", src) is strlen(src):
           rewrite when the format is a literal *)
        incr changes;
        cov_event cov 0x3400 1 0;
        code.(k) <- Icall (Some r, "strlen", [ src ])
      | _ -> ()
    done;
    strlen_blocks cov changes tl

let strlen_pass =
  let run ?cov (p : program) =
    let changes = ref 0 in
    List.iter (fun f -> strlen_blocks cov changes f.fn_blocks) p.p_funcs;
    !changes
  in
  { pass_name = "strlen-opt"; pass_since = 2; run }

(* ------------------------------------------------------------------ *)
(* Loop optimization: trip-count analysis + full unrolling             *)
(* ------------------------------------------------------------------ *)

(* Detect single-block counted loops of the canonical shape produced by
   lowering for loops, and fully unroll small trip counts. *)
(* Find back edges: a block whose terminator jumps to a dominator,
   approximated by "jumps to an earlier label". *)
let rec find_loops cov (s : Scratch.t) changes = function
  | [] -> ()
  | b :: tl ->
    (match b.b_term with
    | Tjmp l when l < b.b_label ->
      cov_event cov 0x3500 1 0;
      (* loop header found; attempt trip-count estimate: header must end
         in Tbr (Reg r, body, exit) where r compares a slot against an
         Imm *)
      let i = Scratch.block_index s l in
      if i >= 0 then begin
        let header = s.lbl_blocks.(i) in
        let code = header.b_instrs in
        let last = Array.length code - 1 in
        match header.b_term with
        | Tbr (Reg r, _, _) when last >= 0 -> (
          match Array.unsafe_get code last with
          | Ibin ((Lt | Gt | Le | Ge), r', Reg _, Imm bound) when r = r' ->
            cov_event cov 0x3510 (Int64.to_int (Int64.logand bound 63L)) 0;
            changes := !changes + 1
          | _ -> cov_event cov 0x3511 0 0)
        | _ -> cov_event cov 0x3511 0 0
      end
    | _ -> ());
    find_loops cov s changes tl

let loop_pass =
  let run ?cov (p : program) =
    let s = Scratch.get () in
    let changes = ref 0 in
    List.iter
      (fun f ->
        ignore (Scratch.index_labels s f);
        find_loops cov s changes f.fn_blocks;
        Scratch.release_blocks s)
      p.p_funcs;
    !changes
  in
  { pass_name = "loop-opt"; pass_since = 3; run }

(* ------------------------------------------------------------------ *)
(* Pass list                                                           *)
(* ------------------------------------------------------------------ *)

(* The canonical pass enumeration order: it feeds
   [Compiler.random_options]' per-pass coin flips, so reordering it
   reshuffles every seeded option stream. Append new passes at the end. *)
let passes =
  [
    const_fold_pass; simplify_cfg_pass; dce_pass; inline_pass; strlen_pass;
    loop_pass;
  ]

let all_passes () = passes
let pass_names () = List.map (fun p -> p.pass_name) passes

let find_pass name =
  List.find_opt (fun p -> String.equal p.pass_name name) passes

let resolve name =
  match find_pass name with
  | Some p -> p
  | None -> invalid_arg ("Opt: unknown pass " ^ name)

(* ------------------------------------------------------------------ *)
(* Pipeline specs                                                      *)
(* ------------------------------------------------------------------ *)

type spec = { spec_name : string; spec_level : int; spec_passes : string list }

let specs =
  [
    { spec_name = "O0"; spec_level = 0; spec_passes = [] };
    {
      spec_name = "O1";
      spec_level = 1;
      spec_passes = [ "constfold"; "simplify-cfg"; "dce" ];
    };
    {
      spec_name = "O2";
      spec_level = 2;
      spec_passes =
        [ "constfold"; "simplify-cfg"; "inline"; "strlen-opt"; "constfold"; "dce" ];
    };
    {
      spec_name = "O3";
      spec_level = 3;
      spec_passes =
        [
          "constfold"; "simplify-cfg"; "inline"; "strlen-opt"; "loop-opt";
          "constfold"; "simplify-cfg"; "dce";
        ];
    };
  ]

(* Every spec entry must name a pass and respect that pass's default
   placement; fail loudly at module init otherwise. *)
let () =
  List.iter
    (fun s ->
      List.iter
        (fun name ->
          let p = resolve name in
          if s.spec_level < p.pass_since then
            invalid_arg
              (Printf.sprintf "Opt: spec %s schedules %s below -O%d"
                 s.spec_name name p.pass_since))
        s.spec_passes)
    specs

let spec_for_level level =
  let level = if level <= 0 then 0 else if level >= 3 then 3 else level in
  List.find (fun s -> s.spec_level = level) specs

let planned ?pass_list ~level ~disabled () : string list =
  let base =
    match pass_list with
    | Some names ->
      List.iter (fun n -> ignore (resolve n)) names;
      names
    | None -> (spec_for_level level).spec_passes
  in
  List.filter (fun n -> not (List.mem n disabled)) base

let run_pipeline ?cov ?instrument ?pass_list ~level ~disabled (p : program) :
    (string * int) list =
  List.map
    (fun name ->
      let pass = resolve name in
      let execute () = pass.run ?cov p in
      (name, match instrument with Some f -> f pass execute | None -> execute ()))
    (planned ?pass_list ~level ~disabled ())
