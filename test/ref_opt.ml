(* Four optimizer passes as they were before their per-function state
   moved into label- and register-indexed arena arrays, kept verbatim as
   the reference for [Opt]'s constfold, simplify-cfg, dce and loop-opt
   (test_simcomp's "opt-reference" group).  The only edits: the tables
   the arena used to lend are created here, [block_of], deleted from
   [Ir], is defined here, and the passes still work on instruction
   lists: they convert a block's array to a list where they read it and
   back where they write it. *)

open Simcomp.Ir

let cov_event cov site a b =
  match cov with
  | Some cov -> Simcomp.Coverage.branch3 cov site a b
  | None -> ()

let block_of func label = List.find_opt (fun b -> b.b_label = label) func.fn_blocks

(* [List.map] that preserves physical identity when [f] changes nothing:
   passes run over every block of every compile, and most visits change
   no instruction, so rebuilding structurally identical lists was pure
   allocation.  Recursion depth is the block size (bounded by function
   length; fine for generated programs). *)
let rec map_same f = function
  | [] -> []
  | x :: tl as l ->
    let x' = f x in
    let tl' = map_same f tl in
    if x' == x && tl' == tl then l else x' :: tl'

(* [List.filter] with the same identity-preserving contract. *)
let rec filter_same pred = function
  | [] -> []
  | x :: tl as l ->
    let tl' = filter_same pred tl in
    if pred x then if tl' == tl then l else x :: tl' else tl'

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

let const_fold ?cov (p : program) =
    let changes = ref 0 in
    let consts = Hashtbl.create 64 in
    List.iter
      (fun f ->
        List.iter
          (fun b ->
            Hashtbl.clear consts;
            let subst (op : operand) =
              match op with
              | Reg r -> (
                match Hashtbl.find_opt consts r with
                | Some v ->
                  incr changes;
                  Imm v
                | None -> op)
              | _ -> op
            in
            let subst_addr (addr : address) =
              match addr with
              | Aindex (s, op, sz) ->
                let op' = subst op in
                if op' == op then addr else Aindex (s, op', sz)
              | Areg op ->
                let op' = subst op in
                if op' == op then addr else Areg op'
              | a -> a
            in
            b.b_instrs <- Array.of_list @@
              map_same
                (fun i ->
                  match i with
                  | Ibin (bop, r, a, bb) -> (
                    let a' = subst a and bb' = subst bb in
                    match a', bb' with
                    | Imm va, Imm vb -> (
                      match eval_binop bop va vb with
                      | Some v ->
                        Hashtbl.replace consts r v;
                        cov_event cov 0x3000 (Hashtbl.hash bop land 0xff) 1;
                        (* folded-value bucket: constants drive distinct
                           value-range paths downstream *)
                        let magnitude =
                          let abs = Int64.abs v in
                          let rec log2 x acc =
                            if Int64.compare x 1L <= 0 then acc
                            else log2 (Int64.shift_right_logical x 1) (acc + 1)
                          in
                          log2 abs 0
                        in
                        cov_event cov 0x3001
                          (Hashtbl.hash bop land 0xf)
                          ((2 * magnitude) + if Int64.compare v 0L < 0 then 1 else 0);
                        incr changes;
                        Imov (r, Imm v)
                      | None ->
                        if a' == a && bb' == bb then i else Ibin (bop, r, a', bb'))
                    | _ ->
                      cov_event cov 0x3000 (Hashtbl.hash bop land 0xff) 0;
                      if a' == a && bb' == bb then i else Ibin (bop, r, a', bb'))
                  | Iun (uop, r, a) -> (
                    match subst a with
                    | Imm v ->
                      let v = eval_unop uop v in
                      Hashtbl.replace consts r v;
                      incr changes;
                      Imov (r, Imm v)
                    | a' -> if a' == a then i else Iun (uop, r, a'))
                  | Imov (r, a) -> (
                    match subst a with
                    | Imm v as a' ->
                      Hashtbl.replace consts r v;
                      if a' == a then i else Imov (r, a')
                    | a' -> if a' == a then i else Imov (r, a'))
                  | Icast (r, ty, a) -> (
                    match subst a with
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
                      Hashtbl.replace consts r v';
                      incr changes;
                      Imov (r, Imm v')
                    | a' -> if a' == a then i else Icast (r, ty, a'))
                  | Iload (r, addr) ->
                    Hashtbl.remove consts r;
                    let addr' = subst_addr addr in
                    if addr' == addr then i else Iload (r, addr')
                  | Istore (addr, v) ->
                    let addr' = subst_addr addr in
                    let v' = subst v in
                    if addr' == addr && v' == v then i else Istore (addr', v')
                  | Iaddr (r, _) ->
                    Hashtbl.remove consts r;
                    i
                  | Icall (r, fn, args) ->
                    Option.iter (Hashtbl.remove consts) r;
                    let args' = map_same subst args in
                    if args' == args then i else Icall (r, fn, args'))
                (Array.to_list b.b_instrs);
            (* per-block optimization context: block size vs fold count *)
            let nb = Array.length b.b_instrs in
            let bucket n =
              if n <= 2 then 0 else if n <= 6 then 1 else if n <= 15 then 2
              else if n <= 40 then 3 else 4
            in
            cov_event cov 0x3002 (bucket nb) (Hashtbl.length consts land 0x7);
            (* fold conditional branches on constants *)
            (match b.b_term with
            | Tbr (Reg r, lt, lf) -> (
              match Hashtbl.find_opt consts r with
              | Some v ->
                cov_event cov 0x3010 1 0;
                incr changes;
                b.b_term <- Tjmp (if Int64.equal v 0L then lf else lt)
              | None -> ())
            | Tbr (Imm v, lt, lf) ->
              incr changes;
              b.b_term <- Tjmp (if Int64.equal v 0L then lf else lt)
            | Tswitch (Imm v, cases, d) ->
              incr changes;
              let target =
                match List.assoc_opt v cases with Some l -> l | None -> d
              in
              b.b_term <- Tjmp target
            | Tret (Some (Reg r)) -> (
              match Hashtbl.find_opt consts r with
              | Some v -> b.b_term <- Tret (Some (Imm v))
              | None -> ())
            | _ -> ()))
          f.fn_blocks)
      p.p_funcs;
    !changes

(* ------------------------------------------------------------------ *)
(* CFG simplification: drop unreachable blocks, thread trivial jumps   *)
(* ------------------------------------------------------------------ *)

let simplify_cfg ?cov (p : program) =
    let changes = ref 0 in
    let forward = Hashtbl.create 64 and reach = Hashtbl.create 64 in
    List.iter
      (fun f ->
        match f.fn_blocks with
        | [] -> ()
        | entry :: _ ->
          (* thread jumps to empty forwarding blocks; arena tables are
             only probed (find/mem), never iterated, so recycling is
             result-neutral *)
          Hashtbl.clear forward;
          List.iter
            (fun b ->
              match Array.to_list b.b_instrs, b.b_term with
              | [], Tjmp l when l <> b.b_label -> Hashtbl.replace forward b.b_label l
              | _ -> ())
            f.fn_blocks;
          let rec resolve seen l =
            if List.mem l seen then l
            else
              match Hashtbl.find_opt forward l with
              | Some l' ->
                incr changes;
                resolve (l :: seen) l'
              | None -> l
          in
          List.iter
            (fun b ->
              b.b_term <-
                (match b.b_term with
                | Tjmp l as t ->
                  let l' = resolve [] l in
                  if l' = l then t else Tjmp l'
                | Tbr (c, a, b') as t ->
                  let a' = resolve [] a and b'' = resolve [] b' in
                  if a' = a && b'' = b' then t else Tbr (c, a', b'')
                | Tswitch (c, cases, d) as t ->
                  let cases' =
                    map_same
                      (fun ((v, l) as case) ->
                        let l' = resolve [] l in
                        if l' = l then case else (v, l'))
                      cases
                  in
                  let d' = resolve [] d in
                  if cases' == cases && d' = d then t else Tswitch (c, cases', d')
                | t -> t))
            f.fn_blocks;
          (* reachability *)
          let reachable = reach in
          Hashtbl.clear reachable;
          let rec visit l =
            if not (Hashtbl.mem reachable l) then begin
              Hashtbl.replace reachable l ();
              match block_of f l with
              | Some b -> List.iter visit (successors b.b_term)
              | None -> ()
            end
          in
          visit entry.b_label;
          let before = List.length f.fn_blocks in
          f.fn_blocks <-
            filter_same (fun b -> Hashtbl.mem reachable b.b_label) f.fn_blocks;
          let removed = before - List.length f.fn_blocks in
          if removed > 0 then begin
            cov_event cov 0x3100 removed 0;
            changes := !changes + removed
          end)
      p.p_funcs;
    !changes

(* ------------------------------------------------------------------ *)
(* Dead code elimination (pure instrs with unused destinations)        *)
(* ------------------------------------------------------------------ *)

let dce ?cov (p : program) =
    let changes = ref 0 in
    let used = Hashtbl.create 256 in
    List.iter
      (fun f ->
        (* arena table: membership-only, so recycling is result-neutral *)
        Hashtbl.clear used;
        let mark r = Hashtbl.replace used r () in
        List.iter
          (fun b ->
            List.iter (fun i -> iter_uses mark i) (Array.to_list b.b_instrs);
            iter_term_regs mark b.b_term)
          f.fn_blocks;
        List.iter
          (fun b ->
            let before = Array.length b.b_instrs in
            b.b_instrs <- Array.of_list @@
              filter_same
                (fun i ->
                  let r = dest_reg i in
                  not (r >= 0 && is_pure_instr i && not (Hashtbl.mem used r)))
                (Array.to_list b.b_instrs);
            let removed = before - Array.length b.b_instrs in
            if removed > 0 then begin
              cov_event cov 0x3200 removed 0;
              changes := !changes + removed
            end)
          f.fn_blocks)
      p.p_funcs;
    !changes

(* ------------------------------------------------------------------ *)
(* Loop optimization: trip-count analysis + full unrolling             *)
(* ------------------------------------------------------------------ *)

let loop_opt ?cov (p : program) =
    let changes = ref 0 in
    List.iter
      (fun f ->
        (* find back edges: block whose terminator jumps to a dominator;
           approximate by "jumps to an earlier label" *)
        List.iter
          (fun b ->
            match b.b_term with
            | Tjmp l when l < b.b_label ->
              cov_event cov 0x3500 1 0;
              (* loop header found; attempt trip-count estimate: header
                 must end in Tbr (Reg r, body, exit) where r compares a
                 slot against an Imm *)
              (match block_of f l with
              | Some header -> (
                match header.b_term, List.rev (Array.to_list header.b_instrs) with
                | Tbr (Reg r, _, _), Ibin ((Lt | Gt | Le | Ge), r', Reg _, Imm bound) :: _
                  when r = r' ->
                  cov_event cov 0x3510 (Int64.to_int (Int64.logand bound 63L)) 0;
                  changes := !changes + 1
                | _ -> cov_event cov 0x3511 0 0)
              | None -> ())
            | _ -> ())
          f.fn_blocks)
      p.p_funcs;
    !changes

(* The reference for a registered pass name, if it has one. *)
let find name =
  match name with
  | "constfold" -> Some const_fold
  | "simplify-cfg" -> Some simplify_cfg
  | "dce" -> Some dce
  | "loop-opt" -> Some loop_opt
  | _ -> None
