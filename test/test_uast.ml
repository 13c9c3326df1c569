(* Tests for the μAST API layer: context, queries, rewriting, checks. *)

open Cparse

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else go (i + 1)
  in
  go 0

let parse src =
  match Parser.parse src with
  | Ok tu -> tu
  | Error e -> Alcotest.failf "parse failed: %s" e

let sample =
  parse
    "int g = 3;\n\
     int add(int a, int b) { return a + b; }\n\
     int main(void) {\n\
     \  int x = 1;\n\
     \  int y = 2;\n\
     \  if (x < y) { x = add(x, y); } else { y = add(y, x); }\n\
     \  while (x < 10) x++;\n\
     \  switch (y) { case 1: y = 0; break; default: break; }\n\
     \  return x + y + g;\n\
     }\n"

let ctx_of tu = Uast.Ctx.create ~rng:(Rng.create 1) tu

let ctx_tests =
  [
    tc "type_of on the lazy check equals an eager check" (fun () ->
        let units =
          sample
          :: List.init 40 (fun i -> Ast_gen.gen_tu (Rng.create (300 + i)))
          @ List.filter_map
              (fun src -> Result.to_option (Parser.parse src))
              Fuzzing.Seeds.templates
        in
        List.iteri
          (fun i tu ->
            (* every other unit loses its ids, so [create] renumbers *)
            let tu =
              if i mod 2 = 0 then tu
              else Visit.map_tu tu ~fe:(fun e -> { e with Ast.eid = Ast.no_id })
            in
            let ctx = ctx_of tu in
            check Alcotest.bool "unchecked at creation" false
              (Lazy.is_val ctx.Uast.Ctx.tc);
            check Alcotest.int "name base is the max id"
              (Ast_ids.max_id ctx.Uast.Ctx.tu) ctx.Uast.Ctx.name_base;
            let eager = Typecheck.check ctx.Uast.Ctx.tu in
            Visit.iter_tu ctx.Uast.Ctx.tu ~fe:(fun e ->
                if Uast.Ctx.type_of ctx e <> Typecheck.Types.find_opt eager.Typecheck.r_types e.Ast.eid
                then Alcotest.failf "type_of differs on unit %d, node %d" i e.Ast.eid);
            let lazy_r = Lazy.force ctx.Uast.Ctx.tc in
            check Alcotest.bool "diagnostics" true (lazy_r.r_diags = eager.r_diags);
            (* every id the unit can hold is bound alike *)
            for id = Ast.no_id to Ast_ids.max_id ctx.Uast.Ctx.tu + 1 do
              if Typecheck.Types.find_opt eager.r_types id
                 <> Typecheck.Types.find_opt lazy_r.r_types id
              then Alcotest.failf "typed nodes differ on unit %d, id %d" i id
            done)
          units);
    tc "type_of computes expression types" (fun () ->
        let ctx = ctx_of sample in
        let binops = Uast.Query.binops ctx.Uast.Ctx.tu in
        check Alcotest.bool "has binops" true (binops <> []);
        List.iter
          (fun e ->
            match Uast.Ctx.type_of ctx e with
            | Some _ -> ()
            | None -> Alcotest.fail "missing type")
          binops);
    tc "generate_unique_name never repeats" (fun () ->
        let ctx = ctx_of sample in
        let names =
          List.init 50 (fun _ -> Uast.Ctx.generate_unique_name ctx "tmp")
        in
        check Alcotest.int "unique" 50
          (List.length (List.sort_uniq compare names)));
    tc "rand_element on empty list" (fun () ->
        let ctx = ctx_of sample in
        check Alcotest.bool "none" true
          (Uast.Ctx.rand_element ctx ([] : int list) = None));
    tc "rand_element picks members" (fun () ->
        let ctx = ctx_of sample in
        for _ = 1 to 20 do
          match Uast.Ctx.rand_element ctx [ 1; 2; 3 ] with
          | Some v -> check Alcotest.bool "member" true (List.mem v [ 1; 2; 3 ])
          | None -> Alcotest.fail "none"
        done);
  ]

let query_tests =
  [
    tc "functions found" (fun () ->
        check Alcotest.int "count" 2 (List.length (Visit.functions sample)));
    tc "if statements found" (fun () ->
        check Alcotest.int "ifs" 1 (List.length (Uast.Query.if_stmts sample)));
    tc "loops found" (fun () ->
        check Alcotest.int "loops" 1 (List.length (Uast.Query.loops sample)));
    tc "switches found" (fun () ->
        check Alcotest.int "switches" 1
          (List.length (Uast.Query.switches sample)));
    tc "calls_to finds call sites" (fun () ->
        check Alcotest.int "calls to add" 2
          (List.length (Uast.Query.calls_to sample "add")));
    tc "uses_of_var in function" (fun () ->
        match Visit.functions sample with
        | [ _; main ] ->
          check Alcotest.bool "x used" true
            (List.length (Uast.Query.uses_of_var main "x") >= 3)
        | _ -> Alcotest.fail "bad functions");
    tc "returns_of" (fun () ->
        match Visit.functions sample with
        | [ add; _ ] ->
          check Alcotest.int "returns" 1
            (List.length (Uast.Query.returns_of add))
        | _ -> Alcotest.fail "bad functions");
    tc "toplevel_vars_of includes params and locals" (fun () ->
        match Visit.functions sample with
        | [ add; main ] ->
          check Alcotest.int "add vars" 2
            (List.length (Uast.Query.toplevel_vars_of add));
          check Alcotest.int "main vars" 2
            (List.length (Uast.Query.toplevel_vars_of main))
        | _ -> Alcotest.fail "bad functions");
    tc "local_var_decls" (fun () ->
        check Alcotest.int "locals" 2
          (List.length (Uast.Query.local_var_decls sample)));
    tc "labels_of" (fun () ->
        let tu = parse "void f(void) { a: ; b: ; goto a; }" in
        match Visit.functions tu with
        | [ fd ] ->
          check
            Alcotest.(list string)
            "labels" [ "a"; "b" ]
            (List.sort compare (Uast.Query.labels_of fd))
        | _ -> Alcotest.fail "bad fn");
    tc "source_of_expr matches pretty" (fun () ->
        let e = Ast.binop Ast.Add (Ast.ident "a") (Ast.int_lit 1) in
        check Alcotest.string "text" "a + 1" (Uast.Query.source_of_expr e));
    tc "exprs_in_functions carries enclosing function" (fun () ->
        let hits =
          Uast.Query.exprs_in_functions sample ~pred:(fun e ->
              match e.Ast.ek with Ast.Binop _ -> true | _ -> false)
        in
        check Alcotest.bool "nonempty" true (hits <> []);
        List.iter
          (fun h ->
            check Alcotest.bool "fn name" true
              (List.mem h.Uast.Query.func.Ast.f_name [ "add"; "main" ]))
          hits);
    tc "decls_by_block groups by scope" (fun () ->
        match Visit.functions sample with
        | [ _; main ] ->
          let groups = Uast.Query.decls_by_block main in
          check Alcotest.bool "top group has x and y" true
            (List.exists (fun g -> List.length g = 2) groups)
        | _ -> Alcotest.fail "bad functions");
  ]

let count_stmts tu = Visit.count_stmts (fun _ -> true) tu

let rewrite_tests =
  [
    tc "replace_expr swaps exactly one node" (fun () ->
        let target = List.hd (Uast.Query.int_literals sample) in
        let tu =
          Visit.replace_expr sample ~eid:target.Ast.eid ~repl:(Ast.int_lit 99)
        in
        let nines =
          Visit.collect_exprs
            (fun e ->
              match e.Ast.ek with Ast.Int_lit (99L, _, _) -> true | _ -> false)
            tu
        in
        check Alcotest.int "one 99" 1 (List.length nines));
    tc "insert_before grows the statement list" (fun () ->
        let s = List.hd (Uast.Query.if_stmts sample) in
        let before = count_stmts sample in
        let tu =
          Uast.Rewrite.insert_before sample ~sid:s.Ast.sid
            ~stmts:[ Ast.mk_stmt Ast.Snull ]
        in
        check Alcotest.int "one more" (before + 1) (count_stmts tu));
    tc "insert_after places statement later" (fun () ->
        let s = List.hd (Uast.Query.if_stmts sample) in
        let tu =
          Uast.Rewrite.insert_after sample ~sid:s.Ast.sid
            ~stmts:[ Ast.sexpr (Ast.assign (Ast.ident "g") (Ast.int_lit 7)) ]
        in
        check Alcotest.bool "contains" true
          (contains (Pretty.tu_to_string tu) "g = 7"));
    tc "delete_stmt removes the statement" (fun () ->
        let s = List.hd (Uast.Query.loops sample) in
        let tu = Uast.Rewrite.delete_stmt sample ~sid:s.Ast.sid in
        check Alcotest.int "no loops" 0 (List.length (Uast.Query.loops tu)));
    tc "append/prepend to function" (fun () ->
        let tu =
          Uast.Rewrite.prepend_to_function sample ~fname:"main"
            ~stmts:[ Ast.mk_stmt Ast.Snull ]
        in
        let tu =
          Uast.Rewrite.append_to_function tu ~fname:"main"
            ~stmts:[ Ast.mk_stmt Ast.Snull ]
        in
        match Visit.functions tu with
        | [ _; main ] ->
          (match main.Ast.f_body with
          | { Ast.sk = Ast.Snull; _ } :: _ -> ()
          | _ -> Alcotest.fail "prepend missing");
          (match List.rev main.Ast.f_body with
          | { Ast.sk = Ast.Snull; _ } :: _ -> ()
          | _ -> Alcotest.fail "append missing")
        | _ -> Alcotest.fail "bad functions");
    tc "remove_param drops parameter and call arguments" (fun () ->
        let tu = Uast.Rewrite.remove_param sample ~fname:"add" ~index:1 in
        (match Visit.functions tu with
        | [ add; _ ] ->
          check Alcotest.int "one param" 1 (List.length add.Ast.f_params)
        | _ -> Alcotest.fail "bad functions");
        List.iter
          (fun e ->
            match e.Ast.ek with
            | Ast.Call (_, args) ->
              check Alcotest.int "one arg" 1 (List.length args)
            | _ -> ())
          (Uast.Query.calls_to tu "add"));
    tc "remove_arg drops one call-site argument" (fun () ->
        let site = List.hd (Uast.Query.calls_to sample "add") in
        let tu = Uast.Rewrite.remove_arg sample ~eid:site.Ast.eid ~index:0 in
        let lengths =
          List.map
            (fun e ->
              match e.Ast.ek with
              | Ast.Call (_, args) -> List.length args
              | _ -> 0)
            (Uast.Query.calls_to tu "add")
        in
        check
          (Alcotest.list Alcotest.int)
          "arities" [ 1; 2 ]
          (List.sort compare lengths));
    tc "rename_var_in_function renames decl and uses" (fun () ->
        let tu =
          Uast.Rewrite.rename_var_in_function sample ~fname:"main"
            ~old_name:"x" ~new_name:"renamed_x"
        in
        (match Visit.functions tu with
        | [ _; main ] ->
          check Alcotest.int "no old uses" 0
            (List.length (Uast.Query.uses_of_var main "x"));
          check Alcotest.bool "new uses" true
            (Uast.Query.uses_of_var main "renamed_x" <> [])
        | _ -> Alcotest.fail "bad functions");
        check Alcotest.bool "compiles" true (Typecheck.check tu).Typecheck.r_ok);
    tc "insert_global_before_functions keeps program valid" (fun () ->
        let g =
          Ast.Gvar
            {
              Ast.v_name = "fresh_g";
              v_ty = Ast.Tint (Ast.Iint, true);
              v_quals = Ast.no_quals;
              v_storage = Ast.S_none;
              v_init = Some (Ast.int_lit 0);
            }
        in
        let tu = Uast.Rewrite.insert_global_before_functions sample ~g in
        check Alcotest.bool "compiles" true (Typecheck.check tu).Typecheck.r_ok;
        let rec before_fn = function
          | Ast.Gvar { Ast.v_name = "fresh_g"; _ } :: _ -> true
          | Ast.Gfun _ :: _ -> false
          | _ :: rest -> before_fn rest
          | [] -> false
        in
        check Alcotest.bool "position" true (before_fn tu.Ast.globals));
    tc "replace_function rewrites the body" (fun () ->
        let tu =
          Uast.Rewrite.replace_function sample ~fname:"add" ~f:(fun fd ->
              { fd with Ast.f_body = [ Ast.sreturn (Some (Ast.int_lit 0)) ] })
        in
        match Visit.functions tu with
        | [ add; _ ] -> check Alcotest.int "body" 1 (List.length add.Ast.f_body)
        | _ -> Alcotest.fail "bad functions");
  ]

let int_ty = Ast.Tint (Ast.Iint, true)
let ptr_ty = Ast.Tptr int_ty
let struct_ty = Ast.Tstruct "s"

let check_tests =
  [
    tc "checkBinop arithmetic" (fun () ->
        check Alcotest.bool "int+int" true
          (Uast.Check.check_binop Ast.Add int_ty int_ty);
        check Alcotest.bool "float%float" false
          (Uast.Check.check_binop Ast.Mod Ast.Tdouble Ast.Tdouble));
    tc "checkBinop pointer arithmetic" (fun () ->
        check Alcotest.bool "ptr+int" true
          (Uast.Check.check_binop Ast.Add ptr_ty int_ty);
        check Alcotest.bool "ptr*ptr" false
          (Uast.Check.check_binop Ast.Mul ptr_ty ptr_ty);
        check Alcotest.bool "ptr-ptr" true
          (Uast.Check.check_binop Ast.Sub ptr_ty ptr_ty));
    tc "checkBinop bitwise needs integers" (fun () ->
        check Alcotest.bool "float^float" false
          (Uast.Check.check_binop Ast.Bxor Ast.Tfloat Ast.Tfloat));
    tc "checkAssignment" (fun () ->
        check Alcotest.bool "int<-float" true
          (Uast.Check.check_assignment ~dst:int_ty ~src:Ast.Tdouble);
        check Alcotest.bool "struct<-int" false
          (Uast.Check.check_assignment ~dst:struct_ty ~src:int_ty);
        check Alcotest.bool "same struct" true
          (Uast.Check.check_assignment ~dst:struct_ty ~src:struct_ty));
    tc "checkUnop" (fun () ->
        check Alcotest.bool "-float" true
          (Uast.Check.check_unop Ast.Neg Ast.Tfloat);
        check Alcotest.bool "~float" false
          (Uast.Check.check_unop Ast.Bitnot Ast.Tfloat);
        check Alcotest.bool "!ptr" true
          (Uast.Check.check_unop Ast.Lognot ptr_ty));
    tc "compatible_for_swap excludes pointers" (fun () ->
        check Alcotest.bool "int~long" true
          (Uast.Check.compatible_for_swap int_ty (Ast.Tint (Ast.Ilong, true)));
        check Alcotest.bool "ptr~ptr" false
          (Uast.Check.compatible_for_swap ptr_ty ptr_ty));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"check_assignment agrees with the typechecker"
         ~count:100
         QCheck.(pair small_int small_int)
         (fun (a, b) ->
           let tys =
             [| int_ty; Ast.Tint (Ast.Ichar, true);
                Ast.Tint (Ast.Ilong, false); Ast.Tfloat; Ast.Tdouble; Ast.Tbool |]
           in
           let dst = tys.(a mod Array.length tys) in
           let src = tys.(b mod Array.length tys) in
           if Uast.Check.check_assignment ~dst ~src then
             Typecheck.compiles_src
               (Fmt.str "int main(void) { %s = 0; %s; d = s; return 0; }"
                  (Pretty.decl_string src "s")
                  (Pretty.decl_string dst "d"))
           else true));
  ]

let () =
  Alcotest.run "uast"
    [
      ("ctx", ctx_tests);
      ("query", query_tests);
      ("rewrite", rewrite_tests);
      ("check", check_tests);
    ]
