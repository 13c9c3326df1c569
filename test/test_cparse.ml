(* Tests for the C front-end substrate: lexer, parser, pretty-printer,
   constant evaluation, type checker, id management, program generator. *)

open Cparse

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse_ok src =
  match Parser.parse src with
  | Ok tu -> tu
  | Error e -> Alcotest.failf "parse failed: %s\nsource:\n%s" e src

let parse_err src =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected parse error for:\n%s" src
  | Error _ -> ()

let typecheck_ok src =
  let tu = parse_ok src in
  let r = Typecheck.check tu in
  if not r.Typecheck.r_ok then
    Alcotest.failf "typecheck failed: %s\nsource:\n%s"
      (String.concat "; "
         (List.map Typecheck.diag_to_string (Typecheck.errors r)))
      src

let typecheck_err src =
  let tu = parse_ok src in
  let r = Typecheck.check tu in
  if r.Typecheck.r_ok then
    Alcotest.failf "expected a type error for:\n%s" src

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src =
  let ts = Lexer.tokenize src in
  List.init (Lexer.length ts) (Lexer.token ts)
  |> List.filter (fun t -> t <> Token.Eof)

let lexer_tests =
  [
    tc "keywords vs identifiers" (fun () ->
        match toks "int intx" with
        | [ Token.Kw Token.Kint; Token.Ident "intx" ] -> ()
        | _ -> Alcotest.fail "bad tokens");
    tc "decimal literal" (fun () ->
        match toks "42" with
        | [ Token.Int_lit (42L, Ast.Iint, false) ] -> ()
        | _ -> Alcotest.fail "bad literal");
    tc "hex literal" (fun () ->
        match toks "0xFF" with
        | [ Token.Int_lit (255L, _, _) ] -> ()
        | _ -> Alcotest.fail "bad hex");
    tc "suffixes" (fun () ->
        match toks "1u 2L 3ULL" with
        | [ Token.Int_lit (1L, Ast.Iint, true);
            Token.Int_lit (2L, Ast.Ilong, false);
            Token.Int_lit (3L, Ast.Ilonglong, true) ] -> ()
        | _ -> Alcotest.fail "bad suffixes");
    tc "float literals" (fun () ->
        match toks "1.5 2.0f 3e2" with
        | [ Token.Float_lit (1.5, true); Token.Float_lit (2.0, false);
            Token.Float_lit (300., true) ] -> ()
        | _ -> Alcotest.fail "bad floats");
    tc "char literal with escape" (fun () ->
        match toks {|'\n' 'a'|} with
        | [ Token.Char_lit '\n'; Token.Char_lit 'a' ] -> ()
        | _ -> Alcotest.fail "bad chars");
    tc "string literal escapes" (fun () ->
        match toks {|"a\tb"|} with
        | [ Token.Str_lit "a\tb" ] -> ()
        | _ -> Alcotest.fail "bad string");
    tc "line comment skipped" (fun () ->
        check Alcotest.int "count" 1 (List.length (toks "1 // 2 3\n")));
    tc "block comment skipped" (fun () ->
        check Alcotest.int "count" 2 (List.length (toks "1 /* x */ 2")));
    tc "preprocessor line skipped" (fun () ->
        check Alcotest.int "count" 1
          (List.length (toks "#include <stdio.h>\n1")));
    tc "multi-char operators" (fun () ->
        match toks "<<= >>= && || -> ..." with
        | [ Token.ShlEq; Token.ShrEq; Token.AmpAmp; Token.PipePipe;
            Token.Arrow; Token.Ellipsis ] -> ()
        | _ -> Alcotest.fail "bad operators");
    tc "unterminated string is an error" (fun () ->
        match Lexer.tokenize "\"abc" with
        | _ -> Alcotest.fail "expected lex error"
        | exception Lexer.Error _ -> ());
    tc "unterminated comment is an error" (fun () ->
        match Lexer.tokenize "/* abc" with
        | _ -> Alcotest.fail "expected lex error"
        | exception Lexer.Error _ -> ());
    tc "locations track lines" (fun () ->
        let ls = Lexer.tokenize "a\nb" in
        check Alcotest.int "line of b" 2 (Lexer.loc ls 1).Loc.line);
    tc "octal escapes read up to three digits" (fun () ->
        match toks {|'\101' "\012" '\0' "\0" "\0101"|} with
        | [ Token.Char_lit 'A'; Token.Str_lit "\n"; Token.Char_lit '\000';
            Token.Str_lit "\000"; Token.Str_lit "\b1" ] -> ()
        | ts ->
          Alcotest.failf "bad escapes: %s"
            (String.concat " " (List.map Token.to_string ts)));
    tc "leading 0 makes an integer literal octal" (fun () ->
        match toks "010 0 0777 00 0x10 10" with
        | [ Token.Int_lit (8L, _, _); Token.Int_lit (0L, _, _);
            Token.Int_lit (511L, _, _); Token.Int_lit (0L, _, _);
            Token.Int_lit (16L, _, _); Token.Int_lit (10L, _, _) ] -> ()
        | ts ->
          Alcotest.failf "bad literals: %s"
            (String.concat " " (List.map Token.to_string ts)));
    tc "8 and 9 are not octal digits" (fun () ->
        List.iter
          (fun src ->
            match Lexer.tokenize src with
            | _ -> Alcotest.failf "expected a lex error for %s" src
            | exception Lexer.Error (msg, _) ->
              check Alcotest.string "message" ("bad integer literal: " ^ src) msg)
          [ "08"; "09"; "0128" ]);
    tc "a float exponent needs digits" (fun () ->
        check Alcotest.int "valid floats" 5 (List.length (toks "1e5 1. .5 1.e3 2E-2f"));
        List.iter
          (fun (src, digits) ->
            match Lexer.tokenize src with
            | _ -> Alcotest.failf "expected a lex error for %s" src
            | exception Lexer.Error (msg, _) ->
              check Alcotest.string "message" ("bad float literal: " ^ digits) msg)
          [ ("1e", "1e"); ("1.5e+f", "1.5e+"); ("2.E-", "2.E-") ]);
    tc "every kind code lexes back from its spelling" (fun () ->
        for k = 0 to Lexer.kind_count - 1 do
          let tok = Lexer.kind_example k in
          let src = if tok = Token.Eof then "" else Token.to_string tok in
          let ts = Lexer.tokenize src in
          check Alcotest.int ("kind of " ^ src) k (Lexer.kind ts 0);
          check Alcotest.bool ("token of " ^ src) true (Lexer.token ts 0 = tok)
        done);
    tc "error locations are line:col of the offending byte" (fun () ->
        match Lexer.tokenize "int x;\n  /* ok */ y @" with
        | _ -> Alcotest.fail "expected lex error"
        | exception Lexer.Error (_, loc) ->
          check Alcotest.string "loc" "2:14" (Loc.to_string loc);
          check Alcotest.int "offset" 20 loc.Loc.offset);
  ]

(* A lexed stream is well formed: [tokenize] raises nothing but
   [Lexer.Error], the stream ends with its only [Eof], offsets strictly
   increase within the source, every token reads back, and each derived
   location agrees with a count of the newlines before it. *)
let lex_stream_ok src =
  match Lexer.tokenize src with
  | exception Lexer.Error _ -> true
  | ts ->
    let n = Lexer.length ts in
    let ok = ref (n >= 1) in
    (* newlines counted up to [seen] *)
    let line = ref 1 and bol = ref 0 and seen = ref 0 in
    for i = 0 to n - 1 do
      let off = Lexer.offset ts i in
      let is_eof = Lexer.token ts i = Token.Eof in
      if is_eof <> (i = n - 1) then ok := false;
      if off < !seen || off > String.length src then ok := false
      else begin
        for j = !seen to off - 1 do
          if src.[j] = '\n' then (incr line; bol := j + 1)
        done;
        seen := off + 1;
        if Lexer.loc ts i <> Loc.make ~line:!line ~col:(off - !bol + 1) ~offset:off
        then ok := false;
        if off < String.length src && src.[off] = '\n' then begin
          incr line;
          bol := off + 1
        end
      end
    done;
    !ok

(* A generated program with a few bytes overwritten, then truncated. *)
let mutated_program =
  let open QCheck.Gen in
  let gen =
    let* seed = small_nat in
    let src = Ast_gen.gen_source (Rng.create seed) in
    let n = String.length src in
    let* edits = list_size (int_range 1 6) (pair (int_bound (n - 1)) char) in
    let* cut = int_range (n / 2) n in
    let b = Bytes.of_string src in
    List.iter (fun (at, c) -> Bytes.set b at c) edits;
    return (Bytes.sub_string b 0 cut)
  in
  QCheck.make ~print:(fun s -> s) gen

let lexer_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random bytes lex into a well-formed stream"
         ~count:300 QCheck.string lex_stream_ok);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mutated programs lex into a well-formed stream"
         ~count:150 mutated_program lex_stream_ok);
  ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let expr_of src =
  let tu = parse_ok (Fmt.str "int f(int a, int b, int c) { return %s; }" src) in
  match Visit.functions tu with
  | [ fd ] -> (
    match List.rev fd.Ast.f_body with
    | { Ast.sk = Ast.Sreturn (Some e); _ } :: _ -> e
    | _ -> Alcotest.fail "no return")
  | _ -> Alcotest.fail "no function"

let parser_tests =
  [
    tc "precedence: a + b * c" (fun () ->
        match (expr_of "a + b * c").Ast.ek with
        | Ast.Binop (Ast.Add, _, { ek = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
        | _ -> Alcotest.fail "wrong precedence");
    tc "left associativity of -" (fun () ->
        match (expr_of "a - b - c").Ast.ek with
        | Ast.Binop (Ast.Sub, { ek = Ast.Binop (Ast.Sub, _, _); _ }, _) -> ()
        | _ -> Alcotest.fail "wrong associativity");
    tc "comparison below logical and" (fun () ->
        match (expr_of "a < b && b < c").Ast.ek with
        | Ast.Binop (Ast.Land, _, _) -> ()
        | _ -> Alcotest.fail "wrong nesting");
    tc "ternary is right-associative" (fun () ->
        match (expr_of "a ? 1 : b ? 2 : 3").Ast.ek with
        | Ast.Cond (_, _, { ek = Ast.Cond (_, _, _); _ }) -> ()
        | _ -> Alcotest.fail "wrong ternary");
    tc "assignment is right-associative" (fun () ->
        let tu = parse_ok "void f(void) { int a; int b; a = b = 1; }" in
        let found = ref false in
        Visit.iter_tu tu ~fe:(fun e ->
            match e.Ast.ek with
            | Ast.Assign (_, _, { ek = Ast.Assign (_, _, _); _ }) ->
              found := true
            | _ -> ());
        check Alcotest.bool "nested" true !found);
    tc "unary binds tighter than binary" (fun () ->
        match (expr_of "-a * b").Ast.ek with
        | Ast.Binop (Ast.Mul, { ek = Ast.Unop (Ast.Neg, _); _ }, _) -> ()
        | _ -> Alcotest.fail "wrong unary");
    tc "postfix binds tighter than prefix" (fun () ->
        match (expr_of "-a[0]").Ast.ek with
        | Ast.Unop (Ast.Neg, { ek = Ast.Index _; _ }) -> ()
        | _ -> Alcotest.fail "wrong postfix");
    tc "cast expression" (fun () ->
        match (expr_of "(long)a").Ast.ek with
        | Ast.Cast (Ast.Tint (Ast.Ilong, true), _) -> ()
        | _ -> Alcotest.fail "wrong cast");
    tc "sizeof type and expr" (fun () ->
        (match (expr_of "(int)sizeof(int)").Ast.ek with
        | Ast.Cast (_, { ek = Ast.Sizeof_ty _; _ }) -> ()
        | _ -> Alcotest.fail "sizeof(ty)");
        match (expr_of "(int)sizeof a").Ast.ek with
        | Ast.Cast (_, { ek = Ast.Sizeof_expr _; _ }) -> ()
        | _ -> Alcotest.fail "sizeof e");
    tc "pointer declarator" (fun () ->
        let tu = parse_ok "int *p;" in
        match Visit.global_vars tu with
        | [ { Ast.v_ty = Ast.Tptr (Ast.Tint (Ast.Iint, true)); _ } ] -> ()
        | _ -> Alcotest.fail "bad pointer decl");
    tc "array declarator" (fun () ->
        let tu = parse_ok "int a[8];" in
        match Visit.global_vars tu with
        | [ { Ast.v_ty = Ast.Tarray (_, Some 8); _ } ] -> ()
        | _ -> Alcotest.fail "bad array decl");
    tc "2d array declarator" (fun () ->
        let tu = parse_ok "int m[2][3];" in
        match Visit.global_vars tu with
        | [ { Ast.v_ty = Ast.Tarray (Ast.Tarray (_, Some 3), Some 2); _ } ] ->
          ()
        | _ -> Alcotest.fail "bad 2d array");
    tc "function prototype" (fun () ->
        let tu = parse_ok "int add(int, int);" in
        match tu.Ast.globals with
        | [ Ast.Gproto { pr_params = [ _; _ ]; _ } ] -> ()
        | _ -> Alcotest.fail "bad proto");
    tc "variadic prototype" (fun () ->
        let tu = parse_ok "int f(int, ...);" in
        match tu.Ast.globals with
        | [ Ast.Gproto { pr_variadic = true; _ } ] -> ()
        | _ -> Alcotest.fail "bad variadic");
    tc "typedef usage" (fun () ->
        typecheck_ok "typedef int myint; myint g; int main(void) { g = 3; return g; }");
    tc "struct definition and member access" (fun () ->
        typecheck_ok
          "struct p { int x; int y; };\n\
           int main(void) { struct p v; v.x = 1; v.y = 2; return v.x + v.y; }");
    tc "enum constants" (fun () ->
        typecheck_ok
          "enum e { A, B = 5, C };\n\
           int main(void) { return A + B + C; }");
    tc "switch with fallthrough parses" (fun () ->
        let tu =
          parse_ok
            "int f(int x) { switch (x) { case 0: case 1: x = 2; case 2: \
             break; default: x = 9; } return x; }"
        in
        match Visit.collect_stmts (fun s -> match s.Ast.sk with Ast.Sswitch _ -> true | _ -> false) tu with
        | [ { Ast.sk = Ast.Sswitch (_, cases); _ } ] ->
          check Alcotest.int "case groups" 3 (List.length cases)
        | _ -> Alcotest.fail "bad switch");
    tc "goto and labels" (fun () ->
        typecheck_ok
          "int main(void) { int x = 0; goto end; x = 1; end: return x; }");
    tc "do-while" (fun () ->
        typecheck_ok "int main(void) { int i = 0; do i++; while (i < 3); return i; }");
    tc "for with decl init" (fun () ->
        typecheck_ok
          "int main(void) { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }");
    tc "adjacent string literals concatenate" (fun () ->
        let tu = parse_ok {|int main(void) { printf("a" "b"); return 0; }|} in
        let found = ref false in
        Visit.iter_tu tu ~fe:(fun e ->
            match e.Ast.ek with
            | Ast.Str_lit "ab" -> found := true
            | _ -> ());
        check Alcotest.bool "concatenated" true !found);
    tc "missing semicolon is an error" (fun () -> parse_err "int x");
    tc "unbalanced braces is an error" (fun () ->
        parse_err "int main(void) { return 0;");
    tc "garbage is an error" (fun () -> parse_err "$$$");
    tc "empty parameter list means no params" (fun () ->
        let tu = parse_ok "int f(void) { return 1; }" in
        match Visit.functions tu with
        | [ fd ] -> check Alcotest.int "params" 0 (List.length fd.Ast.f_params)
        | _ -> Alcotest.fail "bad fn");
  ]

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trips                                          *)
(* ------------------------------------------------------------------ *)

let roundtrip_tests =
  let cases =
    [
      "int main(void) {\n  return 1 + 2 * 3;\n}\n";
      "int f(int a) {\n  return a < 0 ? -a : a;\n}\n";
      "int g;\n\nvoid h(void) {\n  g = (int)1.5;\n}\n";
    ]
  in
  List.mapi
    (fun i src ->
      tc (Fmt.str "fixed roundtrip %d" i) (fun () ->
          let tu = parse_ok src in
          let printed = Pretty.tu_to_string tu in
          let tu2 = parse_ok printed in
          check Alcotest.string "idempotent print" printed
            (Pretty.tu_to_string tu2)))
    cases
  @ [
      tc "print respects precedence" (fun () ->
          let e =
            Ast.binop Ast.Mul
              (Ast.binop Ast.Add (Ast.ident "a") (Ast.ident "b"))
              (Ast.ident "c")
          in
          check Alcotest.string "parens" "(a + b) * c" (Pretty.expr_to_string e));
      tc "NUL before a digit in a string survives reparse" (fun () ->
          let e = Ast.mk_expr (Ast.Str_lit "\0001\000") in
          let printed = Pretty.expr_to_string e in
          check Alcotest.string "printed" {|"\0001\000"|} printed;
          match (expr_of printed).Ast.ek with
          | Ast.Str_lit s -> check Alcotest.string "reparsed" "\0001\000" s
          | _ -> Alcotest.fail "not a string literal");
      tc "negative literal survives reparse" (fun () ->
          let src = "int main(void) { return (-2147483648L) + 1; }" in
          let tu = parse_ok src in
          let printed = Pretty.tu_to_string tu in
          ignore (parse_ok printed));
      tc "an else after an open inner if stays on the outer if" (fun () ->
          (* r is 1 when the else belongs to the outer if, 3 when the
             printed text hands it to an inner one *)
          let skeleton =
            parse_ok
              "int a = 1;\nint b = 0;\nint r = 1;\n\
               int main(void) { ; return r; }"
          in
          let set v = Ast.sexpr (Ast.assign (Ast.ident "r") (Ast.int_lit v)) in
          let open_if = Ast.mk_stmt (Ast.Sif (Ast.ident "b", set 2, None)) in
          let thens =
            [
              open_if;
              Ast.mk_stmt (Ast.Swhile (Ast.ident "b", open_if));
              Ast.mk_stmt (Ast.Sfor (None, Some (Ast.ident "b"), None, open_if));
              Ast.mk_stmt (Ast.Slabel ("L", open_if));
              Ast.mk_stmt (Ast.Sif (Ast.ident "b", set 4, Some open_if));
            ]
          in
          List.iter
            (fun t ->
              let outer = Ast.mk_stmt (Ast.Sif (Ast.ident "a", t, Some (set 3))) in
              let tu =
                Visit.map_tu skeleton ~fs:(fun s ->
                    match s.Ast.sk with Ast.Snull -> outer | _ -> s)
              in
              let printed = Pretty.tu_to_string tu in
              let outer_has_else =
                List.exists
                  (function
                    | Ast.Gfun fd ->
                      List.exists
                        (fun (s : Ast.stmt) ->
                          match s.sk with
                          | Ast.Sif (_, _, Some _) -> true
                          | _ -> false)
                        fd.Ast.f_body
                    | _ -> false)
                  (parse_ok printed).Ast.globals
              in
              if not outer_has_else then
                Alcotest.failf "else moved to an inner if:\n%s" printed;
              match Simcomp.Interp.run_src printed with
              | Ok o -> check Alcotest.int "exit" 1 o.Simcomp.Interp.o_exit
              | Error e -> Alcotest.failf "%s:\n%s" e printed)
            thens);
      tc "if statements with no dangling else print without braces" (fun () ->
          let s = Ast.sexpr (Ast.ident "x") in
          let if_ c t f = Ast.mk_stmt (Ast.Sif (Ast.ident c, t, f)) in
          List.iter
            (fun st ->
              let buf = Buffer.create 64 in
              let tu =
                { Ast.globals =
                    [ Ast.Gfun
                        { Ast.f_id = Ast.no_id; f_name = "f"; f_ret = Ast.Tvoid;
                          f_params = []; f_variadic = false; f_body = [ st ];
                          f_static = false; f_inline = false } ] }
              in
              Pretty.tu_to_buf buf tu;
              let braces =
                String.fold_left (fun n c -> if c = '{' then n + 1 else n) 0
                  (Buffer.contents buf)
              in
              check Alcotest.int "only the body's brace" 1 braces)
            [
              if_ "a" (if_ "b" s (Some s)) (Some s);
              if_ "a" (if_ "b" s None) None;
              if_ "a" (Ast.mk_stmt (Ast.Sdo (if_ "b" s None, Ast.ident "c"))) (Some s);
            ]);
      tc "parsed_form is the parse of the printing, None where it fails"
        (fun () ->
          List.iter
            (fun (name, tu, parses) ->
              let printed = Pretty.tu_to_string tu in
              match (Pretty.parsed_form tu, Parser.parse printed) with
              | Some t, Ok t' ->
                if t <> t' then
                  Alcotest.failf "%s: the parsed form differs from the parse of:@.%s"
                    name printed;
                check Alcotest.bool (name ^ ": parses") parses true
              | None, Error _ -> check Alcotest.bool (name ^ ": parses") parses false
              | Some _, Error e ->
                Alcotest.failf "%s: a parsed form for text that fails: %s" name e
              | None, Ok _ ->
                Alcotest.failf "%s: no parsed form, yet the text parses:@.%s"
                  name printed)
            Shapes.all);
      tc "parsed_form agrees with the parser on perturbed programs" (fun () ->
          let rng = Rng.create 7 in
          let vouched = ref 0 in
          for k = 1 to 400 do
            let tu =
              Visit.map_tu (Ast_gen.gen_tu (Rng.create k)) ~fs:(fun s ->
                  if Rng.int rng 40 = 0 then Shapes.perturb rng s else s)
            in
            let printed = Pretty.tu_to_string tu in
            match (Pretty.parsed_form tu, Parser.parse printed) with
            | Some t, Ok t' ->
              incr vouched;
              if t <> t' then
                Alcotest.failf "the parsed form differs from the parse of:@.%s"
                  printed
            | Some _, Error e ->
              Alcotest.failf "a parsed form for text that fails: %s@.%s" e printed
            | None, _ -> ()
          done;
          check Alcotest.bool "a quarter vouched for" true (!vouched >= 100));
      tc "nested unary minus spaced" (fun () ->
          let e = Ast.unop Ast.Neg (Ast.unop Ast.Neg (Ast.ident "x")) in
          let s = Pretty.expr_to_string e in
          let reparsed = expr_of (Fmt.str "a + %s" s) in
          ignore reparsed);
      tc "the printer's text is the reference's, its stream the lexer's"
        (fun () ->
          List.iter (fun (name, tu, _) -> ignore (Print_check.check name tu)) Shapes.all;
          let floats vs =
            Shapes.program
              (List.map
                 (fun (v, double) ->
                   Ast.sexpr (Ast.assign (Ast.ident "d") (Ast.float_lit ~double v)))
                 vs)
          in
          check Alcotest.bool "finite floats vouched for" true
            (Print_check.check "finite floats"
               (floats
                  [ (0.1, true); (-0.0, true); (123456.75, true); (2.5, false);
                    (5e-324, true); (-1e-5, false); (9.5e15, true) ]));
          ignore
            (Print_check.check "non-finite and huge floats"
               (floats
                  [ (Float.nan, true); (Float.infinity, true);
                    (Float.neg_infinity, false); (1e20, true); (-1e300, true) ]));
          let streams = ref 0 in
          List.iter
            (fun (k, cfg) ->
              for i = 0 to 199 do
                let tu = Ast_gen.gen_tu ~cfg (Rng.create (k + i)) in
                if Print_check.check "generated program" tu then incr streams
              done)
            [
              (0, Ast_gen.default_config);
              (1000, Ast_gen.csmith_like_config);
              (2000, Ast_gen.yarpgen_like_config);
            ];
          check Alcotest.int "every generated program's stream checked" 600 !streams;
          let rng = Rng.create 7 in
          for k = 1 to 400 do
            let tu =
              Visit.map_tu (Ast_gen.gen_tu (Rng.create k)) ~fs:(fun s ->
                  if Rng.int rng 40 = 0 then Shapes.perturb rng s else s)
            in
            ignore (Print_check.check "perturbed program" tu)
          done);
      tc "Lexer.code is the kind tokenize gives each token" (fun () ->
          for k = 0 to Lexer.kind_count - 1 do
            check Alcotest.int "code of kind_example" k
              (Lexer.code (Lexer.kind_example k))
          done);
    ]

(* Property tests using our own deterministic generator (QCheck drives the
   iteration; program generation uses a per-case seed). *)
let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"gen/print/parse roundtrip is stable" ~count:120
         QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 1) in
           let tu = Ast_gen.gen_tu rng in
           let printed = Pretty.tu_to_string tu in
           match Parser.parse printed with
           | Error _ -> false
           | Ok tu2 -> String.equal printed (Pretty.tu_to_string tu2)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated programs type check" ~count:120
         QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 1000) in
           let tu = Ast_gen.gen_tu rng in
           (Typecheck.check tu).Typecheck.r_ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated ASTs are structurally id-unique"
         ~count:60 QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 2000) in
           Ast_ids.well_formed (Ast_gen.gen_tu rng)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"csmith-like config avoids gotos and strings"
         ~count:40 QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 3000) in
           let tu = Ast_gen.gen_tu ~cfg:Ast_gen.csmith_like_config rng in
           let bad = ref false in
           Visit.iter_tu tu ~fs:(fun s ->
               match s.Ast.sk with
               | Ast.Sgoto _ | Ast.Slabel _ -> bad := true
               | _ -> ());
           not !bad));
  ]

(* ------------------------------------------------------------------ *)
(* Constant evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let const_tests =
  let eval src = Const_eval.eval_int (expr_of src) in
  [
    tc "arithmetic" (fun () ->
        check Alcotest.(option int64) "2+3*4" (Some 14L) (eval "2 + 3 * 4"));
    tc "division by zero is not constant" (fun () ->
        check Alcotest.(option int64) "1/0" None (eval "1 / 0"));
    tc "shifts" (fun () ->
        check Alcotest.(option int64) "1<<4" (Some 16L) (eval "1 << 4"));
    tc "comparisons yield 0/1" (fun () ->
        check Alcotest.(option int64) "3<5" (Some 1L) (eval "3 < 5"));
    tc "conditional folds" (fun () ->
        check Alcotest.(option int64) "cond" (Some 7L) (eval "0 ? 3 : 7"));
    tc "char cast truncates" (fun () ->
        check Alcotest.(option int64) "(char)257" (Some 1L)
          (eval "(char)257"));
    tc "non-constant expression" (fun () ->
        check Alcotest.(option int64) "a+1" None (eval "a + 1"));
    tc "sizeof folds" (fun () ->
        check Alcotest.(option int64) "sizeof(int)" (Some 4L)
          (Const_eval.eval_int (Ast.mk_expr (Ast.Sizeof_ty (Ast.Tint (Ast.Iint, true))))));
  ]

(* ------------------------------------------------------------------ *)
(* Type checker                                                        *)
(* ------------------------------------------------------------------ *)

let typecheck_tests =
  [
    tc "valid hello world" (fun () ->
        typecheck_ok {|int main(void) { printf("hi\n"); return 0; }|});
    tc "undeclared variable" (fun () ->
        typecheck_err "int main(void) { return nope; }");
    tc "unknown function" (fun () ->
        typecheck_err "int main(void) { return mystery(1); }");
    tc "too few arguments" (fun () ->
        typecheck_err
          "int add(int a, int b) { return a + b; }\n\
           int main(void) { return add(1); }");
    tc "too many arguments" (fun () ->
        typecheck_err
          "int add(int a) { return a; }\nint main(void) { return add(1, 2); }");
    tc "variadic call accepts extras" (fun () ->
        typecheck_ok {|int main(void) { printf("%d %d", 1, 2); return 0; }|});
    tc "assignment to const is an error" (fun () ->
        typecheck_err "int main(void) { const int x = 1; x = 2; return x; }");
    tc "assignment to array is an error" (fun () ->
        typecheck_err "int main(void) { int a[3]; int b[3]; a = b; return 0; }");
    tc "void variable is an error" (fun () ->
        typecheck_err "int main(void) { void v; return 0; }");
    tc "break outside loop is an error" (fun () ->
        typecheck_err "int main(void) { break; return 0; }");
    tc "continue outside loop is an error" (fun () ->
        typecheck_err "int main(void) { continue; return 0; }");
    tc "break inside switch is fine" (fun () ->
        typecheck_ok
          "int main(void) { switch (1) { case 1: break; } return 0; }");
    tc "duplicate case values" (fun () ->
        typecheck_err
          "int main(void) { switch (1) { case 1: break; case 1: break; } return 0; }");
    tc "duplicate labels" (fun () ->
        typecheck_err "int main(void) { l: ; l: ; return 0; }");
    tc "goto to missing label" (fun () ->
        typecheck_err "int main(void) { goto missing; return 0; }");
    tc "return value in void function" (fun () ->
        typecheck_err "void f(void) { return 3; } int main(void) { f(); return 0; }");
    tc "bare return in int function is only a warning" (fun () ->
        typecheck_ok "int f(void) { return; } int main(void) { f(); return 0; }");
    tc "int/pointer conversion warns but compiles" (fun () ->
        let tu = parse_ok "int main(void) { int *p; int x = 0; p = x; return 0; }" in
        let r = Typecheck.check tu in
        check Alcotest.bool "compiles" true r.Typecheck.r_ok;
        check Alcotest.bool "warns" true (Typecheck.warnings r <> []));
    tc "incompatible struct assignment" (fun () ->
        typecheck_err
          "struct a { int x; }; struct b { int x; };\n\
           int main(void) { struct a va; struct b vb; va = vb; return 0; }");
    tc "same struct assignment ok" (fun () ->
        typecheck_ok
          "struct a { int x; };\n\
           int main(void) { struct a u; struct a v; u.x = 1; v = u; return v.x; }");
    tc "unknown member" (fun () ->
        typecheck_err
          "struct a { int x; };\n\
           int main(void) { struct a v; return v.nope; }");
    tc "arrow on non-pointer" (fun () ->
        typecheck_err
          "struct a { int x; };\n\
           int main(void) { struct a v; return v->x; }");
    tc "deref of non-pointer" (fun () ->
        typecheck_err "int main(void) { int x = 1; return *x; }");
    tc "mod on floats is an error" (fun () ->
        typecheck_err "int main(void) { double d = 1.0; d = d % 2.0; return 0; }");
    tc "redefinition of function" (fun () ->
        typecheck_err "int f(void) { return 1; } int f(void) { return 2; }");
    tc "redefinition of local" (fun () ->
        typecheck_err "int main(void) { int x = 1; int x = 2; return x; }");
    tc "shadowing in nested block ok" (fun () ->
        typecheck_ok
          "int main(void) { int x = 1; { int x = 2; x = x + 1; } return x; }");
    tc "global initializer must be constant" (fun () ->
        typecheck_err "int g; int h = g + 1;");
    tc "constant global initializer ok" (fun () -> typecheck_ok "int h = 3 + 4;");
    tc "expr types recorded" (fun () ->
        let tu = parse_ok "int main(void) { return 1 + 2; }" in
        let r = Typecheck.check tu in
        check Alcotest.bool "has types" true
          (Visit.collect_exprs
             (fun e -> Typecheck.Types.find_opt r.Typecheck.r_types e.Ast.eid <> None)
             tu
          <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Ids and RNG                                                         *)
(* ------------------------------------------------------------------ *)

(* [Ast_ids.well_formed] as it was before the bitmap, as a reference *)
let ref_well_formed (tu : Ast.tu) : bool =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  let check id =
    if id = Ast.no_id || Hashtbl.mem seen id then ok := false
    else Hashtbl.add seen id ()
  in
  Visit.iter_tu tu ~fe:(fun e -> check e.Ast.eid) ~fs:(fun s -> check s.Ast.sid);
  !ok

(* [tu] with every node id drawn from [next] *)
let relabel tu next =
  let tu =
    Visit.map_tu tu
      ~fe:(fun e -> { e with Ast.eid = next () })
      ~fs:(fun s -> { s with Ast.sid = next () })
  in
  {
    Ast.globals =
      List.map
        (function Ast.Gfun fd -> Ast.Gfun { fd with Ast.f_id = next () } | g -> g)
        tu.Ast.globals;
  }

(* every parse in [srcs] is numbered as [Ast_ids.renumber] numbers *)
let parse_ids_exact srcs =
  List.iter
    (fun (name, src) ->
      let tu = parse_ok src in
      if tu <> Ast_ids.renumber tu then
        Alcotest.failf "%s: the parser's ids are not renumber's:@.%s" name src)
    srcs

let id_rng_tests =
  [
    tc "the parser numbers nodes as renumber does" (fun () ->
        parse_ids_exact
          (List.filter_map
             (fun (name, tu, parses) ->
               if parses then Some (name, Pretty.tu_to_string tu) else None)
             Shapes.all);
        parse_ids_exact Shapes.texts;
        List.iter
          (fun (k, cfg) ->
            parse_ids_exact
              (List.init 200 (fun i ->
                   ( Fmt.str "generated %d" (k + i),
                     Ast_gen.gen_source ~cfg (Rng.create (k + i)) ))))
          [
            (0, Ast_gen.default_config);
            (1000, Ast_gen.csmith_like_config);
            (2000, Ast_gen.yarpgen_like_config);
          ]);
    tc "the type table answers as a Hashtbl keyed by id" (fun () ->
        let module T = Typecheck.Types in
        let tys =
          [| Ast.Tint (Ast.Iint, true); Ast.Tdouble; Ast.Tptr Ast.Tvoid;
             Ast.Tnamed "T" |]
        in
        for i = 0 to 99 do
          let rng = Rng.create (7000 + i) in
          let t = T.create (Rng.int rng 64) in
          let r = Hashtbl.create 16 in
          let touched = ref [] in
          let id () =
            let id =
              match Rng.int rng 8 with
              | 0 -> Ast.no_id
              | 1 -> -2 - Rng.int rng 50                     (* negative *)
              | 2 -> T.limit - 1 + Rng.int rng 3             (* across the limit *)
              | 3 -> max_int - Rng.int rng 3
              | 4 -> min_int + Rng.int rng 3
              | _ -> Rng.int rng 300                          (* dense, duplicated *)
            in
            touched := id :: !touched;
            id
          in
          let agree id =
            let want = Hashtbl.find_opt r id in
            if T.find_opt t id <> want
               || T.find t id ~default:Ast.Tvoid <> Option.value want ~default:Ast.Tvoid
            then Alcotest.failf "sequence %d: id %d disagrees" i id
          in
          for _ = 1 to 400 do
            match Rng.int rng 25 with
            | 0 ->
              T.clear t;
              Hashtbl.reset r
            | n when n < 14 ->
              let id = id () and ty = tys.(Rng.int rng (Array.length tys)) in
              T.set t id ty;
              Hashtbl.replace r id ty
            | _ -> agree (id ())
          done;
          (* every id ever set, and the ranges around the dense and the
             limit ids, bind exactly what the reference binds *)
          List.iter agree !touched;
          for id = -60 to 310 do agree id done;
          for id = T.limit - 4 to T.limit + 4 do agree id done
        done);
    tc "a small unit typed after a large one in the same table" (fun () ->
        let module T = Typecheck.Types in
        let t = T.create 1 in
        let small = parse_ok "int main(void) { int x = 2; return x + 1; }" in
        let fresh = Typecheck.check small in
        for seed = 0 to 7 do
          (* large units with renumbered, duplicate, unassigned and huge ids *)
          let large = Ast_gen.gen_tu (Rng.create (5000 + seed)) in
          let rng = Rng.create seed and n = ref 0 in
          let large =
            if seed mod 2 = 0 then large
            else
              relabel large (fun () ->
                  incr n;
                  match Rng.int rng 4 with
                  | 0 -> Ast.no_id
                  | 1 -> T.limit + !n
                  | 2 -> - !n - 1
                  | _ -> Rng.int rng 100)
          in
          let big = Typecheck.check ~types:t large in
          let large_ids = List.map (fun e -> e.Ast.eid) (Visit.collect_exprs (fun _ -> true) large) in
          check Alcotest.bool "the large unit is typed" true
            (List.exists (fun id -> T.find_opt big.r_types id <> None) large_ids);
          let again = Typecheck.check ~types:t small in
          let probe id =
            if T.find_opt again.r_types id <> T.find_opt fresh.r_types id then
              Alcotest.failf "seed %d: id %d differs from a fresh table" seed id
          in
          (* no id the large unit bound is left behind *)
          List.iter probe large_ids;
          for id = -3 to Ast_ids.max_id large + 1 do probe id done;
          List.iter probe [ T.limit; T.limit + 1; min_int; max_int ]
        done);
    tc "well_formed matches the table reference on every kind of id" (fun () ->
        let big = 1 lsl 24 in
        let odd = [| Ast.no_id; -2; min_int; big - 1; big; 1 lsl 40; max_int; 0; 5 |] in
        for i = 0 to 299 do
          let rng = Rng.create (4000 + i) in
          let tu = Ast_gen.gen_tu rng in
          let counter = ref 0 in
          let seq base step () =
            incr counter;
            base + (step * !counter)
          in
          let next =
            match i mod 8 with
            | 0 -> seq 0 1                                  (* renumbered *)
            | 1 -> fun () -> Rng.int rng 400               (* duplicates *)
            | 2 ->                                          (* one no_id *)
              let hole = 1 + Rng.int rng 50 in
              fun () -> if seq 0 1 () = hole then Ast.no_id else !counter
            | 3 -> seq (big - 20) 1                         (* across the bitmap's end *)
            | 4 -> seq (max_int - 1_000_000) 997            (* huge, then wrapping *)
            | 5 -> seq (-1) (-1)                            (* negative, from -2 down *)
            | 6 -> fun () -> max 0 (seq (-2) 1 ())          (* 0 twice *)
            | _ -> fun () -> odd.(Rng.int rng (Array.length odd))
          in
          let tu = relabel tu next in
          let want = ref_well_formed tu in
          check Alcotest.bool (Fmt.str "well_formed %d" i) want (Ast_ids.well_formed tu);
          check
            Alcotest.(option int)
            (Fmt.str "well_formed_max %d" i)
            (if want then Some (Ast_ids.max_id tu) else None)
            (Ast_ids.well_formed_max tu)
        done);
    tc "renumber restores uniqueness" (fun () ->
        let tu = parse_ok "int main(void) { return 1 + 2; }" in
        (* duplicate a subtree to break uniqueness *)
        let broken =
          Visit.map_tu tu ~fe:(fun e ->
              match e.Ast.ek with
              | Ast.Binop (op, a, _) -> { e with Ast.ek = Ast.Binop (op, a, a) }
              | _ -> e)
        in
        check Alcotest.bool "broken" false (Ast_ids.well_formed broken);
        check Alcotest.bool "fixed" true
          (Ast_ids.well_formed (Ast_ids.renumber broken)));
    tc "max_id is an upper bound" (fun () ->
        let tu = parse_ok "int main(void) { return 1; }" in
        let m = Ast_ids.max_id tu in
        Visit.iter_tu tu ~fe:(fun e ->
            check Alcotest.bool "bound" true (e.Ast.eid <= m)));
    tc "rng determinism" (fun () ->
        let a = Rng.create 5 and b = Rng.create 5 in
        for _ = 1 to 50 do
          check Alcotest.int "same" (Rng.int a 1000) (Rng.int b 1000)
        done);
    tc "rng bounds" (fun () ->
        let r = Rng.create 1 in
        for _ = 1 to 200 do
          let v = Rng.int r 7 in
          check Alcotest.bool "in range" true (v >= 0 && v < 7)
        done);
    tc "rng int_in inclusive" (fun () ->
        let r = Rng.create 2 in
        let saw_lo = ref false and saw_hi = ref false in
        for _ = 1 to 500 do
          let v = Rng.int_in r 3 5 in
          if v = 3 then saw_lo := true;
          if v = 5 then saw_hi := true;
          check Alcotest.bool "range" true (v >= 3 && v <= 5)
        done;
        check Alcotest.bool "hits bounds" true (!saw_lo && !saw_hi));
    tc "shuffle preserves elements" (fun () ->
        let r = Rng.create 3 in
        let xs = [ 1; 2; 3; 4; 5; 6 ] in
        check
          Alcotest.(list int)
          "same multiset" xs
          (List.sort compare (Rng.shuffle r xs)));
    tc "weighted respects zero weights" (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 100 do
          check Alcotest.int "never zero-weight" 1
            (Rng.weighted r [ (0, 0); (5, 1) ])
        done);
    tc "split streams are independent" (fun () ->
        let r = Rng.create 9 in
        let a = Rng.split r and b = Rng.split r in
        let va = List.init 10 (fun _ -> Rng.int a 1000) in
        let vb = List.init 10 (fun _ -> Rng.int b 1000) in
        check Alcotest.bool "different" true (va <> vb));
  ]

let () =
  Alcotest.run "cparse"
    [
      ("lexer", lexer_tests @ lexer_props);
      ("parser", parser_tests);
      ("pretty", roundtrip_tests);
      ("properties", prop_tests);
      ("const-eval", const_tests);
      ("typecheck", typecheck_tests);
      ("ids-and-rng", id_rng_tests);
    ]
