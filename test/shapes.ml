(* Hand-built trees whose printed text does not parse back to the tree
   up to ids, or does not parse at all: the shapes Pretty.parsed_form
   must rewrite as the parser does or refuse.  Shared by the cparse and
   simcomp tests. *)

open Cparse
open Ast

let int_ty = Tint (Iint, true)

let var ?init name =
  { v_name = name; v_ty = int_ty; v_quals = no_quals; v_storage = S_none;
    v_init = init }

let decl ds = mk_stmt (Sdecl ds)
let g = ident "g"
let x = ident "x"
let set n = sexpr (assign g (int_lit n))
let if_ c t f = mk_stmt (Sif (c, t, f))
let while_ c b = mk_stmt (Swhile (c, b))
let cast ty e = mk_expr (Cast (ty, e))

(* [int g = 1; int x = 2; int main(void) { body; return g; }] *)
let program body =
  {
    globals =
      [
        Gvar (var ~init:(int_lit 1) "g");
        Gvar (var ~init:(int_lit 2) "x");
        Gfun
          {
            f_id = no_id;
            f_name = "main";
            f_ret = int_ty;
            f_params = [];
            f_variadic = false;
            f_body = body @ [ sreturn (Some g) ];
            f_static = false;
            f_inline = false;
          };
      ];
  }

(* [program body] with [gs] declared first. *)
let globals gs body = { globals = gs @ (program body).globals }

let char_ty = Tint (Ichar, true)
let typed ty ?init name = { (var ?init name) with v_ty = ty }

(* (name, tree, whether its printed text parses) *)
let all : (string * tu * bool) list =
  let case labels body = { case_labels = labels; case_body = body } in
  let two = [ var "a"; var ~init:(int_lit 1) "b" ] in
  [
    ("dangling else", program [ if_ x (if_ g (set 2) None) (Some (set 3)) ], true);
    ( "empty-body case before a case",
      program
        [
          mk_stmt
            (Sswitch
               ( x,
                 [
                   case [ L_case (int_lit 1) ] [];
                   case [ L_case (int_lit 2) ] [ set 4; mk_stmt Sbreak ];
                   case [ L_default ] [];
                 ] ));
        ],
      true );
    ("Sdecl [] in a block", program [ decl []; set 1 ], true);
    ("two declarators in a block", program [ decl two; set 1 ], true);
    ("Sdecl [] as an if body", program [ if_ x (decl []) None; set 1 ], true);
    ("two declarators as an if body", program [ if_ x (decl two) None ], true);
    ("Sdecl [] as a while body", program [ while_ x (decl []); set 1 ], true);
    ("two declarators as a while body", program [ while_ x (decl two) ], true);
    ( "Sdecl [] as an if body before else",
      program [ if_ x (decl []) (Some (set 1)) ],
      false );
    ( "two declarators as an if body before else",
      program [ if_ x (decl two) (Some (set 1)) ],
      false );
    ( "labelled Snull",
      program [ mk_stmt (Slabel ("L", mk_stmt Snull)); set 1 ],
      true );
    ( "label before a closing brace",
      program [ sblock [ set 1; mk_stmt (Slabel ("L", decl [])) ] ],
      true );
    ( "negative int literal",
      program
        [ set (-5); sexpr (assign g (unop Neg (int_lit 5)));
          sexpr (assign g (unop Neg (int_lit (-5)))) ],
      true );
    ( "float literal",
      program
        [ decl [ { (var ~init:(float_lit (-1.5)) "d") with v_ty = Tdouble } ];
          sexpr (assign (ident "d") (float_lit 0.1));
          sexpr (assign (ident "d") (unop Neg (float_lit 2.5))) ],
      true );
    ( "++(long)g",
      program [ sexpr (mk_expr (Incdec (true, true, cast (Tint (Ilong, true)) g))) ],
      false );
    ("&(int)x", program [ sexpr (mk_expr (Addrof (cast int_ty x))) ], true);
    ("(int)x = 1", program [ sexpr (assign (cast int_ty x) (int_lit 1)) ], true);
    ("a keyword as a name", program [ sexpr (binop Add (ident "int") x) ], false);
    ( "a typedef name as a variable",
      (let tu = program [ sexpr (binop Add (ident "T") x) ] in
       { globals = Gtypedef ("T", int_ty) :: tu.globals }),
      false );
    (* token boundaries: where the printer's token stream is easiest to
       get wrong *)
    ( "signs: (-5), - -x and a negative float",
      program
        [ set (-5); sexpr (assign g (unop Neg (unop Neg x)));
          sexpr (assign g (unop Uplus (unop Neg x)));
          decl [ typed Tdouble ~init:(float_lit (-2.5)) "d" ];
          sexpr (assign (ident "d") (binop Sub (ident "d") (float_lit (-0.5)))) ],
      true );
    ( "ints around 256 and suffixes",
      program
        (set 255 :: set 256 :: set 0
         :: List.map
              (fun (kind, unsigned) -> sexpr (assign g (int_lit ~kind ~unsigned 7)))
              [ (Iint, true); (Ilong, false); (Ilong, true); (Ilonglong, false);
                (Ilonglong, true) ]
        @ [ sexpr (assign g (int_lit ~kind:Ilong 300)) ]),
      true );
    ( "long long and unsigned char",
      program
        [ decl [ typed (Tint (Ilonglong, true)) ~init:(int_lit 1) "ll" ];
          decl [ typed (Tint (Ichar, false)) ~init:(int_lit 2) "uc" ];
          decl [ typed (Tint (Ishort, false)) "us" ] ],
      true );
    ( "char and string escapes",
      program
        (List.mapi
           (fun i c ->
             decl [ typed char_ty ~init:(mk_expr (Char_lit c)) ("c" ^ string_of_int i) ])
           [ '\000'; '\n'; '\t'; '\r'; '\\'; '\''; '"'; '\001'; '\127'; '\255'; 'a' ]
        @ [ decl
              [ typed (Tptr char_ty)
                  ~init:(mk_expr (Str_lit "a\000b\"c'\\\n\t\r\001\2551"))
                  "s" ] ]),
      true );
    ( "array declarators",
      globals
        [ Gvar (typed (Tarray (Tarray (int_ty, Some 2), Some 3)) "m") ]
        [ decl [ typed (Tarray (int_ty, Some 3)) "a" ];
          decl [ typed (Tarray (Tptr int_ty, Some 256)) "p" ];
          sexpr (assign g (mk_expr (Index (ident "a", int_lit 1)))) ],
      true );
    ( "a function-pointer declarator",
      globals
        [ Gvar (typed (Tptr (Tfunc (int_ty, [ int_ty; Tptr int_ty ], true))) "fp") ]
        [ set 1 ],
      false );
    ( "a negative enum value and a variadic prototype",
      globals
        [ Genum ("E", [ ("A", Some (-5L)); ("B", None); ("C", Some 256L) ]);
          Gproto
            { pr_name = "logf"; pr_ret = Tptr int_ty;
              pr_params = [ Tptr char_ty; Tint (Ilong, false) ]; pr_variadic = true } ]
        [ set 1 ],
      true );
    ( "sizeof(T) and sizeof x",
      program
        [ sexpr (assign g (mk_expr (Sizeof_ty int_ty)));
          sexpr (assign g (mk_expr (Sizeof_ty (Tptr (Tstruct "S")))));
          sexpr (assign g (mk_expr (Sizeof_expr x)));
          sexpr (assign g (mk_expr (Sizeof_expr (unop Neg x)))) ],
      true );
  ]

(* Source texts where the parser builds nodes it does not keep: a
   negated literal folds into its operand's node, and a typedef
   declarator's initializer is parsed and dropped.  (name, text) *)
let texts : (string * string) list =
  [
    ("-5", "int g; int main(void) { g = -5; return g + -5; }");
    ("-(5)", "int g; int main(void) { g = -(5); return g * -(5); }");
    ("- -5", "int g; int main(void) { g = - -5; return - - -5; }");
    ("-1.5", "double d = -1.5; int main(void) { d = -1.5 * d; return 0; }");
    ( "a local typedef with an initializer",
      "int main(void) { int a = 1; typedef int T = 3; T x = a + 2; return x; }" );
    ( "a global typedef with an initializer",
      "int g = 1; typedef int T = 3; T h = 2; int main(void) { return g + h; }" );
  ]

(* [s] replaced by, or wrapped in, one of the shapes above (and a few
   expression shapes the parser reads differently), picked by [rng]:
   perturbs generated programs for differential tests. *)
let perturb rng s =
  let a = ident "a" and b = ident "b" in
  let label p = p ^ string_of_int (Rng.int rng 1000) in
  let case labels body = { case_labels = labels; case_body = body } in
  match Rng.int rng 20 with
  | 0 -> decl []
  | 1 -> decl [ var "a"; var ~init:(int_lit 1) "b" ]
  | 2 -> if_ a s (Some (decl []))
  | 3 -> if_ a (if_ b s None) (Some s)
  | 4 -> mk_stmt (Slabel (label "L", decl []))
  | 5 -> mk_stmt (Slabel (label "M", mk_stmt Snull))
  | 6 -> while_ a (decl [ var "c"; var "d" ])
  | 7 -> mk_stmt (Sdo (decl [], a))
  | 8 -> mk_stmt (Sdo (if_ a s None, b))
  | 9 ->
    mk_stmt
      (Sswitch
         ( a,
           [ case [ L_case (int_lit 1) ] []; case [] [ s ];
             case [ L_default ] [ decl [] ] ] ))
  | 10 -> mk_stmt (Sfor (Some (Fi_decl []), None, None, s))
  | 11 ->
    let p = { (var "p") with v_ty = Tptr int_ty } in
    mk_stmt (Sfor (Some (Fi_decl [ p; var "q" ]), None, None, s))
  | 12 -> if_ a (mk_stmt (Slabel ("N", if_ b s None))) (Some s)
  | 13 -> sexpr (mk_expr (Incdec (false, true, cast (Tint (Ilong, true)) a)))
  | 14 -> sexpr (unop Neg (mk_expr (Incdec (false, true, a))))
  | 15 -> sexpr (mk_expr (Sizeof_expr (cast int_ty a)))
  | 16 -> sexpr (mk_expr (Index (float_lit (-1.5), a)))
  | 17 -> sexpr (binop Add (mk_expr (Init_list [ int_lit 1 ])) a)
  | 18 -> sexpr (unop Neg (unop Neg (mk_expr (Int_lit (5L, Ichar, false)))))
  | _ -> sblock [ s; decl [] ]
