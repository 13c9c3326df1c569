(* The simulated compiler driver: front-end → IR generation →
   optimization → back-end, with branch-coverage instrumentation and the
   latent-bug database consulted at every stage boundary.

   Two compiler "products" share the pipeline but have distinct bug sets
   and distinct coverage-id salts (their code bases differ), so fuzzing
   GCC-sim and Clang-sim yields different coverage maps and crash sets,
   as in the paper's RQ1 setup. *)

open Cparse

type compiler = Bugdb.compiler = Gcc | Clang

type dump_ir = Dump_none | Dump_all | Dump_pass of string

type options = {
  opt_level : int;                (* 0..3; the paper uses -O2 *)
  disabled_passes : string list;  (* -fno-<pass> *)
  pass_list : string list option; (* -fpasses=a,b,c: explicit pipeline *)
  dump_ir : dump_ir;              (* -fdump-ir[=PASS]: snapshot IR around passes *)
}

let default_options =
  { opt_level = 2; disabled_passes = []; pass_list = None; dump_ir = Dump_none }

(* The ordered pass names the optimizer will run under [opts]. *)
let pipeline_of (opts : options) : string list =
  Opt.planned ?pass_list:opts.pass_list ~level:opts.opt_level
    ~disabled:opts.disabled_passes ()

type outcome =
  | Compiled of { asm : string; warnings : int; ir_size : int; spills : int }
  | Compile_error of string list
  | Crashed of Crash.t

let outcome_is_success = function Compiled _ -> true | _ -> false

let salt = function Gcc -> 0x5a5a00 | Clang -> 0xc1a600

let cov_event cov ~salt ~site ~a ~b =
  match cov with
  | Some cov -> Coverage.branch3 cov (site lxor salt) a b
  | None -> ()

(* Diagnostics mention user identifiers; a real compiler's branches do
   not depend on spelling, so identifier characters are stripped before
   hashing a message into a coverage id. *)
let sanitize_msg (msg : string) : string =
  let buf = Buffer.create (String.length msg) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | c -> Buffer.add_char buf c)
    msg;
  Buffer.contents buf

(* Front-end lexical coverage: token-kind bigrams (error-handling paths of
   the lexer are what byte-level fuzzers explore).  Walks the kind codes
   of the token stream the parser already consumed — the source is lexed
   exactly once per compile.  The lexer branches on token *classes*, not
   identifier content. *)
let lex_tag (t : Token.t) =
  match t with
  | Token.Ident _ -> 1
  | Token.Int_lit (v, _, _) -> 2 + (if Int64.compare v 256L < 0 then 0 else 1)
  | Token.Float_lit _ -> 4
  | Token.Char_lit _ -> 5
  | Token.Str_lit _ -> 6
  | Token.Kw k -> 8 + (Hashtbl.hash k land 0x1f)
  | t -> 48 + (Hashtbl.hash (Token.to_string t) land 0x7)

(* [lex_tag] per kind code: a token's tag depends only on its kind. *)
let kind_tags =
  Array.init Lexer.kind_count (fun k -> lex_tag (Lexer.kind_example k))

let lex_coverage ?limit cov ~salt (toks : Lexer.tokens) : unit =
  match cov with
  | None -> ()
  | Some _ ->
    (* a recursive-descent front-end stops lexing at the first parse
       error, so coverage beyond [limit] (the error offset) is never
       reached in reality *)
    let n =
      match limit with
      | None -> Lexer.length toks
      | Some off ->
        let n = ref 0 in
        while !n < Lexer.length toks && Lexer.offset toks !n <= off do
          incr n
        done;
        max 1 !n
    in
    let prev = ref kind_tags.(Lexer.kind toks 0) in
    for i = 1 to n - 1 do
      let t = kind_tags.(Lexer.kind toks i) in
      cov_event cov ~salt ~site:0x100 ~a:!prev ~b:t;
      prev := t
    done

(* An error-handling path keyed by the shape of its diagnostic: the
   lexer's (0x110), the parser's (0x120) or the type checker's (0x300).
   The message is hashed only when coverage is on. *)
let msg_coverage cov ~salt ~site ~bits ~b msg =
  match cov with
  | Some _ ->
    cov_event cov ~salt ~site ~a:(Hashtbl.hash (sanitize_msg msg) land bits) ~b
  | None -> ()

(* AST-shape coverage: parent/child node-kind pairs, as a proxy for the
   parser's and semantic analyzer's branch structure. *)
let ast_coverage cov ~salt (tu : Ast.tu) : unit =
  match cov with
  | None -> ()
  | Some _ ->
    let ek (e : Ast.expr) = Lower.ekind_tag e in
    let rec walk_expr parent (e : Ast.expr) =
      cov_event cov ~salt ~site:0x200 ~a:parent ~b:(ek e);
      let p = ek e in
      match e.ek with
      | Binop (op, a, b) ->
        cov_event cov ~salt ~site:0x210 ~a:(Lower.binop_hash_tag op) ~b:p;
        walk_expr p a;
        walk_expr p b
      | Unop (_, a) | Incdec (_, _, a) | Deref a | Addrof a | Cast (_, a)
      | Member (a, _) | Arrow (a, _) | Sizeof_expr a ->
        walk_expr p a
      | Assign (_, a, b) | Index (a, b) | Comma (a, b) ->
        walk_expr p a;
        walk_expr p b
      | Call (f, args) ->
        walk_expr p f;
        List.iter (walk_expr p) args
      | Cond (c, t, f) ->
        walk_expr p c;
        walk_expr p t;
        walk_expr p f
      | Init_list es -> List.iter (walk_expr p) es
      | Int_lit _ | Float_lit _ | Char_lit _ | Str_lit _ | Ident _
      | Sizeof_ty _ -> ()
    in
    let rec walk_stmt parent (s : Ast.stmt) =
      let tag = Lower.skind_tag s in
      cov_event cov ~salt ~site:0x220 ~a:parent ~b:tag;
      match s.sk with
      | Sexpr e -> walk_expr 0 e
      | Sdecl vs ->
        List.iter
          (fun (v : Ast.var_decl) ->
            cov_event cov ~salt ~site:0x230
              ~a:(Lower.ty_tag v.v_ty)
              ~b:(Bool.to_int v.v_quals.q_const lor (2 * Bool.to_int v.v_quals.q_volatile));
            Option.iter (walk_expr 0) v.v_init)
          vs
      | Sif (c, t, f) ->
        walk_expr 0 c;
        walk_stmt tag t;
        Option.iter (walk_stmt tag) f
      | Swhile (c, b) ->
        walk_expr 0 c;
        walk_stmt tag b
      | Sdo (b, c) ->
        walk_stmt tag b;
        walk_expr 0 c
      | Sfor (init, c, st, b) ->
        (match init with
        | Some (Fi_expr e) -> walk_expr 0 e
        | Some (Fi_decl vs) ->
          List.iter (fun (v : Ast.var_decl) -> Option.iter (walk_expr 0) v.v_init) vs
        | None -> ());
        Option.iter (walk_expr 0) c;
        Option.iter (walk_expr 0) st;
        walk_stmt tag b
      | Sreturn e -> Option.iter (walk_expr 0) e
      | Sblock ss -> List.iter (walk_stmt tag) ss
      | Sswitch (e, cases) ->
        walk_expr 0 e;
        List.iter
          (fun (c : Ast.switch_case) ->
            cov_event cov ~salt ~site:0x240
              ~a:(List.length c.case_labels)
              ~b:(List.length c.case_body land 0xf);
            List.iter (walk_stmt tag) c.case_body)
          cases
      | Sgoto _ | Slabel _ | Sbreak | Scontinue | Snull -> ()
    in
    List.iter
      (function
        | Ast.Gfun fd ->
          cov_event cov ~salt ~site:0x250
            ~a:(Lower.ty_tag fd.f_ret)
            ~b:(List.length fd.f_params);
          List.iter (walk_stmt 0) fd.f_body
        | Ast.Gvar v ->
          cov_event cov ~salt ~site:0x260 ~a:(Lower.ty_tag v.v_ty) ~b:0
        | Ast.Gstruct (_, fields) | Ast.Gunion (_, fields) ->
          cov_event cov ~salt ~site:0x270 ~a:(List.length fields) ~b:0
        | Ast.Gtypedef _ | Ast.Genum _ | Ast.Gproto _ ->
          cov_event cov ~salt ~site:0x280 ~a:1 ~b:0)
      tu.globals

(* Semantic-path coverage: pairwise combinations of program features.

   A real compiler's deep branches fire on *conjunctions* of semantic
   properties (a const-qualified buffer AND a self-referential sprintf; a
   decreasing loop AND an accumulation chain).  We model that directly:
   every pair of feature buckets is a potential branch.  Closed-grammar
   generators saturate this space quickly because they can never set the
   rare features; semantic-aware mutators keep opening new pairs. *)
let feature_coverage cov ~salt (a : Features.ast) : unit =
  match cov with
  | None -> ()
  | Some _ ->
    let bucket n =
      if n <= 0 then 0
      else if n <= 2 then 1
      else if n <= 5 then 2
      else if n <= 10 then 3
      else if n <= 20 then 4
      else 5
    in
    let b v = if v then 1 else 0 in
    let feats =
      [|
        b a.has_const_qual; b a.has_volatile_qual; b a.has_const_write_warning;
        b a.has_void_fn_with_labels; b a.has_labels_no_return;
        b a.has_decreasing_loop; b a.has_zero_init_decreasing_loop;
        b a.has_scalar_accum_chain; b a.has_sprintf_self; b a.has_struct_cast;
        b a.has_compound_literal; b a.has_ptr_arith_cast_chain;
        b a.has_fallthrough; b a.has_empty_loop_body; b a.has_shift_overflow;
        b a.has_div_by_literal_zero; b a.has_uninit_use; b a.has_recursion;
        b a.has_variadic_call; b a.has_array_param;
        bucket a.n_gotos; bucket a.n_labels; bucket a.n_commas;
        bucket a.max_cast_chain; bucket a.max_loop_depth;
        bucket a.max_switch_cases; bucket a.max_call_args;
        bucket a.n_conds; bucket a.n_ptr_ops; bucket a.n_switches;
        bucket a.n_casts; bucket a.n_incdec;
      |]
    in
    let n = Array.length feats in
    for i = 0 to n - 1 do
      if feats.(i) > 0 then
        for j = i + 1 to n - 1 do
          cov_event cov ~salt ~site:0x500
            ~a:((i * 64) + feats.(i))
            ~b:((j * 64) + feats.(j))
        done
    done

let diag_coverage cov ~salt (diags : Typecheck.diag list) : unit =
  List.iter
    (fun (d : Typecheck.diag) ->
      msg_coverage cov ~salt ~site:0x300 ~bits:0xfff
        ~b:(match d.sev with Typecheck.Error -> 1 | Typecheck.Warning -> 0)
        d.msg)
    diags

(* ------------------------------------------------------------------ *)
(* Front-end                                                           *)
(* ------------------------------------------------------------------ *)

(* The one front-end every entry point runs: lex, parse, type-check and
   compute the AST features.  The source is tokenized at most once: the
   same stream feeds the parser and lexical coverage (which, for parse
   errors, stops where a real single-pass front-end would stop).  With a
   [tree] whose printing is [src] and whose {!Pretty.parsed_form} exists,
   that form is the parse, so the parser is skipped; the lexer still
   runs when [cov] wants its token stream, and not at all otherwise.
   The expression-type table is recycled from the arena: the result does
   not outlive the compile (lowering is its last reader).  [check] is
   the front-end stage's bug check, given the AST features once the
   parse succeeded; [parsed] receives the tree as soon as it exists, so
   a crash in a later check still leaves it with the caller.  Errors
   carry the diagnostics a [Compile_error] reports. *)
let front_end ?cov ?tree ~salt ~check ~parsed (src : string) :
    (Ast.tu * Typecheck.result * Features.ast, string list) result =
  let failed msg =
    check None;
    msg_coverage cov ~salt ~site:0x120 ~bits:0x1f ~b:0 msg;
    Error [ msg ]
  in
  let analyse tu =
    parsed := Some tu;
    ast_coverage cov ~salt tu;
    let ast = Features.ast_features tu in
    feature_coverage cov ~salt ast;
    check (Some ast);
    let tc = Typecheck.check ~types:(Scratch.get ()).Scratch.types tu in
    diag_coverage cov ~salt tc.r_diags;
    if tc.r_ok then Ok (tu, tc, ast)
    else Error (List.map Typecheck.diag_to_string (Typecheck.errors tc))
  in
  let from_tree =
    match tree with
    | None -> None
    | Some t -> ( try Pretty.parsed_form t with Stack_overflow -> None)
  in
  match from_tree with
  | Some tu ->
    if Option.is_some cov then lex_coverage cov ~salt (Lexer.tokenize src);
    analyse tu
  | None -> (
    match Lexer.tokenize src with
    | exception Lexer.Error (msg, _loc) ->
      msg_coverage cov ~salt ~site:0x110 ~bits:0x1f ~b:0 msg;
      failed msg
    | toks -> (
      match Parser.parse_tokens toks with
      | exception Parser.Error (msg, loc) ->
        lex_coverage ~limit:loc.Loc.offset cov ~salt toks;
        failed msg
      | exception Stack_overflow ->
        lex_coverage cov ~salt toks;
        failed "parser stack overflow"
      | tu ->
        lex_coverage cov ~salt toks;
        analyse tu))

(* Deterministically corrupt the optimized IR the way a wrong-code bug
   would: the first subtraction in the largest function gets its operands
   swapped (a classic reassociation-style miscompilation). *)
let miscompile_ir (mc : Bugdb.miscompile) (prog : Ir.program) : unit =
  ignore mc;
  let budget = ref 3 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          if !budget > 0 then
            b.Ir.b_instrs <-
              List.map
                (fun i ->
                  match i with
                  | Ir.Ibin (Cparse.Ast.Sub, r, a, bb) when !budget > 0 ->
                    decr budget;
                    Ir.Ibin (Cparse.Ast.Sub, r, bb, a)
                  | i -> i)
                b.Ir.b_instrs)
        f.Ir.fn_blocks)
    prog.Ir.p_funcs

(* ------------------------------------------------------------------ *)
(* Optimizer stage                                                     *)
(* ------------------------------------------------------------------ *)

(* One executed pipeline step, as recorded by [compile_passes]. *)
type pass_step = {
  st_pass : string;
  st_index : int;                 (* position in the executed pipeline *)
  st_changes : int;
  st_ir_before : string option;   (* per [options.dump_ir] *)
  st_ir_after : string option;
  st_diverged : bool option;
      (* with [verify]: does the IR's observable behaviour after this
         pass differ from the pre-opt IR's?  [None] when either run
         falls outside the interpreter's subset. *)
}

type pass_trace = {
  pt_steps : pass_step list;
  pt_reference : (int * bool) option;  (* pre-opt observable, with [verify] *)
  pt_first_divergent : string option;
  pt_program : Ir.program;
}

let interp_fuel = 1_000_000

(* Per-pass optimizer counters (opt.pass.<name>.{runs,changes}),
   pre-resolved per context like [outcome_counters] below: the pipeline
   runs up to eight passes per compile, so per-pass registry lookups on
   the hot path would dwarf the passes themselves on small inputs.  The
   memo is domain-local, so parallel campaign workers never contend. *)
type pass_counters = {
  pc_runs : Engine.Metrics.counter;
  pc_changes : Engine.Metrics.counter;
}

let pass_counters_memo :
    (Engine.Ctx.t * (string, pass_counters) Hashtbl.t) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let pass_counters (ctx : Engine.Ctx.t) (name : string) : pass_counters =
  let memo = Domain.DLS.get pass_counters_memo in
  let tbl =
    match !memo with
    | Some (c, tbl) when c == ctx -> tbl
    | _ ->
      let tbl = Hashtbl.create 16 in
      memo := Some (ctx, tbl);
      tbl
  in
  match Hashtbl.find_opt tbl name with
  | Some k -> k
  | None ->
    let c suffix =
      Engine.Metrics.counter ctx.Engine.Ctx.metrics
        ("opt.pass." ^ name ^ suffix)
    in
    let k = { pc_runs = c ".runs"; pc_changes = c ".changes" } in
    Hashtbl.replace tbl name k;
    k

(* Run the optimizer pipeline over [prog]: per-pass engine accounting
   (spans + opt.pass.<name>.{runs,changes}), the culprit-keyed wrong-code
   injection, and optional per-step IR snapshots / differential checks.
   Shared by [compile_tu] and [compile_ir] (no [collect]) and
   [compile_passes]. *)
let run_opt_stage ?cov ?engine ?collect ?(verify = false)
    (compiler : compiler) (opts : options) (ast : Features.ast)
    (prog : Ir.program) : (string * int) list * (int * bool) option =
  let planned = pipeline_of opts in
  let mc =
    Bugdb.check_miscompile ~compiler ~opt_level:opts.opt_level
      ~pipeline:planned ~ast
  in
  let reference =
    if verify then Ir_interp.observable ~fuel:interp_fuel prog else None
  in
  let dump_wanted name =
    match opts.dump_ir with
    | Dump_none -> false
    | Dump_all -> true
    | Dump_pass p -> String.equal p name
  in
  let mc_applied = ref false in
  let pending_before = ref None in
  let instrument (pass : Opt.pass) execute =
    pending_before :=
      (if Option.is_some collect && dump_wanted pass.Opt.pass_name then
         Some (Ir.program_to_string prog)
       else None);
    Engine.Span.with_opt engine ~name:("opt.pass." ^ pass.Opt.pass_name)
      execute
  in
  let observer ~index ~pass ~changes p =
    let name = pass.Opt.pass_name in
    (match engine with
    | Some ctx ->
      let k = pass_counters ctx name in
      Engine.Metrics.incr k.pc_runs;
      if changes > 0 then Engine.Metrics.incr ~by:changes k.pc_changes
    | None -> ());
    (* a latent wrong-code bug is the culprit pass's own miscompilation:
       the corruption lands when that pass executes, so per-pass dumps
       and differential checks can localize it *)
    (match mc with
    | Some m when (not !mc_applied) && String.equal m.Bugdb.mc_culprit name ->
      mc_applied := true;
      miscompile_ir m p
    | _ -> ());
    match collect with
    | None -> ()
    | Some push ->
      let after =
        if dump_wanted name then Some (Ir.program_to_string p) else None
      in
      let diverged =
        match reference with
        | None -> None
        | Some r -> (
          match Ir_interp.observable ~fuel:interp_fuel p with
          | Some o -> Some (o <> r)
          | None -> None)
      in
      push
        {
          st_pass = name;
          st_index = index;
          st_changes = changes;
          st_ir_before = !pending_before;
          st_ir_after = after;
          st_diverged = diverged;
        }
  in
  let results =
    Opt.run_pipeline ?cov ~observer ~instrument ?pass_list:opts.pass_list
      ~level:opts.opt_level ~disabled:opts.disabled_passes prog
  in
  (results, reference)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

(* Crash stages and engine stages name the same pipeline boundaries. *)
let engine_stage = function
  | Crash.Front_end -> Engine.Event.Frontend
  | Crash.Ir_gen -> Engine.Event.Lower
  | Crash.Optimization -> Engine.Event.Opt
  | Crash.Back_end -> Engine.Event.Backend

(* Per-compile engine counters, resolved once per context instead of two
   string-keyed registry lookups (plus a name concatenation) per compile.
   The memo is domain-local: parallel campaign workers each own their
   context, so a one-slot cache per domain never sees contention and
   re-resolves only when the context changes. *)
type outcome_counters = {
  oc_total : Engine.Metrics.counter;
  oc_ok : Engine.Metrics.counter;
  oc_error : Engine.Metrics.counter;
  oc_crash : Engine.Metrics.counter;
  oc_cached : Engine.Metrics.counter;
}

let counters_memo : (Engine.Ctx.t * outcome_counters) option ref Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> ref None)

let outcome_counters (ctx : Engine.Ctx.t) : outcome_counters =
  let memo = Domain.DLS.get counters_memo in
  match !memo with
  | Some (c, k) when c == ctx -> k
  | _ ->
    let c name = Engine.Metrics.counter ctx.Engine.Ctx.metrics name in
    let outcome k = c ("compile.outcome." ^ Engine.Event.outcome_kind_to_string k) in
    let k =
      {
        oc_total = c "compile.total";
        oc_ok = outcome Engine.Event.Compiled_ok;
        oc_error = outcome Engine.Event.Compile_failed;
        oc_crash = outcome Engine.Event.Crashed;
        oc_cached = c "compile.cached";
      }
    in
    memo := Some (ctx, k);
    k

let record_outcome ?(cached = false) engine (outcome : outcome) =
  match engine with
  | None -> ()
  | Some ctx ->
    let kind, stage =
      match outcome with
      | Compiled _ -> (Engine.Event.Compiled_ok, Engine.Event.Backend)
      | Compile_error _ -> (Engine.Event.Compile_failed, Engine.Event.Frontend)
      | Crashed c -> (Engine.Event.Crashed, engine_stage c.Crash.stage)
    in
    let k = outcome_counters ctx in
    Engine.Metrics.incr k.oc_total;
    Engine.Metrics.incr
      (match kind with
      | Engine.Event.Compiled_ok -> k.oc_ok
      | Engine.Event.Compile_failed -> k.oc_error
      | Engine.Event.Crashed -> k.oc_crash);
    if cached then Engine.Metrics.incr k.oc_cached
    else begin
      (* cache hits replay a memoized outcome without compiling, so they
         don't advance the GC probe batch: minor-words-per-compile means
         per *real* compile *)
      match ctx.Engine.Ctx.probe with
      | Some p -> Engine.Probe.on_compile p
      | None -> ()
    end;
    Engine.Ctx.emit ctx (Engine.Event.Compile_finished (kind, stage))

(* The watchdog fuel barrier: a compile that would stall its worker
   (injected via the Compile_hang fault site; a real harness would kill
   the process on a wall-clock timeout) is recorded as a hang crash at
   a stable identity, instead of wedging the scheduler.  The outcome
   goes through [record_outcome] like any other crash so it lands in
   crash bucketing (Table 4) and the event stream. *)
let watchdog_outcome (compiler : compiler) : outcome =
  Crashed
    {
      bug_id = Fmt.str "%s-watchdog-timeout" (Bugdb.compiler_to_string compiler);
      stage = Crash.Optimization;
      kind = Crash.Hang;
      frames = [ "watchdog_timeout"; "compile_supervisor" ];
    }

let compile_tu ?cov ?engine ?faults ?(emit = true) ?tree (compiler : compiler)
    (opts : options) (src : string) : outcome * Cparse.Ast.tu option =
  match
    Option.map
      (fun f -> Engine.Faults.fire ?ctx:engine f Engine.Faults.Compile_hang)
      faults
  with
  | Some true ->
    Option.iter (fun ctx -> Engine.Ctx.incr ctx "compile.watchdog_hang") engine;
    let outcome = watchdog_outcome compiler in
    record_outcome engine outcome;
    (outcome, None)
  | _ ->
  let salt = salt compiler in
  let tx = Features.text_features src in
  let check ?executed stage ast =
    Bugdb.check ~compiler ~stage ~opt_level:opts.opt_level ?executed ~tx ~ast ()
  in
  let span name f = Engine.Span.with_opt engine ~name f in
  let parsed_tu = ref None in
  let outcome =
    try
      let frontend =
        span "compile.frontend" (fun () ->
            front_end ?cov ?tree ~salt ~check:(check Crash.Front_end)
              ~parsed:parsed_tu src)
      in
      match frontend with
      | Error msgs -> Compile_error msgs
      | Ok (tu, tc, ast) ->
        let warnings = List.length (Typecheck.warnings tc) in
        (* IR generation *)
        let prog =
          span "compile.lower" (fun () ->
              let prog = Lower.lower_tu ?cov tu tc in
              check Crash.Ir_gen (Some ast);
              prog)
        in
        (* optimization: the stage runner handles per-pass accounting
           and the culprit-keyed wrong-code injection *)
        span "compile.opt" (fun () ->
            let results, _ =
              run_opt_stage ?cov ?engine compiler opts ast prog
            in
            let executed = List.map fst results in
            Bugdb.check_passes ~compiler ~executed ~ast;
            check ~executed Crash.Optimization (Some ast));
        (* back-end; without [emit] it stops after register allocation
           and selection, with the same coverage and an empty [asm] *)
        let asm, spills =
          span "compile.backend" (fun () ->
              let r =
                if emit then Backend.emit_program ?cov prog
                else ("", Backend.allocate_program ?cov prog)
              in
              check Crash.Back_end (Some ast);
              r)
        in
        Compiled { asm; warnings; ir_size = Ir.program_size prog; spills }
    with
    | Crash.Compiler_crash c -> Crashed c
    | Lexer.Error (msg, _) ->
      check Crash.Front_end None;
      Compile_error [ "lex error: " ^ msg ]
    | Stack_overflow ->
      Crashed
        {
          bug_id =
            Fmt.str "%s-stack-overflow" (Bugdb.compiler_to_string compiler);
          stage = Crash.Front_end;
          kind = Crash.Segfault;
          frames = [ "recursive_descent"; "parse_expression" ];
        }
  in
  record_outcome engine outcome;
  (outcome, !parsed_tu)

let compile ?cov ?engine ?faults ?emit (compiler : compiler) (opts : options)
    (src : string) : outcome =
  fst (compile_tu ?cov ?engine ?faults ?emit compiler opts src)

(* The crash-free entry behind [compile_passes] and [compile_ir]: the
   shared front-end without bug checks, then lowering.  Seeded ICEs must
   not mask the wrong-code observation channel; the optimizer still
   injects the culprit-keyed miscompilation. *)
let lower_unchecked ?tree (compiler : compiler) (src : string) :
    (Ir.program * Features.ast, string) result =
  match
    front_end ?tree ~salt:(salt compiler) ~check:ignore ~parsed:(ref None) src
  with
  | Error msgs -> Error (String.concat "\n" msgs)
  | Ok (tu, tc, ast) -> Ok (Lower.lower_tu tu tc, ast)

(* Run the pipeline step by step, recording each executed pass: change
   counts, IR snapshots per [opts.dump_ir], and (with [verify]) a
   per-pass differential check against the pre-opt IR semantics. *)
let compile_passes ?(verify = false) (compiler : compiler) (opts : options)
    (src : string) : (pass_trace, string) result =
  Result.map
    (fun (prog, ast) ->
      let steps = ref [] in
      let collect st = steps := st :: !steps in
      let _, reference = run_opt_stage ~collect ~verify compiler opts ast prog in
      let steps = List.rev !steps in
      let first_divergent =
        List.find_map
          (fun st ->
            match st.st_diverged with
            | Some true -> Some st.st_pass
            | _ -> None)
          steps
      in
      {
        pt_steps = steps;
        pt_reference = reference;
        pt_first_divergent = first_divergent;
        pt_program = prog;
      })
    (lower_unchecked compiler src)

(* Produce the (possibly silently corrupted) optimized IR: the hook the
   EMI-style wrong-code detector (Fuzzing.Wrongcode) differences against
   the -O0 lowering. *)
let compile_ir ?tree (compiler : compiler) (opts : options) (src : string) :
    (Ir.program, string) result =
  Result.map
    (fun (prog, ast) ->
      ignore (run_opt_stage compiler opts ast prog);
      prog)
    (lower_unchecked ?tree compiler src)

(* Sample a random command line the way the macro fuzzer does.  The pass
   universe comes from the registry, so a newly registered pass joins
   option fuzzing automatically. *)
let random_options (rng : Rng.t) : options =
  let opt_level = Rng.int rng 4 in
  let disabled_passes =
    List.filter (fun _ -> Rng.flip rng 0.15) (Opt.pass_names ())
  in
  { default_options with opt_level; disabled_passes }

let options_to_string (o : options) =
  Fmt.str "-O%d%s%s%s" o.opt_level
    (String.concat ""
       (List.map (fun p -> " -fno-" ^ p) o.disabled_passes))
    (match o.pass_list with
    | None -> ""
    | Some l -> " -fpasses=" ^ String.concat "," l)
    (match o.dump_ir with
    | Dump_none -> ""
    | Dump_all -> " -fdump-ir"
    | Dump_pass p -> " -fdump-ir=" ^ p)

(* ------------------------------------------------------------------ *)
(* Mutant dedup cache                                                  *)
(* ------------------------------------------------------------------ *)

(* The pipeline is deterministic in (compiler, options, source), and the
   fragility model frequently re-renders byte-identical mutants, so a
   repeated source can skip the whole compile.

   The table is keyed by a cheap 64-bit FNV-1a fingerprint of the mutant
   source (mixed with a per-(compiler, options) salt), consulted *before*
   any key construction: the old full-text key concatenated
   compiler+options+source into a fresh string — a source-sized
   allocation plus a full-string hash — on every probe, hits included.
   Soundness is unchanged: each fingerprint bucket stores the exact
   (compiler, options, source) triple and a probe compares all three, so
   a fingerprint collision falls back to the exact key and at worst
   costs a bucket walk, never a wrong outcome.  The table is dropped
   wholesale when it reaches capacity (the working set of a fuzz run is
   recent mutants; an LRU would buy little over epoch clearing). *)

type cache_entry = {
  ce_compiler : compiler;
  ce_opts : options;
  ce_emit : bool; (* an asm-less outcome never answers an emitting probe *)
  ce_src : string;
  ce_outcome : outcome;
}

(* The source fingerprint is injectable so tests can force collisions
   (e.g. a constant fingerprint) and pin the exact-key fallback.  A
   variant rather than a bare closure: the default case must survive
   [Marshal] inside checkpoint snapshots. *)
type fingerprint_fn = Fp_default | Fp_custom of (string -> int)

type cache = {
  c_tbl : (int, cache_entry list) Hashtbl.t;
  c_capacity : int;
  c_fingerprint : fingerprint_fn;
  mutable c_len : int; (* total entries across buckets *)
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_collisions : int; (* probes that had to walk past a bucket *)
}

let cache_create ?(capacity = 2048) ?fingerprint () =
  {
    c_tbl = Hashtbl.create 256;
    c_capacity = max 1 capacity;
    c_fingerprint =
      (match fingerprint with None -> Fp_default | Some f -> Fp_custom f);
    c_len = 0;
    c_hits = 0;
    c_misses = 0;
    c_collisions = 0;
  }

let cache_hits c = c.c_hits
let cache_misses c = c.c_misses
let cache_collisions c = c.c_collisions

(* FNV-1a over the source bytes in native-int arithmetic (wraps mod
   2^63): one pass, no allocation. *)
let fp_source (s : string) : int =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h

(* The source fingerprint, salted per (compiler, options). *)
let fp_of cache (compiler : compiler) (opts : options) src =
  let base =
    match cache.c_fingerprint with
    | Fp_default -> fp_source src
    | Fp_custom f -> f src
  in
  let ctag = match compiler with Gcc -> 0x9e01 | Clang -> 0x3c75 in
  base lxor (Hashtbl.hash opts * 0x9E3779B1) lxor (ctag * 0x85EBCA77)

let entry_matches (compiler : compiler) (opts : options) ~emit (src : string)
    (e : cache_entry) =
  e.ce_compiler = compiler && e.ce_emit = emit && String.equal e.ce_src src
  && e.ce_opts = opts

let compile_cached ~cache ?cov ?engine ?faults ?(emit = true) ?tree
    (compiler : compiler) (opts : options) (src : string) :
    outcome * Cparse.Ast.tu option =
  let fp = fp_of cache compiler opts src in
  let bucket = Hashtbl.find_opt cache.c_tbl fp in
  let hit =
    match bucket with
    | None -> None
    | Some entries ->
      List.find_opt (entry_matches compiler opts ~emit src) entries
  in
  match hit with
  | Some e ->
    cache.c_hits <- cache.c_hits + 1;
    (* A byte-identical source was already compiled: its outcome is
       deterministic and its coverage map is identical to the first
       run's, so recording into [cov] is skipped — any map the caller
       previously merged that coverage into already subsumes it, making
       the fresh-branch count 0 either way.  Engine accounting is still
       replayed so compile.total/compile.outcome.* match an uncached
       run exactly. *)
    record_outcome ~cached:true engine e.ce_outcome;
    (e.ce_outcome, None)
  | None ->
    cache.c_misses <- cache.c_misses + 1;
    (match bucket with
    | Some _ ->
      (* fingerprint collision (or same source under other options, or
         the other [emit]): the exact-key comparison above kept the
         probe sound *)
      cache.c_collisions <- cache.c_collisions + 1
    | None -> ());
    (* the fault draw happens only on real compiles (a cache hit replays
       the memoized outcome, injected hang included), so a pathological
       mutant is pathological every time it is seen *)
    let outcome, tu =
      compile_tu ?cov ?engine ?faults ~emit ?tree compiler opts src
    in
    if cache.c_len >= cache.c_capacity then begin
      Hashtbl.reset cache.c_tbl;
      cache.c_len <- 0
    end;
    let prev =
      match Hashtbl.find_opt cache.c_tbl fp with Some l -> l | None -> []
    in
    Hashtbl.replace cache.c_tbl fp
      ({ ce_compiler = compiler; ce_opts = opts; ce_emit = emit; ce_src = src;
         ce_outcome = outcome }
       :: prev);
    cache.c_len <- cache.c_len + 1;
    (outcome, tu)
