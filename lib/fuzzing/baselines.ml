(* Baseline fuzzers for RQ1, each reproducing the search-space property
   the paper attributes to the original tool:

   - AFL++-sim: coverage-guided *byte-level* havoc; syntax-blind, so most
     mutants fail to compile but error-handling paths get explored.
   - Csmith-sim: generation-based, UB-avoiding, closed grammar; nearly
     100 % compilable but the feature space saturates.
   - YARPGen-sim: generation-based with a loop/arithmetic focus.
   - GrayC-sim: coverage-guided with five hand-written semantic-aware
     mutators (one of them, InjectControlFlow, deliberately outside
     MetaMut's "[Action] on [Program Structure]" space). *)

open Cparse

(* ------------------------------------------------------------------ *)
(* AFL++-sim                                                           *)
(* ------------------------------------------------------------------ *)

let havoc_byte_mutation (rng : Rng.t) (src : string) : string =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  if n = 0 then src
  else begin
    (* a few stacked havoc operations, like AFL's havoc stage; kept small
       so the compilable-mutant ratio lands near the paper's 3.5 % *)
    let ops = 1 + Rng.int rng 2 in
    let buf = ref b in
    for _ = 1 to ops do
      let b = !buf in
      let n = Bytes.length b in
      if n > 0 then
        match Rng.int rng 7 with
        | 0 ->
          (* bit flip *)
          let i = Rng.int rng n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8) land 0xff))
        | 1 ->
          (* random byte *)
          let i = Rng.int rng n in
          Bytes.set b i (Char.chr (Rng.int rng 256))
        | 2 ->
          (* replace a digit with another digit: often still parses *)
          let start = Rng.int rng n in
          let rec find i steps =
            if steps > 64 || i >= n then None
            else
              match Bytes.get b i with
              | '0' .. '9' -> Some i
              | _ -> find (i + 1) (steps + 1)
          in
          (match find start 0 with
          | Some i -> Bytes.set b i (Char.chr (Char.code '0' + Rng.int rng 10))
          | None ->
            let i = Rng.int rng n in
            Bytes.set b i
              (Char.chr ((Char.code (Bytes.get b i) + Rng.int rng 35 - 17) land 0xff)))
        | 3 when n > 4 ->
          (* delete a block *)
          let len = 1 + Rng.int rng (min 32 (n - 1)) in
          let pos = Rng.int rng (n - len) in
          buf :=
            Bytes.cat (Bytes.sub b 0 pos) (Bytes.sub b (pos + len) (n - pos - len))
        | 4 when n > 4 ->
          (* duplicate a block *)
          let len = 1 + Rng.int rng (min 32 (n - 1)) in
          let pos = Rng.int rng (n - len) in
          let chunk = Bytes.sub b pos len in
          buf := Bytes.concat Bytes.empty [ Bytes.sub b 0 pos; chunk; chunk; Bytes.sub b (pos + len) (n - pos - len) ]
        | 5 when n > 8 ->
          (* swap two blocks *)
          let len = 1 + Rng.int rng (min 8 (n / 2 - 1)) in
          let p1 = Rng.int rng (n - 2 * len) in
          let p2 = p1 + len + Rng.int rng (n - p1 - 2 * len + 1) in
          let c1 = Bytes.sub b p1 len and c2 = Bytes.sub b p2 len in
          Bytes.blit c2 0 b p1 len;
          Bytes.blit c1 0 b p2 len
        | _ ->
          (* insert interesting token *)
          let tok =
            Rng.choose rng
              [ "0"; ";"; "}"; "{"; "("; "2147483647"; "-1"; "int"; "if"; "aaaaaaaaaaaaaaaa"; "#"; "\"" ]
          in
          let pos = Rng.int rng n in
          buf :=
            Bytes.concat Bytes.empty
              [ Bytes.sub b 0 pos; Bytes.of_string tok; Bytes.sub b pos (n - pos) ]
    done;
    Bytes.to_string !buf
  end

(* The hand-rolled baseline loops observe through Fuzz_result: each
   mutant is recorded, the trend is sampled every [sample_every]
   iterations and finished at the last one, and with an engine context
   threaded the crashes and samples become events, so telemetry
   snapshots and the status line see baseline cells too. *)
let run_aflpp ?engine ?faults ?(options = Simcomp.Compiler.default_options)
    ~rng ~compiler ~seeds ~iterations ~sample_every () : Fuzz_result.t =
  let result = Fuzz_result.make ~fuzzer_name:"AFL++" ~compiler in
  let pool = Engine.Vec.of_list seeds in
  let scratch = Simcomp.Coverage.create () in
  (* seed coverage; merge_consume leaves the scratch map zeroed for the
     next compile *)
  Engine.Vec.iter
    (fun src ->
      ignore
        (Simcomp.Compiler.compile ~cov:scratch ?engine ?faults ~emit:false
           compiler options src);
      ignore
        (Simcomp.Coverage.merge_consume ~into:result.Fuzz_result.coverage
           scratch))
    pool;
  for i = 1 to iterations do
    let base = Engine.Vec.get pool (Rng.int rng (Engine.Vec.length pool)) in
    (* AFL mutates faster than μCFuzz compiles: several mutants/iteration *)
    for _ = 1 to 3 do
      let mutant = havoc_byte_mutation rng base in
      Fuzz_result.record ?engine result ~iteration:i ~input:mutant
        (Simcomp.Compiler.compile ~cov:scratch ?engine ?faults ~emit:false
           compiler options mutant);
      (* the merged fresh count doubles as the accept signal: one call *)
      let fresh =
        Simcomp.Coverage.merge_consume ~into:result.Fuzz_result.coverage
          scratch
      in
      if fresh > 0 then Engine.Vec.push pool mutant
    done;
    if i mod sample_every = 0 then Fuzz_result.sample ?engine result ~iteration:i
  done;
  Fuzz_result.finish ?engine result ~iterations;
  result

(* ------------------------------------------------------------------ *)
(* Generation-based baselines                                          *)
(* ------------------------------------------------------------------ *)

let run_generator ?engine ?faults ?(options = Simcomp.Compiler.default_options)
    ~name ~(cfg : Ast_gen.config) ~rng ~compiler ~iterations ~sample_every () :
    Fuzz_result.t =
  let result = Fuzz_result.make ~fuzzer_name:name ~compiler in
  let scratch = Simcomp.Coverage.create () in
  for i = 1 to iterations do
    (* [gen_source]'s text, rendered from the tree the compile can take
       in place of a parse *)
    let tu = Ast_gen.gen_tu ~cfg rng in
    let src = Simcomp.Scratch.render_tu tu in
    Fuzz_result.record ?engine result ~iteration:i ~input:src
      (fst
         (Simcomp.Compiler.compile_tu ~cov:scratch ?engine ?faults ~emit:false
            ~tree:tu compiler options src));
    ignore
      (Simcomp.Coverage.merge_consume ~into:result.Fuzz_result.coverage
         scratch);
    if i mod sample_every = 0 then Fuzz_result.sample ?engine result ~iteration:i
  done;
  Fuzz_result.finish ?engine result ~iterations;
  result

let run_csmith ?engine ?faults ?options ~rng ~compiler ~iterations
    ~sample_every () =
  run_generator ?engine ?faults ?options ~name:"Csmith"
    ~cfg:Ast_gen.csmith_like_config ~rng ~compiler ~iterations ~sample_every ()

let run_yarpgen ?engine ?faults ?options ~rng ~compiler ~iterations
    ~sample_every () =
  run_generator ?engine ?faults ?options ~name:"YARPGen"
    ~cfg:Ast_gen.yarpgen_like_config ~rng ~compiler ~iterations ~sample_every ()

(* ------------------------------------------------------------------ *)
(* GrayC-sim                                                           *)
(* ------------------------------------------------------------------ *)

(* GrayC's InjectControlFlow: wrap a statement in a fresh bounded loop
   with an early break — outside MetaMut's description template. *)
let inject_control_flow =
  Mutators.Mutator.make ~name:"GrayC.InjectControlFlow"
    ~description:
      "Inject a control-flow construct (loop with early break) around an \
       existing statement."
    ~category:Statement ~provenance:Supervised ~creative:true
    (fun ctx ->
      let open Cparse.Ast in
      let stmts =
        Cparse.Visit.collect_stmts
          (fun s -> match s.sk with Sexpr _ -> true | _ -> false)
          ctx.Uast.Ctx.tu
      in
      match Uast.Ctx.rand_element ctx stmts with
      | None -> None
      | Some s ->
        let g = Uast.Ctx.generate_unique_name ctx "cf" in
        let decl =
          mk_stmt
            (Sdecl
               [
                 {
                   v_name = g;
                   v_ty = Tint (Iint, true);
                   v_quals = no_quals;
                   v_storage = S_none;
                   v_init = Some (int_lit 0);
                 };
               ])
        in
        let body =
          sblock
            [
              { s with sid = no_id };
              mk_stmt
                (Sif (binop Ge (ident g) (int_lit 1), mk_stmt Sbreak, None));
              sexpr (mk_expr (Incdec (true, false, ident g)));
            ]
        in
        let loop = mk_stmt (Swhile (binop Lt (ident g) (int_lit 4), body)) in
        Some
          (Cparse.Visit.replace_stmt ctx.Uast.Ctx.tu ~sid:s.sid
             ~repl:(sblock [ decl; loop ])))

(* The five GrayC mutators (./grayc --list-mutations in the paper). *)
let grayc_mutators : Mutators.Mutator.t list =
  let find n =
    match Mutators.Registry.find_opt n with
    | Some m -> m
    | None -> invalid_arg ("grayc mutator missing: " ^ n)
  in
  [
    find "ModifyIntegerLiteral";      (* constant replacement *)
    find "DeleteStatement";
    find "DuplicateStatement";
    find "SwapCallArguments";
    inject_control_flow;
  ]

let run_grayc ?engine ?faults ?options ~rng ~compiler ~seeds ~iterations
    ~sample_every () : Fuzz_result.t =
  let cfg =
    {
      (Mucfuzz.default_config ~mutators:grayc_mutators ()) with
      Mucfuzz.fragility = false; (* GrayC's mutators are battle-tested *)
      sample_every;
    }
  in
  Mucfuzz.run ?options ~cfg ?engine ?faults ~rng ~compiler ~seeds ~iterations
    ~name:"GrayC" ()
