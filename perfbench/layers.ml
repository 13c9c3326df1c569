(* The per-layer ledger: timed calls into each layer's public functions.

   Every [time] call adds one call, its wall time and its allocation to
   the layer's row.  [staged_compile] drives the simulated compiler one
   stage at a time through the same public functions
   [Simcomp.Compiler.compile_tu] calls, in the same order and with the
   same bug-database checks, so the stage rows plus [compile.residual]
   (the instrumentation and bookkeeping the stages do not expose) add up
   to a real compile. *)

open Simcomp

type row = { mutable calls : int; mutable ns : float; mutable words : float }

type t = {
  rows : (string, row) Hashtbl.t;
  values : (string, float) Hashtbl.t;  (* ratios, counts, percentiles *)
}

let create () = { rows = Hashtbl.create 32; values = Hashtbl.create 32 }

let row t name =
  match Hashtbl.find_opt t.rows name with
  | Some r -> r
  | None ->
    let r = { calls = 0; ns = 0.; words = 0. } in
    Hashtbl.replace t.rows name r;
    r

let add t name ~calls ~ns ~words =
  let r = row t name in
  r.calls <- r.calls + calls;
  r.ns <- r.ns +. ns;
  r.words <- r.words +. words

let time t name f =
  let w0 = Stat.alloc_words () in
  let t0 = Stat.now () in
  let finish () =
    add t name ~calls:1 ~ns:((Stat.now () -. t0) *. 1e9)
      ~words:(Stat.alloc_words () -. w0)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let set t name v = Hashtbl.replace t.values name v

(* [field] summed over the rows of [names]. *)
let total t names field =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt t.rows n with Some r -> acc +. field r | None -> acc)
    0. names

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)
(* ------------------------------------------------------------------ *)

let compile_layers () =
  [ "lexer"; "parser"; "features"; "typecheck"; "bugdb"; "lower" ]
  @ List.map (fun p -> "opt." ^ p) (Opt.pass_names ())
  @ [ "backend" ]

let layers () =
  compile_layers ()
  @ [
      "compile.residual"; "compile_ir"; "ir_interp"; "uast_ctx"; "mutator";
      "fragility"; "pretty"; "coverage.merge"; "cache.probe"; "shard.codec";
      "checkpoint";
    ]

(* Engine spans whose self time is reported as a share of the traced
   round (read through [Engine.Trace.self_time_by_name]); [opt.pass]
   sums the per-pass spans nested under [compile.opt]. *)
let spans =
  [ "compile.frontend"; "compile.lower"; "compile.opt"; "opt.pass";
    "compile.backend"; "mucfuzz.run" ]

let values =
  [
    ("compile.p50_us", "us");
    ("compile.p99_us", "us");
    ("compile.ok_pct", "%");
    ("compile.error_pct", "%");
    ("compile.crash_pct", "%");
    ("cache.hit_pct", "%");
    ("mutator.inapplicable_pct", "%");
    ("mucfuzz.accept_pct", "%");
    ("shard.result_bytes", "bytes");
    ("shard.spawned", "count");
    ("shard.died", "count");
    ("shard.requeued", "count");
    ("checkpoint.bytes", "bytes");
    ("coordinator.unit_s_p50", "s");
    ("coordinator.unit_s_max", "s");
    ("coordinator.tail_s", "s");
    ("faults.fire_ns", "ns");
    ("faults.armed_overhead_pct", "%");
    ("trace.overhead_pct", "%");
    ("trace.attributed_pct", "%");
    ("proc.cpu_util", "ratio");
  ]
  @ List.map (fun s -> ("span." ^ s ^ ".share_pct", "%")) spans

(* Every per-layer metric with its unit: the fixed list a traced run
   prints, zero where the workload does not reach a layer. *)
let metrics () =
  List.concat_map
    (fun l ->
      [
        (l ^ ".calls", "count");
        (l ^ ".us_per_call", "us");
        (l ^ ".words_per_call", "words");
        (l ^ ".share_pct", "%");
      ])
    (layers ())
  @ values

(* The ledger as metric values; shares are of [wall] seconds, the wall
   time of the bench-side run that filled the rows. *)
let report t ~wall =
  List.map
    (fun (name, _) ->
      match Hashtbl.find_opt t.values name with
      | Some v -> (name, v)
      | None ->
        let layer = Filename.remove_extension name in
        let v =
          match Hashtbl.find_opt t.rows layer with
          | None -> 0.
          | Some r -> (
            let per x = if r.calls = 0 then 0. else x /. float_of_int r.calls in
            match Filename.extension name with
            | ".calls" -> float_of_int r.calls
            | ".us_per_call" -> per r.ns /. 1e3
            | ".words_per_call" -> per r.words
            | ".share_pct" -> if wall > 0. then 100. *. r.ns /. 1e9 /. wall else 0.
            | _ -> 0.)
        in
        (name, v))
    (metrics ())

(* ------------------------------------------------------------------ *)
(* The staged compile                                                  *)
(* ------------------------------------------------------------------ *)

type staged = Staged_ok of string | Staged_error | Staged_crash of string

(* [Compiler.compile_tu] one stage at a time.  The seeded miscompilation
   a real compile injects into the optimized IR is not reachable from
   here, so [miscompiled] reports whether one would have fired (its asm
   then legitimately differs from the real compile's). *)
let staged_compile t ~cov (compiler : Compiler.compiler)
    (opts : Compiler.options) (src : string) : staged * bool =
  let opt_level = opts.Compiler.opt_level in
  let miscompiled = ref false in
  let tx = time t "features" (fun () -> Features.text_features src) in
  let check ?executed stage ast =
    time t "bugdb" (fun () ->
        Bugdb.check ~compiler ~stage ~opt_level ?executed ~tx ~ast ())
  in
  let outcome =
    try
      match time t "lexer" (fun () -> Cparse.Lexer.tokenize src) with
      | exception Cparse.Lexer.Error _ ->
        check Crash.Front_end None;
        Staged_error
      | toks -> (
        match time t "parser" (fun () -> Cparse.Parser.parse_tokens toks) with
        | exception (Cparse.Parser.Error _ | Stack_overflow) ->
          check Crash.Front_end None;
          Staged_error
        | tu ->
          let ast = time t "features" (fun () -> Features.ast_features tu) in
          check Crash.Front_end (Some ast);
          let tc =
            time t "typecheck" (fun () ->
                Cparse.Typecheck.check ~types:(Scratch.get ()).Scratch.types tu)
          in
          if not tc.Cparse.Typecheck.r_ok then Staged_error
          else begin
            let prog = time t "lower" (fun () -> Lower.lower_tu ~cov tu tc) in
            check Crash.Ir_gen (Some ast);
            miscompiled :=
              time t "bugdb" (fun () ->
                  Bugdb.check_miscompile ~compiler ~opt_level
                    ~pipeline:(Compiler.pipeline_of opts) ~ast)
              |> Option.is_some;
            let instrument (pass : Opt.pass) run =
              time t ("opt." ^ pass.Opt.pass_name) run
            in
            let executed =
              Opt.run_pipeline ~cov ~instrument ?pass_list:opts.Compiler.pass_list
                ~level:opt_level ~disabled:opts.Compiler.disabled_passes prog
              |> List.map fst
            in
            time t "bugdb" (fun () ->
                Bugdb.check_passes ~compiler ~executed ~ast);
            check ~executed Crash.Optimization (Some ast);
            let asm, _ =
              time t "backend" (fun () -> Backend.emit_program ~cov prog)
            in
            check Crash.Back_end (Some ast);
            Staged_ok (Digest.to_hex (Digest.string asm))
          end)
    with
    | Crash.Compiler_crash c -> Staged_crash c.Crash.bug_id
    | Stack_overflow ->
      Staged_crash (Bugdb.compiler_to_string compiler ^ "-stack-overflow")
  in
  (outcome, !miscompiled)

(* Does a staged compile agree with the real compile's golden outcome? *)
let staged_agrees (s, miscompiled) (g : Corpus.golden) =
  match (s, g) with
  | Staged_ok d, Corpus.Ok_asm d' -> miscompiled || String.equal d d'
  | Staged_error, Corpus.Error_ -> true
  | Staged_crash id, Corpus.Crash id' -> String.equal id id'
  | _ -> false

(* Compile [src] staged (into the ledger) and through the workload's real
   entry point [compile] (timed as one call), so [finish_compiles] can
   attribute the difference to [compile.residual]. *)
let compile_both t ~latencies ~stage_cov ~compile compiler opts src =
  let staged () =
    let s = staged_compile t ~cov:stage_cov compiler opts src in
    Coverage.drain stage_cov;
    s
  in
  let real () =
    let w0 = Stat.alloc_words () in
    let t0 = Stat.now () in
    let outcome = compile src in
    let dt = Stat.now () -. t0 in
    add t "compile" ~calls:1 ~ns:(dt *. 1e9) ~words:(Stat.alloc_words () -. w0);
    latencies := dt :: !latencies;
    outcome
  in
  (* alternate which of the two goes first: the second one finds the
     source and its tokens in cache *)
  if (row t "compile").calls mod 2 = 0 then
    let outcome = real () in
    (staged (), outcome)
  else
    let s = staged () in
    (s, real ())

(* Turn the real-compile row into [compile.residual] (real minus the
   staged stages) plus the latency percentiles. *)
let finish_compiles t ~latencies =
  match Hashtbl.find_opt t.rows "compile" with
  | None -> ()
  | Some real ->
    Hashtbl.remove t.rows "compile";
    let stages = compile_layers () in
    add t "compile.residual" ~calls:real.calls
      ~ns:(real.ns -. total t stages (fun r -> r.ns))
      ~words:(real.words -. total t stages (fun r -> r.words));
    set t "compile.p50_us" (1e6 *. Stat.percentile latencies 50.);
    set t "compile.p99_us" (1e6 *. Stat.percentile latencies 99.)
