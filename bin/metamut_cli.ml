(* The metamut command-line interface.

     metamut list-mutators            enumerate the corpus
     metamut mutate FILE              apply a mutator to a C file
     metamut compile FILE             run the simulated compiler
     metamut fuzz                     run uCFuzz (Algorithm 1)
     metamut generate                 run the MetaMut generation pipeline
     metamut campaign                 run the RQ1 comparison *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* metrics rendering (shared by fuzz / generate / campaign)            *)
(* ------------------------------------------------------------------ *)

let chop_prefix ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

(* Per-stage span timings: one row per span histogram. *)
let render_spans (ctx : Engine.Ctx.t) =
  let spans =
    List.filter_map
      (function
        | name, Engine.Metrics.Histogram { sum; total; _ }
          when String.starts_with ~prefix:"span." name ->
          Some (chop_prefix ~prefix:"span." name, total, sum)
        | _ -> None)
      (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics)
  in
  if spans <> [] then begin
    let t =
      Report.Table.create ~title:"Span timings"
        ~header:[ "span"; "count"; "total ms"; "mean us" ]
    in
    List.iter
      (fun (name, total, sum) ->
        Report.Table.add_row t
          [
            name;
            string_of_int total;
            Fmt.str "%.1f" (sum /. 1e6);
            Fmt.str "%.1f"
              (if total = 0 then 0. else sum /. float_of_int total /. 1e3);
          ])
      spans;
    Report.Table.print t
  end

(* Counter families rendered as a two-column table.  [exclude] drops
   sub-families rendered as their own table (suffixes, like [prefix]). *)
let render_counter_family (ctx : Engine.Ctx.t) ?(exclude = []) ~title ~prefix ()
    =
  let rows =
    Engine.Metrics.counters_with_prefix ctx.Engine.Ctx.metrics ~prefix
    |> List.filter (fun (name, _) ->
           not
             (List.exists
                (fun p -> String.starts_with ~prefix:p name)
                exclude))
  in
  if rows <> [] then begin
    let t = Report.Table.create ~title ~header:[ "name"; "count" ] in
    List.iter
      (fun (name, n) -> Report.Table.add_row t [ name; string_of_int n ])
      rows;
    Report.Table.print t
  end

(* Per-mutator accept/reject counters, sorted by acceptance. *)
let render_mutator_counters (ctx : Engine.Ctx.t) =
  let reg = ctx.Engine.Ctx.metrics in
  let family prefix = Engine.Metrics.counters_with_prefix reg ~prefix in
  let attempts = family "mucfuzz.attempt." in
  if attempts <> [] then begin
    let get rows name =
      Option.value ~default:0 (List.assoc_opt name rows)
    in
    let accepts = family "mucfuzz.accept."
    and rejects = family "mucfuzz.reject."
    and inapplicable = family "mucfuzz.inapplicable." in
    let rows =
      List.map
        (fun (name, att) ->
          (name, att, get accepts name, get rejects name,
           get inapplicable name))
        attempts
      |> List.sort (fun (n1, _, a1, _, _) (n2, _, a2, _, _) ->
             compare (-a1, n1) (-a2, n2))
    in
    let t =
      Report.Table.create ~title:"Per-mutator accept/reject"
        ~header:[ "mutator"; "attempts"; "accepts"; "rejects"; "n/a" ]
    in
    List.iter
      (fun (name, att, acc, rej, na) ->
        Report.Table.add_row t
          [
            name; string_of_int att; string_of_int acc; string_of_int rej;
            string_of_int na;
          ])
      rows;
    Report.Table.print t
  end

let render_metrics (ctx : Engine.Ctx.t) =
  render_spans ctx;
  render_counter_family ctx ~title:"Compile outcomes" ~prefix:"compile." ();
  render_counter_family ctx ~title:"Per-pass activity" ~prefix:"opt.pass." ();
  render_counter_family ctx ~title:"Bisection" ~prefix:"bisect." ();
  render_counter_family ctx ~title:"Pipeline outcomes"
    ~prefix:"pipeline.outcome." ();
  render_counter_family ctx ~title:"Pipeline retry" ~prefix:"pipeline.retry."
    ();
  render_counter_family ctx ~title:"Pipeline counters" ~prefix:"pipeline."
    ~exclude:[ "outcome."; "retry." ] ();
  render_counter_family ctx ~title:"Fault injection" ~prefix:"faults." ();
  render_counter_family ctx ~title:"Shard supervision" ~prefix:"shard." ();
  render_counter_family ctx ~title:"Checkpointing" ~prefix:"checkpoint." ();
  render_mutator_counters ctx

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect engine metrics (spans, counters) and print them.")

(* --telemetry DIR: the export layer (Chrome trace, Prometheus/JSON
   metrics snapshots, GC probes, post-run report). *)
let telemetry_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Write telemetry artifacts under $(docv): $(b,trace.jsonl) (Chrome \
           trace-event JSON, loadable in Perfetto), $(b,metrics.prom) \
           (Prometheus text exposition), $(b,metrics.json), and \
           $(b,campaign-report.md).  Snapshots refresh periodically and at \
           exit.  Enabling telemetry never changes fuzz results.")

(* --status: the live stderr status line.  Forced by the flag, automatic
   on an interactive terminal, and always off when stderr is a pipe (CI
   logs stay clean). *)
let status_flag =
  Arg.(
    value & flag
    & info [ "status" ]
        ~doc:
          "Force the live status line (execs/s, covered edges, crashes, \
           plateau) on stderr.  On by default when stderr is a terminal.")

let want_status forced = forced || Unix.isatty Unix.stderr

(* --serve ADDR: the live scrape plane.  The campaign polls the socket
   at natural pause points; a slow or stalled scraper can never wedge
   the run. *)
let serve_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"ADDR"
        ~doc:
          "Serve live observability endpoints while the campaign runs: \
           $(b,/metrics) (Prometheus text), $(b,/status.json) (totals, \
           per-shard heartbeats, quarantines), $(b,/healthz) (503 once \
           the circuit breaker trips), $(b,/series.json) (coverage time \
           series).  $(docv) is $(b,HOST:PORT) (port 0 = ephemeral; the \
           bound address is printed to stderr) or a filesystem path \
           (Unix-domain socket).  Polled, never threaded: serving never \
           changes fuzz results.")

(* --log FILE[:LEVEL]: structured JSON-lines log of supervision events
   (lease verdicts, retries, fault injections, quarantines, checkpoint
   saves).  Bodies are deterministic: no wall clock, seq assigned at
   render after grouping by scope. *)
let log_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE[:LEVEL]"
        ~doc:
          "Write a structured JSON-lines event log to $(i,FILE) at exit \
           ($(i,LEVEL) one of debug, info, warn, error; default info).  \
           Records carry a monotonic $(b,seq), not a wall clock, so the \
           log body is byte-identical across $(b,--jobs) counts.")

let parse_log_spec spec =
  Option.map
    (fun s ->
      match Engine.Log.parse_spec s with
      | Ok v -> v
      | Error e -> Fmt.failwith "--log: %s" e)
    spec

let start_serve (engine : Engine.Ctx.t option) addr =
  Option.map
    (fun addr ->
      (* callers create the engine whenever --serve is given, so the
         server scrapes the same registry the campaign writes *)
      let e =
        match engine with
        | Some e -> e
        | None -> Fmt.failwith "--serve: internal: no engine context"
      in
      match Engine.Serve.listen ~addr e with
      | Ok s ->
        Fmt.epr "serving on %s@." (Engine.Serve.bound_addr s);
        s
      | Error msg -> Fmt.failwith "--serve: %s" msg)
    addr

(* Smoke tests scrape the final registry after the run; the env var
   keeps the socket up that long without a flag on every invocation. *)
let serve_shutdown srv =
  Option.iter
    (fun s ->
      Engine.Serve.set_done s;
      let linger =
        match Sys.getenv_opt "METAMUT_SERVE_LINGER" with
        | Some v -> ( match float_of_string_opt v with Some f -> f | None -> 0.)
        | None -> 0.
      in
      if linger > 0. then Engine.Serve.linger s ~seconds:linger;
      Engine.Serve.close s)
    srv

(* --faults / --fault-seed, shared by fuzz / generate / campaign.  The
   spec falls back to METAMUT_FAULTS so CI can fault a whole run without
   touching each command line. *)
let faults_term =
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault-injection spec: comma-separated site=rate pairs over the \
             in-process sites llm, hang, io and the shard-layer chaos \
             sites frame, stall, oom, coord (e.g. \
             $(b,llm=0.3,hang=0.05,io=0.1) or $(b,frame=0.05,oom=0.01)); \
             $(b,off) disables.  Shard sites garble/stall worker frames, \
             OOM-kill workers at lease start, and crash-restart the \
             coordinator; they only act in $(b,campaign), where \
             $(b,--jobs 1) draws the same decisions inline.  Defaults to \
             $(b,METAMUT_FAULTS) when set.")
  in
  let fseed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Seed of the fault-decision streams (default \
             $(b,METAMUT_FAULT_SEED), or 0).")
  in
  let make spec fseed =
    let config =
      match spec with
      | Some s -> (
        match Engine.Faults.parse_spec s with
        | Ok c -> Some c
        | Error e -> Fmt.failwith "--faults: %s" e)
      | None -> Engine.Faults.config_from_env ()
    in
    match config with
    | None -> None
    | Some c when c = Engine.Faults.no_faults -> None
    | Some c ->
      let seed =
        match fseed with
        | Some s -> s
        | None -> Engine.Faults.seed_from_env ()
      in
      Some (Engine.Faults.create ~seed c)
  in
  Term.(const make $ spec $ fseed)

(* ------------------------------------------------------------------ *)
(* list-mutators                                                       *)
(* ------------------------------------------------------------------ *)

let list_mutators extended =
  let corpus =
    if extended then Mutators.Registry.extended else Mutators.Registry.core
  in
  List.iter
    (fun m ->
      Fmt.pr "%-36s %-10s %-12s %s@." m.Mutators.Mutator.name
        (Mutators.Mutator.category_to_string m.Mutators.Mutator.category)
        (Mutators.Mutator.provenance_to_string m.Mutators.Mutator.provenance)
        (if m.Mutators.Mutator.creative then "creative" else ""))
    corpus;
  Fmt.pr "%d mutators@." (List.length corpus)

let list_cmd =
  let extended =
    Arg.(value & flag & info [ "extended" ] ~doc:"Include extension mutators.")
  in
  Cmd.v
    (Cmd.info "list-mutators" ~doc:"List the mutator corpus")
    Term.(const list_mutators $ extended)

(* ------------------------------------------------------------------ *)
(* mutate                                                              *)
(* ------------------------------------------------------------------ *)

let mutate file mutator_name seed =
  let src = read_file file in
  let rng = Cparse.Rng.create seed in
  let m =
    match mutator_name with
    | Some n -> (
      match Mutators.Registry.find_opt n with
      | Some m -> m
      | None -> Fmt.failwith "unknown mutator %s" n)
    | None -> Cparse.Rng.choose rng Mutators.Registry.core
  in
  match Mutators.Mutator.apply_src m ~rng src with
  | Some mutant ->
    Fmt.epr "// mutated by %s@." m.Mutators.Mutator.name;
    print_string mutant
  | None ->
    Fmt.epr "mutator %s not applicable (or file does not parse)@."
      m.Mutators.Mutator.name;
    exit 1

let mutate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let mname =
    Arg.(
      value
      & opt (some string) None
      & info [ "m"; "mutator" ] ~doc:"Mutator name (random when omitted).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.")
  in
  Cmd.v
    (Cmd.info "mutate" ~doc:"Apply a mutator to a C file")
    Term.(const mutate $ file $ mname $ seed)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compiler_conv =
  Arg.enum [ ("gcc", Simcomp.Compiler.Gcc); ("clang", Simcomp.Compiler.Clang) ]

(* Shared pass-pipeline flags: -O, --fno PASS (repeatable), --passes. *)
let options_term =
  let opt = Arg.(value & opt int 2 & info [ "O" ] ~doc:"Optimization level.") in
  let fno =
    Arg.(
      value & opt_all string []
      & info [ "fno" ] ~docv:"PASS" ~doc:"Disable a pass (repeatable).")
  in
  let passes =
    Arg.(
      value
      & opt (some (list ~sep:',' string)) None
      & info [ "passes" ] ~docv:"LIST"
          ~doc:"Explicit comma-separated pass pipeline overriding the -O spec.")
  in
  let build opt_level disabled_passes pass_list =
    {
      Simcomp.Compiler.default_options with
      opt_level;
      disabled_passes;
      pass_list;
    }
  in
  Term.(const build $ opt $ fno $ passes)

let dump_ir_term =
  let dump_conv =
    Arg.conv
      ( (fun s ->
          Ok
            (if String.equal s "" || String.equal s "all" then
               Simcomp.Compiler.Dump_all
             else Simcomp.Compiler.Dump_pass s)),
        fun ppf d ->
          Fmt.string ppf
            (match d with
            | Simcomp.Compiler.Dump_none -> "none"
            | Simcomp.Compiler.Dump_all -> "all"
            | Simcomp.Compiler.Dump_pass p -> p) )
  in
  Arg.(
    value
    & opt ~vopt:Simcomp.Compiler.Dump_all dump_conv Simcomp.Compiler.Dump_none
    & info [ "dump-ir" ] ~docv:"PASS"
        ~doc:"Print IR before/after each pass (or only $(docv)).")

let compile file compiler options dump_ir emit_ir =
  let src = read_file file in
  let options = { options with Simcomp.Compiler.dump_ir } in
  let dumping = dump_ir <> Simcomp.Compiler.Dump_none in
  if emit_ir || dumping then begin
    match Simcomp.Compiler.lower compiler src with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 1
    | Ok ((prog, _) as lowered) ->
      List.iteri
        (fun i (st : Simcomp.Compiler.pass_step) ->
          (match st.st_ir_before with
          | Some ir -> Fmt.pr ";; IR before %s [%d]@.%s" st.st_pass i ir
          | None -> ());
          match st.st_ir_after with
          | Some ir ->
            Fmt.pr ";; IR after %s [%d] (%d changes)@.%s" st.st_pass i
              st.st_changes ir
          | None -> ())
        (Simcomp.Compiler.optimize compiler options lowered).pt_steps;
      if emit_ir then print_string (Simcomp.Ir.program_to_string prog)
  end
  else begin
    let cov = Simcomp.Coverage.create () in
    match Simcomp.Compiler.compile ~cov compiler options src with
    | Simcomp.Compiler.Compiled { asm; warnings; spills; _ } ->
      print_string asm;
      Fmt.epr "compiled: %d warnings, %d spills, %d branches covered@."
        warnings spills
        (Simcomp.Coverage.covered cov)
    | Simcomp.Compiler.Compile_error es ->
      List.iter (Fmt.epr "%s@.") es;
      exit 1
    | Simcomp.Compiler.Crashed c ->
      Fmt.epr "internal compiler error: %s@." (Simcomp.Crash.to_string c);
      exit 2
  end

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let compiler =
    Arg.(
      value & opt compiler_conv Simcomp.Compiler.Gcc
      & info [ "c"; "compiler" ] ~doc:"gcc or clang.")
  in
  let emit_ir = Arg.(value & flag & info [ "emit-ir" ] ~doc:"Print the IR.") in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a C file with the simulated compiler")
    Term.(const compile $ file $ compiler $ options_term $ dump_ir_term $ emit_ir)

(* ------------------------------------------------------------------ *)
(* passes                                                              *)
(* ------------------------------------------------------------------ *)

let passes options =
  let disabled = options.Simcomp.Compiler.disabled_passes in
  let t =
    Report.Table.create ~title:"Registered passes"
      ~header:[ "pass"; "default placement"; "status" ]
  in
  List.iter
    (fun (p : Simcomp.Opt.pass) ->
      Report.Table.add_row t
        [
          p.Simcomp.Opt.pass_name;
          Fmt.str "-O%d" p.Simcomp.Opt.pass_since;
          (if List.mem p.Simcomp.Opt.pass_name disabled then "disabled"
           else "enabled");
        ])
    (Simcomp.Opt.all_passes ());
  Report.Table.print t;
  let pipeline = Simcomp.Compiler.pipeline_of options in
  Fmt.pr "pipeline at -O%d: %s@." options.Simcomp.Compiler.opt_level
    (if pipeline = [] then "(empty)" else String.concat " -> " pipeline)

let passes_cmd =
  Cmd.v
    (Cmd.info "passes"
       ~doc:
         "List the registered optimization passes and the pipeline the \
          given options would run")
    Term.(const passes $ options_term)

(* ------------------------------------------------------------------ *)
(* bisect                                                              *)
(* ------------------------------------------------------------------ *)

let bisect file compiler options =
  let src = read_file file in
  let open Fuzzing.Bisect in
  match run compiler options src with
  | None ->
    Fmt.epr "no finding: compiles cleanly and matches the -O0 behaviour@.";
    exit 1
  | Some v ->
    Fmt.pr "finding:         %s@." (finding_to_string v.v_finding);
    Fmt.pr "pipeline:        %s@." (String.concat " -> " v.v_pipeline);
    (if v.v_attributable then
       Fmt.pr "culprit passes:  %s@." (String.concat ", " v.v_culprits)
     else
       Fmt.pr
         "culprit passes:  (unattributable: the finding survives with every \
          pass disabled)@.");
    Option.iter
      (fun p -> Fmt.pr "first divergent: %s@." p)
      v.v_first_divergent;
    Fmt.pr "recompiles:      %d@." v.v_recompiles

let bisect_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let compiler =
    Arg.(
      value & opt compiler_conv Simcomp.Compiler.Gcc
      & info [ "c"; "compiler" ] ~doc:"gcc or clang.")
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Find the culprit optimization pass behind an ICE or wrong-code \
          finding by re-compiling with passes disabled")
    Term.(const bisect $ file $ compiler $ options_term)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz compiler iterations seed corpus_kind sample_every schedule pool_max
    faults metrics trace telemetry status log_spec =
  let rng = Cparse.Rng.create seed in
  let seeds = Fuzzing.Seeds.corpus ~n:50 (Cparse.Rng.create seed) in
  let mutators =
    match corpus_kind with
    | "supervised" -> Mutators.Registry.supervised
    | "unsupervised" -> Mutators.Registry.unsupervised
    | "extended" -> Mutators.Registry.extended
    | _ -> Mutators.Registry.core
  in
  let cfg =
    { (Fuzzing.Mucfuzz.default_config ~mutators ()) with
      Fuzzing.Mucfuzz.max_attempts_per_iteration = 16;
      sample_every = max 1 sample_every;
      schedule;
      pool_max =
        (if pool_max > 0 then pool_max
         else (Fuzzing.Mucfuzz.default_config ()).Fuzzing.Mucfuzz.pool_max) }
  in
  let engine = Engine.Ctx.create () in
  let log_spec = parse_log_spec log_spec in
  Option.iter
    (fun (_, level) -> ignore (Engine.Ctx.enable_log ~level engine))
    log_spec;
  if trace then
    Engine.Event.add_sink engine.Engine.Ctx.bus
      (Engine.Event.text_sink ~out:(fun line -> Fmt.epr "%s@." line));
  let tel =
    Option.map (fun dir -> Engine.Telemetry.attach ~dir engine) telemetry
  in
  let st =
    if want_status status then Some (Engine.Status.attach ~label:"uCFuzz" engine)
    else None
  in
  let r =
    Fuzzing.Mucfuzz.run ~cfg ~engine ?faults ~rng ~compiler ~seeds ~iterations
      ~name:"uCFuzz" ()
  in
  Option.iter Engine.Status.finish st;
  Fmt.pr "iterations: %d@." iterations;
  Fmt.pr "mutants: %d (%.1f%% compilable)@." r.Fuzzing.Fuzz_result.total_mutants
    (Fuzzing.Fuzz_result.compilable_ratio r);
  Fmt.pr "coverage: %d branches@."
    (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage);
  Fmt.pr "unique crashes: %d@." (Fuzzing.Fuzz_result.unique_crashes r);
  Hashtbl.iter
    (fun _ cr ->
      Fmt.pr "  %s@." (Simcomp.Crash.to_string cr.Fuzzing.Fuzz_result.cr_crash))
    r.Fuzzing.Fuzz_result.crashes;
  Option.iter
    (fun t ->
      Engine.Telemetry.finalize ~report:(Fuzzing.Run_report.fuzz ~engine r) t)
    tel;
  Option.iter
    (fun (path, _) ->
      Option.iter
        (fun lg -> Engine.Log.write ~path lg)
        engine.Engine.Ctx.log)
    log_spec;
  if metrics then render_metrics engine

let fuzz_cmd =
  let compiler =
    Arg.(
      value & opt compiler_conv Simcomp.Compiler.Gcc
      & info [ "c"; "compiler" ] ~doc:"gcc or clang.")
  in
  let iterations =
    Arg.(value & opt int 200 & info [ "n"; "iterations" ] ~doc:"Iterations.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let corpus =
    Arg.(
      value & opt string "core"
      & info [ "corpus" ]
          ~doc:"Mutator corpus: core, supervised, unsupervised, extended.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Stream engine events to stderr (line-oriented text sink).")
  in
  let sample_every =
    Arg.(
      value & opt int 25
      & info [ "sample-every" ] ~docv:"N"
          ~doc:"Coverage-trend sampling period, iterations per sample.")
  in
  let schedule =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:
            "AFL-style corpus scheduling: favored entries (smallest per \
             covered edge) are picked 4:1 and the non-favored pool tail is \
             trimmed past $(b,--pool-max).  Changes the RNG stream; off by \
             default to match the paper's Algorithm 1.")
  in
  let pool_max =
    Arg.(
      value & opt int 0
      & info [ "pool-max" ] ~docv:"N"
          ~doc:
            "Pool size the scheduler trims back to (0 = default 4096); \
             only meaningful with $(b,--schedule).")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run the uCFuzz coverage-guided fuzzer")
    Term.(
      const fuzz $ compiler $ iterations $ seed $ corpus $ sample_every
      $ schedule $ pool_max $ faults_term $ metrics_flag $ trace
      $ telemetry_flag $ status_flag $ log_flag)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate n seed retry_budget faults metrics telemetry =
  let engine =
    if metrics || telemetry <> None then Some (Engine.Ctx.create ()) else None
  in
  let tel =
    match (engine, telemetry) with
    | Some e, Some dir -> Some (Engine.Telemetry.attach ~dir e)
    | _ -> None
  in
  let cfg =
    let base = Metamut.Pipeline.default_config in
    {
      base with
      Metamut.Pipeline.retry =
        {
          base.Metamut.Pipeline.retry with
          Engine.Retry.max_attempts = max 1 retry_budget;
        };
      faults;
    }
  in
  let runs = Metamut.Pipeline.run_many ~cfg ~seed ?engine ~n () in
  List.iter
    (fun r ->
      let open Metamut.Pipeline in
      match r.r_outcome with
      | Valid m ->
        Fmt.pr "valid      %-36s ($%.2f)@." m.Mutators.Mutator.name
          (dollars_of_tokens (total_cost r).sc_tokens)
      | Invalid_refinement -> Fmt.pr "invalid    %s (refinement)@." r.r_name
      | Invalid_manual why -> Fmt.pr "invalid    %s (%s)@." r.r_name why
      | System_error ->
        Fmt.pr "error      (API, %d attempt%s)@." r.r_attempts
          (if r.r_attempts = 1 then "" else "s"))
    runs;
  let s = Metamut.Pipeline.summarize runs in
  Fmt.pr "valid: %d/%d@." s.Metamut.Pipeline.s_valid n;
  let recovered =
    List.length
      (List.filter
         (fun r ->
           r.Metamut.Pipeline.r_attempts > 1
           && r.Metamut.Pipeline.r_outcome <> Metamut.Pipeline.System_error)
         runs)
  in
  if recovered > 0 then
    Fmt.pr "recovered after retry: %d (%.1f s backoff charged)@." recovered
      (List.fold_left
         (fun acc r ->
           acc +. r.Metamut.Pipeline.r_retry.Metamut.Pipeline.sc_wait_s)
         0. runs);
  Option.iter Engine.Telemetry.finalize tel;
  if metrics then Option.iter render_metrics engine

let generate_cmd =
  let n = Arg.(value & opt int 20 & info [ "n" ] ~doc:"Invocations.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let retry_budget =
    Arg.(
      value
      & opt int Engine.Retry.default_policy.Engine.Retry.max_attempts
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:
            "Maximum pipeline attempts per invocation when the simulated \
             API throttles ($(b,1) disables retry, matching the paper's \
             24-errors-in-100 behaviour).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Run the MetaMut mutator-generation pipeline")
    Term.(
      const generate $ n $ seed $ retry_budget $ faults_term $ metrics_flag
      $ telemetry_flag)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

(* The RQ1 stdout table: byte-identical at any --jobs count. *)
let print_rq1_table (t : Fuzzing.Campaign.t) =
  let table =
    Report.Table.create ~title:"RQ1 campaign"
      ~header:[ "fuzzer"; "compiler"; "coverage"; "crashes"; "compilable %" ]
  in
  List.iter
    (fun ((f, c), r) ->
      Report.Table.add_row table
        [ Fuzzing.Campaign.fuzzer_name f;
          Simcomp.Bugdb.compiler_to_string c;
          string_of_int (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage);
          string_of_int (Fuzzing.Fuzz_result.unique_crashes r);
          Fmt.str "%.1f" (Fuzzing.Fuzz_result.compilable_ratio r) ])
    t.Fuzzing.Campaign.results;
  Report.Table.print table

(* --bisect: attribute every unique optimizer-stage crash to its
   culprit pass(es).  Deterministic in the campaign results, so this
   table is byte-identical at any job count. *)
let run_bisect ?engine (t : Fuzzing.Campaign.t) =
  let ats = Fuzzing.Bisect.attribute ?engine t in
  let bt =
    Report.Table.create ~title:"Culprit-pass attribution"
      ~header:[ "compiler"; "bug"; "finding"; "culprits"; "first divergent" ]
  in
  List.iter
    (fun (a : Fuzzing.Bisect.attribution) ->
      let v = a.Fuzzing.Bisect.at_verdict in
      Report.Table.add_row bt
        [
          Simcomp.Bugdb.compiler_to_string a.Fuzzing.Bisect.at_compiler;
          a.Fuzzing.Bisect.at_bug_id;
          Fuzzing.Bisect.finding_to_string v.Fuzzing.Bisect.v_finding;
          (if v.Fuzzing.Bisect.v_attributable then
             String.concat ", " v.Fuzzing.Bisect.v_culprits
           else "(unattributable)");
          Option.value ~default:"-" v.Fuzzing.Bisect.v_first_divergent;
        ])
    ats;
  Report.Table.print bt;
  ats

let campaign iterations jobs sample_every schedule faults checkpoint resume
    bisect metrics telemetry status opt_matrix hang_timeout lease_deadline
    alloc_budget serve log_spec =
  (* the per-lease resource governor, only built when a flag departs
     from the defaults so plain pooled runs keep the default limits *)
  let limits =
    let l =
      {
        Engine.Shard.default_limits with
        hang_timeout_s = hang_timeout;
        lease_deadline_s =
          Option.value ~default:infinity
            (Option.map float_of_int lease_deadline);
        alloc_budget_words =
          Option.value ~default:infinity
            (Option.map (fun mw -> float_of_int mw *. 1e6) alloc_budget);
      }
    in
    if l = Engine.Shard.default_limits then None else Some l
  in
  let cfg =
    { Fuzzing.Campaign.default_config with
      iterations;
      (* 0 = auto: ten samples across the run *)
      sample_every =
        (if sample_every > 0 then sample_every else max 1 (iterations / 10));
      schedule }
  in
  let status = want_status status in
  let log_spec = parse_log_spec log_spec in
  let engine =
    if
      metrics || telemetry <> None || status || serve <> None
      || log_spec <> None
    then Some (Engine.Ctx.create ())
    else None
  in
  Option.iter
    (fun (_, level) ->
      Option.iter (fun e -> ignore (Engine.Ctx.enable_log ~level e)) engine)
    log_spec;
  let srv = start_serve engine serve in
  let tel =
    match (engine, telemetry) with
    | Some e, Some dir -> Some (Engine.Telemetry.attach ~dir e)
    | _ -> None
  in
  (* live progress: the status line folds worker heartbeats; the
     per-unit completion callback names each finished unit *)
  let st =
    match engine with
    | Some e when status -> Some (Engine.Status.attach ~label:"campaign" e)
    | _ -> None
  in
  let progress =
    if not status then None
    else
      Some
        (fun ~completed ~total name ->
          Fmt.epr "\r\027[K[%d/%d] %s done%!" completed total name)
  in
  (* K forked worker processes; 1 runs inline *)
  let shards = if jobs > 0 then jobs else Domain.recommended_domain_count () in
  let t =
    Fuzzing.Coordinator.run ~cfg ~opt_levels:opt_matrix ?engine ?faults
      ?checkpoint ~resume ~shards ?limits ?status:st ?progress
      ?serve:srv ?flight_dir:telemetry ()
  in
  Option.iter Engine.Status.finish st;
  if status then Fmt.epr "\r\027[K%!";
  (* bookkeeping goes to stderr so stdout stays byte-comparable between
     faulted/resumed runs and clean ones *)
  if t.Fuzzing.Coordinator.resumed_units > 0 then
    Fmt.epr "resumed %d completed cell(s) from checkpoint@."
      t.Fuzzing.Coordinator.resumed_units;
  List.iter
    (fun (u, msg) ->
      Fmt.epr "FAILED %s: %s@." (Fuzzing.Coordinator.unit_name u) msg)
    t.Fuzzing.Coordinator.failures;
  List.iter
    (fun (q : Fuzzing.Coordinator.quarantined_unit) ->
      Fmt.epr "QUARANTINED %s after %d attempt(s): %s@."
        (Fuzzing.Coordinator.unit_name q.Fuzzing.Coordinator.qu_unit)
        q.Fuzzing.Coordinator.qu_attempts q.Fuzzing.Coordinator.qu_reason)
    t.Fuzzing.Coordinator.quarantined;
  let s = t.Fuzzing.Coordinator.shard_stats in
  (* driver-scope summary: only shard-count-invariant counts (the
     crash-restart tally is pooled-path-only, so it stays out) *)
  if s.Engine.Shard.st_died > 0 || s.Engine.Shard.st_requeued > 0
     || s.Engine.Shard.st_quarantined > 0
  then
    Option.iter
      (fun e ->
        Engine.Ctx.log_event e ~scope:"" ~level:Engine.Log.Warn
          ~event:"shard.recovery"
          [
            ("died", string_of_int s.Engine.Shard.st_died);
            ("requeued", string_of_int s.Engine.Shard.st_requeued);
            ("quarantined", string_of_int s.Engine.Shard.st_quarantined);
          ])
      engine;
  if s.Engine.Shard.st_died > 0 || s.Engine.Shard.st_requeued > 0 then
    Fmt.epr "shard recovery: %d worker death(s), %d lease(s) requeued@."
      s.Engine.Shard.st_died s.Engine.Shard.st_requeued;
  if
    s.Engine.Shard.st_oom > 0
    || s.Engine.Shard.st_deadline > 0
    || s.Engine.Shard.st_quarantined > 0
    || s.Engine.Shard.st_crash_restarts > 0
  then
    Fmt.epr
      "shard governor: %d oom kill(s), %d deadline kill(s), %d \
       quarantined, %d coordinator restart(s)@."
      s.Engine.Shard.st_oom s.Engine.Shard.st_deadline
      s.Engine.Shard.st_quarantined s.Engine.Shard.st_crash_restarts;
  if opt_matrix = [] then print_rq1_table (Fuzzing.Coordinator.to_campaign t)
  else begin
    let table =
      Report.Table.create ~title:"RQ1 campaign (opt matrix)"
        ~header:
          [ "fuzzer"; "compiler"; "-O"; "coverage"; "crashes";
            "compilable %" ]
    in
    List.iter
      (fun ((u : Fuzzing.Coordinator.unit_id), r) ->
        Report.Table.add_row table
          [ Fuzzing.Campaign.fuzzer_name u.Fuzzing.Coordinator.u_fuzzer;
            Simcomp.Bugdb.compiler_to_string u.Fuzzing.Coordinator.u_compiler;
            (match u.Fuzzing.Coordinator.u_opt with
            | Some l -> string_of_int l
            | None -> "2");
            string_of_int
              (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage);
            string_of_int (Fuzzing.Fuzz_result.unique_crashes r);
            Fmt.str "%.1f" (Fuzzing.Fuzz_result.compilable_ratio r) ])
      t.Fuzzing.Coordinator.results;
    Report.Table.print table
  end;
  (* bisect runs over the default axis only: opt-matrix units would
     collapse onto the same cell and mix levels *)
  let attribution =
    if bisect && opt_matrix = [] then
      Some (run_bisect ?engine (Fuzzing.Coordinator.to_campaign t))
    else begin
      if bisect then
        Fmt.epr "bisect: skipped (not defined over --opt-matrix units)@.";
      None
    end
  in
  Option.iter
    (fun tl ->
      Engine.Telemetry.finalize
        ~report:(Fuzzing.Coordinator.report ?engine ?attribution t)
        tl)
    tel;
  (match (engine, log_spec) with
  | Some { Engine.Ctx.log = Some lg; _ }, Some (path, _) ->
    (* the rendered log groups scopes in canonical unit order, so a
       resumed/faulted run's body matches the clean one *)
    let scope_order =
      List.map Fuzzing.Coordinator.unit_name
        (Fuzzing.Coordinator.units ~opt_levels:opt_matrix ())
    in
    Engine.Log.write ~scope_order ~path lg
  | _ -> ());
  serve_shutdown srv;
  if metrics then Option.iter render_metrics engine

let campaign_cmd =
  let iterations =
    Arg.(value & opt int 200 & info [ "n"; "iterations" ] ~doc:"Iterations.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs"; "shards" ]
          ~doc:
            "Deal campaign cells to $(docv) forked worker processes \
             (length-prefixed frames over a Unix socketpair per worker); \
             0 = the recommended domain count (the default), 1 = run \
             inline.  Results are byte-identical at any count, and a \
             dead, hung or over-budget worker's lease is requeued."
          ~docv:"K")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Snapshot each cell's state to $(docv) periodically (atomic \
             write-temp + rename) and journal each completed cell, so a killed \
             campaign can $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore completed cells and continue interrupted ones from \
             $(b,--checkpoint) $(i,DIR); the reassembled results are \
             identical to an uninterrupted run.")
  in
  let sample_every =
    Arg.(
      value & opt int 0
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Coverage-trend sampling period (0 = auto: ten samples across \
             the run).")
  in
  let bisect =
    Arg.(
      value & flag
      & info [ "bisect" ]
          ~doc:
            "After the run, bisect every unique optimizer-stage crash to \
             its culprit pass(es) and print the attribution table (also \
             lands in the telemetry campaign report).")
  in
  let schedule =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:
            "Enable AFL-style corpus scheduling in the uCFuzz cells \
             (favored-entry picks + pool trimming).  Deterministic at any \
             job count.")
  in
  let opt_matrix =
    Arg.(
      value & opt (list int) []
      & info [ "opt-matrix" ] ~docv:"L1,L2,..."
          ~doc:
            "Cross every cell with these $(b,-O) levels (e.g. \
             $(b,--opt-matrix 0,2,3)), so per-level pass pipelines \
             become campaign units of their own.")
  in
  let hang_timeout =
    Arg.(
      value
      & opt float Engine.Shard.default_limits.hang_timeout_s
      & info [ "hang-timeout" ] ~docv:"SEC"
          ~doc:
            "Kill a worker silent for $(docv) seconds and requeue its \
             lease (pooled runs, $(b,--jobs) > 1).")
  in
  let lease_deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "lease-deadline" ] ~docv:"SEC"
          ~doc:
            "Per-lease wall-clock budget: a worker holding one lease \
             longer than $(docv) seconds is killed and the lease retried; \
             leases that keep blowing the deadline are quarantined, not \
             fatal (pooled runs, $(b,--jobs) > 1).")
  in
  let alloc_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "alloc-budget" ] ~docv:"MWORDS"
          ~doc:
            "Per-lease allocation budget in millions of words: a worker \
             allocating past it OOM-kills itself (exit 137) and the lease \
             is retried, then quarantined (pooled runs, $(b,--jobs) > 1).")
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run the six-fuzzer RQ1 comparison")
    Term.(
      const campaign $ iterations $ jobs $ sample_every $ schedule
      $ faults_term
      $ checkpoint $ resume $ bisect $ metrics_flag $ telemetry_flag
      $ status_flag $ opt_matrix $ hang_timeout $ lease_deadline
      $ alloc_budget $ serve_flag $ log_flag)

let () =
  Engine.Runtime.tune ();
  let info =
    Cmd.info "metamut" ~version:"1.0.0"
      ~doc:"MetaMut reproduction: LLM-generated mutators for compiler fuzzing"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; mutate_cmd; compile_cmd; passes_cmd; bisect_cmd;
            fuzz_cmd; generate_cmd; campaign_cmd;
          ]))
