(* Tests for the fuzzing layer: seeds, the fragility model, μCFuzz
   (Algorithm 1), the baselines, the macro fuzzer, and the campaign
   driver. *)

open Cparse

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let seed_corpus = lazy (Fuzzing.Seeds.corpus ~n:30 (Rng.create 1))

let seeds_tests =
  [
    tc "every template parses and type checks" (fun () ->
        List.iter
          (fun src ->
            match Parser.parse src with
            | Error e -> Alcotest.failf "template does not parse: %s" e
            | Ok tu ->
              if not (Typecheck.check tu).Typecheck.r_ok then
                Alcotest.failf "template does not type check:\n%s" src)
          Fuzzing.Seeds.templates);
    tc "corpus has the requested size" (fun () ->
        check Alcotest.bool "at least n" true
          (List.length (Lazy.force seed_corpus) >= 30));
    tc "corpus members compile" (fun () ->
        List.iter
          (fun src ->
            match
              Simcomp.Compiler.compile Simcomp.Compiler.Gcc
                Simcomp.Compiler.default_options src
            with
            | Simcomp.Compiler.Compiled _ -> ()
            | Simcomp.Compiler.Crashed _ -> () (* latent bugs are possible *)
            | Simcomp.Compiler.Compile_error es ->
              Alcotest.failf "seed does not compile: %s"
                (String.concat ";" es))
          (Lazy.force seed_corpus));
    tc "corpus includes sprintf/goto-rich templates" (fun () ->
        let feats =
          List.filter_map
            (fun src ->
              match Parser.parse src with
              | Ok tu -> Some (Simcomp.Features.ast_features tu)
              | Error _ -> None)
            (Lazy.force seed_corpus)
        in
        check Alcotest.bool "variadic calls" true
          (List.exists (fun a -> a.Simcomp.Features.has_variadic_call) feats);
        check Alcotest.bool "gotos" true
          (List.exists (fun a -> a.Simcomp.Features.n_gotos > 0) feats);
        check Alcotest.bool "fallthrough" true
          (List.exists (fun a -> a.Simcomp.Features.has_fallthrough) feats));
    tc "corpus generation is deterministic" (fun () ->
        let a = Fuzzing.Seeds.corpus ~n:10 (Rng.create 7) in
        let b = Fuzzing.Seeds.corpus ~n:10 (Rng.create 7) in
        check Alcotest.(list string) "same" a b);
  ]

(* [Fragility.corrupt] as it was when it built each slipped text from
   two or three [String.sub]/[^] copies: the reference for its output
   and its draws. *)
let ref_corrupt (rng : Rng.t) (src : string) : string =
  let n = String.length src in
  if n < 8 then src
  else begin
    let pos = Rng.int rng (n - 4) in
    match Rng.int rng 5 with
    | 0 ->
      let len = 1 + Rng.int rng 3 in
      String.sub src 0 pos ^ String.sub src (pos + len) (n - pos - len)
    | 1 ->
      let len = 2 + Rng.int rng 8 in
      let len = min len (n - pos) in
      String.sub src 0 (pos + len)
      ^ String.sub src pos len
      ^ String.sub src (pos + len) (n - pos - len)
    | 2 ->
      let c = Rng.choose rng [ ";"; ")"; "}"; "("; "{"; "," ] in
      String.sub src 0 pos ^ c ^ String.sub src pos (n - pos)
    | 3 ->
      String.sub src 0 pos ^ "__missed_rewrite" ^ String.sub src pos (n - pos)
    | _ ->
      let cut = pos + Rng.int rng (n - pos) in
      String.sub src 0 cut
  end

let fragility_tests =
  [
    tc "corrupt is the reference corruption, draw for draw" (fun () ->
        let srcs = "" :: "int x;" :: "int main;" :: Lazy.force seed_corpus in
        List.iteri
          (fun i src ->
            let rng = Rng.create i and rng' = Rng.create i in
            for _ = 1 to 200 do
              check Alcotest.string "corrupted text" (ref_corrupt rng' src)
                (Fuzzing.Fragility.corrupt rng src);
              check Alcotest.int "next draw" (Rng.int rng' 1_000_000)
                (Rng.int rng 1_000_000)
            done)
          srcs);
    tc "corrupt changes the source" (fun () ->
        let src = List.hd (Lazy.force seed_corpus) in
        let rng = Rng.create 3 in
        let changed = ref 0 in
        for _ = 1 to 20 do
          if not (String.equal (Fuzzing.Fragility.corrupt rng src) src) then
            incr changed
        done;
        check Alcotest.bool "mostly changes" true (!changed >= 15));
    tc "corrupt is deterministic under the same rng" (fun () ->
        let src = List.hd (Lazy.force seed_corpus) in
        let a = Fuzzing.Fragility.corrupt (Rng.create 5) src in
        let b = Fuzzing.Fragility.corrupt (Rng.create 5) src in
        check Alcotest.string "same" a b);
    tc "supervised slips are rarer than unsupervised" (fun () ->
        check Alcotest.bool "ordering" true
          (Fuzzing.Fragility.supervised_slip_probability
          < Fuzzing.Fragility.unsupervised_slip_probability));
    tc "render without slip equals pretty-print" (fun () ->
        (* probability of 200 consecutive slips is negligible; check that
           at least one render is clean, that render_slip flags exactly
           the renders that are not the pretty form, and that it draws
           as render does *)
        let m = List.hd Mutators.Registry.core in
        let tu =
          match Parser.parse "int main(void) { return 1; }" with
          | Ok tu -> tu
          | Error _ -> assert false
        in
        let rng = Rng.create 9 and rng' = Rng.create 9 in
        let pretty = Pretty.tu_to_string tu in
        let clean = ref 0 in
        for _ = 1 to 200 do
          let src, tokens = Fuzzing.Fragility.render_slip rng m tu in
          let slipped = Option.is_none tokens in
          check Alcotest.string "render_slip renders as render" src
            (Fuzzing.Fragility.render rng' m tu);
          check Alcotest.bool "slipped iff not the pretty form" slipped
            (not (String.equal src pretty));
          if not slipped then incr clean
        done;
        check Alcotest.bool "some clean renders" true (!clean > 0));
  ]

let aflpp_tests =
  [
    tc "havoc mutation changes bytes deterministically" (fun () ->
        let src = "int main(void) { return 0; }" in
        let a = Fuzzing.Baselines.havoc_byte_mutation (Rng.create 2) src in
        let b = Fuzzing.Baselines.havoc_byte_mutation (Rng.create 2) src in
        check Alcotest.string "same" a b);
    tc "havoc mostly breaks the parse" (fun () ->
        let src = List.hd (Lazy.force seed_corpus) in
        let rng = Rng.create 4 in
        let broken = ref 0 in
        for _ = 1 to 50 do
          let m = Fuzzing.Baselines.havoc_byte_mutation rng src in
          match Parser.parse m with Error _ -> incr broken | Ok _ -> ()
        done;
        check Alcotest.bool "mostly broken" true (!broken > 30));
  ]

(* mutants, compilable mutants, covered branches, sorted crash keys *)
let run_fingerprint (r : Fuzzing.Fuzz_result.t) =
  Fmt.str "%d %d %d [%s]" r.total_mutants r.compilable_mutants
    (Simcomp.Coverage.covered r.coverage)
    (String.concat "; " (List.sort compare (Fuzzing.Fuzz_result.crash_keys r)))

let scheduled_pin =
  "151 120 1521 [get_memory_rtx|expand_builtin_memop; \
   make_goto_expr_edges|build_gimple_cfg]"

let unscheduled_pin =
  "70 57 1483 [make_goto_expr_edges|build_gimple_cfg; \
   rewrite_expr_tree|reassociate_bb]"

(* Baseline and macro-fuzzer runs, pinned with their whole trend: each
   loop records mutants, crashes and trend points through Fuzz_result,
   and these pins hold that step to the loops it replaced. *)
let trend_t = Alcotest.(list (pair int int))

let aflpp_pin =
  ( "120 5 1350 [make_goto_expr_edges|build_gimple_cfg]",
    [ (10, 1328); (20, 1341); (30, 1346); (40, 1350) ] )

let csmith_pin = ("20 20 1152 []", [ (5, 870); (10, 1012); (15, 1103); (20, 1152) ])

let yarpgen_pin = ("20 20 1016 []", [ (6, 782); (12, 865); (18, 993); (20, 1016) ])

(* the final (40, 1543) sample is new: the macro fuzzer's trend used to
   stop at its last periodic sample *)
let macro_pin =
  ( "31 21 1543 [c_process_expr_stmt|c_finish_expr_stmt; \
     irange::set|range_op_handler::fold_range; \
     make_goto_expr_edges|build_gimple_cfg; \
     thread_through_loop_header|jump_thread_path_registry::update_cfg]",
    [ (15, 1462); (30, 1505); (40, 1543) ] )

let check_pin (fingerprint, trend) (r : Fuzzing.Fuzz_result.t) =
  check Alcotest.string "pinned run" fingerprint (run_fingerprint r);
  check trend_t "pinned trend" trend r.coverage_trend;
  check Alcotest.int "iterations" (fst (List.nth trend (List.length trend - 1)))
    r.iterations

let mucfuzz_tests =
  [
    tc "run produces coverage, pool growth, and a trend" (fun () ->
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
            sample_every = 5;
          }
        in
        let r =
          Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 1)
            ~compiler:Simcomp.Compiler.Gcc
            ~seeds:(Lazy.force seed_corpus) ~iterations:30 ~name:"t" ()
        in
        check Alcotest.bool "covered" true
          (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage > 100);
        check Alcotest.bool "mutants" true (r.Fuzzing.Fuzz_result.total_mutants > 0);
        check Alcotest.bool "trend" true
          (List.length r.Fuzzing.Fuzz_result.coverage_trend >= 5);
        (* trend is monotone *)
        let rec mono = function
          | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        check Alcotest.bool "monotone" true
          (mono r.Fuzzing.Fuzz_result.coverage_trend));
    tc "deterministic under the same seed" (fun () ->
        let go () =
          let cfg =
            {
              (Fuzzing.Mucfuzz.default_config ()) with
              Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            }
          in
          let r =
            Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 77)
              ~compiler:Simcomp.Compiler.Gcc
              ~seeds:(Lazy.force seed_corpus) ~iterations:15 ~name:"t" ()
          in
          ( Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage,
            r.Fuzzing.Fuzz_result.total_mutants,
            Fuzzing.Fuzz_result.unique_crashes r )
        in
        check
          Alcotest.(triple int int int)
          "same run" (go ()) (go ()));
    (* The allocation gate: a fixed 200-iteration run on GCC-sim whose
       minor words per compile must stay within 1.15x the committed
       baseline (lower bench/BASELINE_smoke_minor_words in the change
       that saves allocation).  Gc.minor_words, not quick_stat, which
       only advances at collection boundaries.  The same run pins the
       fuzz identity, so a change that moves the numbers says so. *)
    tc "smoke run allocation within baseline, identity pinned" (fun () ->
        let baseline = float_of_string (String.trim Smoke_baseline.minor_words) in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
            sample_every = 10;
          }
        in
        let seeds = Fuzzing.Seeds.corpus ~n:30 (Rng.create 11) in
        let engine = Engine.Ctx.create () in
        let w0 = Gc.minor_words () in
        let r =
          Fuzzing.Mucfuzz.run ~cfg ~engine ~rng:(Rng.create 42)
            ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations:200 ~name:"gate"
            ()
        in
        let words = Gc.minor_words () -. w0 in
        let compiles =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter engine.Engine.Ctx.metrics "compile.total")
        in
        check Alcotest.int "mutants" 727 r.Fuzzing.Fuzz_result.total_mutants;
        check Alcotest.int "compile.total" 757 compiles;
        check Alcotest.int "covered branches" 1920
          (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage);
        check Alcotest.int "unique crashes" 8
          (Fuzzing.Fuzz_result.unique_crashes r);
        let per_compile = words /. float_of_int compiles in
        if per_compile > baseline *. 1.15 then
          Alcotest.failf "%.1f minor words/compile exceeds baseline %.0f x 1.15"
            per_compile baseline);
    tc "crash records keep first discovery and input" (fun () ->
        let r = Fuzzing.Fuzz_result.make ~fuzzer_name:"x" ~compiler:Simcomp.Compiler.Gcc in
        let crash =
          {
            Simcomp.Crash.bug_id = "b";
            stage = Simcomp.Crash.Optimization;
            kind = Simcomp.Crash.Hang;
            frames = [ "f"; "g" ];
          }
        in
        Fuzzing.Fuzz_result.record_crash r ~iteration:5 ~input:"src1" crash;
        Fuzzing.Fuzz_result.record_crash r ~iteration:9 ~input:"src2" crash;
        check Alcotest.int "unique" 1 (Fuzzing.Fuzz_result.unique_crashes r);
        let rec_ = Hashtbl.find r.Fuzzing.Fuzz_result.crashes "f|g" in
        check Alcotest.int "first iteration" 5
          rec_.Fuzzing.Fuzz_result.cr_first_iteration;
        check Alcotest.string "first input" "src1"
          rec_.Fuzzing.Fuzz_result.cr_input);
    tc "crashes_by_stage partitions the crash set" (fun () ->
        let r = Fuzzing.Fuzz_result.make ~fuzzer_name:"x" ~compiler:Simcomp.Compiler.Gcc in
        List.iteri
          (fun i stage ->
            Fuzzing.Fuzz_result.record_crash r ~iteration:i ~input:""
              {
                Simcomp.Crash.bug_id = Fmt.str "b%d" i;
                stage;
                kind = Simcomp.Crash.Segfault;
                frames = [ Fmt.str "f%d" i ];
              })
          Simcomp.Crash.[ Front_end; Front_end; Optimization ];
        let by = Fuzzing.Fuzz_result.crashes_by_stage r in
        check Alcotest.int "front-end" 2
          (List.assoc Simcomp.Crash.Front_end by);
        check Alcotest.int "opt" 1
          (List.assoc Simcomp.Crash.Optimization by));
    tc "checkpoint/resume reproduces an uninterrupted run" (fun () ->
        let file =
          Filename.concat (Filename.temp_dir "metamut-mucfuzz" "") "m.ckpt"
        in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            sample_every = 5;
          }
        in
        let go ?checkpoint ?resume () =
          Fuzzing.Mucfuzz.run ~cfg ?checkpoint ?resume ~rng:(Rng.create 9)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ~name:"t" ()
        in
        let full = go () in
        (* every=15 leaves the last snapshot at iteration 30: resuming
           replays the final 10 iterations from restored state *)
        let checkpointed = go ~checkpoint:(file, 15) () in
        check Alcotest.bool "checkpointing is transparent" true
          (Fuzzing.Fuzz_result.equal full checkpointed);
        let resumed = go ~resume:file () in
        check Alcotest.bool "resumed run identical" true
          (Fuzzing.Fuzz_result.equal full resumed));
    tc "corpus scheduling is deterministic and keeps finding coverage"
      (fun () ->
        (* pool_max 8 on a 60-iteration run forces several trim cycles,
           so favored-set selection, claim transfer, and the index remap
           are all exercised by the equality check *)
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            sample_every = 10;
            schedule = true;
            pool_max = 8;
          }
        in
        let go () =
          Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 21)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:60 ~name:"t" ()
        in
        let a = go () and b = go () in
        check Alcotest.bool "same run" true (Fuzzing.Fuzz_result.equal a b);
        check Alcotest.bool "coverage found" true
          (Simcomp.Coverage.covered a.Fuzzing.Fuzz_result.coverage > 100);
        (* recorded before the trim remap walked covered cells instead of
           the whole claim table *)
        check Alcotest.string "pinned run" scheduled_pin (run_fingerprint a));
    tc "scheduling off leaves the default run untouched" (fun () ->
        (* the scheduler draws extra RNG only when enabled: a default
           config run must be byte-for-byte the run from before the
           scheduler existed (same stream, same decisions) *)
        let go schedule =
          let cfg =
            {
              (Fuzzing.Mucfuzz.default_config ()) with
              Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
              sample_every = 10;
              schedule;
            }
          in
          Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 33)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:30 ~name:"t" ()
        in
        let off = go false and off' = go false in
        check Alcotest.bool "default deterministic" true
          (Fuzzing.Fuzz_result.equal off off');
        check Alcotest.string "pinned run" unscheduled_pin (run_fingerprint off));
    tc "scheduled checkpoint/resume reproduces an uninterrupted run"
      (fun () ->
        let file =
          Filename.concat (Filename.temp_dir "metamut-sched" "") "m.ckpt"
        in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            sample_every = 5;
            schedule = true;
            pool_max = 8;
          }
        in
        let go ?checkpoint ?resume () =
          Fuzzing.Mucfuzz.run ~cfg ?checkpoint ?resume ~rng:(Rng.create 9)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ~name:"t" ()
        in
        let full = go () in
        let checkpointed = go ~checkpoint:(file, 15) () in
        check Alcotest.bool "checkpointing is transparent" true
          (Fuzzing.Fuzz_result.equal full checkpointed);
        let resumed = go ~resume:file () in
        check Alcotest.bool "resumed run identical" true
          (Fuzzing.Fuzz_result.equal full resumed));
    tc "runs sharing an engine context keep their own trends" (fun () ->
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 4;
            sample_every = 5;
          }
        in
        let trend ?engine seed =
          (Fuzzing.Mucfuzz.run ~cfg ?engine ~rng:(Rng.create seed)
             ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
             ~iterations:12 ~name:"t" ())
            .Fuzzing.Fuzz_result.coverage_trend
        in
        let fresh_a = trend 1 in
        let fresh_b = trend 2 in
        let engine = Engine.Ctx.create () in
        let shared_a = trend ~engine 1 in
        let shared_b = trend ~engine 2 in
        check trend_t "first run" fresh_a shared_a;
        check trend_t "second run" fresh_b shared_b);
    tc "injected compile hangs surface as watchdog Hang crashes" (fun () ->
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        let r =
          Fuzzing.Mucfuzz.run ~faults ~rng:(Rng.create 4)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:10 ~name:"t" ()
        in
        check Alcotest.bool "crash recorded" true
          (Fuzzing.Fuzz_result.unique_crashes r > 0);
        Hashtbl.iter
          (fun _ cr ->
            check Alcotest.bool "hang kind" true
              (cr.Fuzzing.Fuzz_result.cr_crash.Simcomp.Crash.kind
              = Simcomp.Crash.Hang))
          r.Fuzzing.Fuzz_result.crashes);
  ]

let baseline_tests =
  [
    tc "grayc has exactly five mutators" (fun () ->
        check Alcotest.int "five" 5
          (List.length Fuzzing.Baselines.grayc_mutators));
    tc "generators produce near-100% compilable programs" (fun () ->
        let r =
          Fuzzing.Baselines.run_csmith ~rng:(Rng.create 5)
            ~compiler:Simcomp.Compiler.Gcc ~iterations:20 ~sample_every:5 ()
        in
        check Alcotest.bool "ratio" true
          (Fuzzing.Fuzz_result.compilable_ratio r > 95.));
    tc "afl++ produces mostly non-compilable mutants" (fun () ->
        let r =
          Fuzzing.Baselines.run_aflpp ~rng:(Rng.create 6)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ~sample_every:10 ()
        in
        check Alcotest.bool "low ratio" true
          (Fuzzing.Fuzz_result.compilable_ratio r < 20.);
        check_pin aflpp_pin r);
    tc "csmith and yarpgen runs are pinned" (fun () ->
        check_pin csmith_pin
          (Fuzzing.Baselines.run_csmith ~rng:(Rng.create 5)
             ~compiler:Simcomp.Compiler.Gcc ~iterations:20 ~sample_every:5 ());
        check_pin yarpgen_pin
          (Fuzzing.Baselines.run_yarpgen ~rng:(Rng.create 7)
             ~compiler:Simcomp.Compiler.Clang ~iterations:20 ~sample_every:6
             ()));
  ]

let macro_tests =
  [
    tc "macro fuzzer runs with random options and havoc" (fun () ->
        let r =
          Fuzzing.Macro_fuzzer.run ~rng:(Rng.create 8)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ()
        in
        check Alcotest.bool "mutants" true (r.Fuzzing.Fuzz_result.total_mutants > 0);
        check Alcotest.bool "coverage" true
          (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage > 100));
    tc "resource limit drops oversized mutants" (fun () ->
        let cfg =
          { Fuzzing.Macro_fuzzer.default_config with max_program_bytes = 10 }
        in
        let r =
          Fuzzing.Macro_fuzzer.run ~cfg ~rng:(Rng.create 9)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:20 ()
        in
        check Alcotest.int "all dropped" 0 r.Fuzzing.Fuzz_result.total_mutants);
    tc "macro fuzzer run is pinned" (fun () ->
        let cfg = { Fuzzing.Macro_fuzzer.default_config with sample_every = 15 } in
        check_pin macro_pin
          (Fuzzing.Macro_fuzzer.run ~cfg ~rng:(Rng.create 8)
             ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
             ~iterations:40 ()));
  ]

let campaign_tests =
  [
    tc "campaign produces one result per fuzzer and compiler" (fun () ->
        let cfg =
          {
            Fuzzing.Campaign.default_config with
            iterations = 12;
            seeds = 10;
            sample_every = 4;
            max_attempts = 4;
          }
        in
        let t =
          Fuzzing.Coordinator.run ~cfg ~shards:cfg.jobs ()
        in
        check Alcotest.int "results" 12 (List.length t.Fuzzing.Coordinator.results));
    tc "crash sets are prefixed by compiler" (fun () ->
        let cfg =
          {
            Fuzzing.Campaign.default_config with
            iterations = 10;
            seeds = 8;
            sample_every = 5;
            max_attempts = 4;
          }
        in
        let t =
          Fuzzing.Coordinator.to_campaign
            (Fuzzing.Coordinator.run ~cfg ~fuzzers:[ Fuzzing.Campaign.MuCFuzz_s ]
               ~shards:cfg.jobs ())
        in
        Hashtbl.iter
          (fun k () ->
            check Alcotest.bool "prefixed" true
              (String.length k > 4
              && (String.sub k 0 4 = "GCC:" || String.sub k 0 6 = "Clang:")))
          (Fuzzing.Campaign.crash_set t Fuzzing.Campaign.MuCFuzz_s));
    tc "fuzzer names are stable" (fun () ->
        check Alcotest.(list string) "names"
          [ "uCFuzz.s"; "uCFuzz.u"; "AFL++"; "GrayC"; "Csmith"; "YARPGen" ]
          (List.map Fuzzing.Campaign.fuzzer_name Fuzzing.Campaign.all_fuzzers));
  ]

let report_tests =
  [
    tc "table renders aligned columns" (fun () ->
        let t = Report.Table.create ~title:"T" ~header:[ "a"; "b" ] in
        Report.Table.add_row t [ "x"; "1" ];
        Report.Table.add_int_row t "y" [ 22 ];
        let s = Report.Table.render t in
        check Alcotest.bool "has title" true (String.length s > 0);
        check Alcotest.bool "rows present" true
          (String.split_on_char '\n' s |> List.length >= 5));
    tc "series data rendering" (fun () ->
        let s =
          Report.Series.render_data ~title:"x"
            [ Report.Series.make ~label:"l" ~points:[ (1, 2); (3, 4) ] ]
        in
        check Alcotest.bool "points" true (String.length s > 10));
    tc "venn counts exclusive members" (fun () ->
        let mk xs =
          let h = Hashtbl.create 4 in
          List.iter (fun x -> Hashtbl.replace h x ()) xs;
          h
        in
        let s =
          Report.Series.render_venn ~title:"v"
            [ ("A", mk [ "1"; "2" ]); ("B", mk [ "2"; "3" ]) ]
        in
        check Alcotest.bool "union of 3" true
          (let rec contains h n i =
             i + String.length n <= String.length h
             && (String.sub h i (String.length n) = n || contains h n (i + 1))
           in
           contains s "union of unique crashes: 3" 0));
  ]

let wrongcode_trigger = {|
int r[6];
int total;
int main(void) {
  int a = (int)(char)100;
  for (int i = 0; i < 3; i++) total += i;
  for (int j = 0; j < 3; j++) total += j;
  r[1] += r[0];
  r[2] += r[1];
  r[3] += r[2];
  total = a - 7;
  return total & 255;
}
|}

(* One trigger per seeded miscompile, validated against the Bugdb ground
   truth (mc_culprit).  Where the bug needs a masking pass absent, the
   options disable it. *)
let bisect_cases =
  [
    ( "gcc-wrongcode-reassoc", Simcomp.Compiler.Gcc,
      { Simcomp.Compiler.default_options with opt_level = 2 },
      "constfold", wrongcode_trigger );
    ( "gcc-wrongcode-narrowing", Simcomp.Compiler.Gcc,
      { Simcomp.Compiler.default_options with opt_level = 3 },
      "loop-opt",
      "int main(void) { int x = (int)(char)200; int s = 3; int n = 1; while \
       (--n) s += 5; return (s - x) & 255; }" );
    ( "clang-wrongcode-instsimplify", Simcomp.Compiler.Clang,
      { Simcomp.Compiler.default_options with opt_level = 2 },
      "dce",
      "int main(void) { int a = 120; int b = 3; int c = a > b ? 1 : 2; int d \
       = b > a ? 3 : 4; int e; e = (c, d); switch (c) { case 1: e += 1; \
       break; default: e += 2; break; } return (a - b - e) & 255; }" );
    ( "gcc-wrongcode-strlen-nofold", Simcomp.Compiler.Gcc,
      { Simcomp.Compiler.default_options with
        opt_level = 2; disabled_passes = [ "constfold" ] },
      "strlen-opt",
      "char buf[16];\n\
       int helper(void) { return sprintf(buf, \"%s-pad\", buf); }\n\
       int main(void) { int a = 90; int b = 7; return (a - b) & 255; }" );
    ( "clang-wrongcode-jumpthread", Simcomp.Compiler.Clang,
      { Simcomp.Compiler.default_options with
        opt_level = 2; disabled_passes = [ "dce" ] },
      "simplify-cfg",
      "int main(void) { int a = 100; int b = 9; goto skip; a = 1; skip: \
       return (a - b) & 255; }" );
  ]

let wrongcode_tests =
  [
    tc "crafted trigger is detected as a miscompilation" (fun () ->
        match
          Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc
            Simcomp.Compiler.default_options wrongcode_trigger
        with
        | Some mm ->
          check Alcotest.bool "differs" true
            (mm.Fuzzing.Wrongcode.mm_reference
            <> mm.Fuzzing.Wrongcode.mm_observed)
        | None -> Alcotest.fail "miscompilation not detected");
    tc "the same shape is sound on Clang-sim" (fun () ->
        (* the injected wrong-code bug is GCC-specific *)
        check Alcotest.bool "no mismatch" true
          (Fuzzing.Wrongcode.check_program Simcomp.Compiler.Clang
             Simcomp.Compiler.default_options wrongcode_trigger
          = None));
    tc "clean programs never mismatch" (fun () ->
        let rng = Rng.create 31 in
        let cfg =
          { Ast_gen.default_config with
            allow_pointers = false; allow_structs = false;
            allow_strings = false; max_functions = 2; max_depth = 2 }
        in
        for _ = 1 to 20 do
          let src = Ast_gen.gen_source ~cfg rng in
          (* avoid programs that accidentally satisfy a wrong-code gate *)
          let a =
            Simcomp.Features.ast_features
              (Result.get_ok (Parser.parse src))
          in
          if
            Simcomp.Bugdb.check_miscompile ~compiler:Simcomp.Compiler.Gcc
              ~opt_level:3
              ~pipeline:
                (Simcomp.Compiler.pipeline_of
                   { Simcomp.Compiler.default_options with opt_level = 3 })
              ~ast:a
            = None
          then
            check Alcotest.bool "sound" true
              (Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc
                 { Simcomp.Compiler.default_options with opt_level = 3 }
                 src
              = None)
        done);
    tc "hunt returns a well-formed report" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:15 (Rng.create 4) in
        let r =
          Fuzzing.Wrongcode.hunt ~rng:(Rng.create 6)
            ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations:60 ()
        in
        check Alcotest.bool "checked some" true
          (r.Fuzzing.Wrongcode.r_checked > 0));
    tc "a pinned hunt finds the same mismatches" (fun () ->
        (* level, reference -> observed exit code, MD5 prefix of the source *)
        let r =
          Fuzzing.Wrongcode.hunt ~rng:(Rng.create 77) ~compiler:Simcomp.Compiler.Gcc
            ~seeds:(Fuzzing.Seeds.corpus ~n:60 (Rng.create 21))
            ~iterations:200 ()
        in
        check Alcotest.int "checked" 175 r.Fuzzing.Wrongcode.r_checked;
        check
          Alcotest.(list string)
          "mismatches"
          [ "O3 247->190 d720410b"; "O2 3->2 c760cb03"; "O2 113->25 01b9486b";
            "O3 247->190 a604f3d6"; "O2 247->190 805fd3f9"; "O2 113->25 89fc4118" ]
          (List.map
             (fun (mm : Fuzzing.Wrongcode.mismatch) ->
               Fmt.str "O%d %d->%d %s" mm.mm_options.opt_level (fst mm.mm_reference)
                 (fst mm.mm_observed)
                 (String.sub (Digest.to_hex (Digest.string mm.mm_source)) 0 8))
             r.Fuzzing.Wrongcode.r_mismatches));
    tc "check_program is the two-compile reference" (fun () ->
        let gcc = Simcomp.Compiler.Gcc and clang = Simcomp.Compiler.Clang in
        let at level = { Simcomp.Compiler.default_options with opt_level = level } in
        let mismatches = ref 0 and no_reference = ref 0 in
        let same ?tree what compiler options src =
          let want = Ref_wrongcode.check_program ?tree compiler options src in
          if Option.is_some want then incr mismatches;
          let got = Fuzzing.Wrongcode.check_program ?tree compiler options src in
          if want <> got then
            Alcotest.failf "%s (%s): the reference says %s" what
              (Simcomp.Compiler.options_to_string options)
              (match want with
              | Some mm -> Fmt.str "%d->%d" (fst mm.mm_reference) (fst mm.mm_observed)
              | None -> "no mismatch")
        in
        (* does the -O0 lowering have no observable behaviour? *)
        let unobservable compiler src =
          match Simcomp.Compiler.compile_ir compiler (at 0) src with
          | Ok p -> Fuzzing.Wrongcode.run_ir p = None
          | Error _ -> true
        in
        (* every mutant of both pinned hunts, at its drawn level *)
        List.iter
          (fun (compiler, iterations) ->
            List.iteri
              (fun i (tree, src, level) ->
                if compiler = gcc && unobservable compiler src then incr no_reference;
                same ~tree (Fmt.str "hunt mutant %d" i) compiler (at level) src)
              (Hunt_replay.mutants ~iterations))
          [ (gcc, 200); (clang, 800) ];
        check Alcotest.bool "the hunts' mutants include mismatches" true
          (!mismatches >= 7);
        check Alcotest.bool "and mutants with no reference" true (!no_reference > 0);
        (* a reference that runs out of fuel while the optimized program
           finishes, one that calls a builtin outside the interpreter's
           subset, and two that do not compile *)
        let hang =
          (* 24 fuel per iteration at -O0, 21 once constfold and dce ran *)
          "int main(void) { int s = 0; for (int i = 0; i < 45000; i++) { int \
           a = 3 * 4 + 5 - 2; int b = a * 2 + a; int c = b - a; s = s + 1; } \
           return s & 255; }"
        in
        let builtin =
          "char buf[8];\nint main(void) { sprintf(buf, \"%d\", 7); return 1; }"
        in
        let outcome src =
          match Simcomp.Compiler.compile_ir gcc (at 0) src with
          | Ok p -> Some (Simcomp.Ir_interp.run ~fuel:1_000_000 p)
          | Error _ -> None
        in
        check Alcotest.bool "the hang hangs at -O0" true
          (match outcome hang with Some o -> o.o_hang | None -> false);
        check Alcotest.bool "and finishes at -O2" true
          (match Simcomp.Compiler.compile_ir gcc (at 2) hang with
          | Ok p -> Fuzzing.Wrongcode.run_ir p <> None
          | Error _ -> false);
        check Alcotest.bool "the builtin is unsupported at -O0" true
          (match outcome builtin with
          | Some o -> Option.is_some o.o_unsupported
          | None -> false);
        let parse_error = "int main(void) { return 1 +; }"
        and type_error = "int main(void) { return nope; }" in
        check Alcotest.bool "the errors do not compile" true
          (outcome parse_error = None && outcome type_error = None);
        let pass_lists =
          [ Some [ "constfold"; "dce" ]; Some [ "simplify-cfg"; "inline"; "constfold" ];
            Some [] ]
        and disabled = [ [ "constfold" ]; [ "dce"; "simplify-cfg" ]; [ "strlen-opt" ] ] in
        let option_sets =
          List.concat_map
            (fun level ->
              at level
              :: List.map (fun l -> { (at level) with pass_list = l }) pass_lists
              @ List.map (fun d -> { (at level) with disabled_passes = d }) disabled)
            [ 0; 1; 2; 3 ]
        in
        let sources =
          hang :: builtin :: parse_error :: type_error
          :: List.map (fun (_, _, _, _, src) -> src) bisect_cases
        in
        List.iter
          (fun options ->
            List.iter
              (fun src ->
                same "program" gcc options src;
                same "program" clang options src)
              sources)
          option_sets;
        (* an unknown pass raises whenever the program compiles, with or
           without a reference, and is never reached when it does not *)
        let unknown = { (at 2) with pass_list = Some [ "constfold"; "no-such-pass" ] } in
        List.iter
          (fun src ->
            let raises check_program =
              match check_program gcc unknown src with
              | _ -> false
              | exception Invalid_argument _ -> true
            in
            check Alcotest.bool "raises as the reference does"
              (raises (fun c o s -> Ref_wrongcode.check_program c o s))
              (raises (fun c o s -> Fuzzing.Wrongcode.check_program c o s)))
          (hang :: builtin :: parse_error :: wrongcode_trigger :: []);
        check Alcotest.bool "the reference raises on a compiling program" true
          (match Ref_wrongcode.check_program gcc unknown hang with
          | _ -> false
          | exception Invalid_argument _ -> true));
    tc "a pinned Clang-sim hunt finds its one mismatch" (fun () ->
        (* EXPERIMENTS.md's Clang-sim claim: Clang-sim's miscompiles are
           rarer, so the hunt runs 800 iterations; each mismatch is
           named by the seeded miscompile that explains it *)
        let r =
          Fuzzing.Wrongcode.hunt ~rng:(Rng.create 77)
            ~compiler:Simcomp.Compiler.Clang
            ~seeds:(Fuzzing.Seeds.corpus ~n:60 (Rng.create 21))
            ~iterations:800 ()
        in
        check Alcotest.int "checked" 692 r.Fuzzing.Wrongcode.r_checked;
        check
          Alcotest.(list string)
          "mismatches" [ "clang-wrongcode-instsimplify" ]
          (List.map
             (fun (mm : Fuzzing.Wrongcode.mismatch) ->
               match
                 Simcomp.Bugdb.check_miscompile ~compiler:Simcomp.Compiler.Clang
                   ~opt_level:mm.mm_options.opt_level
                   ~pipeline:(Simcomp.Compiler.pipeline_of mm.mm_options)
                   ~ast:
                     (Simcomp.Features.ast_features
                        (Result.get_ok (Parser.parse mm.mm_source)))
               with
               | Some mc -> mc.Simcomp.Bugdb.mc_id
               | None -> "unexplained")
             r.Fuzzing.Wrongcode.r_mismatches));
  ]

(* ------------------------------------------------------------------ *)
(* Culprit-pass bisection                                              *)
(* ------------------------------------------------------------------ *)

let bisect_tests =
  let open Fuzzing.Bisect in
  [
    tc "bisection recovers every seeded miscompile's culprit pass" (fun () ->
        List.iter
          (fun (id, compiler, opts, culprit, src) ->
            match run compiler opts src with
            | None -> Alcotest.failf "%s: no finding" id
            | Some v ->
              check Alcotest.bool (id ^ " is wrong-code") true
                (match v.v_finding with Wrong_code _ -> true | Ice _ -> false);
              check Alcotest.bool (id ^ " attributable") true v.v_attributable;
              check
                Alcotest.(list string)
                (id ^ " culprit") [ culprit ] v.v_culprits;
              check
                Alcotest.(option string)
                (id ^ " first divergent") (Some culprit) v.v_first_divergent)
          bisect_cases);
    tc "clean source yields no finding" (fun () ->
        check Alcotest.bool "none" true
          (run Simcomp.Compiler.Gcc Simcomp.Compiler.default_options
             "int main(void) { return 40 + 2; }"
          = None));
    tc "per-pass differential stays silent on clean programs" (fun () ->
        let rng = Rng.create 77 in
        let cfg =
          { Ast_gen.default_config with
            allow_pointers = false; allow_structs = false;
            allow_strings = false; max_functions = 2; max_depth = 2 }
        in
        for _ = 1 to 10 do
          let src = Ast_gen.gen_source ~cfg rng in
          match Simcomp.Compiler.lower Simcomp.Compiler.Gcc src with
          | Ok ((prog, _) as lowered) ->
            let tr =
              Simcomp.Compiler.optimize ?reference:(Fuzzing.Wrongcode.run_ir prog)
                Simcomp.Compiler.Gcc Simcomp.Compiler.default_options lowered
            in
            check
              Alcotest.(option string)
              "no divergence" None tr.Simcomp.Compiler.pt_first_divergent
          | Error _ -> ()
        done);
    tc "an ICE bisects to the pass whose disabling clears it" (fun () ->
        (* gcc-dce-unfolded: fires when dce runs without a prior
           constfold, so with constfold already off the culprit is dce *)
        let opts =
          { Simcomp.Compiler.default_options with
            opt_level = 2; disabled_passes = [ "constfold" ] }
        in
        let src =
          "int main(void) { int a = 1; int b = 2; int c = a < b ? 1 : 2; int \
           d = b < a ? 3 : 4; return a + b + c + d; }"
        in
        match run Simcomp.Compiler.Gcc opts src with
        | Some v ->
          check Alcotest.bool "is ICE" true
            (match v.v_finding with
            | Ice { bug_id; _ } -> String.equal bug_id "gcc-dce-unfolded"
            | Wrong_code _ -> false);
          check Alcotest.bool "attributable" true v.v_attributable;
          check Alcotest.bool "dce among culprits" true
            (List.mem "dce" v.v_culprits)
        | None -> Alcotest.fail "expected an ICE finding");
    (* The whole verdict, recompile count included, for the crafted
       trigger and every other seeded miscompile: a rework of how the
       probes compile must leave the reports byte-identical. *)
    tc "every seeded miscompile's full verdict is pinned" (fun () ->
        let render (id, compiler, opts, _, src) =
          match run compiler opts src with
          | None -> id ^ ": no finding"
          | Some v ->
            Fmt.str "%s: %s | %s | %s | %s | %b | %d" id
              (finding_to_string v.v_finding)
              (String.concat "," v.v_pipeline)
              (String.concat "," v.v_culprits)
              (Option.value ~default:"-" v.v_first_divergent)
              v.v_attributable v.v_recompiles
        in
        (* id: finding | pipeline | culprits | first divergent |
           attributable | probe recompiles *)
        check
          Alcotest.(list string)
          "verdicts"
          [
            "gcc-wrongcode-reassoc: wrong-code (exit 93 at -O0, exit 163 \
             optimized) | constfold,simplify-cfg,inline,strlen-opt,constfold,dce \
             | constfold | constfold | true | 5";
            "gcc-wrongcode-narrowing: wrong-code (exit 59 at -O0, exit 197 \
             optimized) | \
             constfold,simplify-cfg,inline,strlen-opt,loop-opt,constfold,simplify-cfg,dce \
             | loop-opt | loop-opt | true | 6";
            "clang-wrongcode-instsimplify: wrong-code (exit 112 at -O0, exit 122 \
             optimized) | constfold,simplify-cfg,inline,strlen-opt,constfold,dce \
             | dce | dce | true | 5";
            "gcc-wrongcode-strlen-nofold: wrong-code (exit 83 at -O0, exit 173 \
             optimized) | simplify-cfg,inline,strlen-opt,dce | strlen-opt | \
             strlen-opt | true | 4";
            "clang-wrongcode-jumpthread: wrong-code (exit 91 at -O0, exit 165 \
             optimized) | constfold,simplify-cfg,inline,strlen-opt,constfold | \
             simplify-cfg | simplify-cfg | true | 4";
          ]
          (List.map render bisect_cases));
    tc "bisection verdicts are deterministic" (fun () ->
        let _, compiler, opts, _, src = List.hd bisect_cases in
        let v1 = run compiler opts src and v2 = run compiler opts src in
        check Alcotest.bool "same verdict" true (v1 = v2));
  ]

let mutation_score_tests =
  [
    tc "potent mutators are killed, no-op wrappers are equivalent" (fun () ->
        let src =
          "int g = 5;\nint main(void) { g = g * 3; return g & 255; }"
        in
        let tu = Result.get_ok (Parser.parse src) in
        let reference =
          Option.get
            (Fuzzing.Mutation_score.observe
               (Fuzzing.Mutation_score.instrument_observability tu))
        in
        (* changing the literal changes behaviour *)
        let m = Option.get (Mutators.Registry.find_opt "ModifyIntegerLiteral") in
        let killed = ref false in
        for i = 1 to 10 do
          match Mutators.Mutator.apply m ~rng:(Rng.create i) tu with
          | Some tu' ->
            if
              Fuzzing.Mutation_score.classify ~reference
                (Fuzzing.Mutation_score.instrument_observability tu')
              = Fuzzing.Mutation_score.Killed
            then killed := true
          | None -> ()
        done;
        check Alcotest.bool "literal mutation killed" true !killed;
        (* a neutral wrapper is equivalent *)
        let m2 = Option.get (Mutators.Registry.find_opt "AddNeutralElement") in
        match Mutators.Mutator.apply m2 ~rng:(Rng.create 1) tu with
        | Some tu' ->
          check Alcotest.bool "neutral element equivalent" true
            (Fuzzing.Mutation_score.classify ~reference
               (Fuzzing.Mutation_score.instrument_observability tu')
            = Fuzzing.Mutation_score.Equivalent)
        | None -> Alcotest.fail "not applicable");
    tc "scores partition applications" (fun () ->
        let rng = Rng.create 9 in
        let cfg =
          { Ast_gen.default_config with
            allow_pointers = false; allow_strings = false;
            max_functions = 1; max_depth = 1 }
        in
        let programs = List.init 3 (fun _ -> Ast_gen.gen_tu ~cfg rng) in
        let scores =
          Fuzzing.Mutation_score.score ~tries:1 ~rng
            ~mutators:(List.filteri (fun i _ -> i < 20) Mutators.Registry.core)
            ~programs ()
        in
        List.iter
          (fun s ->
            let open Fuzzing.Mutation_score in
            check Alcotest.int s.s_mutator s.s_applied
              (s.s_killed + s.s_equivalent + s.s_invalid + s.s_inconclusive))
          scores);
    tc "aggregate sums components" (fun () ->
        let open Fuzzing.Mutation_score in
        let mk k e =
          { s_mutator = "m"; s_applied = k + e; s_killed = k;
            s_equivalent = e; s_invalid = 0; s_inconclusive = 0 }
        in
        let agg = aggregate [ mk 1 2; mk 3 4 ] in
        check Alcotest.int "killed" 4 agg.s_killed;
        check Alcotest.int "equivalent" 6 agg.s_equivalent;
        check (Alcotest.float 0.01) "rate" 40. (kill_rate agg));
  ]

(* ------------------------------------------------------------------ *)
(* Compiling from the tree                                             *)
(* ------------------------------------------------------------------ *)

(* The trees the fuzz loop compiles: every mutant of the perfbench
   fuzz-gcc-O2 round (lanes 42 and 43, 150 iterations, 8 attempts, seeds
   [Seeds.corpus ~n:30 (Rng.create 11)]), paired with whether its render
   slipped.  The mutators are wrapped to see each mutant; the slip is
   the render's next draw, read from a copy of the loop's RNG, so the
   run itself is unchanged. *)
let fuzz_round_mutants () =
  let seeds = Fuzzing.Seeds.corpus ~n:30 (Rng.create 11) in
  let seen = ref [] in
  let watch (m : Mutators.Mutator.t) =
    { m with
      mutate =
        (fun ctx ->
          let r = m.mutate ctx in
          (match r with
          | Some tu ->
            let slip =
              Fuzzing.Fragility.slip_probability m.Mutators.Mutator.provenance
            in
            seen :=
              (Ast_ids.canonicalize tu, Rng.flip (Rng.copy ctx.Uast.Ctx.rng) slip)
              :: !seen
          | None -> ());
          r) }
  in
  let cfg =
    {
      (Fuzzing.Mucfuzz.default_config ()) with
      Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
      mutators = List.map watch Mutators.Registry.core;
    }
  in
  List.iter
    (fun lane ->
      let st =
        Fuzzing.Mucfuzz.init ~cfg ~rng:(Rng.create lane)
          ~compiler:Simcomp.Compiler.Gcc ~seeds ()
      in
      for i = 1 to 150 do
        Fuzzing.Mucfuzz.step st ~iteration:i
      done)
    [ 42; 43 ];
  List.rev !seen

let fuzz_round = lazy (fuzz_round_mutants ())

(* Every mutator once on every seed of the same corpus, through one
   context per seed as the fuzz loop does. *)
let corpus_mutants () =
  List.concat
    (List.mapi
       (fun i src ->
         match Parser.parse src with
         | Error _ -> []
         | Ok tu ->
           let ctx = Uast.Ctx.create ~rng:(Rng.create (100 + i)) tu in
           List.filter_map
             (fun m -> Mutators.Mutator.apply_ctx m ctx)
             Mutators.Registry.core)
       (Fuzzing.Seeds.corpus ~n:30 (Rng.create 11)))

let generated_programs () =
  List.concat_map
    (fun (k, cfg) -> List.init 200 (fun i -> Ast_gen.gen_tu ~cfg (Rng.create (k + i))))
    [
      (0, Ast_gen.default_config);
      (1000, Ast_gen.csmith_like_config);
      (2000, Ast_gen.yarpgen_like_config);
    ]

(* The two compiles' coverage maps, reset before each use (a map is
   1 MiB: allocating two per program would dominate the test). *)
let tree_cov = lazy (Simcomp.Coverage.create ())
let text_cov = lazy (Simcomp.Coverage.create ())

(* Compile [tu]'s printing from the tree and from the text: the same
   outcome, coverage, returned tree and features, and a returned tree
   from the tree compile exactly when [parsed_form tu] exists (the text
   compile returns the parse whenever the text parses).  True when the
   tree path was taken. *)
let check_tree_path ~options what tu =
  let src = Pretty.tu_to_string tu in
  let compile ?tree cov =
    let cov = Lazy.force cov in
    Simcomp.Coverage.reset cov;
    let outcome, parsed =
      Simcomp.Compiler.compile_tu ~cov ~emit:false ?tree Simcomp.Compiler.Gcc
        options src
    in
    (outcome, parsed, cov)
  in
  let form = Pretty.parsed_form tu in
  let o_tree, p_tree, c_tree = compile ~tree:tu tree_cov in
  let o_text, p_text, c_text = compile text_cov in
  (match (form, p_text) with
  | Some t, Some t' ->
    if t <> t' then
      Alcotest.failf "%s: the parsed form differs from the parse of:@.%s" what src
  | Some _, None ->
    Alcotest.failf "%s: a parsed form for text that does not parse:@.%s" what src
  | None, _ -> ());
  if o_tree <> o_text then Alcotest.failf "%s: outcomes differ for:@.%s" what src;
  if not (Simcomp.Coverage.equal c_tree c_text) then
    Alcotest.failf "%s: coverage differs for:@.%s" what src;
  let features = Option.map Simcomp.Features.ast_features in
  if p_tree <> p_text || features p_tree <> features p_text then
    Alcotest.failf "%s: trees or features differ for:@.%s" what src;
  Option.is_some form

(* Beyond the front-end both compiles run on equal trees, so the two
   populations that only probe shapes compile at -O0, the cheapest
   level. *)
let o0 = { Simcomp.Compiler.default_options with opt_level = 0 }

(* [check_tree_path] through the render the fuzz loop uses: the tree
   with the printer's token stream compiles as the text does, coverage
   included. *)
let check_stream_path what tu =
  let src, tokens = Simcomp.Scratch.render_tu tu in
  let compile ?tree ?tokens cov =
    let cov = Lazy.force cov in
    Simcomp.Coverage.reset cov;
    let outcome, parsed =
      Simcomp.Compiler.compile_tu ~cov ~emit:false ?tree ?tokens
        Simcomp.Compiler.Gcc Simcomp.Compiler.default_options src
    in
    (outcome, parsed, cov)
  in
  let o_tree, p_tree, c_tree = compile ~tree:tu ~tokens tree_cov in
  let o_text, p_text, c_text = compile text_cov in
  if o_tree <> o_text || p_tree <> p_text then
    Alcotest.failf "%s: outcomes or trees differ for:@.%s" what src;
  if not (Simcomp.Coverage.equal c_tree c_text) then
    Alcotest.failf "%s: coverage differs for:@.%s" what src

let tree_path_tests =
  [
    tc "fuzz-round and corpus mutants: the printer's text and stream are exact"
      (fun () ->
        let round = Lazy.force fuzz_round in
        let mutants = List.map fst round @ corpus_mutants () in
        let streams =
          List.filter (fun tu -> Print_check.check "mutant" tu) mutants
        in
        let n = List.length mutants and k = List.length streams in
        if 100 * k < 95 * n then
          Alcotest.failf "only %d of %d mutants had a stream to check" k n;
        List.iter (check_stream_path "clean fuzz mutant")
          (List.filter_map
             (fun (tu, slipped) -> if slipped then None else Some tu)
             round));
    tc "clean fuzz-round mutants: the tree path is exact and taken" (fun () ->
        let clean =
          List.filter_map
            (fun (tu, slipped) -> if slipped then None else Some tu)
            (Lazy.force fuzz_round)
        in
        let taken =
          List.filter
            (check_tree_path ~options:Simcomp.Compiler.default_options "fuzz mutant")
            clean
        in
        let n = List.length clean and k = List.length taken in
        check Alcotest.bool "a full round of clean mutants" true (n >= 700);
        if 100 * k < 98 * n then
          Alcotest.failf "only %d of %d clean fuzz mutants took the tree path" k n);
    tc "every mutator on every seed: the tree path is exact" (fun () ->
        List.iter
          (fun tu -> ignore (check_tree_path ~options:o0 "corpus mutant" tu))
          (corpus_mutants ()));
    tc "generated programs: the tree path is exact and taken" (fun () ->
        List.iter
          (fun tu ->
            if not (check_tree_path ~options:o0 "generated program" tu) then
              Alcotest.failf "no parsed form for:@.%s" (Pretty.tu_to_string tu))
          (generated_programs ()));
  ]

let () =
  Alcotest.run "fuzzing"
    [
      ("seeds", seeds_tests);
      ("fragility", fragility_tests);
      ("aflpp", aflpp_tests);
      ("mucfuzz", mucfuzz_tests);
      ("baselines", baseline_tests);
      ("macro", macro_tests);
      ("campaign", campaign_tests @ Contracts.tests "campaign");
      ("report", report_tests);
      ("wrongcode", wrongcode_tests);
      ("bisect", bisect_tests);
      ("mutation-score", mutation_score_tests);
      ("tree-path", tree_path_tests);
    ]
