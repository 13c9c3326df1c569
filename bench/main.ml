(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, at iteration-budget scale (the substrate is a
   simulator, so the *shape* — who wins, by roughly what factor — is the
   reproduction target; absolute numbers are testbed-specific).

   Output sections:
     Table 1  bugs fixed by the validation-refinement loop (Mu)
     Table 2  generation cost per mutator
     Table 3  request/response time per mutator
     §4.1     corpus statistics (118 = 68 Ms + 50 Mu; category split)
     Figure 7 coverage trends per fuzzer (GCC-sim / Clang-sim)
     Figure 8 Venn summary of unique crashes
     Figure 9 unique-crash discovery over time
     Table 4  unique crashes by compiler component
     Table 5  compilable mutants
     Table 6  bug-hunting overview (macro fuzzer field study)
     Ablations (coverage guidance, havoc rounds, corpus choice)

   Scale via METAMUT_BENCH_ITERS (default 400). *)

let iters =
  match Sys.getenv_opt "METAMUT_BENCH_ITERS" with
  | Some s -> (try int_of_string s with _ -> 400)
  | None -> 400

let section name = Fmt.pr "@.---------- %s ----------@." name

(* ------------------------------------------------------------------ *)
(* MetaMut generation experiment: Tables 1-3 and corpus stats           *)
(* ------------------------------------------------------------------ *)

let metamut_runs = lazy (Metamut.Pipeline.run_many ~n:100 ())

let table1 () =
  section "Table 1: bugs fixed by the validation-refinement loop (Mu)";
  let s = Metamut.Pipeline.summarize (Lazy.force metamut_runs) in
  let t =
    Report.Table.create ~title:"Validation goal violations fixed"
      ~header:[ "#"; "violation"; "fixed"; "paper" ]
  in
  let paper = [ 55; 0; 4; 11; 1; 36 ] in
  let names =
    [ "mutator not compile"; "mutator hangs"; "mutator crashes";
      "mutator outputs nothing"; "mutator does not rewrite";
      "creates compile-error mutant" ]
  in
  List.iteri
    (fun i (g, n) ->
      Report.Table.add_row t
        [ string_of_int g; List.nth names i; string_of_int n;
          string_of_int (List.nth paper i) ])
    s.Metamut.Pipeline.s_bugs_fixed_by_goal;
  Report.Table.print t;
  let recovered =
    List.length
      (List.filter
         (fun r ->
           r.Metamut.Pipeline.r_attempts > 1
           && r.Metamut.Pipeline.r_outcome <> Metamut.Pipeline.System_error)
         (Lazy.force metamut_runs))
  in
  Fmt.pr
    "100 invocations: %d system errors after retry, %d recovered by backoff; \
     of the remaining %d, %d valid (paper, no retry: 24 errors, 50/76 = \
     65.8%% valid)@."
    s.s_system_errors recovered (100 - s.s_system_errors) s.s_valid

let cost_stats () =
  let runs =
    List.filter
      (fun r -> r.Metamut.Pipeline.r_outcome <> Metamut.Pipeline.System_error)
      (Lazy.force metamut_runs)
  in
  let of_step f = List.map f runs in
  (runs, of_step)

let table2 () =
  section "Table 2: generation cost of one mutator";
  let _, of_step = cost_stats () in
  let t =
    Report.Table.create ~title:"Tokens / QA rounds / time per step"
      ~header:[ "metric"; "step"; "min"; "max"; "median"; "mean"; "paper mean" ]
  in
  let row metric step values paper_mean =
    let mn, mx, md, mean = Metamut.Pipeline.stats values in
    Report.Table.add_row t
      [ metric; step; Fmt.str "%.0f" mn; Fmt.str "%.0f" mx;
        Fmt.str "%.0f" md; Fmt.str "%.0f" mean; paper_mean ]
  in
  let open Metamut.Pipeline in
  row "Tokens" "Invention"
    (of_step (fun r -> float_of_int r.r_invention.sc_tokens)) "1158";
  row "Tokens" "Implementation"
    (of_step (fun r -> float_of_int r.r_implementation.sc_tokens)) "2501";
  row "Tokens" "Bug-Fixing"
    (of_step (fun r -> float_of_int r.r_bugfix.sc_tokens)) "4935";
  row "Tokens" "Total"
    (of_step (fun r -> float_of_int (total_cost r).sc_tokens)) "8595";
  row "QA" "Bug-Fixing"
    (of_step (fun r -> float_of_int r.r_bugfix.sc_qa_rounds)) "4.0";
  row "QA" "Total"
    (of_step (fun r -> float_of_int (total_cost r).sc_qa_rounds)) "6.0";
  row "Time(s)" "Invention" (of_step (fun r -> r.r_invention.sc_wait_s)) "15";
  row "Time(s)" "Implementation"
    (of_step (fun r ->
         r.r_implementation.sc_wait_s +. r.r_implementation.sc_prepare_s))
    "49";
  row "Time(s)" "Bug-Fixing"
    (of_step (fun r -> r.r_bugfix.sc_wait_s +. r.r_bugfix.sc_prepare_s)) "281";
  row "Time(s)" "Total"
    (of_step (fun r ->
         let c = total_cost r in
         c.sc_wait_s +. c.sc_prepare_s))
    "346";
  Report.Table.print t;
  let _, _, _, mean_tokens =
    Metamut.Pipeline.stats
      (of_step (fun r -> float_of_int (total_cost r).sc_tokens))
  in
  Fmt.pr "mean cost per mutator: $%.2f (paper: ~$0.50)@."
    (Metamut.Pipeline.dollars_of_tokens (int_of_float mean_tokens))

let table3 () =
  section "Table 3: request/response time of a single QA round";
  let runs, _ = cost_stats () in
  let per_round f =
    List.concat_map
      (fun r ->
        let open Metamut.Pipeline in
        let c = total_cost r in
        if c.sc_qa_rounds = 0 then []
        else [ f c /. float_of_int c.sc_qa_rounds ])
      runs
  in
  let t =
    Report.Table.create ~title:"Per-round latency (seconds)"
      ~header:[ "metric"; "min"; "max"; "median"; "mean"; "paper mean" ]
  in
  let row name values paper =
    let mn, mx, md, mean = Metamut.Pipeline.stats values in
    Report.Table.add_row t
      [ name; Fmt.str "%.0f" mn; Fmt.str "%.0f" mx; Fmt.str "%.0f" md;
        Fmt.str "%.0f" mean; paper ]
  in
  row "Wait for response"
    (per_round (fun c -> c.Metamut.Pipeline.sc_wait_s))
    "43";
  row "Prepare request"
    (per_round (fun c -> c.Metamut.Pipeline.sc_prepare_s))
    "17";
  Report.Table.print t

let corpus_stats () =
  section "Corpus statistics (§4.1)";
  let open Mutators in
  Fmt.pr "total valid mutators: %d (paper: 118)@." (List.length Registry.core);
  Fmt.pr "supervised Ms: %d (paper: 68); unsupervised Mu: %d (paper: 50)@."
    (List.length Registry.supervised)
    (List.length Registry.unsupervised);
  Fmt.pr "creative (outside the template): %d (paper: 33)@."
    (List.length Registry.creative);
  let t =
    Report.Table.create ~title:"Mutators by category"
      ~header:[ "category"; "count"; "paper" ]
  in
  let paper = [ 16; 50; 27; 19; 6 ] in
  List.iteri
    (fun i (c, n) ->
      Report.Table.add_row t
        [ Mutator.category_to_string c; string_of_int n;
          string_of_int (List.nth paper i) ])
    (Registry.category_counts ());
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* RQ1 campaign: Figures 7-9, Tables 4-5                               *)
(* ------------------------------------------------------------------ *)

let campaign =
  lazy
    (let cfg =
       {
         Fuzzing.Campaign.default_config with
         iterations = iters;
         seeds = 60;
         sample_every = max 1 (iters / 20);
         max_attempts = 12;
       }
     in
     Fuzzing.Coordinator.to_campaign
       (Fuzzing.Coordinator.run ~cfg
          ~shards:(Domain.recommended_domain_count ())
          ~backend:Engine.Shard.Domains ()))

let fuzzer_label = Fuzzing.Campaign.fuzzer_name

let figure7 () =
  section "Figure 7: coverage trends (GCC-sim and Clang-sim)";
  List.iter
    (fun compiler ->
      let series =
        List.filter_map
          (fun f ->
            match Fuzzing.Campaign.result (Lazy.force campaign) f compiler with
            | Some r ->
              Some
                (Report.Series.make ~label:(fuzzer_label f)
                   ~points:r.Fuzzing.Fuzz_result.coverage_trend)
            | None -> None)
          Fuzzing.Campaign.all_fuzzers
      in
      let title =
        Fmt.str "Covered branches over time: %s"
          (Simcomp.Bugdb.compiler_to_string compiler)
      in
      print_string (Report.Series.render_plot ~title series);
      print_string (Report.Series.render_data ~title:(title ^ " (data)") series))
    Simcomp.Compiler.[ Gcc; Clang ]

let figure8 () =
  section "Figure 8: Venn summary of unique crashes";
  let sets =
    List.map
      (fun f ->
        (fuzzer_label f, Fuzzing.Campaign.crash_set (Lazy.force campaign) f))
      Fuzzing.Campaign.all_fuzzers
  in
  print_string
    (Report.Series.render_venn
       ~title:"Unique crashes per fuzzer (both compilers)" sets);
  Fmt.pr
    "paper: uCFuzz.s 90, uCFuzz.u 59, AFL++ 19, GrayC 13, YARPGen 2, \
     Csmith 0; union 125; uCFuzz exclusive 72.8%%@."

let figure9 () =
  section "Figure 9: unique crashes over time";
  List.iter
    (fun compiler ->
      let series =
        List.filter_map
          (fun f ->
            match Fuzzing.Campaign.result (Lazy.force campaign) f compiler with
            | Some r ->
              let discoveries =
                Hashtbl.fold
                  (fun _ cr acc ->
                    cr.Fuzzing.Fuzz_result.cr_first_iteration :: acc)
                  r.Fuzzing.Fuzz_result.crashes []
                |> List.sort compare
              in
              let points = List.mapi (fun i it -> (it, i + 1)) discoveries in
              Some
                (Report.Series.make ~label:(fuzzer_label f)
                   ~points:((0, 0) :: points))
            | None -> None)
          Fuzzing.Campaign.all_fuzzers
      in
      let title =
        Fmt.str "Unique crashes over time: %s"
          (Simcomp.Bugdb.compiler_to_string compiler)
      in
      print_string (Report.Series.render_data ~title series))
    Simcomp.Compiler.[ Gcc; Clang ]

let table4 () =
  section "Table 4: unique crashes by compiler component";
  let t =
    Report.Table.create ~title:"Crashes per component (both compilers)"
      ~header:[ "fuzzer"; "Front-End"; "IR"; "Opt"; "Back-End"; "Total" ]
  in
  List.iter
    (fun f ->
      let totals = Hashtbl.create 4 in
      List.iter
        (fun compiler ->
          match Fuzzing.Campaign.result (Lazy.force campaign) f compiler with
          | Some r ->
            List.iter
              (fun (stage, n) ->
                Hashtbl.replace totals stage
                  (n + Option.value ~default:0 (Hashtbl.find_opt totals stage)))
              (Fuzzing.Fuzz_result.crashes_by_stage r)
          | None -> ())
        Simcomp.Compiler.[ Gcc; Clang ];
      let get s = Option.value ~default:0 (Hashtbl.find_opt totals s) in
      let fe = get Simcomp.Crash.Front_end
      and ir = get Simcomp.Crash.Ir_gen
      and opt = get Simcomp.Crash.Optimization
      and be = get Simcomp.Crash.Back_end in
      Report.Table.add_int_row t (fuzzer_label f)
        [ fe; ir; opt; be; fe + ir + opt + be ])
    Fuzzing.Campaign.all_fuzzers;
  Report.Table.print t;
  Fmt.pr
    "paper totals: uCFuzz.s 90 (24/31/24/11), uCFuzz.u 59 (15/26/10/8), \
     AFL++ 19, GrayC 13, Csmith 0, YARPGen 2@."

let table5 () =
  section "Table 5: compilable test programs";
  let t =
    Report.Table.create ~title:"Compilable mutants (both compilers summed)"
      ~header:[ "tool"; "compilable"; "total"; "ratio %"; "paper ratio %" ]
  in
  let paper =
    [ ("uCFuzz.s", "74.46"); ("uCFuzz.u", "72.00"); ("AFL++", "3.53");
      ("GrayC", "98.99"); ("Csmith", "99.86"); ("YARPGen", "99.83") ]
  in
  List.iter
    (fun f ->
      let comp = ref 0 and total = ref 0 in
      List.iter
        (fun compiler ->
          match Fuzzing.Campaign.result (Lazy.force campaign) f compiler with
          | Some r ->
            comp := !comp + r.Fuzzing.Fuzz_result.compilable_mutants;
            total := !total + r.Fuzzing.Fuzz_result.total_mutants
          | None -> ())
        Simcomp.Compiler.[ Gcc; Clang ];
      let ratio =
        if !total = 0 then 0.
        else 100. *. float_of_int !comp /. float_of_int !total
      in
      Report.Table.add_row t
        [ fuzzer_label f; string_of_int !comp; string_of_int !total;
          Fmt.str "%.2f" ratio;
          Option.value ~default:"-" (List.assoc_opt (fuzzer_label f) paper) ])
    Fuzzing.Campaign.all_fuzzers;
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* RQ2: Table 6 (macro-fuzzer field study)                             *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "Table 6: bug-hunting with the macro fuzzer";
  let rng = Cparse.Rng.create 909 in
  let seeds = Fuzzing.Seeds.corpus ~n:80 (Cparse.Rng.create 11) in
  let results =
    List.map
      (fun compiler ->
        ( compiler,
          Fuzzing.Macro_fuzzer.run ~rng:(Cparse.Rng.split rng) ~compiler ~seeds
            ~iterations:(2 * iters) () ))
      Simcomp.Compiler.[ Gcc; Clang ]
  in
  let t =
    Report.Table.create ~title:"Reported compiler bugs"
      ~header:[ "metric"; "Clang"; "GCC"; "Total"; "paper total" ]
  in
  let count f =
    List.map
      (fun (_, r) ->
        Hashtbl.fold
          (fun _ cr acc -> if f cr then acc + 1 else acc)
          r.Fuzzing.Fuzz_result.crashes 0)
      results
  in
  let triage (cr : Fuzzing.Fuzz_result.crash_record) =
    Simcomp.Bugdb.triage_of cr.cr_crash.Simcomp.Crash.bug_id
  in
  let add name f paper =
    match count f with
    | [ gcc; clang ] ->
      Report.Table.add_row t
        [ name; string_of_int clang; string_of_int gcc;
          string_of_int (gcc + clang); paper ]
    | _ -> ()
  in
  add "Reported" (fun _ -> true) "131";
  add "Confirmed" (fun cr -> (triage cr).Simcomp.Bugdb.t_confirmed) "129";
  add "Fixed" (fun cr -> (triage cr).Simcomp.Bugdb.t_fixed) "35";
  add "Duplicate" (fun cr -> (triage cr).Simcomp.Bugdb.t_duplicate) "13";
  let stage_is s (cr : Fuzzing.Fuzz_result.crash_record) =
    cr.cr_crash.Simcomp.Crash.stage = s
  in
  add "Front-End" (stage_is Simcomp.Crash.Front_end) "48";
  add "IR Generation" (stage_is Simcomp.Crash.Ir_gen) "45";
  add "Optimization" (stage_is Simcomp.Crash.Optimization) "22";
  add "Back-End" (stage_is Simcomp.Crash.Back_end) "16";
  let kind_is k (cr : Fuzzing.Fuzz_result.crash_record) =
    cr.cr_crash.Simcomp.Crash.kind = k
  in
  add "Segmentation Fault" (kind_is Simcomp.Crash.Segfault) "9";
  add "Assertion Failure" (kind_is Simcomp.Crash.Assertion_failure) "111";
  add "Hang" (kind_is Simcomp.Crash.Hang) "11";
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations";
  let seeds = Fuzzing.Seeds.corpus ~n:40 (Cparse.Rng.create 5) in
  let run ~name ~mutators ~guided ~fragility =
    let cfg =
      {
        (Fuzzing.Mucfuzz.default_config ~mutators ()) with
        Fuzzing.Mucfuzz.coverage_guided = guided;
        fragility;
        max_attempts_per_iteration = 12;
        sample_every = max 1 (iters / 10);
      }
    in
    Fuzzing.Mucfuzz.run ~cfg
      ~rng:(Cparse.Rng.create 33)
      ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations:(iters / 2) ~name ()
  in
  let t =
    Report.Table.create ~title:"uCFuzz design ablations (GCC-sim)"
      ~header:[ "variant"; "coverage"; "crashes"; "compilable %" ]
  in
  let record name r =
    Report.Table.add_row t
      [ name;
        string_of_int (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage);
        string_of_int (Fuzzing.Fuzz_result.unique_crashes r);
        Fmt.str "%.1f" (Fuzzing.Fuzz_result.compilable_ratio r) ]
  in
  record "core+guided"
    (run ~name:"core" ~mutators:Mutators.Registry.core ~guided:true
       ~fragility:true);
  record "no-coverage-guidance"
    (run ~name:"unguided" ~mutators:Mutators.Registry.core ~guided:false
       ~fragility:true);
  record "supervised-only"
    (run ~name:"Ms" ~mutators:Mutators.Registry.supervised ~guided:true
       ~fragility:true);
  record "unsupervised-only"
    (run ~name:"Mu" ~mutators:Mutators.Registry.unsupervised ~guided:true
       ~fragility:true);
  record "extended-corpus"
    (run ~name:"ext" ~mutators:Mutators.Registry.extended ~guided:true
       ~fragility:true);
  record "no-fragility"
    (run ~name:"nofrag" ~mutators:Mutators.Registry.core ~guided:true
       ~fragility:false);
  Report.Table.print t;
  let t2 =
    Report.Table.create ~title:"Macro-fuzzer havoc rounds (GCC-sim)"
      ~header:[ "havoc max"; "coverage"; "crashes" ]
  in
  List.iter
    (fun rounds ->
      let cfg =
        { Fuzzing.Macro_fuzzer.default_config with havoc_rounds_max = rounds }
      in
      let r =
        Fuzzing.Macro_fuzzer.run ~cfg
          ~rng:(Cparse.Rng.create 44)
          ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations:(iters / 2) ()
      in
      Report.Table.add_row t2
        [ string_of_int rounds;
          string_of_int (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage);
          string_of_int (Fuzzing.Fuzz_result.unique_crashes r) ])
    [ 1; 3; 6 ];
  Report.Table.print t2

(* ------------------------------------------------------------------ *)
(* Extension: EMI-style wrong-code hunt                                *)
(* ------------------------------------------------------------------ *)

let wrongcode () =
  section "Extension: wrong-code (miscompilation) hunt";
  let seeds = Fuzzing.Seeds.corpus ~n:60 (Cparse.Rng.create 21) in
  List.iter
    (fun compiler ->
      let r =
        Fuzzing.Wrongcode.hunt
          ~rng:(Cparse.Rng.create 77)
          ~compiler ~seeds ~iterations:(2 * iters) ()
      in
      Fmt.pr "%s-sim: %d mutants differenced, %d distinct miscompilations@."
        (Simcomp.Bugdb.compiler_to_string compiler)
        r.Fuzzing.Wrongcode.r_checked
        (List.length r.Fuzzing.Wrongcode.r_mismatches);
      List.iter
        (fun mm ->
          Fmt.pr "  %s: -O0 gives (%d,%b), %s gives (%d,%b)@."
            (Simcomp.Compiler.options_to_string mm.Fuzzing.Wrongcode.mm_options)
            (fst mm.Fuzzing.Wrongcode.mm_reference)
            (snd mm.Fuzzing.Wrongcode.mm_reference)
            (Simcomp.Compiler.options_to_string mm.Fuzzing.Wrongcode.mm_options)
            (fst mm.Fuzzing.Wrongcode.mm_observed)
            (snd mm.Fuzzing.Wrongcode.mm_observed))
        r.Fuzzing.Wrongcode.r_mismatches)
    Simcomp.Compiler.[ Gcc; Clang ]

(* ------------------------------------------------------------------ *)
(* Extension: mutation-testing potency (§6)                            *)
(* ------------------------------------------------------------------ *)

let mutation_score () =
  section "Extension: mutation-testing potency of the corpus";
  let rng = Cparse.Rng.create 55 in
  let cfg =
    { Cparse.Ast_gen.default_config with
      allow_pointers = false; allow_strings = false; max_functions = 2;
      max_depth = 2; call_weight = 1 }
  in
  let programs = List.init 12 (fun _ -> Cparse.Ast_gen.gen_tu ~cfg rng) in
  let scores =
    Fuzzing.Mutation_score.score ~tries:2 ~rng
      ~mutators:Mutators.Registry.core ~programs ()
  in
  let agg = Fuzzing.Mutation_score.aggregate scores in
  Fmt.pr
    "corpus-wide: %d mutants — %d killed, %d equivalent, %d invalid, %d      inconclusive (kill rate %.1f%%)@."
    agg.Fuzzing.Mutation_score.s_applied agg.s_killed agg.s_equivalent
    agg.s_invalid agg.s_inconclusive
    (Fuzzing.Mutation_score.kill_rate agg);
  (* the five most and least potent mutators *)
  let decided s =
    s.Fuzzing.Mutation_score.s_killed + s.Fuzzing.Mutation_score.s_equivalent
  in
  let ranked =
    List.filter (fun s -> decided s >= 4) scores
    |> List.sort (fun a b ->
           compare
             (Fuzzing.Mutation_score.kill_rate b)
             (Fuzzing.Mutation_score.kill_rate a))
  in
  let t =
    Report.Table.create ~title:"Most / least potent mutators"
      ~header:[ "mutator"; "kill %"; "applied" ]
  in
  let row s =
    Report.Table.add_row t
      [ s.Fuzzing.Mutation_score.s_mutator;
        Fmt.str "%.0f" (Fuzzing.Mutation_score.kill_rate s);
        string_of_int s.Fuzzing.Mutation_score.s_applied ]
  in
  List.iteri (fun i s -> if i < 5 then row s) ranked;
  Report.Table.add_row t [ "..."; ""; "" ];
  let n = List.length ranked in
  List.iteri (fun i s -> if i >= n - 5 then row s) ranked;
  Report.Table.print t

(* ------------------------------------------------------------------ *)

let () =
  Fmt.pr "MetaMut reproduction benchmark harness (iterations=%d)@." iters;
  table1 ();
  table2 ();
  table3 ();
  corpus_stats ();
  figure7 ();
  figure8 ();
  figure9 ();
  table4 ();
  table5 ();
  table6 ();
  ablations ();
  wrongcode ();
  mutation_score ();
  Fmt.pr "@.done.@."
