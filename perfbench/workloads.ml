(* The benchmark's four workloads.

   Each is a closed loop: one loop issues the next operation only when
   the previous one completed.  A run repeats fixed-size rounds of the
   workload until its time is up; every round of one seed does identical
   work, so the round's exact result doubles as an output check and the
   per-round times give a median that rides out scheduler noise.

   A workload has two modes.  [prepare] serves the untraced end-to-end
   measurement: it returns the per-round set-up (timed as [setup_s]),
   which returns the round itself.  [trace] serves the per-layer ledger:
   it runs the workload with engine tracing on, re-drives the same work
   through each layer's public functions from the benchmark's own code,
   and fills a {!Layers.t}. *)

open Simcomp

type round = {
  ops : int;  (* operations the round completed *)
  check : unit -> int * string;
      (* run after the timed region: (operations that failed their output
         check, the round's exact result) *)
}

type traced = {
  t_ops : int;
  t_failed : int;
  t_wall : float;  (* the run the ledger's shares are taken of, seconds *)
}

type t = {
  name : string;
  what : string;
  single_process : bool;
  prepare : seed:int -> unit -> unit -> round;
  trace : seed:int -> deadline:float -> Layers.t -> traced;
}

let o2 = Compiler.default_options
let o3 = { Compiler.default_options with Compiler.opt_level = 3 }

(* ------------------------------------------------------------------ *)
(* Shared checks and engine readings                                   *)
(* ------------------------------------------------------------------ *)

(* Crash ids the simulated compilers can legitimately report: seeded
   bugs, pass-ordering bugs, and the parser's stack-overflow guard. *)
let seeded_ids =
  List.map (fun (b : Bugdb.bug) -> b.Bugdb.id) Bugdb.all_bugs
  @ List.map (fun (b : Bugdb.pass_bug) -> b.Bugdb.pb_id) Bugdb.pass_bugs
  @ List.map
      (fun c -> Bugdb.compiler_to_string c ^ "-stack-overflow")
      [ Bugdb.Gcc; Bugdb.Clang ]

let unseeded_crashes (r : Fuzzing.Fuzz_result.t) =
  Hashtbl.fold
    (fun _ (cr : Fuzzing.Fuzz_result.crash_record) n ->
      if List.mem cr.cr_crash.Crash.bug_id seeded_ids then n else n + 1)
    r.Fuzzing.Fuzz_result.crashes 0

let result_fingerprint (r : Fuzzing.Fuzz_result.t) =
  Fmt.str "%s mutants=%d compilable=%d covered=%d crashes=[%s]"
    r.Fuzzing.Fuzz_result.fuzzer_name r.total_mutants r.compilable_mutants
    (Coverage.covered r.coverage)
    (String.concat "," (Fuzzing.Fuzz_result.crash_keys r))

let counter (e : Engine.Ctx.t) name =
  float_of_int
    (Engine.Metrics.counter_value (Engine.Metrics.counter e.Engine.Ctx.metrics name))

let prefix_sum (e : Engine.Ctx.t) prefix =
  Engine.Metrics.counters_with_prefix e.Engine.Ctx.metrics ~prefix
  |> List.fold_left (fun acc (_, v) -> acc +. float_of_int v) 0.

let pct a b = if b > 0. then 100. *. a /. b else 0.

(* Outcome mix, cache and mutator ratios from the engine's counters. *)
let engine_ratios t (e : Engine.Ctx.t) =
  let total = counter e "compile.total" in
  let outcome k =
    pct (counter e ("compile.outcome." ^ Engine.Event.outcome_kind_to_string k)) total
  in
  Layers.set t "compile.ok_pct" (outcome Engine.Event.Compiled_ok);
  Layers.set t "compile.error_pct" (outcome Engine.Event.Compile_failed);
  Layers.set t "compile.crash_pct" (outcome Engine.Event.Crashed);
  Layers.set t "cache.hit_pct" (pct (counter e "compile.cached") total);
  let attempts = prefix_sum e "mucfuzz.attempt." in
  Layers.set t "mutator.inapplicable_pct"
    (pct (prefix_sum e "mucfuzz.inapplicable.") attempts);
  Layers.set t "mucfuzz.accept_pct" (pct (prefix_sum e "mucfuzz.accept.") attempts)

(* Span self time as shares of [busy] seconds, and the share all named
   spans cover together (synthetic stack roots carry no positive self
   time). *)
let span_shares t (tr : Engine.Trace.t) ~busy =
  let self = Engine.Trace.self_time_by_name tr in
  List.iter
    (fun s ->
      let ns =
        List.fold_left
          (fun acc (name, ns) ->
            if name = s || String.starts_with ~prefix:(s ^ ".") name then
              acc +. Int64.to_float ns
            else acc)
          0. self
      in
      Layers.set t ("span." ^ s ^ ".share_pct") (pct (ns /. 1e9) busy))
    Layers.spans;
  let named =
    List.fold_left
      (fun acc (_, ns) -> if Int64.compare ns 0L > 0 then acc +. Int64.to_float ns else acc)
      0. self
  in
  Layers.set t "trace.attributed_pct" (pct (named /. 1e9) busy)

let timed f =
  let t0 = Stat.now () in
  let v = f () in
  (v, Stat.now () -. t0)

(* The untraced reference for [trace.overhead_pct]: the median of three
   timings after a discarded first run, which also pays for heap growth
   and page faults. *)
let warm f =
  ignore (f ());
  let runs = List.init 3 (fun _ -> timed f) in
  (fst (List.hd runs), Stat.median (List.map snd runs))

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      acc + try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* A fresh directory under _build/ in the checkout: the benchmark writes
   nowhere else. *)
let temp_dir name =
  let dir =
    Filename.concat "_build"
      (Filename.concat "perfbench" (Fmt.str "%s-%d" name (Unix.getpid ())))
  in
  rm_rf dir;
  Engine.Checkpoint.mkdir_p dir;
  dir

(* The seed decides the order in which a workload's fixed set of work
   items runs, never the items themselves: which programs a fuzz lane or
   a differential hunt happens to meet moves its cost by up to 2x, so
   seed-chosen inputs would bury any code change in input noise. *)
let order ~seed n =
  Array.of_list (Cparse.Rng.shuffle (Cparse.Rng.create seed) (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* fuzz-gcc-O2: the paper's inner loop                                 *)
(* ------------------------------------------------------------------ *)

(* Two fuzz lanes (RNG seeds) over one seed corpus, each run for a fixed
   number of iterations. *)
let fuzz_lanes = [| 42; 43 |]
let fuzz_iterations = 150

let fuzz_cfg =
  {
    (Fuzzing.Mucfuzz.default_config ()) with
    Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
  }

let fuzz_seeds () = Fuzzing.Seeds.corpus ~n:30 (Cparse.Rng.create 11)

let fuzz_init ?engine ~seeds lane =
  Fuzzing.Mucfuzz.init ?engine ~cfg:fuzz_cfg ~rng:(Cparse.Rng.create lane)
    ~compiler:Compiler.Gcc ~seeds ()

let fuzz_steps st =
  for i = 1 to fuzz_iterations do
    Fuzzing.Mucfuzz.step st ~iteration:i
  done

let fuzz_round_lanes ~seed =
  let seeds = fuzz_seeds () in
  Array.map (fun i -> fuzz_init ~seeds fuzz_lanes.(i)) (order ~seed (Array.length fuzz_lanes))

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let fuzz_results lanes =
  Array.to_list (Array.map (fun st -> st.Fuzzing.Mucfuzz.result) lanes)

let fuzz_check rs =
  ( sum unseeded_crashes rs,
    String.concat "\n" (List.sort compare (List.map result_fingerprint rs)) )

let fuzz_prepare ~seed () =
  let lanes = fuzz_round_lanes ~seed in
  fun () ->
    Array.iter fuzz_steps lanes;
    let rs = fuzz_results lanes in
    {
      ops = sum (fun r -> r.Fuzzing.Fuzz_result.total_mutants) rs;
      check = (fun () -> fuzz_check rs);
    }

(* Re-drive the fuzz loop's layers over the round's final pool: semantic
   context, mutator, fragility render, a staged and a real (cached)
   compile, and the coverage merge.  Byte-identical mutants go to the
   cache probe, as they do in the fuzz loop. *)
let fuzz_ledger t ~seed ~deadline (pool : Fuzzing.Mucfuzz.pool_entry array) =
  let rng = Cparse.Rng.create (seed + 2) in
  let stage_cov = Coverage.create () and cov = Coverage.create () in
  let acc = Coverage.create () in
  (* room for every mutant: a wholesale clear would turn probes of
     byte-identical mutants into compiles *)
  let cache = Compiler.cache_create ~capacity:max_int () in
  let compile src = fst (Compiler.compile_cached ~cache ~cov Compiler.Gcc o2 src) in
  let seen = Hashtbl.create 1024 in
  let latencies = ref [] and ops = ref 0 and failed = ref 0 in
  let i = ref 0 in
  while Array.length pool > 0 && (!i = 0 || Stat.now () < deadline) do
    let e = pool.(!i mod Array.length pool) in
    incr i;
    let ctx =
      Layers.time t "uast_ctx" (fun () ->
          Uast.Ctx.create ~rng e.Fuzzing.Mucfuzz.tu)
    in
    Cparse.Rng.shuffle rng fuzz_cfg.Fuzzing.Mucfuzz.mutators
    |> List.filteri (fun j _ -> j < fuzz_cfg.Fuzzing.Mucfuzz.max_attempts_per_iteration)
    |> List.iter (fun m ->
           match
             Layers.time t "mutator" (fun () -> Mutators.Mutator.apply_ctx m ctx)
           with
           | None -> ()
           | Some tu' ->
             let src =
               Layers.time t "fragility" (fun () -> Fuzzing.Fragility.render rng m tu')
             in
             incr ops;
             if Hashtbl.mem seen src then
               ignore
                 (Layers.time t "cache.probe" (fun () ->
                      Compiler.compile_cached ~cache Compiler.Gcc o2 src))
             else begin
               Hashtbl.replace seen src ();
               let staged, outcome =
                 Layers.compile_both t ~latencies ~stage_cov ~compile Compiler.Gcc o2 src
               in
               if not (Layers.staged_agrees staged (Corpus.golden_of outcome)) then
                 incr failed;
               ignore
                 (Layers.time t "coverage.merge" (fun () ->
                      Coverage.merge_consume ~into:acc cov))
             end)
  done;
  Layers.finish_compiles t ~latencies:!latencies;
  (!ops, !failed)

(* Zero-rate [Faults.fire], the consultation every real compile pays when
   a fault harness is armed. *)
let faults_fire_ns () =
  let f = Engine.Faults.create Engine.Faults.no_faults in
  let n = 2_000_000 in
  let (), dt =
    timed (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Engine.Faults.fire f Engine.Faults.Compile_hang))
        done)
  in
  dt *. 1e9 /. float_of_int n

let fuzz_trace ~seed ~deadline t =
  (* untraced: the measured round, lane set-up included *)
  let lanes, untraced =
    warm (fun () ->
        let lanes = fuzz_round_lanes ~seed in
        Array.iter fuzz_steps lanes;
        lanes)
  in
  (* traced: the same lanes through Mucfuzz.run, which adds its own span *)
  let engine = Engine.Ctx.create () in
  let tr = Engine.Ctx.enable_trace engine in
  let seeds = fuzz_seeds () in
  let traced_rs, traced =
    timed (fun () ->
        Array.map
          (fun i ->
            let lane = fuzz_lanes.(i) in
            Fuzzing.Mucfuzz.run ~cfg:fuzz_cfg ~engine ~rng:(Cparse.Rng.create lane)
              ~compiler:Compiler.Gcc ~seeds ~iterations:fuzz_iterations ~name:"uCFuzz" ())
          (order ~seed (Array.length fuzz_lanes)))
  in
  let rs = fuzz_results lanes in
  let bad, fingerprint = fuzz_check rs in
  let diverged = snd (fuzz_check (Array.to_list traced_rs)) <> fingerprint in
  Layers.set t "trace.overhead_pct" (pct (traced -. untraced) untraced);
  engine_ratios t engine;
  span_shares t tr ~busy:traced;
  let fire_ns = faults_fire_ns () in
  let real_compiles = counter engine "compile.total" -. counter engine "compile.cached" in
  Layers.set t "faults.fire_ns" fire_ns;
  Layers.set t "faults.armed_overhead_pct"
    (pct (fire_ns *. 1e-9 *. real_compiles) untraced);
  let pool =
    Array.concat
      (Array.to_list
         (Array.map (fun st -> Engine.Vec.to_array st.Fuzzing.Mucfuzz.pool) lanes))
  in
  let (ops, failed), wall = timed (fun () -> fuzz_ledger t ~seed ~deadline pool) in
  let round_ops = sum (fun r -> r.Fuzzing.Fuzz_result.total_mutants) rs in
  {
    t_ops = (2 * round_ops) + ops;
    t_failed = failed + bad + if diverged then round_ops else 0;
    t_wall = wall;
  }

let fuzz =
  {
    name = "fuzz-gcc-O2";
    what =
      Fmt.str "uCFuzz on GCC-sim -O2 from 30 synthesized seeds: %d lanes of \
               %d iterations, up to 8 mutators each" (Array.length fuzz_lanes)
        fuzz_iterations;
    single_process = true;
    prepare = fuzz_prepare;
    trace = fuzz_trace;
  }

(* ------------------------------------------------------------------ *)
(* replay-gcc-O3: the compile pipeline on fixed inputs                 *)
(* ------------------------------------------------------------------ *)

let corpus_dir = Filename.concat "perfbench" "corpus"

let replay_check (c : Corpus.t) order (outs : Compiler.outcome array) cov =
  let failed = ref 0 in
  Array.iteri
    (fun k i -> if Corpus.golden_of outs.(k) <> c.Corpus.golden.(i) then incr failed)
    order;
  (!failed, Fmt.str "programs=%d covered=%d" (Array.length order) (Coverage.covered cov))

let replay_prepare ~seed () =
  let c = Corpus.load corpus_dir in
  let order = order ~seed (Array.length c.Corpus.programs) in
  fun () ->
    let cov = Coverage.create () in
    let outs =
      Array.map (fun i -> Compiler.compile ~cov Compiler.Gcc o3 c.Corpus.programs.(i)) order
    in
    { ops = Array.length outs; check = (fun () -> replay_check c order outs cov) }

let replay_trace ~seed ~deadline t =
  let c = Corpus.load corpus_dir in
  let order = order ~seed (Array.length c.Corpus.programs) in
  let pass ?engine () =
    let cov = Coverage.create () in
    let outs =
      Array.map
        (fun i -> Compiler.compile ~cov ?engine Compiler.Gcc o3 c.Corpus.programs.(i))
        order
    in
    replay_check c order outs cov
  in
  let (failed_u, fp_u), untraced = warm (fun () -> pass ()) in
  let engine = Engine.Ctx.create () in
  let tr = Engine.Ctx.enable_trace engine in
  let (failed_t, fp_t), traced = timed (fun () -> pass ~engine ()) in
  Layers.set t "trace.overhead_pct" (pct (traced -. untraced) untraced);
  engine_ratios t engine;
  span_shares t tr ~busy:traced;
  (* staged replay, cycling through the shuffled corpus until the deadline *)
  let stage_cov = Coverage.create () and cov = Coverage.create () in
  let compile src = Compiler.compile ~cov Compiler.Gcc o3 src in
  let latencies = ref [] and ops = ref 0 and failed = ref 0 in
  let (), wall =
    timed (fun () ->
        while Stat.now () < deadline || !ops = 0 do
          let i = order.(!ops mod Array.length order) in
          incr ops;
          let staged, outcome =
            Layers.compile_both t ~latencies ~stage_cov ~compile Compiler.Gcc o3
              c.Corpus.programs.(i)
          in
          if
            (not (Layers.staged_agrees staged c.Corpus.golden.(i)))
            || Corpus.golden_of outcome <> c.Corpus.golden.(i)
          then incr failed
        done)
  in
  Layers.finish_compiles t ~latencies:!latencies;
  let n = Array.length order in
  {
    t_ops = (2 * n) + !ops;
    t_failed = failed_u + failed_t + !failed + if fp_u <> fp_t then n else 0;
    t_wall = wall;
  }

let replay =
  {
    name = "replay-gcc-O3";
    what = "Compiler.compile at GCC-sim -O3 over every program of perfbench/corpus";
    single_process = true;
    prepare = replay_prepare;
    trace = replay_trace;
  }

(* ------------------------------------------------------------------ *)
(* campaign-shards2: the RQ1 matrix across two worker processes        *)
(* ------------------------------------------------------------------ *)

let campaign_shards = 2

let campaign_cfg =
  {
    Fuzzing.Campaign.default_config with
    Fuzzing.Campaign.iterations = 60;
    seeds = 30;
    jobs = 1;
  }

(* The seed orders the fuzzers, hence the lease queue the workers pull
   from; the twelve units themselves never change. *)
let campaign_fuzzers ~seed =
  let all = Array.of_list Fuzzing.Campaign.all_fuzzers in
  Array.to_list (Array.map (Array.get all) (order ~seed (Array.length all)))

(* Per-unit exact results: covered branches and the crash set. *)
let campaign_summary (c : Fuzzing.Coordinator.t) =
  List.map
    (fun (u, r) -> Fuzzing.Coordinator.unit_name u ^ ": " ^ result_fingerprint r)
    c.Fuzzing.Coordinator.results
  @ List.map
      (fun (u, msg) -> Fuzzing.Coordinator.unit_name u ^ " FAILED " ^ msg)
      c.failures
  @ List.map
      (fun (q : Fuzzing.Coordinator.quarantined_unit) ->
        Fuzzing.Coordinator.unit_name q.qu_unit ^ " QUARANTINED " ^ q.qu_reason)
      c.quarantined
  |> String.concat "\n"

let campaign_mutants (c : Fuzzing.Coordinator.t) =
  List.fold_left
    (fun acc (_, r) -> acc + r.Fuzzing.Fuzz_result.total_mutants)
    0 c.Fuzzing.Coordinator.results

(* Operations lost to failed or quarantined units, unseeded crashes, and
   any unit whose result differs from the single-process reference. *)
let campaign_failed ~expected (c : Fuzzing.Coordinator.t) =
  let per_unit = campaign_mutants c / max 1 (List.length c.results) in
  let lost =
    (List.length c.Fuzzing.Coordinator.failures + List.length c.quarantined) * per_unit
  in
  let expected = String.split_on_char '\n' expected in
  let diverged =
    String.split_on_char '\n' (campaign_summary c)
    |> List.filter (fun l -> not (List.mem l expected))
    |> List.length
  in
  lost + (diverged * per_unit)
  + List.fold_left (fun n (_, r) -> n + unseeded_crashes r) 0 c.results

let campaign_run ?engine ?progress ~seed ~checkpoint () =
  Fuzzing.Coordinator.run ~cfg:campaign_cfg ~fuzzers:(campaign_fuzzers ~seed)
    ?engine ?progress ~checkpoint ~shards:campaign_shards
    ~backend:Engine.Shard.Fork ()

(* What every unit does before its first mutation: synthesize and parse
   the seed corpus. *)
let campaign_seeds () =
  Fuzzing.Seeds.corpus ~n:campaign_cfg.Fuzzing.Campaign.seeds
    (Cparse.Rng.create campaign_cfg.Fuzzing.Campaign.seed_value)
  |> List.iter (fun src -> ignore (Cparse.Parser.parse src))

let campaign_prepare ~seed =
  (* the expected outputs: the same matrix in one process *)
  let expected =
    campaign_summary
      (Fuzzing.Coordinator.run ~cfg:campaign_cfg ~fuzzers:(campaign_fuzzers ~seed)
         ~shards:1 ())
  in
  fun () ->
    campaign_seeds ();
    let dir = temp_dir "campaign" in
    fun () ->
      let c = campaign_run ~seed ~checkpoint:dir () in
      {
        ops = campaign_mutants c;
        check =
          (fun () ->
            rm_rf dir;
            (campaign_failed ~expected c, campaign_summary c));
      }

let campaign_trace ~seed ~deadline:_ t =
  let untraced_c, untraced =
    warm (fun () ->
        let dir = temp_dir "campaign" in
        let c = campaign_run ~seed ~checkpoint:dir () in
        rm_rf dir;
        c)
  in
  let dir = temp_dir "campaign" in
  let engine = Engine.Ctx.create () in
  let tr = Engine.Ctx.enable_trace engine in
  let completions = ref [] in
  let progress ~completed:_ ~total:_ _ = completions := Stat.now () :: !completions in
  let c, traced =
    timed (fun () -> campaign_run ~engine ~progress ~seed ~checkpoint:dir ())
  in
  Layers.set t "checkpoint.bytes" (float_of_int (dir_bytes dir));
  Layers.set t "trace.overhead_pct" (pct (traced -. untraced) untraced);
  engine_ratios t engine;
  span_shares t tr ~busy:(traced *. float_of_int campaign_shards);
  (* per-unit wall: the extent of the unit's spans (tid = unit tag) *)
  let extent = Hashtbl.create 16 in
  List.iter
    (fun (s : Engine.Trace.span_rec) ->
      let t0 = s.sr_ts_ns and t1 = Int64.add s.sr_ts_ns s.sr_dur_ns in
      let lo, hi = Option.value ~default:(t0, t1) (Hashtbl.find_opt extent s.sr_tid) in
      Hashtbl.replace extent s.sr_tid (min lo t0, max hi t1))
    (Engine.Trace.spans tr);
  let unit_s =
    Hashtbl.fold (fun _ (lo, hi) acc -> (Int64.to_float (Int64.sub hi lo) /. 1e9) :: acc) extent []
  in
  Layers.set t "coordinator.unit_s_p50" (Stat.median unit_s);
  Layers.set t "coordinator.unit_s_max" (List.fold_left max 0. unit_s);
  (match !completions with
  | last :: prev :: _ -> Layers.set t "coordinator.tail_s" (last -. prev)
  | _ -> ());
  let st = c.Fuzzing.Coordinator.shard_stats in
  Layers.set t "shard.spawned" (float_of_int st.Engine.Shard.st_spawned);
  Layers.set t "shard.died" (float_of_int st.Engine.Shard.st_died);
  Layers.set t "shard.requeued" (float_of_int st.Engine.Shard.st_requeued);
  (* the frame codec and the checkpoint store, on this round's unit results *)
  let bytes = ref 0 in
  let failed = ref 0 in
  List.iter
    (fun (u, (r : Fuzzing.Fuzz_result.t)) ->
      let back =
        Layers.time t "shard.codec" (fun () ->
            let body = Engine.Shard.encode r in
            bytes := !bytes + String.length body;
            Engine.Shard.decode body)
      in
      let path = Filename.concat dir ("ledger-" ^ Fuzzing.Coordinator.unit_name u) in
      let stored =
        Layers.time t "checkpoint" (fun () ->
            match Engine.Checkpoint.save ~path ~fingerprint:"ledger" r with
            | Error e -> Error e
            | Ok () -> Engine.Checkpoint.load ~path ~fingerprint:"ledger")
      in
      let same = function
        | Ok (r' : Fuzzing.Fuzz_result.t) -> Fuzzing.Fuzz_result.equal r r'
        | Error _ -> false
      in
      if not (same back && same stored) then incr failed)
    c.Fuzzing.Coordinator.results;
  rm_rf dir;
  Layers.set t "shard.result_bytes"
    (float_of_int !bytes /. float_of_int (max 1 (List.length c.results)));
  let expected = campaign_summary untraced_c in
  let ops = campaign_mutants c in
  {
    t_ops = ops + campaign_mutants untraced_c;
    t_failed =
      !failed + campaign_failed ~expected c
      + campaign_failed ~expected:(campaign_summary c) untraced_c;
    t_wall = traced;
  }

let campaign =
  {
    name = "campaign-shards2";
    what =
      "Coordinator.run of the RQ1 matrix (6 fuzzers x 2 compilers, 60 \
       iterations) over 2 forked shard workers, with checkpoints";
    single_process = false;
    prepare = campaign_prepare;
    trace = campaign_trace;
  }

(* ------------------------------------------------------------------ *)
(* wrongcode-gcc: the EMI-style differential path                      *)
(* ------------------------------------------------------------------ *)

(* Two hunts (RNG seeds) over one seed corpus. *)
let wrongcode_lanes = [| 77; 78 |]
let wrongcode_iterations = 20
let wrongcode_seeds () = Fuzzing.Seeds.corpus ~n:60 (Cparse.Rng.create 21)

let mismatch_key (src, reference, observed) =
  Fmt.str "%d:%b/%d:%b %s" (fst reference) (snd reference) (fst observed)
    (snd observed) (Digest.to_hex (Digest.string src))

let report_keys (r : Fuzzing.Wrongcode.report) =
  List.map
    (fun (m : Fuzzing.Wrongcode.mismatch) ->
      mismatch_key (m.mm_source, m.mm_reference, m.mm_observed))
    r.Fuzzing.Wrongcode.r_mismatches

(* A genuine mismatch reproduces, and a seeded miscompilation explains it. *)
let explained (m : Fuzzing.Wrongcode.mismatch) =
  let reproduces =
    Fuzzing.Wrongcode.check_program Compiler.Gcc m.mm_options m.mm_source
    |> Option.map (fun (m' : Fuzzing.Wrongcode.mismatch) -> m'.mm_observed)
    = Some m.mm_observed
  in
  let seeded =
    match Cparse.Parser.parse m.mm_source with
    | Error _ -> false
    | Ok tu ->
      Bugdb.check_miscompile ~compiler:Bugdb.Gcc
        ~opt_level:m.mm_options.Compiler.opt_level
        ~pipeline:(Compiler.pipeline_of m.mm_options)
        ~ast:(Features.ast_features tu)
      |> Option.is_some
  in
  reproduces && seeded

let wrongcode_hunts ~seed seeds =
  Array.to_list
    (Array.map
       (fun i ->
         Fuzzing.Wrongcode.hunt ~rng:(Cparse.Rng.create wrongcode_lanes.(i))
           ~compiler:Compiler.Gcc ~seeds ~iterations:wrongcode_iterations ())
       (order ~seed (Array.length wrongcode_lanes)))

let wrongcode_check (rs : Fuzzing.Wrongcode.report list) =
  let bad =
    List.concat_map
      (fun (r : Fuzzing.Wrongcode.report) ->
        List.filter (fun m -> not (explained m)) r.r_mismatches)
      rs
  in
  ( List.length bad,
    List.map
      (fun (r : Fuzzing.Wrongcode.report) ->
        Fmt.str "checked=%d mismatches=[%s]" r.r_checked
          (String.concat "," (report_keys r)))
      rs
    |> List.sort compare |> String.concat "\n" )

let checked rs = sum (fun (r : Fuzzing.Wrongcode.report) -> r.r_checked) rs

let wrongcode_prepare ~seed () =
  let seeds = wrongcode_seeds () in
  List.iter (fun src -> ignore (Cparse.Parser.parse src)) seeds;
  fun () ->
    let rs = wrongcode_hunts ~seed seeds in
    { ops = checked rs; check = (fun () -> wrongcode_check rs) }

(* [Wrongcode.hunt]'s loop, draw for draw, with each layer call timed; it
   must reproduce the hunt's checked count and mismatches exactly. *)
let wrongcode_redrive t ~lane seeds =
  let rng = Cparse.Rng.create lane in
  let mutators = Mutators.Registry.core in
  let pool =
    List.filter_map (fun src -> Result.to_option (Cparse.Parser.parse src)) seeds
    |> Array.of_list
  in
  let found = ref [] and checked = ref 0 in
  let seen = Hashtbl.create 8 in
  let observe opts src =
    match Layers.time t "compile_ir" (fun () -> Compiler.compile_ir Compiler.Gcc opts src) with
    | Ok p ->
      Layers.time t "ir_interp" (fun () -> Ir_interp.observable ~fuel:1_000_000 p)
    | Error _ -> None
  in
  for _ = 1 to wrongcode_iterations do
    if Array.length pool > 0 then begin
      let tu = pool.(Cparse.Rng.int rng (Array.length pool)) in
      let rounds = 1 + Cparse.Rng.int rng 4 in
      let mutated = ref tu and changed = ref false in
      for _ = 1 to rounds do
        let m = Cparse.Rng.choose rng mutators in
        match
          Layers.time t "mutator" (fun () -> Mutators.Mutator.apply m ~rng !mutated)
        with
        | Some tu' ->
          mutated := tu';
          changed := true
        | None -> ()
      done;
      if !changed then begin
        let src = Layers.time t "pretty" (fun () -> Cparse.Pretty.tu_to_string !mutated) in
        incr checked;
        let options = { o2 with Compiler.opt_level = 2 + Cparse.Rng.int rng 2 } in
        let observed = observe options src in
        let reference =
          observe
            { options with Compiler.opt_level = 0; disabled_passes = []; pass_list = None }
            src
        in
        match (reference, observed) with
        | Some r, Some o when r <> o ->
          let key = (r, o, String.length src / 64) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            found := (src, r, o) :: !found
          end
        | _ -> ()
      end
    end
  done;
  (!checked, List.rev_map mismatch_key !found)

(* Hunts and re-drives alternate until the deadline, so the overhead
   compares the two under the same host conditions; every re-drive must
   reproduce the hunts. *)
let wrongcode_trace ~seed ~deadline t =
  let seeds = wrongcode_seeds () in
  let lanes = Array.map (Array.get wrongcode_lanes) (order ~seed (Array.length wrongcode_lanes)) in
  let redrive () =
    Array.to_list (Array.map (fun lane -> wrongcode_redrive t ~lane seeds) lanes)
  in
  let rs = wrongcode_hunts ~seed seeds in
  let expected =
    List.map (fun (r : Fuzzing.Wrongcode.report) -> (r.r_checked, report_keys r)) rs
  in
  let ops = ref (checked rs) and failed = ref 0 in
  let hunt_s = ref [] and redrive_s = ref [] in
  while !redrive_s = [] || Stat.now () < deadline do
    let again, dt = timed (fun () -> wrongcode_hunts ~seed seeds) in
    hunt_s := dt :: !hunt_s;
    ops := !ops + checked again;
    let again, dt = timed redrive in
    redrive_s := dt :: !redrive_s;
    ops := !ops + sum fst again;
    if again <> expected then failed := !failed + sum fst again
  done;
  let hunt = Stat.median !hunt_s and once = Stat.median !redrive_s in
  let wall = List.fold_left ( +. ) 0. !redrive_s in
  Layers.set t "trace.overhead_pct" (pct (once -. hunt) hunt);
  let named =
    Layers.total t [ "compile_ir"; "ir_interp"; "mutator"; "pretty" ] (fun r -> r.Layers.ns)
  in
  Layers.set t "trace.attributed_pct" (pct (named /. 1e9) wall);
  let bad, _ = wrongcode_check rs in
  { t_ops = !ops; t_failed = bad + !failed; t_wall = wall }

let wrongcode =
  {
    name = "wrongcode-gcc";
    what =
      Fmt.str "Wrongcode.hunt on GCC-sim from 60 synthesized seeds: %d hunts \
               of %d iterations" (Array.length wrongcode_lanes) wrongcode_iterations;
    single_process = true;
    prepare = wrongcode_prepare;
    trace = wrongcode_trace;
  }

let all = [ fuzz; replay; campaign; wrongcode ]
