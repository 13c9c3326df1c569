(* The post-run markdown report ([campaign-report.md]): what happened,
   assembled from the result records and the engine's metrics registry —
   per-fuzzer summary, coverage trends, crash buckets by pipeline stage,
   the per-mutator accept/reject table, and the fault/retry recovery
   summary.  Everything here is derived from deterministic state; wall-
   clock only appears in the span-time table, which readers expect to
   vary. *)

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let summary_section (results : (string * Fuzz_result.t) list) =
  Report.Markdown.heading ~level:2 "Run summary"
  ^ Report.Markdown.table
      ~header:
        [
          "fuzzer"; "compiler"; "iterations"; "mutants"; "compilable %";
          "covered edges"; "unique crashes";
        ]
      (List.map
         (fun (label, (r : Fuzz_result.t)) ->
           [
             label;
             Simcomp.Bugdb.compiler_to_string r.compiler;
             string_of_int r.iterations;
             string_of_int r.total_mutants;
             Fmt.str "%.1f" (Fuzz_result.compilable_ratio r);
             string_of_int (Simcomp.Coverage.covered r.coverage);
             string_of_int (Fuzz_result.unique_crashes r);
           ])
         results)

let trend_section (results : (string * Fuzz_result.t) list) =
  let series =
    List.filter_map
      (fun (label, (r : Fuzz_result.t)) ->
        if r.coverage_trend = [] then None
        else Some (Report.Series.make ~label ~points:r.coverage_trend))
      results
  in
  if series = [] then ""
  else
    Report.Markdown.heading ~level:2 "Coverage trend"
    ^ Report.Markdown.code_block
        (Report.Series.render_plot ~title:"covered branches" series)
    ^ Report.Markdown.code_block
        (Report.Series.render_data ~title:"samples (iteration:covered)" series)

let crash_section (results : (string * Fuzz_result.t) list) =
  let stages =
    [ Simcomp.Crash.Front_end; Ir_gen; Optimization; Back_end ]
  in
  let any_crash =
    List.exists (fun (_, r) -> Fuzz_result.unique_crashes r > 0) results
  in
  if not any_crash then
    Report.Markdown.heading ~level:2 "Crash buckets"
    ^ Report.Markdown.paragraph "No unique crashes found."
  else
    Report.Markdown.heading ~level:2 "Crash buckets (by pipeline stage)"
    ^ Report.Markdown.table
        ~header:
          ("fuzzer"
          :: List.map Simcomp.Crash.stage_to_string stages
          @ [ "total" ])
        (List.filter_map
           (fun (label, (r : Fuzz_result.t)) ->
             let total = Fuzz_result.unique_crashes r in
             if total = 0 then None
             else
               let by_stage = Fuzz_result.crashes_by_stage r in
               Some
                 (label
                 :: List.map
                      (fun s ->
                        string_of_int
                          (Option.value ~default:0 (List.assoc_opt s by_stage)))
                      stages
                 @ [ string_of_int total ]))
           results)

(* The per-mutator table: the "mucfuzz.<verb>.<mutator>" counter
   families joined on the mutator name, sorted by accepts (the paper's
   per-operator productivity ranking).  "fresh edges" is the yield
   signal: coverage actually attributable to each operator's mutants,
   not just how often its output compiled. *)
let mutator_section (m : Engine.Metrics.t) =
  let family verb = Engine.Metrics.counters_with_prefix m ~prefix:("mucfuzz." ^ verb ^ ".") in
  let attempts = family "attempt" in
  if attempts = [] then ""
  else begin
    let accepts = family "accept"
    and rejects = family "reject"
    and inapplicable = family "inapplicable"
    and fresh = family "fresh_edges" in
    let get tbl name = Option.value ~default:0 (List.assoc_opt name tbl) in
    let rows =
      attempts
      |> List.map (fun (name, att) ->
             let acc = get accepts name in
             ( name,
               att,
               acc,
               get rejects name,
               get inapplicable name,
               get fresh name ))
      |> List.sort (fun (n1, _, a1, _, _, _) (n2, _, a2, _, _, _) ->
             match compare a2 a1 with 0 -> compare n1 n2 | c -> c)
    in
    Report.Markdown.heading ~level:2 "Per-mutator outcomes"
    ^ Report.Markdown.table
        ~header:
          [
            "mutator"; "attempts"; "accepts"; "rejects"; "inapplicable";
            "accept %"; "fresh edges";
          ]
        (List.map
           (fun (name, att, acc, rej, inap, fr) ->
             [
               name;
               string_of_int att;
               string_of_int acc;
               string_of_int rej;
               string_of_int inap;
               Fmt.str "%.1f" (pct acc (acc + rej));
               string_of_int fr;
             ])
           rows)
  end

(* Supervision/fault accounting: the counters the retry, worker-pool,
   checkpoint and watchdog layers only write when they intervened.  A
   healthy run renders the "no interventions" line. *)
let recovery_section (m : Engine.Metrics.t) =
  let interesting =
    [
      ("pipeline.retry.attempts", "pipeline retry attempts");
      ("pipeline.retry.recovered", "pipeline calls recovered by retrying");
      ("pipeline.retry.exhausted", "pipeline calls that exhausted retries");
      ("compile.watchdog_hang", "compiles killed by the watchdog");
      ("mucfuzz.resumed", "cells resumed from a checkpoint");
      ("mucfuzz.resume_failed", "stale/unreadable checkpoints ignored");
      ("checkpoint.save_failed", "checkpoint saves that failed");
      ("shard.worker_died", "shard workers that died");
      ("shard.requeued", "leases re-dealt after a worker death");
      ("shard.garbled", "frames rejected by the protocol check");
      ("shard.hung", "shard workers killed by the hang timeout");
      ("shard.oom_killed", "shard workers killed by the allocation governor");
      ("shard.deadline_killed", "shard workers killed by the lease deadline");
      ("shard.quarantined", "leases quarantined by the governor");
      ("shard.breaker_tripped", "leases quarantined by the circuit breaker");
      ("shard.crash_restart", "coordinator crash-restarts survived");
      ("shard.inline", "lease attempts run inline on the coordinator");
    ]
  in
  let snapshot = Engine.Metrics.snapshot m in
  let rows =
    List.filter_map
      (fun (name, what) ->
        match List.assoc_opt name snapshot with
        | Some (Engine.Metrics.Counter n) when n > 0 ->
          Some [ name; string_of_int n; what ]
        | _ -> None)
      interesting
  in
  Report.Markdown.heading ~level:2 "Fault & retry recovery"
  ^
  if rows = [] then
    Report.Markdown.paragraph
      "No supervision interventions: every compile, cell and checkpoint \
       succeeded first try."
  else Report.Markdown.table ~header:[ "counter"; "count"; "meaning" ] rows

(* Units the resource governor set aside: infrastructure failed them
   [max_attempts] times (or the circuit breaker tripped), the campaign
   carried on without them.  The cell fingerprint is printed so the
   quarantined work can be re-run in isolation with an identical stream.
   Rendered only when non-empty: a healthy run's report is byte-identical
   to one produced by a governor-free build. *)
let quarantine_section (qs : (string * string * int * string) list) =
  if qs = [] then ""
  else
    Report.Markdown.heading ~level:2 "Quarantined units"
    ^ Report.Markdown.table
        ~header:[ "unit"; "reason"; "attempts"; "cell fingerprint" ]
        (List.map
           (fun (name, reason, attempts, fp) ->
             [ name; reason; string_of_int attempts; Fmt.str "`%s`" fp ])
           qs)

(* Which pass broke it: one row per bisected optimizer-stage finding.
   Everything here is deterministic in the campaign results, so the
   section is byte-identical at any job count. *)
let attribution_section (ats : Bisect.attribution list) =
  Report.Markdown.heading ~level:2 "Culprit-pass attribution"
  ^
  if ats = [] then
    Report.Markdown.paragraph
      "No optimizer-stage findings to bisect: every recorded crash lives \
       outside the pass pipeline."
  else
    Report.Markdown.table
      ~header:
        [
          "compiler"; "bug"; "finding"; "culprit passes"; "first divergent";
          "recompiles";
        ]
      (List.map
         (fun (a : Bisect.attribution) ->
           let v = a.Bisect.at_verdict in
           [
             Simcomp.Bugdb.compiler_to_string a.Bisect.at_compiler;
             a.Bisect.at_bug_id;
             Bisect.finding_to_string v.Bisect.v_finding;
             (if v.Bisect.v_attributable then
                String.concat ", " v.Bisect.v_culprits
              else "(unattributable)");
             Option.value ~default:"-" v.Bisect.v_first_divergent;
             string_of_int v.Bisect.v_recompiles;
           ])
         ats)

(* Where the time went: span histograms, cumulative and mean, sorted by
   total time.  Wall-clock — the one machine-dependent table. *)
let span_section (m : Engine.Metrics.t) =
  let spans =
    List.filter_map
      (function
        | name, Engine.Metrics.Histogram { sum; total; _ }
          when String.starts_with ~prefix:"span." name && total > 0 ->
          Some (String.sub name 5 (String.length name - 5), sum, total)
        | _ -> None)
      (Engine.Metrics.snapshot m)
    |> List.sort (fun (_, s1, _) (_, s2, _) -> compare s2 s1)
  in
  if spans = [] then ""
  else
    Report.Markdown.heading ~level:2 "Time by span"
    ^ Report.Markdown.table
        ~header:[ "span"; "calls"; "total ms"; "mean us" ]
        (List.map
           (fun (name, sum, total) ->
             [
               name;
               string_of_int total;
               Fmt.str "%.1f" (sum /. 1e6);
               Fmt.str "%.1f" (sum /. float_of_int total /. 1e3);
             ])
           spans)

(* Where the time goes, properly attributed: per-span *self* time from
   the trace buffer (child time subtracted — a pass that spends all its
   time in sub-spans charges them, not itself).  Wall-clock, like the
   span table; rendered only when tracing was on. *)
let self_time_section (ctx : Engine.Ctx.t) =
  match ctx.Engine.Ctx.trace with
  | None -> ""
  | Some tr ->
    let entries =
      Engine.Trace.self_time_by_name tr
      |> List.filter (fun (_, ns) -> Int64.compare ns 0L > 0)
    in
    if entries = [] then ""
    else
      let total =
        List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L entries
      in
      let totalf = Int64.to_float total in
      Report.Markdown.heading ~level:2 "Where the time goes (self time)"
      ^ Report.Markdown.table
          ~header:[ "span"; "self ms"; "% of traced" ]
          (List.map
             (fun (name, ns) ->
               let f = Int64.to_float ns in
               [
                 name;
                 Fmt.str "%.1f" (f /. 1e6);
                 Fmt.str "%.1f" (100. *. f /. totalf);
               ])
             entries)

let render ~title ?(preamble = "") ?engine ?attribution ?(quarantined = [])
    (results : (string * Fuzz_result.t) list) : string =
  let d = Report.Markdown.doc () in
  Report.Markdown.add d (Report.Markdown.heading ~level:1 title);
  if preamble <> "" then Report.Markdown.add d (Report.Markdown.paragraph preamble);
  Report.Markdown.add d (summary_section results);
  Report.Markdown.add d (trend_section results);
  Report.Markdown.add d (crash_section results);
  Report.Markdown.add d (quarantine_section quarantined);
  Option.iter
    (fun ats -> Report.Markdown.add d (attribution_section ats))
    attribution;
  (match engine with
  | None -> ()
  | Some (ctx : Engine.Ctx.t) ->
    let m = ctx.Engine.Ctx.metrics in
    Report.Markdown.add d (mutator_section m);
    Report.Markdown.add d (recovery_section m);
    Report.Markdown.add d (span_section m);
    Report.Markdown.add d (self_time_section ctx));
  Report.Markdown.contents d

let fuzz ?engine (r : Fuzz_result.t) : string =
  render ~title:("Fuzz report: " ^ r.fuzzer_name) ?engine
    [ (r.fuzzer_name, r) ]

let campaign ?engine ?attribution ?quarantined (t : Campaign.t) : string =
  let preamble =
    let failures =
      match t.Campaign.failures with
      | [] -> ""
      | fs ->
        "\n\n**Failed cells:**\n\n"
        ^ Report.Markdown.bullet
            (List.map
               (fun (cell, msg) -> Campaign.cell_name cell ^ ": " ^ msg)
               fs)
    in
    (* no restored-from-checkpoint count here: a resumed run's report
       must be byte-identical to the uninterrupted one; resume
       accounting lives in the engine-gated recovery section *)
    Fmt.str
      "%d cells (%d failed); iterations=%d seeds=%d.%s"
      (List.length t.Campaign.results + List.length t.Campaign.failures)
      (List.length t.Campaign.failures)
      t.Campaign.config.Campaign.iterations t.Campaign.config.Campaign.seeds
      failures
  in
  render ~title:"Campaign report" ~preamble ?engine ?attribution ?quarantined
    (List.map
       (fun (cell, r) -> (Campaign.cell_name cell, r))
       t.Campaign.results)
