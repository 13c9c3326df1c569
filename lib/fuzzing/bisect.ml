(* Automatic culprit-pass bisection (GCC debug-bisect-passes, natively).

   Triage after fuzzing: a campaign attributes findings to a whole
   compiler invocation, but the expensive question is *which pass*.
   With the pass manager this is answerable by experiment — re-compile
   the offending source with passes disabled and watch the finding
   (crash identity, or the wrong-code differential) appear and vanish.
   An ICE probe recompiles the source through the checked pipeline; a
   wrong-code probe only re-optimizes a copy of one shared lowering.

   The search is greedy rather than a full ddmin: first probe each
   planned pass individually (a pass whose lone disabling clears the
   finding is individually necessary — the common single-culprit case),
   and only when no single pass is decisive fall back to shrinking the
   full disable-set.  Probe order follows the pipeline, so verdicts are
   deterministic in (compiler, options, source). *)

type finding =
  | Ice of { key : string; bug_id : string }
  | Wrong_code of { reference : int * bool; observed : int * bool }

let behaviour_to_string (exit, trapped) =
  if trapped then "trap" else Printf.sprintf "exit %d" exit

let finding_to_string = function
  | Ice { bug_id; key } -> Printf.sprintf "ICE %s [%s]" bug_id key
  | Wrong_code { reference; observed } ->
    Printf.sprintf "wrong-code (%s at -O0, %s optimized)"
      (behaviour_to_string reference)
      (behaviour_to_string observed)

type verdict = {
  v_finding : finding;
  v_pipeline : string list;
  v_culprits : string list;
  v_first_divergent : string option;
  v_attributable : bool;
  v_recompiles : int;
}

(* A finding, with the probe that asks whether the same finding
   survives other options, and the first divergent pass (wrong code
   only).  A wrong-code finding is lowered and observed at -O0 once;
   every probe optimizes a copy of that lowering. *)
type subject = {
  s_finding : finding;
  s_present : Simcomp.Compiler.options -> bool;
  s_first_divergent : string option;
}

let detect (compiler : Simcomp.Compiler.compiler)
    (opts : Simcomp.Compiler.options) (src : string) : subject option =
  match Simcomp.Compiler.compile compiler opts src with
  | Simcomp.Compiler.Crashed c ->
    let key = Simcomp.Crash.unique_key c in
    let present probe_opts =
      match Simcomp.Compiler.compile compiler probe_opts src with
      | Simcomp.Compiler.Crashed c -> String.equal (Simcomp.Crash.unique_key c) key
      | _ -> false
    in
    Some
      {
        s_finding = Ice { key; bug_id = c.Simcomp.Crash.bug_id };
        s_present = present;
        s_first_divergent = None;
      }
  | Simcomp.Compiler.Compile_error _ -> None
  | Simcomp.Compiler.Compiled _ -> (
    match Simcomp.Compiler.lower compiler src with
    | Error _ -> None
    | Ok (prog, ast) -> (
      match Wrongcode.run_ir prog with
      | None -> None
      | Some reference -> (
        let fork () = (Simcomp.Ir.copy prog, ast) in
        (* any remaining divergence counts: the corrupted values
           legitimately shift as the downstream pipeline changes *)
        let diverges probe_opts =
          match Wrongcode.observe compiler probe_opts (fork ()) with
          | Some o when o <> reference -> Some o
          | _ -> None
        in
        match diverges opts with
        | None -> None
        | Some observed ->
          Some
            {
              s_finding = Wrong_code { reference; observed };
              s_present = (fun o -> Option.is_some (diverges o));
              s_first_divergent =
                (Simcomp.Compiler.optimize ~reference compiler opts (fork ()))
                  .Simcomp.Compiler.pt_first_divergent;
            })))

let dedup_keep_order names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        true
      end)
    names

let run ?engine (compiler : Simcomp.Compiler.compiler)
    (opts : Simcomp.Compiler.options) (src : string) : verdict option =
  match detect compiler opts src with
  | None -> None
  | Some subject ->
    Option.iter (fun ctx -> Engine.Ctx.incr ctx "bisect.runs") engine;
    let recompiles = ref 0 in
    (* is the *same* finding still present with [extra] passes also
       disabled?  Crash identity must match; for wrong-code any
       remaining divergence counts. *)
    let present extra =
      incr recompiles;
      Option.iter (fun ctx -> Engine.Ctx.incr ctx "bisect.recompiles") engine;
      subject.s_present
        {
          opts with
          Simcomp.Compiler.disabled_passes =
            opts.Simcomp.Compiler.disabled_passes @ extra;
        }
    in
    let pipeline = Simcomp.Compiler.pipeline_of opts in
    let uniq = dedup_keep_order pipeline in
    let singles = List.filter (fun p -> not (present [ p ])) uniq in
    let culprits, attributable =
      match singles with
      | _ :: _ -> (singles, true)
      | [] ->
        if present uniq then ([], false)
        else
          (* no single pass is decisive but the finding is still
             pass-borne: shrink the full disable-set greedily *)
          let keep = ref uniq in
          List.iter
            (fun p ->
              let without = List.filter (fun q -> not (String.equal q p)) !keep in
              if not (present without) then keep := without)
            uniq;
          (!keep, true)
    in
    if not attributable then
      Option.iter (fun ctx -> Engine.Ctx.incr ctx "bisect.unattributable") engine;
    Some
      {
        v_finding = subject.s_finding;
        v_pipeline = pipeline;
        v_culprits = culprits;
        v_first_divergent = subject.s_first_divergent;
        v_attributable = attributable;
        v_recompiles = !recompiles;
      }

type attribution = {
  at_compiler : Simcomp.Compiler.compiler;
  at_bug_id : string;
  at_input : string;
  at_verdict : verdict;
}

let attribute ?engine ?(options = Simcomp.Compiler.default_options)
    (t : Campaign.t) : attribution list =
  (* unique optimizer-stage crashes across all cells, keyed by
     (compiler, crash key); sorted so the result is identical no matter
     which worker found each crash first *)
  let seen = Hashtbl.create 16 in
  let candidates = ref [] in
  List.iter
    (fun ((_, compiler), (r : Fuzz_result.t)) ->
      Hashtbl.iter
        (fun key (cr : Fuzz_result.crash_record) ->
          if cr.Fuzz_result.cr_crash.Simcomp.Crash.stage = Simcomp.Crash.Optimization
          then begin
            let id = (Simcomp.Bugdb.compiler_to_string compiler, key) in
            if not (Hashtbl.mem seen id) then begin
              Hashtbl.replace seen id ();
              candidates :=
                (id, compiler, cr.Fuzz_result.cr_crash.Simcomp.Crash.bug_id,
                 cr.Fuzz_result.cr_input)
                :: !candidates
            end
          end)
        r.Fuzz_result.crashes)
    t.Campaign.results;
  let candidates =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !candidates
  in
  List.filter_map
    (fun (_, compiler, bug_id, input) ->
      Option.map
        (fun v ->
          {
            at_compiler = compiler;
            at_bug_id = bug_id;
            at_input = input;
            at_verdict = v;
          })
        (run ?engine compiler options input))
    candidates
