(* The campaign driver: deal Campaign cells (optionally crossed with -O
   levels) to an Engine.Shard worker pool — inline or forked worker
   processes — and merge the pieces back into one aggregated view.

   Determinism is inherited, not re-proven: a unit's RNG stream, fault
   stream, and coverage map are pure functions of (config, unit id),
   and every merge below walks the canonical unit list, never the
   completion order.  So every worker count produces byte-identical
   coverage, crash sets, and reports. *)

type unit_id = {
  u_fuzzer : Campaign.fuzzer_id;
  u_compiler : Simcomp.Compiler.compiler;
  u_opt : int option;
}

let unit_name (u : unit_id) =
  let base = Campaign.cell_name (u.u_fuzzer, u.u_compiler) in
  match u.u_opt with None -> base | Some l -> Fmt.str "%s-O%d" base l

(* Cell tags are 11..62; opt units shift to a disjoint range so a trace
   mixing both axes never aliases thread ids. *)
let unit_tag (u : unit_id) =
  let t = Campaign.cell_tag u.u_fuzzer u.u_compiler in
  match u.u_opt with None -> t | Some l -> (t * 10) + l + 1

let units ?(fuzzers = Campaign.all_fuzzers)
    ?(compilers = Simcomp.Compiler.[ Gcc; Clang ]) ?(opt_levels = []) () :
    unit_id list =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun c ->
          match opt_levels with
          | [] -> [ { u_fuzzer = f; u_compiler = c; u_opt = None } ]
          | ls ->
            List.map (fun l -> { u_fuzzer = f; u_compiler = c; u_opt = Some l }) ls)
        compilers)
    fuzzers

(* A unit's mid-run μCFuzz snapshot. *)
let unit_ckpt_file dir (u : unit_id) =
  Filename.concat dir ("cell-" ^ unit_name u ^ ".ckpt")

(* The journal — the one resume record — holds the unit's full encoded
   [worker_result] (result + metrics + trace + log), written by the
   coordinator as each Result commits, before the join barrier.  A
   coordinator killed mid-campaign loses at most the in-flight leases:
   on --resume, journaled units restore with full telemetry fidelity,
   and the rest recompute deterministically (μCFuzz units from their
   last snapshot). *)
let unit_journal_file dir (u : unit_id) =
  Filename.concat dir ("journal-" ^ unit_name u ^ ".ckpt")

(* The validity stamp both files are saved under: every parameter the
   state depends on.  The worker count is deliberately excluded —
   results do not depend on it. *)
let unit_fingerprint (cfg : Campaign.config) ?faults (u : unit_id) =
  let base =
    Fmt.str "campaign|%s|it=%d|seeds=%d|every=%d|seed=%d|ma=%d|sched=%b|%s"
      (Campaign.cell_name (u.u_fuzzer, u.u_compiler))
      cfg.iterations cfg.seeds cfg.sample_every cfg.seed_value
      cfg.max_attempts cfg.schedule
      (match faults with
      | None -> "faults=off"
      | Some f -> "faults=" ^ Engine.Faults.fingerprint f)
  in
  match u.u_opt with None -> base | Some l -> Fmt.str "%s|O%d" base l

let unit_options (u : unit_id) =
  Option.map
    (fun l -> { Simcomp.Compiler.default_options with opt_level = l })
    u.u_opt

(* The fault stream: default units hand run_one the root harness (which
   derives the cell's stream from its cell tag); opt units interpose one
   per-level derivation so the same cell at -O0 and -O3 doesn't replay
   identical faults.  Both are pure in (root, unit), hence
   shard-count-invariant. *)
let unit_faults root (u : unit_id) =
  match (root, u.u_opt) with
  | None, _ -> None
  | Some f, None -> Some f
  | Some f, Some l -> Some (Engine.Faults.derive f ~tag:(900 + l))

(* ------------------------------------------------------------------ *)
(* The lease and its execution (runs on a worker or inline)            *)
(* ------------------------------------------------------------------ *)

type lease = {
  l_cfg : Campaign.config;
  l_unit : unit_id;
  l_faults : Engine.Faults.t option; (* root harness; derived per unit *)
  l_checkpoint : string option;
  l_resume : bool;
  l_trace : bool; (* the coordinator's engine wants trace buffers back *)
  l_probe : bool;
  l_log : Engine.Log.level option; (* collect structured records *)
}

type worker_result = {
  wr_result : Fuzz_result.t;
  wr_metrics : Engine.Metrics.t;
  wr_trace : Engine.Trace.t option;
  wr_log : Engine.Log.record list;
}

(* [counters] are worker-lifetime cumulative (see the Heartbeat frame
   doc): the coordinator's per-shard fold stays monotone across leases. *)
let exec_lease ~heartbeat ~counters (l : lease) : worker_result =
  let u = l.l_unit in
  let ctx = Engine.Ctx.create () in
  if l.l_trace then ignore (Engine.Ctx.enable_trace ~tid:(unit_tag u) ctx);
  if l.l_probe then ignore (Engine.Ctx.enable_probe ctx);
  Option.iter
    (fun level -> ignore (Engine.Ctx.enable_log ~level ctx))
    l.l_log;
  let execs, covered, crashes = counters in
  let beat () =
    heartbeat ~execs:!execs ~covered:!covered ~crashes:!crashes
  in
  let sink =
    {
      Engine.Event.sink_name = "shard-heartbeat";
      emit =
        (fun e ->
          match e with
          | Engine.Event.Compile_finished _ ->
            incr execs;
            (* throttled: one frame per ~200 compiles keeps the socket
               quiet while the line still moves every second *)
            if !execs mod 200 = 0 then beat ()
          | Engine.Event.Crash_found _ -> incr crashes
          | Engine.Event.Coverage_sampled { covered = c; _ } -> covered := c
          | _ -> ());
    }
  in
  Engine.Event.add_sink ctx.Engine.Ctx.bus sink;
  let cfg = l.l_cfg in
  let ckpt_every = max 1 (cfg.Campaign.sample_every * 5) in
  let checkpoint =
    Option.map (fun dir -> (unit_ckpt_file dir u, ckpt_every)) l.l_checkpoint
  in
  let resume =
    match checkpoint with
    | Some (path, _) when l.l_resume -> Some path
    | _ -> None
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Engine.Event.remove_sink ctx.Engine.Ctx.bus sink)
      (fun () ->
        Campaign.run_one ~engine:ctx
          ?faults:(unit_faults l.l_faults u)
          ?checkpoint ?resume
          ?options:(unit_options u)
          cfg u.u_fuzzer u.u_compiler)
  in
  (* flush the partial GC batch so the merge sees this unit's tail *)
  Option.iter Engine.Probe.sample ctx.Engine.Ctx.probe;
  beat ();
  {
    (* the result crosses the frame boundary (and lands in the journal)
       with its coverage map at rest: KiBs of pairs, not the 1 MiB map *)
    wr_result = Fuzz_result.at_rest r;
    wr_metrics = ctx.Engine.Ctx.metrics;
    wr_trace = ctx.Engine.Ctx.trace;
    wr_log =
      (match ctx.Engine.Ctx.log with
      | Some lg -> Engine.Log.records lg
      | None -> []);
  }

(* The pool work function: decode, execute, encode.  One server per
   run, and its heartbeat counters with it: each forked worker inherits
   its own copy, so every worker reports its own totals. *)
let server () =
  let counters = (ref 0, ref 0, ref 0) in
  fun ~heartbeat ~seq:_ ~attempt (body : string) ->
    match Engine.Shard.decode body with
    | Error msg -> failwith ("coordinator: undecodable lease: " ^ msg)
    | Ok (l : lease) ->
      (* test hook: die mid-lease, first attempt only, workers only —
         the requeue/recovery path without hand-rolled process murder *)
      if
        Engine.Shard.in_worker () && attempt = 0
        && Sys.getenv_opt "METAMUT_SHARD_KILL" = Some (unit_name l.l_unit)
      then Unix._exit 42;
      Engine.Shard.encode (exec_lease ~heartbeat ~counters l)

(* ------------------------------------------------------------------ *)
(* The coordinator                                                     *)
(* ------------------------------------------------------------------ *)

type quarantined_unit = {
  qu_unit : unit_id;
  qu_reason : string;
  qu_attempts : int;
  qu_fingerprint : string;
}

type t = {
  config : Campaign.config;
  shards : int;
  opt_levels : int list;
  results : (unit_id * Fuzz_result.t) list;
  failures : (unit_id * string) list;
  quarantined : quarantined_unit list;
  resumed_units : int;
  shard_stats : Engine.Shard.stats;
}

let run ?(cfg = Campaign.default_config) ?fuzzers ?compilers
    ?(opt_levels = []) ?engine ?faults ?checkpoint ?(resume = false)
    ?(shards = 1) ?backend:(_ : Engine.Shard.backend option) ?limits ?status
    ?progress ?serve ?flight_dir () : t =
  let us = units ?fuzzers ?compilers ~opt_levels () in
  Option.iter Engine.Checkpoint.mkdir_p checkpoint;
  let fingerprint u = unit_fingerprint cfg ?faults u in
  let restored, todo =
    match checkpoint with
    | Some dir when resume ->
      List.partition_map
        (fun u ->
          match
            Result.bind
              (Engine.Checkpoint.load ~path:(unit_journal_file dir u)
                 ~fingerprint:(fingerprint u))
              Engine.Shard.decode
          with
          | Ok (wr : worker_result) -> Either.Left (u, wr)
          | Error _ -> Either.Right u)
        us
    | _ -> ([], us)
  in
  (* resume accounting is telemetry, not report body: the counter is
     intervention-only, so an uninterrupted run never writes it *)
  Option.iter
    (fun (main : Engine.Ctx.t) ->
      List.iter (fun _ -> Engine.Ctx.incr main "mucfuzz.resumed") restored)
    engine;
  let todo_arr = Array.of_list todo in
  let main_trace =
    Option.bind engine (fun (e : Engine.Ctx.t) -> e.Engine.Ctx.trace)
  in
  let main_probe =
    Option.bind engine (fun (e : Engine.Ctx.t) -> e.Engine.Ctx.probe)
  in
  let main_log =
    Option.bind engine (fun (e : Engine.Ctx.t) -> e.Engine.Ctx.log)
  in
  let leases =
    Array.map
      (fun u ->
        Engine.Shard.encode
          {
            l_cfg = cfg;
            l_unit = u;
            l_faults = faults;
            l_checkpoint = checkpoint;
            l_resume = resume;
            l_trace = Option.is_some main_trace;
            l_probe = Option.is_some main_probe;
            l_log = Option.map Engine.Log.level main_log;
          })
      todo_arr
  in
  (* Live aggregation: latest worker-cumulative numbers per shard,
     folded into the one status line.  Execs and crashes sum; covered
     shows the max (cells have independent maps, a sum would read as a
     coverage number no single run ever reaches). *)
  let live : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  let on_heartbeat ~shard ~execs ~covered ~crashes =
    Hashtbl.replace live shard (execs, covered, crashes);
    Option.iter
      (fun st ->
        let e, c, k =
          Engine.Status.fold_heartbeats
            (Hashtbl.fold (fun _ beat acc -> beat :: acc) live [])
        in
        Engine.Status.update st ~execs:e ~covered:c ~crashes:k ())
      status;
    Option.iter
      (fun s -> Engine.Serve.note_shard s ~shard ~execs ~covered ~crashes)
      serve
  in
  let total = List.length us in
  let completed = ref (List.length restored) in
  let on_result ~seq =
    incr completed;
    Option.iter
      (fun f -> f ~completed:!completed ~total (unit_name todo_arr.(seq)))
      progress
  in
  let journal =
    Option.map
      (fun dir ->
        fun ~seq body ->
         (* scope the save's log records by the unit so their render
            position doesn't depend on completion order *)
         let scoped f =
           match main_log with
           | None -> f ()
           | Some lg ->
             Engine.Log.set_scope lg (unit_name todo_arr.(seq));
             Fun.protect ~finally:(fun () -> Engine.Log.set_scope lg "") f
         in
         scoped (fun () ->
             ignore
               (Engine.Checkpoint.save ?faults ?ctx:engine
                  ~path:(unit_journal_file dir todo_arr.(seq))
                  ~fingerprint:(fingerprint todo_arr.(seq))
                  body)))
      checkpoint
  in
  (* Supervision events: one structured record each (into the log, in
     the unit's scope so render order is completion-order-free) and one
     entry on the per-lease flight trail.  A quarantine verdict dumps
     the trail to flight-<unit>.json — the postmortem a chaos run needs
     without rerunning under tracing. *)
  let trails : (int, Engine.Log.record list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let trail seq =
    match Hashtbl.find_opt trails seq with
    | Some t -> t
    | None ->
      let t = ref [] in
      Hashtbl.add trails seq t;
      t
  in
  let event_record seq (ev : Engine.Shard.pool_event) : Engine.Log.record =
    let scope = unit_name todo_arr.(seq) in
    let mk level event fields =
      {
        Engine.Log.lr_level = level;
        lr_event = event;
        lr_scope = scope;
        lr_phase = 1;
        lr_fields = fields;
      }
    in
    match ev with
    | Engine.Shard.Lease_infra { category; attempt; requeued } ->
      mk Engine.Log.Warn "lease.infra"
        [
          ("category", category);
          ("attempt", string_of_int attempt);
          ("requeued", string_of_bool requeued);
        ]
    | Engine.Shard.Lease_retry { attempt; msg } ->
      mk Engine.Log.Warn "lease.retry"
        [ ("attempt", string_of_int attempt); ("error", msg) ]
    | Engine.Shard.Lease_verdict (Engine.Shard.Done _) ->
      mk Engine.Log.Info "lease.verdict" [ ("verdict", "done") ]
    | Engine.Shard.Lease_verdict (Engine.Shard.Failed msg) ->
      mk Engine.Log.Error "lease.verdict"
        [ ("verdict", "failed"); ("error", msg) ]
    | Engine.Shard.Lease_verdict
        (Engine.Shard.Quarantined { q_reason; q_attempts }) ->
      mk Engine.Log.Error "lease.verdict"
        [
          ("verdict", "quarantined");
          ("reason", q_reason);
          ("attempts", string_of_int q_attempts);
        ]
  in
  let dump_flight seq ~reason ~attempts =
    Option.iter
      (fun dir ->
        let u = todo_arr.(seq) in
        let records = List.rev !(trail seq) in
        let lines =
          List.mapi
            (fun i r -> "  " ^ Engine.Log.record_to_json ~seq:i r)
            records
        in
        let esc = Engine.Trace.json_escape in
        let body =
          Fmt.str
            "{\"unit\": \"%s\", \"reason\": \"%s\", \"attempts\": %d,\n \
             \"events\": [\n%s\n]}\n"
            (esc (unit_name u)) (esc reason) attempts
            (String.concat ",\n" lines)
        in
        Engine.Checkpoint.mkdir_p dir;
        Engine.Telemetry.write_file
          (Filename.concat dir ("flight-" ^ unit_name u ^ ".json"))
          body)
      flight_dir
  in
  let on_event ~seq (ev : Engine.Shard.pool_event) =
    let r = event_record seq ev in
    let t = trail seq in
    t := r :: !t;
    Option.iter
      (fun lg ->
        Engine.Log.record lg ~scope:r.Engine.Log.lr_scope ~phase:1
          ~level:r.Engine.Log.lr_level ~event:r.Engine.Log.lr_event
          r.Engine.Log.lr_fields)
      main_log;
    match ev with
    | Engine.Shard.Lease_verdict
        (Engine.Shard.Quarantined { q_reason; q_attempts }) ->
      Option.iter
        (fun s ->
          Engine.Serve.note_quarantine s
            ~unit_name:(unit_name todo_arr.(seq))
            ~reason:q_reason)
        serve;
      dump_flight seq ~reason:q_reason ~attempts:q_attempts
    | _ -> ()
  in
  let on_tick () = Option.iter Engine.Serve.poll serve in
  let raw, stats =
    Engine.Shard.run_pool ~shards ?limits ?faults ?ctx:engine
      ~on_heartbeat ~on_result ~on_event ~on_tick ?journal ~f:(server ())
      leases
  in
  let decoded =
    Array.map
      (function
        | Engine.Shard.Done body -> (
          match Engine.Shard.decode body with
          | Ok (wr : worker_result) -> `Ok wr
          | Error msg -> `Failed ("undecodable worker result: " ^ msg))
        | Engine.Shard.Failed msg -> `Failed msg
        | Engine.Shard.Quarantined { q_reason; q_attempts } ->
          `Quarantined (q_reason, q_attempts))
      raw
  in
  let computed =
    Array.to_list (Array.mapi (fun i r -> (todo_arr.(i), r)) decoded)
  in
  (* join barrier: merge worker registries and traces into the main
     context in canonical unit order.  Journal-restored units carry
     their original telemetry, so a resumed run's merge matches the
     uninterrupted one. *)
  let wr_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (u, wr) -> Hashtbl.replace tbl u wr) restored;
    List.iter
      (fun (u, r) ->
        match r with `Ok wr -> Hashtbl.replace tbl u wr | _ -> ())
      computed;
    Hashtbl.find_opt tbl
  in
  (match engine with
  | None -> ()
  | Some main ->
    List.iter
      (fun u ->
        match wr_of u with
        | Some wr ->
          Engine.Metrics.merge ~into:main.Engine.Ctx.metrics wr.wr_metrics;
          (match (main_trace, wr.wr_trace) with
          | Some into, Some src ->
            let tid = unit_tag u in
            Engine.Trace.label_tid into ~tid ~label:(unit_name u);
            Engine.Trace.merge ~into ~tid src
          | _ -> ());
          (match main_log with
          | Some lg when wr.wr_log <> [] ->
            (* replay the worker's log body under the unit's scope: the
               renderer groups by scope in canonical unit order, so the
               rendered log matches the sequential run byte for byte *)
            List.iter
              (fun (r : Engine.Log.record) ->
                Engine.Log.record lg ~scope:(unit_name u)
                  ~phase:r.Engine.Log.lr_phase ~level:r.Engine.Log.lr_level
                  ~event:r.Engine.Log.lr_event r.Engine.Log.lr_fields)
              wr.wr_log
          | _ -> ())
        | None -> ())
      us);
  {
    config = cfg;
    shards;
    opt_levels;
    (* canonical order, independent of restore/completion interleaving *)
    results =
      List.filter_map
        (fun u -> Option.map (fun wr -> (u, wr.wr_result)) (wr_of u))
        us;
    failures =
      List.filter_map
        (fun (u, r) ->
          match r with `Failed msg -> Some (u, msg) | _ -> None)
        computed;
    quarantined =
      List.filter_map
        (fun (u, r) ->
          match r with
          | `Quarantined (reason, att) ->
            Some
              {
                qu_unit = u;
                qu_reason = reason;
                qu_attempts = att;
                qu_fingerprint = fingerprint u;
              }
          | _ -> None)
        computed;
    resumed_units = List.length restored;
    shard_stats = stats;
  }

(* ------------------------------------------------------------------ *)
(* Aggregated views                                                    *)
(* ------------------------------------------------------------------ *)

let to_campaign (t : t) : Campaign.t =
  {
    Campaign.config = t.config;
    results =
      List.map (fun (u, r) -> ((u.u_fuzzer, u.u_compiler), r)) t.results;
    failures =
      List.map (fun (u, msg) -> ((u.u_fuzzer, u.u_compiler), msg)) t.failures;
  }

let aggregate_coverage (t : t) : Simcomp.Coverage.t =
  let cov = Simcomp.Coverage.create () in
  List.iter
    (fun (_, (r : Fuzz_result.t)) ->
      ignore (Simcomp.Coverage.merge ~into:cov r.Fuzz_result.coverage))
    t.results;
  cov

let all_crashes (t : t) : string list =
  let set = Hashtbl.create 64 in
  List.iter
    (fun (u, r) ->
      List.iter
        (fun k ->
          Hashtbl.replace set
            (Simcomp.Bugdb.compiler_to_string u.u_compiler ^ ":" ^ k)
            ())
        (Fuzz_result.crash_keys r))
    t.results;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set [])

(* (unit, reason, attempts, fingerprint) rows for the report's
   quarantine table, in canonical unit order. *)
let quarantine_rows (t : t) =
  List.map
    (fun q -> (unit_name q.qu_unit, q.qu_reason, q.qu_attempts, q.qu_fingerprint))
    t.quarantined

let report ?engine ?attribution (t : t) : string =
  if t.opt_levels = [] then
    Run_report.campaign ?engine ?attribution ~quarantined:(quarantine_rows t)
      (to_campaign t)
  else begin
    let failures =
      match t.failures with
      | [] -> ""
      | fs ->
        "\n\n**Failed units:**\n\n"
        ^ Report.Markdown.bullet
            (List.map (fun (u, msg) -> unit_name u ^ ": " ^ msg) fs)
    in
    (* the shard count and the restored-unit count are deliberately
       absent: the report is part of the shards:1 ≡ shards:K and
       crash-resume byte-identity contracts; resume accounting lives in
       the engine-gated recovery section *)
    let preamble =
      Fmt.str
        "%d units across -O{%s} (%d failed); iterations=%d seeds=%d.%s"
        (List.length t.results + List.length t.failures)
        (String.concat "," (List.map string_of_int t.opt_levels))
        (List.length t.failures)
        t.config.Campaign.iterations t.config.Campaign.seeds failures
    in
    Run_report.render ~title:"Campaign report (opt matrix)" ~preamble ?engine
      ?attribution ~quarantined:(quarantine_rows t)
      (List.map (fun (u, r) -> (unit_name u, r)) t.results)
  end
