(* μCFuzz: the paper's micro coverage-guided fuzzer (Algorithm 1).

   Given seed programs S, mutators M and a compiler C, each iteration
   picks a random pool program P, shuffles M, and applies mutators until
   one produces a mutant P' covering a branch not covered by the pool;
   P' then joins the pool.  No havoc, no forking, no pool culling.

   Every run owns an Engine.Ctx: attempts/accepts/rejects are counted
   per mutator, and compile outcomes, coverage gains, crashes and trend
   samples become events.  Mutant accounting, crash recording and the
   coverage trend go through Fuzz_result, like every other fuzz loop. *)

open Cparse

type config = {
  mutators : Mutators.Mutator.t list;
  fragility : bool;       (* apply the text-rewriting fragility model *)
  coverage_guided : bool; (* ablation: accept every mutant when false *)
  max_attempts_per_iteration : int; (* |M| in the paper *)
  sample_every : int;     (* coverage-trend sampling period *)
  schedule : bool;        (* AFL-style favored-entry corpus scheduling *)
  pool_max : int;         (* trim target when [schedule] is on *)
}

let default_config ?(mutators = Mutators.Registry.core) () =
  {
    mutators;
    fragility = true;
    coverage_guided = true;
    max_attempts_per_iteration = List.length mutators;
    sample_every = 25;
    (* off by default: the paper's Algorithm 1 has no culling, and the
       default RNG stream must stay byte-identical to pre-scheduling
       builds *)
    schedule = false;
    pool_max = 4096;
  }

type pool_entry = {
  src : string;
  tu : Ast.tu;
  pe_len : int;          (* String.length src: the scheduling rank *)
  mutable pe_tops : int; (* edges this entry currently claims (favored iff > 0) *)
}

let make_entry src tu = { src; tu; pe_len = String.length src; pe_tops = 0 }

(* Pre-resolved per-mutator instruments: one Hashtbl lookup at set-up,
   O(1) bumps on the hot path. *)
type mutator_counters = {
  mc_attempt : Engine.Metrics.counter;
  mc_inapplicable : Engine.Metrics.counter;
  mc_accept : Engine.Metrics.counter;
  mc_reject : Engine.Metrics.counter;
  mc_fresh : Engine.Metrics.counter;
      (* fresh edges attributed to this mutator's mutants: the numerator
         of the per-mutator yield table *)
}

type state = {
  cfg : config;
  rng : Rng.t;
  compiler : Simcomp.Compiler.compiler;
  options : Simcomp.Compiler.options;
  engine : Engine.Ctx.t;
  per_mutator : (string, mutator_counters) Hashtbl.t;
  (* pool/cache/faults are replaced wholesale on checkpoint resume *)
  mutable pool : pool_entry Engine.Vec.t; (* amortized-O(1) accepts *)
  scratch : Simcomp.Coverage.t; (* per-mutant map, consumed not realloc'd *)
  mutable cache : Simcomp.Compiler.cache; (* byte-identical mutant dedup *)
  mutable faults : Engine.Faults.t option;
  sched_top : Bytes.t;
  (* per-coverage-cell claimant: little-endian u16 pool index per cell,
     0xFFFF = unclaimed.  Allocated (2 MiB) only when [cfg.schedule] is
     on; empty otherwise. *)
  sched_scratch : int Engine.Vec.t; (* favored-index scan buffer *)
  mutable result : Fuzz_result.t;
}

(* ------------------------------------------------------------------ *)
(* AFL-style corpus scheduling (opt-in via [cfg.schedule]).            *)
(*                                                                     *)
(* Each covered edge is "claimed" by the smallest pool entry whose     *)
(* compile touched it (AFL's top_rated[] with source length as the     *)
(* rank).  Entries holding at least one claim are *favored*; the       *)
(* picker prefers favored entries 4:1, and when the pool outgrows      *)
(* [pool_max] the non-favored tail is trimmed oldest-first.  All of it *)
(* is deterministic: claims update in cell order, trims keep relative  *)
(* order, and the extra RNG draws only happen when [schedule] is on    *)
(* (the default stream is byte-identical to pre-scheduling builds).    *)
(* ------------------------------------------------------------------ *)

let sched_none = 0xFFFF

(* Record the freshly accepted entry at [idx] as claimant of every edge
   its compile covered and the incumbent doesn't beat: an unclaimed
   edge, or an incumbent with a strictly larger source (ties keep the
   incumbent, so re-running claims is idempotent). *)
let sched_claim (st : state) idx (e : pool_entry) cov =
  Simcomp.Coverage.iter_nonzero cov (fun cell ->
      let off = cell * 2 in
      let cur = Bytes.get_uint16_le st.sched_top off in
      let better =
        cur = sched_none
        || e.pe_len < (Engine.Vec.get st.pool cur).pe_len
      in
      if better then begin
        if cur <> sched_none then begin
          let inc = Engine.Vec.get st.pool cur in
          inc.pe_tops <- inc.pe_tops - 1
        end;
        Bytes.set_uint16_le st.sched_top off idx;
        e.pe_tops <- e.pe_tops + 1
      end)

(* Drop non-favored entries, oldest first, until the pool is back to
   [pool_max] (favored entries are never dropped, even past the limit).
   Claim indices are remapped in the same pass; dropped entries hold no
   claims by construction, so every stored index survives the remap.
   Every claimed cell was merged into the run's coverage before it was
   claimed, so the remap walks that map's covered cells, not the whole
   claim table. *)
let sched_trim (st : state) =
  let n = Engine.Vec.length st.pool in
  let keep = Array.make n false in
  let n_fav = ref 0 in
  for i = 0 to n - 1 do
    if (Engine.Vec.get st.pool i).pe_tops > 0 then begin
      keep.(i) <- true;
      incr n_fav
    end
  done;
  let budget = ref (st.cfg.pool_max - !n_fav) in
  for i = n - 1 downto 0 do
    if (not keep.(i)) && !budget > 0 then begin
      keep.(i) <- true;
      decr budget
    end
  done;
  let remap = Array.make n sched_none in
  let pool' = Engine.Vec.create () in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      remap.(i) <- Engine.Vec.length pool';
      Engine.Vec.push pool' (Engine.Vec.get st.pool i)
    end
  done;
  st.pool <- pool';
  Simcomp.Coverage.iter_nonzero st.result.Fuzz_result.coverage (fun cell ->
      let off = cell * 2 in
      let cur = Bytes.get_uint16_le st.sched_top off in
      if cur <> sched_none then Bytes.set_uint16_le st.sched_top off remap.(cur))

(* Called after an accepted push: claim, then trim once the pool is 25%
   past the limit (the slack amortizes the remap over many accepts
   instead of paying it on every one). *)
let sched_accept (st : state) cov =
  let idx = Engine.Vec.length st.pool - 1 in
  sched_claim st idx (Engine.Vec.get st.pool idx) cov;
  if st.cfg.pool_max > 0
     && Engine.Vec.length st.pool > st.cfg.pool_max + (st.cfg.pool_max / 4)
  then sched_trim st

(* Pool pick: uniform by default; with scheduling on, an 0.8-biased
   coin picks uniformly among favored entries when there are any. *)
let pick_entry (st : state) =
  let n = Engine.Vec.length st.pool in
  if not st.cfg.schedule then Engine.Vec.get st.pool (Rng.int st.rng n)
  else begin
    Engine.Vec.clear st.sched_scratch;
    for i = 0 to n - 1 do
      if (Engine.Vec.get st.pool i).pe_tops > 0 then
        Engine.Vec.push st.sched_scratch i
    done;
    let nf = Engine.Vec.length st.sched_scratch in
    if nf > 0 && Rng.flip st.rng 0.8 then
      Engine.Vec.get st.pool
        (Engine.Vec.get st.sched_scratch (Rng.int st.rng nf))
    else Engine.Vec.get st.pool (Rng.int st.rng n)
  end

(* Every compile goes through the dedup cache into the scratch map.  The
   loop reads only the outcome and the coverage, so the back-end stops
   before emission.  [tree], when the source is its unslipped printing,
   lets the front-end skip the parser. *)
let compile ?tree (st : state) src =
  Simcomp.Compiler.compile_cached ~cache:st.cache ~cov:st.scratch
    ~engine:st.engine ?faults:st.faults ~emit:false ?tree st.compiler
    st.options src

let mutator_counters (st : state) (m : Mutators.Mutator.t) =
  let name = m.Mutators.Mutator.name in
  match Hashtbl.find_opt st.per_mutator name with
  | Some c -> c
  | None ->
    let reg = st.engine.Engine.Ctx.metrics in
    let c =
      {
        mc_attempt = Engine.Metrics.counter reg ("mucfuzz.attempt." ^ name);
        mc_inapplicable =
          Engine.Metrics.counter reg ("mucfuzz.inapplicable." ^ name);
        mc_accept = Engine.Metrics.counter reg ("mucfuzz.accept." ^ name);
        mc_reject = Engine.Metrics.counter reg ("mucfuzz.reject." ^ name);
        mc_fresh =
          Engine.Metrics.counter reg ("mucfuzz.fresh_edges." ^ name);
      }
    in
    Hashtbl.replace st.per_mutator name c;
    c

let init ?(options = Simcomp.Compiler.default_options) ?engine ?faults ~cfg
    ~rng ~compiler ~(seeds : string list) () : state =
  let pool =
    List.filter_map
      (fun src ->
        match Parser.parse src with
        | Ok tu -> Some (make_entry src tu)
        | Error _ -> None)
      seeds
  in
  let engine =
    match engine with Some e -> e | None -> Engine.Ctx.create ()
  in
  let st =
    {
      cfg;
      rng;
      compiler;
      options;
      engine;
      per_mutator = Hashtbl.create 160;
      pool = Engine.Vec.of_list pool;
      scratch = Simcomp.Coverage.create ();
      cache = Simcomp.Compiler.cache_create ();
      faults;
      sched_top =
        (if cfg.schedule then Bytes.make (Simcomp.Coverage.map_size * 2) '\xFF'
         else Bytes.empty);
      sched_scratch = Engine.Vec.create ();
      result =
        Fuzz_result.make
          ~fuzzer_name:
            (if cfg.mutators == Mutators.Registry.supervised then "uCFuzz.s"
             else "uCFuzz")
          ~compiler;
    }
  in
  (* the pool's baseline coverage comes from compiling the seeds; a seed
     that crashes the compiler is a finding like any other (iteration 0)
     and fresh branches feed the baseline trend sample *)
  for i = 0 to Engine.Vec.length st.pool - 1 do
    let e = Engine.Vec.get st.pool i in
    let cov = st.scratch in
    (match fst (compile st e.src) with
    | Simcomp.Compiler.Compiled _ | Simcomp.Compiler.Compile_error _ -> ()
    | Simcomp.Compiler.Crashed c ->
      Fuzz_result.record_crash ~engine st.result ~iteration:0 ~input:e.src c);
    (* seeds claim their edges before the scratch map is consumed, so
       the scheduler starts from a fully-ranked baseline *)
    if cfg.schedule then sched_claim st i e cov;
    (* consume: merge and re-zero the scratch map in one call, so the
       next compile starts from a pristine map *)
    let fresh =
      Simcomp.Coverage.merge_consume ~into:st.result.Fuzz_result.coverage cov
    in
    if fresh > 0 then
      Engine.Ctx.emit engine
        (Engine.Event.Coverage_gained { iteration = 0; fresh })
  done;
  Fuzz_result.sample ~engine st.result ~iteration:0;
  st

(* One iteration of Algorithm 1. *)
let step (st : state) ~iteration : unit =
  if Engine.Vec.length st.pool = 0 then ()
  else begin
    let entry = pick_entry st in
    (* one semantic context for the whole iteration: every attempt
       mutates the same program, so the typecheck behind [Uast.Ctx] runs
       at most once, on the first attempt that asks for a type, and the
       later attempts share it (apply_ctx rewinds the name supply,
       keeping each attempt identical to a fresh-context apply) *)
    let ctx = Uast.Ctx.create ~rng:st.rng entry.tu in
    let shuffled = Rng.shuffle st.rng st.cfg.mutators in
    let attempts = ref 0 in
    let found = ref false in
    let rec try_mutators = function
      | [] -> ()
      | m :: rest ->
        if !found || !attempts >= st.cfg.max_attempts_per_iteration then ()
        else begin
          incr attempts;
          let mc = mutator_counters st m in
          Engine.Metrics.incr mc.mc_attempt;
          Engine.Ctx.emit st.engine
            (Engine.Event.Mutant_attempted
               { mutator = m.Mutators.Mutator.name });
          (match Mutators.Mutator.apply_ctx m ctx with
          | None -> Engine.Metrics.incr mc.mc_inapplicable
          | Some tu' ->
            let src', slipped =
              if st.cfg.fragility then Fragility.render_slip st.rng m tu'
              else (Simcomp.Scratch.render_tu tu', false)
            in
            let cov = st.scratch in
            (* the scratch map is pristine here: merge_consume below
               re-zeroes it every cycle.  Byte-identical mutants
               (frequent under the fragility model) short-circuit in
               the cache: the memoized outcome comes back and the
               scratch map stays empty, which is equivalent — the first
               compile's coverage was already merged below, so its
               fresh count would be 0 anyway *)
            let outcome, parsed =
              compile ?tree:(if slipped then None else Some tu') st src'
            in
            Fuzz_result.record ~engine:st.engine st.result ~iteration
              ~input:src' outcome;
            (* one pass: the merged fresh count IS the accept signal,
               and consuming re-zeroes the scratch for the next compile.
               The scheduler must read the mutant's own cells *after*
               the accept decision (claim bookkeeping), so it merges
               without consuming and drains below instead. *)
            let fresh =
              if st.cfg.schedule then
                Simcomp.Coverage.merge ~into:st.result.Fuzz_result.coverage
                  cov
              else
                Simcomp.Coverage.merge_consume
                  ~into:st.result.Fuzz_result.coverage cov
            in
            if fresh > 0 then begin
              Engine.Metrics.incr ~by:fresh mc.mc_fresh;
              Engine.Ctx.emit st.engine
                (Engine.Event.Coverage_gained { iteration; fresh })
            end;
            let accepted = ref false in
            if (fresh > 0 || not st.cfg.coverage_guided) && not !found then begin
              (* P' joins the pool only when it compiles: broken mutants
                 still contribute (error-path) coverage but breeding from
                 them would collapse the pool's compilable ratio *)
              match outcome with
              | Simcomp.Compiler.Compiled _ -> (
                (* the compiler already produced this source's parse
                   (by parsing it, or as the parsed form of [tu']); fall
                   back to a fresh parse only on a cache hit *)
                let reparsed =
                  match parsed with
                  | Some tu'' -> Ok tu''
                  | None -> Parser.parse src'
                in
                match reparsed with
                | Ok tu'' ->
                  Engine.Vec.push st.pool (make_entry src' tu'');
                  if st.cfg.schedule then sched_accept st cov;
                  found := true;
                  accepted := true
                | Error _ -> ())
              | Simcomp.Compiler.Compile_error _
              | Simcomp.Compiler.Crashed _ -> ()
            end;
            if st.cfg.schedule then Simcomp.Coverage.drain cov;
            Engine.Metrics.incr
              (if !accepted then mc.mc_accept else mc.mc_reject));
          try_mutators rest
        end
    in
    try_mutators shuffled
  end

(* Everything [step] reads or writes, captured at an iteration boundary.
   The compile cache is included because cache hits skip coverage
   recording: a resumed run with a cold cache would re-accumulate hit
   counts the uninterrupted run deduplicated, diverging in
   [coverage.hits].  The fault harness is included because its per-site
   draw counters are part of the deterministic stream position. *)
type snapshot = {
  sn_iteration : int;
  sn_rng_state : int64;
  sn_pool : pool_entry array;
  (* serialized straight from the pool vector ([Vec.to_array]), not via
     an intermediate list: one array instead of a cons per entry, and
     resume restores it byte-identically with [Vec.of_array] *)
  sn_result : Fuzz_result.t; (* with the trend so far, newest first *)
  sn_cache : Simcomp.Compiler.cache;
  sn_faults : Engine.Faults.t option;
  sn_sched_top : Bytes.t option;
  (* per-edge claim table, present iff the run schedules; entry claim
     counts ride along inside [sn_pool] ([pe_tops] is part of the
     entry), so restoring both reproduces the scheduler's exact state *)
}

let run ?options ?(cfg = default_config ()) ?engine ?faults ?checkpoint
    ?resume ~rng ~compiler ~seeds ~iterations ~name () : Fuzz_result.t =
  let st = init ?options ?engine ?faults ~cfg ~rng ~compiler ~seeds () in
  st.result <- { st.result with fuzzer_name = name };
  let fingerprint =
    Fmt.str "mucfuzz|%s|%s|it=%d|%s|%s" name
      (Simcomp.Bugdb.compiler_to_string compiler)
      iterations
      (match faults with
      | None -> "faults=off"
      | Some f -> "faults=" ^ Engine.Faults.fingerprint f)
      (* the schedule mode changes the RNG stream and the pool shape, so
         a snapshot from one mode must not resume a run in the other *)
      (if cfg.schedule then Fmt.str "sched=on,max=%d" cfg.pool_max
       else "sched=off")
  in
  (* resume replaces the freshly initialised run state wholesale (the
     seed compiles [init] just performed drew from streams the snapshot
     supersedes); a stale or unreadable snapshot falls back to a full
     run from iteration 1 *)
  let start =
    match resume with
    | None -> 1
    | Some path -> (
      match Engine.Checkpoint.load ~path ~fingerprint with
      | Ok (sn : snapshot) ->
        Rng.set_state st.rng sn.sn_rng_state;
        st.pool <- Engine.Vec.of_array sn.sn_pool;
        (* the fingerprint pins the schedule mode: a snapshot carrying a
           claim table only resumes a run that allocated one *)
        (match sn.sn_sched_top with
        | Some b -> Bytes.blit b 0 st.sched_top 0 (Bytes.length b)
        | None -> ());
        st.result <- sn.sn_result;
        st.cache <- sn.sn_cache;
        st.faults <- sn.sn_faults;
        Engine.Ctx.incr st.engine "mucfuzz.resumed";
        sn.sn_iteration + 1
      | Error _ ->
        Engine.Ctx.incr st.engine "mucfuzz.resume_failed";
        1)
  in
  let save_checkpoint i =
    match checkpoint with
    | Some (path, every) when every > 0 && i mod every = 0 ->
      let sn =
        {
          sn_iteration = i;
          sn_rng_state = Rng.state st.rng;
          sn_pool = Engine.Vec.to_array st.pool;
          sn_result = Fuzz_result.at_rest st.result;
          sn_cache = st.cache;
          sn_faults = st.faults;
          sn_sched_top = (if cfg.schedule then Some st.sched_top else None);
        }
      in
      (* best-effort: a failed save (exhausted Io_failure retries) costs
         resume granularity, not campaign correctness *)
      ignore
        (Engine.Checkpoint.save ?faults:st.faults ~ctx:st.engine ~path
           ~fingerprint sn)
    | _ -> ()
  in
  Engine.Span.with_ st.engine ~name:"mucfuzz.run" (fun () ->
      for i = start to iterations do
        step st ~iteration:i;
        if i mod cfg.sample_every = 0 then
          Fuzz_result.sample ~engine:st.engine st.result ~iteration:i;
        save_checkpoint i
      done);
  Fuzz_result.finish ~engine:st.engine st.result ~iterations;
  st.result
