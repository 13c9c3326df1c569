(** Shared result type for all fuzzers in the RQ1/RQ2 experiments, and
    the one observation step every fuzz loop calls: {!record} per
    mutant, {!sample} per trend point, {!finish} once at the end. *)

type crash_record = {
  cr_crash : Simcomp.Crash.t;
  cr_first_iteration : int;  (** earliest discovery (Fig. 9) *)
  cr_input : string;         (** the triggering source *)
}

type t = {
  fuzzer_name : string;
  compiler : Simcomp.Compiler.compiler;
  mutable iterations : int;
  mutable total_mutants : int;
  mutable compilable_mutants : int;
  coverage : Simcomp.Coverage.t;      (** cumulative over the run *)
  mutable coverage_trend : (int * int) list;
      (** (iteration, covered branches): newest first while the run is
          in progress, in iteration order once {!finish} has run *)
  crashes : (string, crash_record) Hashtbl.t;
      (** keyed by top-2-frame identity *)
}

val make : fuzzer_name:string -> compiler:Simcomp.Compiler.compiler -> t

val unique_crashes : t -> int

val crash_keys : t -> string list

val record_crash :
  ?engine:Engine.Ctx.t ->
  t -> iteration:int -> input:string -> Simcomp.Crash.t -> unit
(** Deduplicates on the crash key, keeping the first discovery, and
    emits [Crash_found] on [engine] for every crash, repeats included. *)

val record :
  ?engine:Engine.Ctx.t ->
  t -> iteration:int -> input:string -> Simcomp.Compiler.outcome -> unit
(** Account one compiled mutant: count it, count it as compilable on
    [Compiled], and {!record_crash} it on [Crashed]. *)

val sample : ?engine:Engine.Ctx.t -> t -> iteration:int -> unit
(** Push a trend point (the current covered-branch count) and emit it as
    [Coverage_sampled] on [engine]. *)

val finish : ?engine:Engine.Ctx.t -> t -> iterations:int -> unit
(** End the run: add a final trend point unless the trend already ends
    at [iterations], set [iterations], and put the trend in iteration
    order.  Called once per run. *)

val compilable_ratio : t -> float
(** Percentage of compilable mutants (Table 5). *)

val at_rest : t -> t
(** The result with its coverage map at rest ({!Simcomp.Coverage.at_rest}):
    the form that goes into Result frames, journals and snapshots.  The
    crash table is shared, not copied. *)

val equal : t -> t -> bool
(** Exact equality over every reported field (coverage cell-for-cell,
    crash tables as sorted bindings): the checkpoint/resume and
    jobs-count determinism identity check. *)

val crashes_by_stage : t -> (Simcomp.Crash.stage * int) list
(** Crash histogram per compiler component (Table 4). *)
