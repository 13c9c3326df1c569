(** Shared result type for all fuzzers in the RQ1/RQ2 experiments. *)

type crash_record = {
  cr_crash : Simcomp.Crash.t;
  cr_first_iteration : int;  (** earliest discovery (Fig. 9) *)
  cr_input : string;         (** the triggering source *)
}

type t = {
  fuzzer_name : string;
  compiler : Simcomp.Compiler.compiler;
  iterations : int;
  total_mutants : int;
  compilable_mutants : int;
  coverage : Simcomp.Coverage.t;      (** cumulative over the run *)
  coverage_trend : (int * int) list;  (** (iteration, covered branches) *)
  crashes : (string, crash_record) Hashtbl.t;
      (** keyed by top-2-frame identity *)
}

val make : fuzzer_name:string -> compiler:Simcomp.Compiler.compiler -> t

val unique_crashes : t -> int

val crash_keys : t -> string list

val record_crash : t -> iteration:int -> input:string -> Simcomp.Crash.t -> unit
(** Deduplicates on the crash key, keeping the first discovery. *)

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
