(** Structured events and the bus that fans them out to pluggable
    sinks.  Events are typed; sinks decide retention (drop, text line,
    or a listener's own fold). *)

type stage = Frontend | Lower | Opt | Backend
(** Compiler pipeline stages as the engine sees them ({!Lower} is IR
    generation). *)

val stage_to_string : stage -> string

type outcome_kind = Compiled_ok | Compile_failed | Crashed

val outcome_kind_to_string : outcome_kind -> string

type t =
  | Mutant_attempted of { mutator : string }
  | Compile_finished of outcome_kind * stage
      (** [stage] is the last pipeline stage reached *)
  | Coverage_gained of { iteration : int; fresh : int }
  | Coverage_sampled of { iteration : int; covered : int }
      (** periodic coverage-trend sample (iteration 0 = seed baseline) *)
  | Crash_found of { key : string; stage : stage; iteration : int }
  | Pipeline_goal of int * bool
      (** MetaMut validation goal hit, and whether the fix succeeded *)
  | Custom of string

val to_string : t -> string

type sink = { sink_name : string; emit : t -> unit }

val null_sink : sink

val text_sink : out:(string -> unit) -> sink
(** Line-oriented sink: one rendered line per event. *)

type bus

val bus : unit -> bus
val add_sink : bus -> sink -> unit

val remove_sink : bus -> sink -> unit
(** Detach by physical identity (scoped listeners remove themselves). *)

val emit : bus -> t -> unit
(** Fan an event out to every sink; O(1) when no sink is attached. *)
