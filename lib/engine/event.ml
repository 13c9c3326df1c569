(* Structured events and the bus that fans them out to pluggable sinks.

   Events are typed (no string parsing on the hot path); sinks decide
   what to retain: nothing (null), a line per event (text), or whatever
   a listener of its own folds them into. *)

type stage = Frontend | Lower | Opt | Backend

let stage_to_string = function
  | Frontend -> "frontend"
  | Lower -> "lower"
  | Opt -> "opt"
  | Backend -> "backend"

type outcome_kind = Compiled_ok | Compile_failed | Crashed

let outcome_kind_to_string = function
  | Compiled_ok -> "compiled"
  | Compile_failed -> "compile-error"
  | Crashed -> "crash"

type t =
  | Mutant_attempted of { mutator : string }
  | Compile_finished of outcome_kind * stage
      (* stage = last pipeline stage reached *)
  | Coverage_gained of { iteration : int; fresh : int }
  | Coverage_sampled of { iteration : int; covered : int }
  | Crash_found of { key : string; stage : stage; iteration : int }
  | Pipeline_goal of int * bool  (* validation goal, fix succeeded *)
  | Custom of string

let to_string = function
  | Mutant_attempted { mutator } -> Fmt.str "mutant-attempted %s" mutator
  | Compile_finished (k, s) ->
    Fmt.str "compile-finished %s @@%s" (outcome_kind_to_string k)
      (stage_to_string s)
  | Coverage_gained { iteration; fresh } ->
    Fmt.str "coverage-gained +%d @@%d" fresh iteration
  | Coverage_sampled { iteration; covered } ->
    Fmt.str "coverage-sampled %d @@%d" covered iteration
  | Crash_found { key; stage; iteration } ->
    Fmt.str "crash-found %s @@%s @@%d" key (stage_to_string stage) iteration
  | Pipeline_goal (goal, fixed) ->
    Fmt.str "pipeline-goal #%d %s" goal (if fixed then "fixed" else "unfixed")
  | Custom s -> Fmt.str "custom %s" s

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = { sink_name : string; emit : t -> unit }

let null_sink = { sink_name = "null"; emit = (fun _ -> ()) }

let text_sink ~out = { sink_name = "text"; emit = (fun e -> out (to_string e)) }

(* ------------------------------------------------------------------ *)
(* Bus                                                                 *)
(* ------------------------------------------------------------------ *)

type bus = { mutable sinks : sink list }

let bus () = { sinks = [] }
let add_sink (b : bus) s = b.sinks <- b.sinks @ [ s ]

(* Removal is by physical identity: scoped listeners (e.g. μCFuzz's
   trend sink) detach exactly themselves at tear-down. *)
let remove_sink (b : bus) (s : sink) =
  b.sinks <- List.filter (fun s' -> s' != s) b.sinks

let emit (b : bus) e =
  match b.sinks with
  | [] -> ()
  | sinks -> List.iter (fun s -> s.emit e) sinks
