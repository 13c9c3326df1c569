(** Branch-coverage instrumentation for the simulated compilers.

    Each decision point in the pipeline reports a (site, context) pair —
    context captures what the real compiler's branch would depend on
    (node kind, type class, pass decision) — so coverage grows with
    program diversity the way instrumented GCC/Clang coverage does.

    The representation is an AFL-style edge map: a fixed byte array of
    [map_size] saturating 8-bit hit counters plus an exact total-hits
    count, and next to it the vector of cells the map has touched.
    {!hit} is allocation-free (no boxing, no hashing of boxed tuples)
    and appends a cell to the vector on its 0 → 1 transition;
    {!covered} is O(1).  {!merge}, {!merge_consume}, {!reset},
    {!iter_nonzero}, {!branch_ids}, {!has_new_coverage} and {!equal}
    walk the touched vector, so they cost what a compile touched (a few
    hundred cells), not the map.

    A map is either live (dense bytes plus touched vector) or at rest
    ({!at_rest}: sorted (index, count) pairs only, a few KiB instead of
    1 MiB).  Maps that cross a process or disk boundary travel at rest;
    the first {!hit} or {!merge} [~into] a map at rest rebuilds its dense
    bytes, and every read works on either form. *)

type t
(** A mutable coverage map. *)

val map_bits : int
val map_size : int
(** The id space is [\[0, map_size)] ([1 lsl map_bits]). *)

val create : unit -> t
(** A zeroed live map.  Allocates [map_size] bytes and the touched
    vector: fuzz loops create one scratch map per run and cycle it
    through {!merge_consume}, which leaves it zeroed for the next
    compile. *)

val hit : t -> int -> unit
(** Record one execution of branch [id mod map_size].  Performs no heap
    allocation on a live map ([test/test_simcomp.ml] and the benchmark's
    [coverage_hit_minor_words] pin this): when the touched vector is
    full, [hit] only counts, and the next walk rebuilds a larger vector.
    The first [hit] into a map at rest rebuilds its dense bytes. *)

val branch : t -> site:int -> ?a:int -> ?b:int -> unit -> unit
(** Report a branch at [site] with contextual values [a], [b]; the id is
    an inlined integer mix of the triple (no tuple is built).  Each
    supplied optional argument boxes a [Some] at the call site (no
    flambda): fine for one-off sites, not for per-node loops. *)

val branch3 : t -> int -> int -> int -> unit
(** [branch3 cov site a b] = [branch cov ~site ~a ~b ()] without the
    optional-argument boxing — the allocation-free spelling for
    instrumentation that fires per token/node/instruction. *)

val covered : t -> int
(** Number of distinct branches covered.  O(1). *)

val total_hits : t -> int

val branch_ids : t -> int list
(** Covered ids in increasing order. *)

val merge : into:t -> t -> int
(** [merge ~into src] accumulates [src] (saturating per-cell) over
    [src]'s touched cells and returns the number of branches new to
    [into].  [merge ... > 0] is exactly {!has_new_coverage} computed in
    the same walk — fuzz loops use this single call for both the accept
    decision and the accumulation. *)

val merge_consume : into:t -> t -> int
(** {!merge} followed by {!reset}: accumulates the second map into
    [into], zeroes the second map's touched cells, and returns the
    fresh-branch count.  One call per compile: the scratch map comes
    back zeroed, ready for the next compile. *)

val iter_nonzero : t -> (int -> unit) -> unit
(** Apply the callback to every covered cell index, in increasing
    order.  For accept-time bookkeeping (corpus scheduling) that must
    run before the map is consumed. *)

val reset : t -> unit
(** Zero the map in place by clearing only the cells it touched (no
    memset). *)

val drain : t -> unit
(** Same as {!reset}. *)

val has_new_coverage : seen:t -> t -> bool
(** Does the second map cover a branch absent from [seen]?  Read-only
    variant of the {!merge} fresh test, for callers that must not
    accumulate. *)

val copy : t -> t

val at_rest : t -> t
(** A copy of the map at rest: its sorted (index, count) pairs and hit
    total, without the dense bytes.  Marshal this form, not a live
    map.  The argument is unchanged. *)

val equal : t -> t -> bool
(** Same cells, same per-cell counts, same hit total, whichever form
    and touch order each map has: the checkpoint/resume identity
    check. *)
