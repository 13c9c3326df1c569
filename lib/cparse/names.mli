(** Name-keyed tables.

    [Hashtbl.Make] over [String]: names are hashed and compared without
    the polymorphic [compare_val] the generic [Hashtbl] calls on every
    probe (same hash, so the same buckets). *)

include Hashtbl.S with type key = string

(** Block scoping as one table plus an undo trail, not a table per
    scope: {!add} stacks a shadowing binding over the outer one, {!find}
    returns the innermost, and {!pop} removes exactly the names added
    since the matching {!push}.  Deeply nested blocks, which mutants grow
    without bound, cost one string hash per lookup instead of one per
    enclosing scope.  The type checker and lowering both resolve names
    through it. *)
module Scoped : sig
  type 'a t

  val create : int -> 'a t
  (** No bindings and no open scope. *)

  val clear : 'a t -> unit
  (** Drop every binding and every open scope. *)

  val depth : 'a t -> int
  (** Open scopes: 0 until the first {!push}. *)

  val push : 'a t -> unit
  val pop : 'a t -> unit
  (** Leave the innermost scope, unbinding what it added; a no-op when
      none is open. *)

  val add : 'a t -> string -> 'a -> unit
  (** Bind a name in the innermost scope, shadowing any outer binding.
      With no scope open the binding lasts until {!clear}. *)

  val find : 'a t -> string -> 'a
  (** @raise Not_found when the name is unbound. *)

  val find_opt : 'a t -> string -> 'a option
end
