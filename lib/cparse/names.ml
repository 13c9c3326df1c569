(* Name-keyed tables, and block-scoped names over one of them. *)

include Hashtbl.Make (String)

module Scoped = struct
  type nonrec 'a t = {
    names : 'a t;
    mutable trail : string list ref list; (* names added per open scope *)
    mutable depth : int;
  }

  let create n = { names = create n; trail = []; depth = 0 }

  let clear t =
    clear t.names;
    t.trail <- [];
    t.depth <- 0

  let depth t = t.depth

  let push t =
    t.trail <- ref [] :: t.trail;
    t.depth <- t.depth + 1

  let pop t =
    match t.trail with
    | added :: rest ->
      List.iter (remove t.names) !added;
      t.trail <- rest;
      t.depth <- t.depth - 1
    | [] -> ()

  (* [add], not [replace]: the shadowed binding must come back on pop. *)
  let add t name v =
    add t.names name v;
    match t.trail with added :: _ -> added := name :: !added | [] -> ()

  let find t name = find t.names name
  let find_opt t name = find_opt t.names name
end
