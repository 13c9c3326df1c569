(* Unique node-id management.

   Parsing and program generation produce nodes with [Ast.no_id]; mutators
   create fresh nodes the same way.  [renumber] walks a translation unit and
   assigns every expression, statement, and function a fresh sequential id,
   restoring the invariant that ids are unique within the unit. *)

open Ast

(* canonicalise negated literals (the parser folds them, so keeping
   them folded makes print/parse round trips stable) *)
let fold_neg (e : expr) : expr =
  match e.ek with
  | Unop (Neg, { ek = Int_lit (v, k, u); _ }) ->
    { e with ek = Int_lit (Int64.neg v, k, u) }
  | Unop (Neg, { ek = Float_lit (v, d); _ }) ->
    { e with ek = Float_lit (-.v, d) }
  | _ -> e

let canonicalize (tu : tu) : tu = Visit.map_tu tu ~fe:fold_neg

let renumber (tu : tu) : tu =
  let next = ref 0 in
  let fresh () = incr next; !next in
  let fe e = { (fold_neg e) with eid = fresh () } in
  let fs s = { s with sid = fresh () } in
  let globals =
    List.map
      (function
        | Gfun fd ->
          Gfun { (Visit.map_fundef ~fe ~fs fd) with f_id = fresh () }
        | Gvar v -> Gvar (Visit.map_var_decl fe v)
        | (Gtypedef _ | Gstruct _ | Gunion _ | Genum _ | Gproto _) as g -> g)
      tu.globals
  in
  { globals }

let max_id (tu : tu) : int =
  let m = ref 0 in
  Visit.iter_tu tu
    ~fe:(fun e -> if e.eid > !m then m := e.eid)
    ~fs:(fun s -> if s.sid > !m then m := s.sid);
  List.iter
    (function Gfun fd -> if fd.f_id > !m then m := fd.f_id | _ -> ())
    tu.globals;
  !m

(* Ids below this are marked in [well_formed_max]'s bitmap (2 MiB at
   most); the rest, and negative ids other than [no_id], in a table. *)
let bitmap_limit = 1 lsl 24

type seen = {
  mutable bits : Bytes.t;  (* bit [id] set once [id] was seen *)
  mutable table : (int, unit) Hashtbl.t option;
  mutable max : int;
}

exception Ill_formed

let mark st id =
  if id = no_id then raise Ill_formed;
  if id >= 0 && id < bitmap_limit then begin
    let byte = id lsr 3 in
    let len = Bytes.length st.bits in
    if byte >= len then begin
      let len' = ref (2 * len) in
      while byte >= !len' do len' := 2 * !len' done;
      let bits = Bytes.make !len' '\000' in
      Bytes.blit st.bits 0 bits 0 len;
      st.bits <- bits
    end;
    let b = Char.code (Bytes.unsafe_get st.bits byte) in
    let m = 1 lsl (id land 7) in
    if b land m <> 0 then raise Ill_formed;
    Bytes.unsafe_set st.bits byte (Char.unsafe_chr (b lor m))
  end
  else begin
    let t =
      match st.table with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 16 in
        st.table <- Some t;
        t
    in
    if Hashtbl.mem t id then raise Ill_formed;
    Hashtbl.add t id ()
  end;
  if id > st.max then st.max <- id

(* One walk for both the uniqueness invariant (expressions and
   statements; function ids are not checked) and [max_id]. *)
let well_formed_max (tu : tu) : int option =
  let st = { bits = Bytes.make 256 '\000'; table = None; max = 0 } in
  match
    Visit.iter_tu tu ~fe:(fun e -> mark st e.eid) ~fs:(fun s -> mark st s.sid)
  with
  | exception Ill_formed -> None
  | () ->
    List.iter
      (function Gfun fd -> if fd.f_id > st.max then st.max <- fd.f_id | _ -> ())
      tu.globals;
    Some st.max

(* Check the uniqueness invariant; used by tests and the validation loop. *)
let well_formed (tu : tu) : bool = Option.is_some (well_formed_max tu)
