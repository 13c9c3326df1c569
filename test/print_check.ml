(* The printer against its reference and against the lexer: the text of
   every render is byte-identical to [Ref_pretty]'s, and wherever
   [Pretty.parsed_form] vouches for the tree, the render's token stream
   is [Lexer.tokenize]'s of that text, kind for kind and offset for
   offset.  Shared by the cparse and fuzzing tests. *)

open Cparse

let sink = lazy (Pretty.sink ())

(* Check [tu]; true when its stream was compared with the lexer's. *)
let check what tu =
  let want = Ref_pretty.tu_to_string tu in
  let text, tokens = Pretty.render (Lazy.force sink) tu in
  if not (String.equal text want && String.equal (Pretty.tu_to_string tu) want)
  then Alcotest.failf "%s: the printer's text differs from the reference:@.%s" what want;
  match Pretty.parsed_form tu with
  | None -> false
  | Some _ ->
    let lexed = Lexer.tokenize want in
    let n = Lexer.length lexed in
    for i = 0 to max n (Lexer.length tokens) - 1 do
      if
        i >= n || i >= Lexer.length tokens
        || Lexer.kind tokens i <> Lexer.kind lexed i
        || Lexer.offset tokens i <> Lexer.offset lexed i
      then
        Alcotest.failf "%s: token %d (of %d lexed, %d printed) differs at offset %d of:@.%s"
          what i n (Lexer.length tokens)
          (if i < n then Lexer.offset lexed i else String.length want)
          want
    done;
    true
