(* Hand-written lexer for the C subset.

   Preprocessor lines (`#include`, `#define`, ...) are skipped wholesale:
   the seed corpus and all generated programs are self-contained, and the
   type checker treats a small set of libc functions as builtins.

   [tokenize] keeps two ints per token, a kind code and a start offset,
   in two int arrays.  Neither array holds a pointer: filling them needs
   no write barrier and the GC never scans or promotes them.  What a
   token carries beyond its kind is read back from the source on demand:
   [token] re-lexes an identifier or literal from its start offset, and
   [loc] counts the newlines before it, which only diagnostics need. *)

exception Error of string * Loc.t

type state = { src : string; mutable pos : int }

(* 1-based line and column of byte [off]: each '\n' before it ends a
   line, whether it sits in blank space, a comment, a preprocessor
   continuation or a character literal. *)
let loc_at src off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min off (String.length src) - 1 do
    if String.unsafe_get src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  Loc.make ~line:!line ~col:(off - !bol + 1) ~offset:off

let error st msg = raise (Error (msg, loc_at st.src st.pos))

(* [peek] runs several times per input byte; returning a fresh [Some c]
   each call dominates the lexer's allocation.  Sharing one immutable
   [Some] block per byte value makes peeking allocation-free while
   keeping every call site's pattern match unchanged. *)
let some_char : char option array = Array.init 256 (fun i -> Some (Char.chr i))

let peek st =
  if st.pos < String.length st.src then
    Array.unsafe_get some_char (Char.code (String.unsafe_get st.src st.pos))
  else None

let peek2 st =
  if st.pos + 1 < String.length st.src then
    Array.unsafe_get some_char (Char.code (String.unsafe_get st.src (st.pos + 1)))
  else None

(* [at st c] is [peek st = Some c] without the polymorphic compare. *)
let at st c =
  st.pos < String.length st.src && String.unsafe_get st.src st.pos = c

let at2 st c =
  st.pos + 1 < String.length st.src
  && String.unsafe_get st.src (st.pos + 1) = c

let advance st = st.pos <- st.pos + 1

(* Advance over [pred]-matching characters without the per-byte option
   round trip of [peek]/[advance]. *)
let scan_while st pred =
  let src = st.src in
  let n = String.length src in
  let p = ref st.pos in
  while !p < n && pred (String.unsafe_get src !p) do
    incr p
  done;
  st.pos <- !p

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c
let is_exponent c = c = 'e' || c = 'E'

(* The trivia skipper runs between every pair of tokens and visits every
   blank/comment byte, so it reads characters directly instead of going
   through [peek]'s option per byte. *)
let skip_trivia st =
  let src = st.src in
  let n = String.length src in
  let continue = ref true in
  while !continue do
    if st.pos >= n then continue := false
    else
      match String.unsafe_get src st.pos with
      | ' ' | '\t' | '\r' | '\n' -> st.pos <- st.pos + 1
      | '#' ->
        (* preprocessor line: skip to end of (logical) line *)
        let stop = ref false in
        while not !stop do
          if st.pos >= n then stop := true
          else
            match String.unsafe_get src st.pos with
            | '\n' -> stop := true
            | '\\' when st.pos + 1 < n
                        && String.unsafe_get src (st.pos + 1) = '\n' ->
              st.pos <- st.pos + 2
            | _ -> st.pos <- st.pos + 1
        done
      | '/' when st.pos + 1 < n && String.unsafe_get src (st.pos + 1) = '/'
        ->
        while
          st.pos < n && String.unsafe_get src st.pos <> '\n'
        do
          st.pos <- st.pos + 1
        done
      | '/' when st.pos + 1 < n && String.unsafe_get src (st.pos + 1) = '*'
        ->
        st.pos <- st.pos + 2;
        let closed = ref false in
        while not !closed do
          if st.pos >= n then error st "unterminated comment"
          else if
            String.unsafe_get src st.pos = '*'
            && st.pos + 1 < n
            && String.unsafe_get src (st.pos + 1) = '/'
          then begin
            st.pos <- st.pos + 2;
            closed := true
          end
          else st.pos <- st.pos + 1
        done
      | _ -> continue := false
  done

let is_octal c = c >= '0' && c <= '7'

let lex_escape st =
  (* after the backslash *)
  match peek st with
  | None -> error st "unterminated escape"
  | Some c ->
    advance st;
    (match c with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | 'a' -> '\007'
    | 'b' -> '\b'
    | 'f' -> '\012'
    | 'v' -> '\011'
    | 'x' ->
      let rec hex acc n =
        match peek st with
        | Some c when is_hex c && n < 2 ->
          advance st;
          let d =
            if is_digit c then Char.code c - Char.code '0'
            else (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
          in
          hex ((acc * 16) + d) (n + 1)
        | _ -> acc
      in
      Char.chr (hex 0 0 land 0xff)
    | c when is_octal c ->
      (* up to three octal digits, the first already consumed *)
      let rec oct acc n =
        match peek st with
        | Some c when is_octal c && n < 3 ->
          advance st;
          oct ((acc * 8) + (Char.code c - Char.code '0')) (n + 1)
        | _ -> acc
      in
      Char.chr (oct (Char.code c - Char.code '0') 1 land 0xff)
    | c -> c)

(* Advance over a numeric literal's digits, up to its suffix; true for a
   floating literal. *)
let scan_number st =
  if at st '0' && (at2 st 'x' || at2 st 'X') then begin
    advance st; advance st;
    scan_while st is_hex;
    false
  end
  else begin
    scan_while st is_digit;
    let is_float = ref false in
    if at st '.' then begin
      is_float := true;
      advance st;
      scan_while st is_digit
    end;
    if at st 'e' || at st 'E' then begin
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      scan_while st is_digit
    end;
    !is_float
  end

(* Advance over a float suffix; true unless it makes the literal a
   [float]. *)
let float_suffix st =
  match peek st with
  | Some ('f' | 'F') -> advance st; false
  | Some ('l' | 'L') -> advance st; true
  | _ -> true

(* Advance over an integer suffix; returns twice its [L] count, plus one
   if it has a [U]. *)
let int_suffix st =
  let acc = ref 0 in
  while
    match peek st with
    | Some ('u' | 'U') -> acc := !acc lor 1; true
    | Some ('l' | 'L') -> acc := !acc + 2; true
    | _ -> false
  do
    advance st
  done;
  !acc

let float_value st start stop =
  let digits = String.sub st.src start (stop - start) in
  match float_of_string_opt digits with
  | Some v -> v
  | None -> error st ("bad float literal: " ^ digits)

(* The value of the integer digits [src.[start, stop)].  A leading 0
   makes the literal octal, as in C. *)
let int_value st start stop =
  let digits = String.sub st.src start (stop - start) in
  let octal =
    String.length digits > 1 && digits.[0] = '0'
    && digits.[1] <> 'x' && digits.[1] <> 'X'
  in
  let spelled =
    if octal then "0o" ^ String.sub digits 1 (String.length digits - 1)
    else digits
  in
  match Int64.of_string_opt spelled with
  | Some v -> v
  | None -> error st ("bad integer literal: " ^ digits)

(* ------------------------------------------------------------------ *)
(* Kind codes                                                          *)
(* ------------------------------------------------------------------ *)

(* The tokens that carry a payload get one code each, except integer
   literals, which are split at 256 (signed) into two codes; every
   payload-free token gets the code [first_fixed] + its index in
   [fixed]. *)
let k_ident = 0
let k_int_small = 1
let k_int_large = 2
let k_float = 3
let k_char = 4
let k_str = 5
let first_fixed = 6

let fixed : Token.t array =
  Token.
    [|
      Lparen; Rparen; Lbrace; Rbrace; Lbracket; Rbracket; Semi; Comma; Colon;
      Question; Ellipsis; Dot; Arrow; Plus; Minus; Star; Slash; Percent;
      PlusPlus; MinusMinus; Amp; Pipe; Caret; Tilde; Bang; AmpAmp; PipePipe;
      Shl; Shr; Lt; Gt; Le; Ge; EqEq; BangEq; Eq; PlusEq; MinusEq; StarEq;
      SlashEq; PercentEq; ShlEq; ShrEq; AmpEq; PipeEq; CaretEq; Eof;
      Kw Kvoid; Kw Kchar; Kw Kshort; Kw Kint; Kw Klong; Kw Kfloat;
      Kw Kdouble; Kw Ksigned; Kw Kunsigned; Kw Kbool; Kw Kconst;
      Kw Kvolatile; Kw Kstatic; Kw Kextern; Kw Kinline; Kw Kregister;
      Kw Kstruct; Kw Kunion; Kw Kenum; Kw Ktypedef; Kw Ksizeof; Kw Kif;
      Kw Kelse; Kw Kwhile; Kw Kdo; Kw Kfor; Kw Kreturn; Kw Kbreak;
      Kw Kcontinue; Kw Kswitch; Kw Kcase; Kw Kdefault; Kw Kgoto;
    |]

let kind_count = first_fixed + Array.length fixed

(* The code of an operator, punctuator or [Eof]: its [fixed] slot. *)
let op_code : Token.t -> int = function
  | Lparen -> 6 | Rparen -> 7 | Lbrace -> 8 | Rbrace -> 9 | Lbracket -> 10
  | Rbracket -> 11 | Semi -> 12 | Comma -> 13 | Colon -> 14 | Question -> 15
  | Ellipsis -> 16 | Dot -> 17 | Arrow -> 18 | Plus -> 19 | Minus -> 20
  | Star -> 21 | Slash -> 22 | Percent -> 23 | PlusPlus -> 24
  | MinusMinus -> 25 | Amp -> 26 | Pipe -> 27 | Caret -> 28 | Tilde -> 29
  | Bang -> 30 | AmpAmp -> 31 | PipePipe -> 32 | Shl -> 33 | Shr -> 34
  | Lt -> 35 | Gt -> 36 | Le -> 37 | Ge -> 38 | EqEq -> 39 | BangEq -> 40
  | Eq -> 41 | PlusEq -> 42 | MinusEq -> 43 | StarEq -> 44 | SlashEq -> 45
  | PercentEq -> 46 | ShlEq -> 47 | ShrEq -> 48 | AmpEq -> 49 | PipeEq -> 50
  | CaretEq -> 51 | Eof -> 52
  | Ident _ | Int_lit _ | Float_lit _ | Char_lit _ | Str_lit _ | Kw _ ->
    invalid_arg "Lexer.op_code"

let k_eof = op_code Token.Eof

(* Keyword codes, bucketed by [length * 256 + first byte] so that an
   identifier is checked against at most a couple of spellings. *)
let max_kw_len = 8

let keyword_buckets : (string * int) list array =
  let t = Array.make ((max_kw_len + 1) * 256) [] in
  Array.iteri
    (fun i tok ->
      match tok with
      | Token.Kw k ->
        let s = Token.kw_to_string k in
        let b = (String.length s * 256) + Char.code s.[0] in
        t.(b) <- (s, first_fixed + i) :: t.(b)
      | _ -> ())
    fixed;
  t

let rec span_is src start s i =
  i = String.length s
  || String.unsafe_get src (start + i) = String.unsafe_get s i
     && span_is src start s (i + 1)

let rec find_keyword src start = function
  | [] -> k_ident
  | (s, code) :: rest ->
    if span_is src start s 0 then code else find_keyword src start rest

let ident_kind src start stop =
  let len = stop - start in
  if len > max_kw_len then k_ident
  else
    find_keyword src start
      (Array.unsafe_get keyword_buckets
         ((len * 256) + Char.code (String.unsafe_get src start)))

(* Whether [s] reads back as one identifier token: identifier characters
   only, and not a keyword. *)
let rec ident_chars s i =
  i = String.length s
  || (is_ident_char (String.unsafe_get s i) && ident_chars s (i + 1))

let is_identifier s =
  String.length s > 0
  && is_ident_start (String.unsafe_get s 0)
  && ident_chars s 1
  && ident_kind s 0 (String.length s) = k_ident

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> 99

(* The value of the integer digits [src.[start, stop)] when a native int
   holds it without overflow; -1 when it may not, and for malformed
   digits, which [int_value] then reads or rejects. *)
let native_int_value src start stop =
  let radix =
    if stop - start < 2 || String.unsafe_get src start <> '0' then 10
    else
      match String.unsafe_get src (start + 1) with 'x' | 'X' -> 16 | _ -> 8
  in
  let first = match radix with 10 -> start | 16 -> start + 2 | _ -> start + 1 in
  let max_digits = match radix with 10 -> 18 | 16 -> 15 | _ -> 20 in
  if stop <= first || stop - first > max_digits then -1
  else begin
    let v = ref 0 and i = ref first in
    while !i < stop && !v >= 0 do
      let d = digit_value (String.unsafe_get src !i) in
      v := if d >= radix then -1 else (!v * radix) + d;
      incr i
    done;
    !v
  end

let int_literal st start stop =
  let v = native_int_value st.src start stop in
  if v >= 0 then Int64.of_int v else int_value st start stop

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

(* A string literal's body; [add] receives each decoded byte. *)
let lex_string st add =
  advance st; (* opening quote *)
  let closed = ref false in
  while not !closed do
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st; closed := true
    | Some '\\' -> advance st; add (lex_escape st)
    | Some '\n' -> error st "newline in string literal"
    | Some c -> advance st; add c
  done

let lex_char st =
  advance st; (* opening quote *)
  let c =
    match peek st with
    | None -> error st "unterminated char literal"
    | Some '\\' -> advance st; lex_escape st
    | Some c -> advance st; c
  in
  if at st '\'' then advance st else error st "unterminated char literal";
  c

(* Whether [float_value] accepts the float [scan_number] found at
   [src.[start, stop)]: [float_of_string] rejects such a spelling only
   when its exponent has no digits.  Checking that much here spares
   [tokenize] a conversion that [token] does anyway. *)
let exponent_ok src start stop =
  let e = ref start in
  while !e < stop && not (is_exponent (String.unsafe_get src !e)) do
    incr e
  done;
  let digit =
    if !e + 1 < stop && is_digit src.[!e + 1] then !e + 1 else !e + 2
  in
  !e = stop || (digit < stop && is_digit src.[digit])

let number_kind st =
  let start = st.pos in
  if scan_number st then begin
    let stop = st.pos in
    ignore (float_suffix st);
    if not (exponent_ok st.src start stop) then
      error st ("bad float literal: " ^ String.sub st.src start (stop - start));
    k_float
  end
  else begin
    let stop = st.pos in
    ignore (int_suffix st);
    let v = native_int_value st.src start stop in
    let small =
      if v >= 0 then v < 256
      else Int64.compare (int_value st start stop) 256L < 0
    in
    if small then k_int_small else k_int_large
  end

(* Multi-character operators: try alternatives of decreasing length. *)
let lex_op st c : Token.t =
  let open Token in
  match c with
  | '(' -> advance st; Lparen
  | ')' -> advance st; Rparen
  | '{' -> advance st; Lbrace
  | '}' -> advance st; Rbrace
  | '[' -> advance st; Lbracket
  | ']' -> advance st; Rbracket
  | ';' -> advance st; Semi
  | ',' -> advance st; Comma
  | '?' -> advance st; Question
  | ':' -> advance st; Colon
  | '~' -> advance st; Tilde
  | '.' ->
    advance st;
    if at st '.' && at2 st '.' then begin
      advance st; advance st; Ellipsis
    end
    else Dot
  | '+' ->
    advance st;
    (match peek st with
    | Some '+' -> advance st; PlusPlus
    | Some '=' -> advance st; PlusEq
    | _ -> Plus)
  | '-' ->
    advance st;
    (match peek st with
    | Some '-' -> advance st; MinusMinus
    | Some '=' -> advance st; MinusEq
    | Some '>' -> advance st; Arrow
    | _ -> Minus)
  | '*' ->
    advance st;
    (match peek st with Some '=' -> advance st; StarEq | _ -> Star)
  | '/' ->
    advance st;
    (match peek st with Some '=' -> advance st; SlashEq | _ -> Slash)
  | '%' ->
    advance st;
    (match peek st with Some '=' -> advance st; PercentEq | _ -> Percent)
  | '^' ->
    advance st;
    (match peek st with Some '=' -> advance st; CaretEq | _ -> Caret)
  | '!' ->
    advance st;
    (match peek st with Some '=' -> advance st; BangEq | _ -> Bang)
  | '=' ->
    advance st;
    (match peek st with Some '=' -> advance st; EqEq | _ -> Eq)
  | '&' ->
    advance st;
    (match peek st with
    | Some '&' -> advance st; AmpAmp
    | Some '=' -> advance st; AmpEq
    | _ -> Amp)
  | '|' ->
    advance st;
    (match peek st with
    | Some '|' -> advance st; PipePipe
    | Some '=' -> advance st; PipeEq
    | _ -> Pipe)
  | '<' ->
    advance st;
    (match peek st with
    | Some '=' -> advance st; Le
    | Some '<' ->
      advance st;
      (match peek st with Some '=' -> advance st; ShlEq | _ -> Shl)
    | _ -> Lt)
  | '>' ->
    advance st;
    (match peek st with
    | Some '=' -> advance st; Ge
    | Some '>' ->
      advance st;
      (match peek st with Some '=' -> advance st; ShrEq | _ -> Shr)
    | _ -> Gt)
  | c -> error st (Fmt.str "unexpected character %C" c)

(* Scan the token at [st.pos] (trivia already skipped); returns its
   kind code. *)
let next_kind st =
  match peek st with
  | None -> k_eof
  | Some c when is_ident_start c ->
    let start = st.pos in
    scan_while st is_ident_char;
    ident_kind st.src start st.pos
  | Some c when is_digit c -> number_kind st
  | Some '.' when (match peek2 st with Some c -> is_digit c | None -> false) ->
    number_kind st
  | Some '"' -> lex_string st ignore; k_str
  | Some '\'' -> ignore (lex_char st); k_char
  | Some c -> op_code (lex_op st c)

(* ------------------------------------------------------------------ *)
(* Token streams                                                       *)
(* ------------------------------------------------------------------ *)

type tokens = { src : string; kinds : int array; offsets : int array }

(* Per-domain arrays [tokenize] fills before copying out the used
   prefix, so the only per-call allocation is that exact-size copy.
   Every token but [Eof] spans at least one byte, so a source of [n]
   bytes has at most [n + 1] tokens: the arrays are sized for that before
   the scan starts (with room to spare, so that a slightly longer source
   does not reallocate them) and never grow mid-scan. *)
type scratch = { mutable s_kinds : int array; mutable s_offsets : int array }

let scratch =
  Domain.DLS.new_key (fun () -> { s_kinds = [||]; s_offsets = [||] })

let tokenize src =
  let n = String.length src in
  let sc = Domain.DLS.get scratch in
  if Array.length sc.s_kinds <= n then begin
    sc.s_kinds <- Array.make (2 * (n + 1)) 0;
    sc.s_offsets <- Array.make (2 * (n + 1)) 0
  end;
  let kinds = sc.s_kinds and offsets = sc.s_offsets in
  let st = { src; pos = 0 } in
  let len = ref 0 in
  let fin = ref false in
  while not !fin do
    skip_trivia st;
    let start = st.pos in
    let k = next_kind st in
    kinds.(!len) <- k;
    offsets.(!len) <- start;
    incr len;
    fin := (k = k_eof)
  done;
  {
    src;
    kinds = Array.sub kinds 0 !len;
    offsets = Array.sub offsets 0 !len;
  }

let length t = Array.length t.kinds
let kind t i = t.kinds.(i)
let offset t i = t.offsets.(i)
let loc t i = loc_at t.src t.offsets.(i)

(* Most integer literals are plain decimals below 256, which need no
   fresh token at all. *)
let small_ints =
  Array.init 256 (fun v -> Token.Int_lit (Int64.of_int v, Ast.Iint, false))

(* Where the literal at [start] ends if it is a plain decimal (no
   suffix, no leading 0 but for "0" itself); 0 otherwise. *)
let plain_decimal_end src start =
  let n = String.length src in
  let p = ref start in
  while !p < n && is_digit (String.unsafe_get src !p) do
    incr p
  done;
  if
    (!p < n && is_ident_char (String.unsafe_get src !p))
    || (String.unsafe_get src start = '0' && !p > start + 1)
  then 0
  else !p

(* A number, char or string literal, re-lexed from its start. *)
let literal_token st =
  match peek st with
  | Some '\'' -> Token.Char_lit (lex_char st)
  | Some '"' ->
    let buf = Buffer.create 16 in
    lex_string st (Buffer.add_char buf);
    Token.Str_lit (Buffer.contents buf)
  | _ ->
    let start = st.pos in
    if scan_number st then begin
      let stop = st.pos in
      let is_double = float_suffix st in
      Token.Float_lit (float_value st start stop, is_double)
    end
    else begin
      let stop = st.pos in
      let suffix = int_suffix st in
      let kind : Ast.ikind =
        match suffix lsr 1 with 0 -> Iint | 1 -> Ilong | _ -> Ilonglong
      in
      Token.Int_lit (int_literal st start stop, kind, suffix land 1 = 1)
    end

let token t i =
  let k = t.kinds.(i) and start = t.offsets.(i) in
  if k >= first_fixed then Array.unsafe_get fixed (k - first_fixed)
  else if k = k_ident then begin
    let st = { src = t.src; pos = start } in
    scan_while st is_ident_char;
    Token.Ident (String.sub t.src start (st.pos - start))
  end
  else
    let stop = if k = k_int_small then plain_decimal_end t.src start else 0 in
    if stop > 0 then small_ints.(native_int_value t.src start stop)
    else literal_token { src = t.src; pos = start }

(* Indexed by the payload kind codes, [k_ident] to [k_str]. *)
let payload_examples =
  Token.
    [|
      Ident "x"; Int_lit (0L, Iint, false); Int_lit (256L, Iint, false);
      Float_lit (0., true); Char_lit 'x'; Str_lit "";
    |]

let kind_example k =
  if k >= first_fixed then fixed.(k - first_fixed) else payload_examples.(k)
