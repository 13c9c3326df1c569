(* The recorded replay corpus: fixed compiler inputs with golden outcomes.

   Layout under [dir]:
     programs.txt  "@@ program <index> <bytes>\n" headers, each followed
                   by exactly <bytes> bytes of source and a newline
     golden.tsv    "<index>\t<ok|error|crash>\t<asm md5 | - | bug id>"
     MANIFEST      counts and the MD5 of programs.txt

   The inputs are fixed on purpose: a change that moves the fuzzer's RNG
   trajectory leaves them alone, so compile-layer numbers stay comparable
   across such changes. *)

type golden = Ok_asm of string | Error_ | Crash of string

type t = { programs : string array; golden : golden array }

let golden_of (o : Simcomp.Compiler.outcome) =
  match o with
  | Simcomp.Compiler.Compiled { asm; _ } -> Ok_asm (Digest.to_hex (Digest.string asm))
  | Simcomp.Compiler.Compile_error _ -> Error_
  | Simcomp.Compiler.Crashed c -> Crash c.Simcomp.Crash.bug_id

let golden_to_string = function
  | Ok_asm d -> "ok\t" ^ d
  | Error_ -> "error\t-"
  | Crash id -> "crash\t" ^ id

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let parse_programs text =
  let n = String.length text in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let eol = String.index_from text pos '\n' in
      let header = String.sub text pos (eol - pos) in
      let len = Scanf.sscanf header "@@ program %d %d" (fun _ len -> len) in
      let src = String.sub text (eol + 1) len in
      go (eol + 1 + len + 1) (src :: acc)
  in
  Array.of_list (go 0 [])

let parse_golden text =
  String.split_on_char '\n' text
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ _; "ok"; d ] -> Ok_asm d
         | [ _; "error"; _ ] -> Error_
         | [ _; "crash"; id ] -> Crash id
         | _ -> failwith ("corpus: malformed golden line: " ^ line))
  |> Array.of_list

let manifest_value text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] when k = key -> Some v
         | _ -> None)

(* Load and verify: a corpus whose bytes or counts drifted from its
   MANIFEST is refused, never silently replayed. *)
let load dir =
  let text = read_file (Filename.concat dir "programs.txt") in
  let manifest = read_file (Filename.concat dir "MANIFEST") in
  let digest = Digest.to_hex (Digest.string text) in
  if manifest_value manifest "digest" <> Some digest then
    failwith
      (Fmt.str "corpus: %s/programs.txt digest %s does not match MANIFEST" dir
         digest);
  let programs = parse_programs text in
  let golden = parse_golden (read_file (Filename.concat dir "golden.tsv")) in
  let count = string_of_int (Array.length programs) in
  if
    Array.length golden <> Array.length programs
    || manifest_value manifest "programs" <> Some count
  then failwith (Fmt.str "corpus: %s has inconsistent program counts" dir);
  { programs; golden }

let save dir (programs : string array) (golden : golden array) =
  Engine.Checkpoint.mkdir_p dir;
  let buf = Buffer.create (1 lsl 20) in
  Array.iteri
    (fun i src ->
      Buffer.add_string buf (Printf.sprintf "@@ program %d %d\n" i (String.length src));
      Buffer.add_string buf src;
      Buffer.add_char buf '\n')
    programs;
  let text = Buffer.contents buf in
  write_file (Filename.concat dir "programs.txt") text;
  write_file
    (Filename.concat dir "golden.tsv")
    (String.concat ""
       (Array.to_list
          (Array.mapi (fun i g -> Fmt.str "%d\t%s\n" i (golden_to_string g)) golden)));
  let count p = Array.fold_left (fun n g -> if p g then n + 1 else n) 0 golden in
  let manifest =
    Fmt.str "programs %d\nbytes %d\ndigest %s\nok %d\nerror %d\ncrash %d\n"
      (Array.length programs) (String.length text)
      (Digest.to_hex (Digest.string text))
      (count (function Ok_asm _ -> true | _ -> false))
      (count (( = ) Error_))
      (count (function Crash _ -> true | _ -> false))
  in
  write_file (Filename.concat dir "MANIFEST") manifest;
  print_string manifest
