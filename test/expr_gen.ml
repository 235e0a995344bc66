(* Seeded generator of [expr] source strings, a logging environment, and
   the line format of the frozen expression fixture (expr_cases.txt).

   The generator builds a well-formed expression over variables (set,
   unset, array, braced), command substitutions with side effects,
   quoted and braced operands, math functions and every operator, then
   usually damages it: truncation, a deleted character, an inserted
   fragment (unbalanced brackets, braces, parens and quotes, stray
   characters, malformed numbers) or an adjacent operand.

   [gen] has the type of a QCheck generator, so the same shapes drive
   the property tests. *)

let pick st a = a.(Random.State.int st (Array.length a))

let atoms =
  [|
    "0"; "1"; "2"; "7"; "42"; "0x1f"; "1.5"; "2e3"; ".5"; "1e+2"; "3.0";
    "4611686018427387903"; "1e300";
    "$a"; "$b"; "$s"; "$t"; "$e"; "$n"; "$z"; "$u"; "${a}"; "${u}";
    "$arr(k)"; "$arr(u)";
    "[incr z]"; "[set a]"; "[error]"; "[list]"; "[incr z; list x]";
    "\"abc\""; "\"\""; "\"x$a\""; "\"[incr z]\""; "\"$u\""; "\"$b$a\"";
    "\"\\x41\""; "{abc}"; "{1}"; "{}"; "{ 2 }";
    "true"; "no"; "on"; "foo";
  |]

let binops =
  [|
    "+"; "-"; "*"; "/"; "%"; "<<"; ">>"; "&"; "|"; "^"; "=="; "!="; "<";
    ">"; "<="; ">="; "&&"; "||";
  |]

let unops = [| "-"; "+"; "!"; "~" |]

let funcs =
  [|
    ("abs", 1); ("int", 1); ("round", 1); ("double", 1); ("sqrt", 1);
    ("sin", 1); ("exp", 1); ("log", 1); ("floor", 1); ("pow", 2);
    ("atan2", 2); ("fmod", 2); ("max", 2); ("hypot", 2); ("bogus", 1);
  |]

let fragments =
  [|
    "("; ")"; "["; "]"; "{"; "}"; "\""; "@"; "#"; ";"; ","; ":"; "?"; "$";
    "$("; "${"; "\\"; "&&"; "||"; "+"; "*"; " "; "1"; "1.2.3"; "0x"; "1e";
    "3abc"; "foo"; "sin("; "[incr z]"; "$a"; "\"[incr z]"; "$arr(";
    "[incr z"; "\"$a";
  |]

let sp st = pick st [| " "; " "; " "; ""; "  " |]

let rec well_formed st depth =
  if depth = 0 || Random.State.int st 4 = 0 then pick st atoms
  else
    let sub () = well_formed st (depth - 1) in
    match Random.State.int st 7 with
    | 0 | 1 ->
      let l = sub () in
      let op = pick st binops in
      l ^ sp st ^ op ^ sp st ^ sub ()
    | 2 -> pick st unops ^ sub ()
    | 3 -> "(" ^ sub () ^ ")"
    | 4 ->
      let c = sub () in
      let t = sub () in
      c ^ sp st ^ "?" ^ sp st ^ t ^ sp st ^ ":" ^ sp st ^ sub ()
    | 5 ->
      let name, arity = pick st funcs in
      (* Occasionally the wrong arity. *)
      let arity = if Random.State.int st 8 = 0 then 3 - arity else arity in
      let args = List.init arity (fun _ -> sub ()) in
      name ^ "(" ^ String.concat ("," ^ sp st) args ^ ")"
    | _ ->
      let l = sub () in
      l ^ sp st ^ pick st [| "&&"; "||" |] ^ sp st ^ sub ()

let damage st s =
  let n = String.length s in
  let at () = Random.State.int st (n + 1) in
  match Random.State.int st 5 with
  | 0 -> String.sub s 0 (at ())
  | 1 when n > 0 ->
    let i = Random.State.int st n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 2 | 1 ->
    let i = at () in
    String.sub s 0 i ^ pick st fragments ^ String.sub s i (n - i)
  | 3 -> s ^ " " ^ pick st atoms
  | _ -> pick st atoms ^ " " ^ s

let gen st =
  let s = well_formed st (Random.State.int st 5) in
  if Random.State.int st 10 < 6 then damage st s else s

(* ------------------------------------------------------------------ *)
(* Logging environment: every callback appends to an ordered log.
   Variables: a=3, b=2.5, s=abc, t=true, e={}, n={ 7 }, arr(k)=5, z is
   the counter [incr z] bumps; anything else is unset. Commands:
   [incr z], [set a], [list] and [error] (which fails); any other
   script echoes its own text. *)

let logging_env () =
  let log = ref [] and z = ref 0 in
  let unset name =
    raise (Tcl.Expr.Error (Printf.sprintf "can't read \"%s\": no such variable" name))
  in
  let env =
    {
      Tcl.Expr.get_var =
        (fun name ->
          log := ("get " ^ name) :: !log;
          match name with
          | "a" -> "3"
          | "b" -> "2.5"
          | "s" -> "abc"
          | "t" -> "true"
          | "e" -> ""
          | "n" -> " 7 "
          | "arr(k)" -> "5"
          | "z" -> string_of_int !z
          | _ -> unset name);
      eval_cmd =
        (fun script ->
          log := ("cmd " ^ script) :: !log;
          match String.trim script with
          | "incr z" ->
            incr z;
            string_of_int !z
          | "set a" -> "3"
          | "list" -> ""
          | "error" -> raise (Tcl.Expr.Error "boom")
          | s -> s);
    }
  in
  (env, fun () -> List.rev !log)

let outcome f =
  match f () with
  | v -> "ok " ^ Tcl.Expr.to_string v
  | exception Tcl.Expr.Error msg -> "error " ^ msg

(* One case per line: the expression, the parser's verdict ("ok" or
   "error MSG"), the evaluation outcome ("ok VALUE" or "error MSG"),
   then each log entry; every field is an OCaml string literal. *)
type case = {
  expr : string;
  parse : string;
  result : string;
  log : string list;
}

let case_line c =
  String.concat " "
    (List.map (Printf.sprintf "%S") (c.expr :: c.parse :: c.result :: c.log))

let case_of_line line =
  let ib = Scanf.Scanning.from_string line in
  let rec fields acc =
    match Scanf.bscanf ib " %S" Fun.id with
    | f -> fields (f :: acc)
    | exception End_of_file -> List.rev acc
  in
  match fields [] with
  | expr :: parse :: result :: log -> { expr; parse; result; log }
  | _ -> failwith ("malformed fixture line: " ^ line)
