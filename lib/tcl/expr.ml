type value = Int of int | Float of float | Str of string

type env = {
  get_var : string -> string;
  eval_cmd : string -> string;
}

exception Error of string

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

(* Tcl's %.12g default (with a round-trip fallback); see Tval. *)
let float_to_string = Tval.float_to_string

let to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> s

let number_of_string s =
  match Tval.parse_num s with
  | Tval.Nint i -> Some (Int i)
  | Tval.Ndbl f -> Some (Float f)
  | Tval.Nnone | Tval.Nmaybe -> None

let as_number v =
  match v with
  | Int _ | Float _ -> Some v
  | Str s -> number_of_string s

let require_number v =
  match as_number v with
  | Some n -> n
  | None -> error "expected number but got %S" (to_string v)

let as_int v =
  match require_number v with
  | Int i -> i
  | Float _ -> error "expected integer but got %S" (to_string v)
  | Str _ -> assert false

let truthy v =
  match as_number v with
  | Some (Int i) -> i <> 0
  | Some (Float f) -> f <> 0.0
  | Some (Str _) -> assert false
  | None -> (
    match String.lowercase_ascii (to_string v) with
    | "true" | "yes" | "on" -> true
    | "false" | "no" | "off" -> false
    | s -> error "expected boolean value but got %S" s)

(* ------------------------------------------------------------------ *)
(* Arithmetic on values *)

let arith name fi ff a b =
  match (require_number a, require_number b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) ->
    let fx = match require_number a with Int x -> float_of_int x | Float f -> f | Str _ -> assert false in
    let fy = match require_number b with Int y -> float_of_int y | Float f -> f | Str _ -> assert false in
    (match ff with
    | Some f -> Float (f fx fy)
    | None -> error "can't use floating-point value as operand of %S" name)
  | _ -> assert false

(* Integer-only operators check their right operand first. *)
let int_op f a b =
  let y = as_int b in
  Int (f (as_int a) y)

let compare_values a b =
  match (as_number a, as_number b) with
  | Some (Int x), Some (Int y) -> compare x y
  | Some x, Some y ->
    let f = function Int i -> float_of_int i | Float f -> f | Str _ -> assert false in
    compare (f x) (f y)
  | _ -> String.compare (to_string a) (to_string b)

let int_div x y =
  if y = 0 then error "divide by zero"
  else
    (* Tcl division truncates toward negative infinity. *)
    let q = x / y and r = x mod y in
    if (r <> 0) && ((r < 0) <> (y < 0)) then q - 1 else q

let int_mod x y =
  if y = 0 then error "divide by zero"
  else
    let r = x mod y in
    if r <> 0 && (r < 0) <> (y < 0) then r + y else r

(* OCaml's shifts are unspecified outside 0 .. int_size - 1; a count
   past the width shifts every bit out (copies of the sign bit, for
   >>). *)
let shift_left x n =
  if n < 0 then error "negative shift argument"
  else if n >= Sys.int_size then 0
  else x lsl n

let shift_right x n =
  if n < 0 then error "negative shift argument"
  else if n >= Sys.int_size then if x < 0 then -1 else 0
  else x asr n

let bool_val b = Int (if b then 1 else 0)

let binary_level = function
  | "||" -> Some 1
  | "&&" -> Some 2
  | "|" -> Some 3
  | "^" -> Some 4
  | "&" -> Some 5
  | "==" | "!=" -> Some 6
  | "<" | ">" | "<=" | ">=" -> Some 7
  | "<<" | ">>" -> Some 8
  | "+" | "-" -> Some 9
  | "*" | "/" | "%" -> Some 10
  | _ -> None

let apply_binary op a b =
  match op with
  | "+" -> arith "+" ( + ) (Some ( +. )) a b
  | "-" -> arith "-" ( - ) (Some ( -. )) a b
  | "*" -> arith "*" ( * ) (Some ( *. )) a b
  | "/" ->
    arith "/" int_div
      (Some
         (fun x y -> if y = 0.0 then error "divide by zero" else x /. y))
      a b
  | "%" -> int_op int_mod a b
  | "<<" -> int_op shift_left a b
  | ">>" -> int_op shift_right a b
  | "&" -> int_op ( land ) a b
  | "|" -> int_op ( lor ) a b
  | "^" -> int_op ( lxor ) a b
  | "==" -> bool_val (compare_values a b = 0)
  | "!=" -> bool_val (compare_values a b <> 0)
  | "<" -> bool_val (compare_values a b < 0)
  | ">" -> bool_val (compare_values a b > 0)
  | "<=" -> bool_val (compare_values a b <= 0)
  | ">=" -> bool_val (compare_values a b >= 0)
  | _ -> error "unknown operator %S" op

let apply_unary op v =
  match op with
  | "-" -> (
    match require_number v with
    | Int i -> Int (-i)
    | Float f -> Float (-.f)
    | Str _ -> assert false)
  | "+" -> require_number v
  | "!" -> bool_val (not (truthy v))
  | _ -> Int (lnot (as_int v))

(* An integral float (from int() or round()) as an integer. *)
let int_of_integral f =
  if Float.is_nan f then error "domain error: argument not in valid range"
  else if f < -0x1p62 || f >= 0x1p62 then
    error "integer value too large to represent"
  else int_of_float f

let apply_function name args =
  let float1 f =
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Float (f (float_of_int i))
      | Float x -> Float (f x)
      | Str _ -> assert false)
    | _ -> error "math function %S takes one argument" name
  in
  let float2 f =
    match args with
    | [ a; b ] ->
      let fx = function Int i -> float_of_int i | Float x -> x | Str _ -> assert false in
      Float (f (fx (require_number a)) (fx (require_number b)))
    | _ -> error "math function %S takes two arguments" name
  in
  match name with
  | "abs" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Int (abs i)
      | Float f -> Float (Float.abs f)
      | Str _ -> assert false)
    | _ -> error "math function \"abs\" takes one argument")
  | "int" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Int i
      | Float f -> Int (int_of_integral (Float.trunc f))
      | Str _ -> assert false)
    | _ -> error "math function \"int\" takes one argument")
  | "round" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Int i
      | Float f -> Int (int_of_integral (Float.round f))
      | Str _ -> assert false)
    | _ -> error "math function \"round\" takes one argument")
  | "double" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Float (float_of_int i)
      | Float f -> Float f
      | Str _ -> assert false)
    | _ -> error "math function \"double\" takes one argument")
  | "sqrt" -> float1 sqrt
  | "sin" -> float1 sin
  | "cos" -> float1 cos
  | "tan" -> float1 tan
  | "asin" -> float1 asin
  | "acos" -> float1 acos
  | "atan" -> float1 atan
  | "exp" -> float1 exp
  | "log" -> float1 log
  | "log10" -> float1 log10
  | "floor" -> float1 Float.floor
  | "ceil" -> float1 Float.ceil
  | "pow" -> float2 ( ** )
  | "atan2" -> float2 atan2
  | "fmod" -> float2 Float.rem
  | "hypot" -> float2 Float.hypot
  | "min" -> float2 Float.min
  | "max" -> float2 Float.max
  | _ -> error "unknown math function %S" name

let operand_value s =
  match number_of_string s with Some v -> v | None -> Str s

(* ------------------------------------------------------------------ *)
(* Parser.

   Tcl's expression semantics are those of a parse-while-evaluate
   recursive descent: each token is lexed one ahead of the parser and
   substituted as soon as it is lexed; an operator applies once its
   right operand is complete; a syntax error aborts where it is found;
   the unreached branch of &&, || and ?: is parsed without substituting
   or applying anything. [parse] follows that control flow exactly but
   builds an AST instead of values, so the AST can be cached and
   [eval_ast] replays the same events.

   The parse is total. Where the descent would raise, the parser builds
   [A_fail (pre, msg)] and replaces the current token with [P_stop msg],
   so every enclosing frame returns what it has parsed. Three shapes
   occur only in a failed parse:
   - a substituting token lexed right after a complete operand (it can
     only end in an error) becomes [A_then (operand, substitution)];
   - a lexical error there is raised before any pending operator
     applies, so its [A_fail] holds that operand;
   - a branch holding the failure raises it even when skipped, so
     [x && y] becomes [x ? y : fail], [x || y] becomes [x ? fail : y],
     and the skipped branch of a ternary becomes [fail].
   [parse] gives a failed parse an [A_fail] root, so callers can tell
   one by its root constructor. *)

type qpart = Q_lit of string | Q_var of string | Q_cmd of string

type ast =
  | A_const of value
  | A_var of string
  | A_cmd of string
  | A_quoted of qpart list
  | A_unop of string * ast
  | A_binop of string * ast * ast
  | A_ternary of ast * ast * ast
  | A_func of string * ast list
  | A_then of ast * ast
  | A_fail of ast list * string

type ptok =
  | P_num of value
  | P_str of string (* braced or backslash operand *)
  | P_var of string
  | P_cmd of string
  | P_quoted of qpart list
  | P_ident of string
  | P_op of string
  | P_lparen
  | P_rparen
  | P_comma
  | P_end
  | P_bad of ast list * string
      (* a lexical error, after the substitutions of the quoted operand
         it cut short *)
  | P_stop of string (* the parse has failed with this message *)

type plexer = { psrc : string; mutable ppos : int; mutable ptok : ptok }

exception Lex of ast list * string

let lex_error fmt = Format.kasprintf (fun msg -> raise (Lex ([], msg))) fmt

(* The name of a $variable reference starting at the '$'. Array
   references keep their parenthesised index verbatim: the index is not
   substituted in expressions. *)
let scan_variable_name lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let start = lx.ppos + 1 in
  let i = ref start in
  if !i < n && s.[!i] = '{' then begin
    let j = ref (!i + 1) in
    while !j < n && s.[!j] <> '}' do
      incr j
    done;
    if !j >= n then lex_error "missing close-brace for variable name";
    let name = String.sub s (!i + 1) (!j - !i - 1) in
    lx.ppos <- !j + 1;
    name
  end
  else begin
    while !i < n && Chars.is_var_char s.[!i] do
      incr i
    done;
    if !i = start then lex_error "invalid character after $ in expression";
    let name_end = !i in
    if !i < n && s.[!i] = '(' then begin
      let depth = ref 1 in
      incr i;
      while !i < n && !depth > 0 do
        (match s.[!i] with
        | '(' -> incr depth
        | ')' -> decr depth
        | _ -> ());
        incr i
      done;
      if !depth > 0 then lex_error "missing close-paren in array reference";
      let name = String.sub s start (!i - start) in
      lx.ppos <- !i;
      name
    end
    else begin
      let name = String.sub s start (name_end - start) in
      lx.ppos <- name_end;
      name
    end
  end

(* The script of a [command] substitution starting at the '['. *)
let scan_command lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let rec scan j depth =
    if j >= n then lex_error "missing close-bracket in expression"
    else
      match s.[j] with
      | '\\' -> scan (j + 2) depth
      | '[' -> scan (j + 1) (depth + 1)
      | ']' -> if depth = 0 then j else scan (j + 1) (depth - 1)
      | _ -> scan (j + 1) depth
  in
  let close = scan (lx.ppos + 1) 0 in
  let script = String.sub s (lx.ppos + 1) (close - lx.ppos - 1) in
  lx.ppos <- close + 1;
  script

(* A "quoted" operand: backslashes are substituted now, variables and
   commands are collected as parts. A lexical error inside carries the
   parts before it, whose substitutions run before the error. *)
let scan_quoted lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Q_lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  lx.ppos <- lx.ppos + 1;
  let rec go () =
    if lx.ppos >= n then lex_error "missing close quote in expression"
    else
      match s.[lx.ppos] with
      | '"' ->
        lx.ppos <- lx.ppos + 1;
        flush ();
        List.rev !parts
      | '\\' ->
        let repl, j = Chars.backslash_subst s lx.ppos in
        Buffer.add_string buf repl;
        lx.ppos <- j;
        go ()
      | '$' ->
        let name = scan_variable_name lx in
        flush ();
        parts := Q_var name :: !parts;
        go ()
      | '[' ->
        let script = scan_command lx in
        flush ();
        parts := Q_cmd script :: !parts;
        go ()
      | c ->
        Buffer.add_char buf c;
        lx.ppos <- lx.ppos + 1;
        go ()
  in
  try go ()
  with Lex (_, msg) -> raise (Lex ([ A_quoted (List.rev !parts) ], msg))

let scan_braced lx =
  match Chars.find_matching_brace lx.psrc lx.ppos with
  | None -> lex_error "missing close brace in expression"
  | Some j ->
    let content = String.sub lx.psrc (lx.ppos + 1) (j - lx.ppos - 1) in
    lx.ppos <- j + 1;
    content

let scan_number lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let start = lx.ppos in
  let i = ref start in
  let is_num_char c =
    Chars.is_digit c || c = '.' || c = 'x' || c = 'X'
    || (c >= 'a' && c <= 'f')
    || (c >= 'A' && c <= 'F')
  in
  while !i < n && is_num_char s.[!i] do
    (* Accept exponent signs: "1e+5". *)
    if (s.[!i] = 'e' || s.[!i] = 'E')
       && !i + 1 < n
       && (s.[!i + 1] = '+' || s.[!i + 1] = '-')
       && not (String.length s > start + 1 && (s.[start + 1] = 'x' || s.[start + 1] = 'X'))
    then i := !i + 2
    else incr i
  done;
  let text = String.sub s start (!i - start) in
  lx.ppos <- !i;
  match number_of_string text with
  | Some v -> v
  | None -> lex_error "malformed number %S in expression" text

(* A non-whitespace backslash operand is not consumed: the parser sees
   it twice and reports "extra tokens at end of expression". *)
let rec scan_token lx =
  let s = lx.psrc and n = String.length lx.psrc in
  while lx.ppos < n && (Chars.is_space s.[lx.ppos] || s.[lx.ppos] = '\n') do
    lx.ppos <- lx.ppos + 1
  done;
  if lx.ppos >= n then lx.ptok <- P_end
  else
    let two op = lx.ppos <- lx.ppos + 2; lx.ptok <- P_op op in
    let one op = lx.ppos <- lx.ppos + 1; lx.ptok <- P_op op in
    let c = s.[lx.ppos] in
    let c2 = if lx.ppos + 1 < n then Some s.[lx.ppos + 1] else None in
    match (c, c2) with
    | '(', _ -> lx.ppos <- lx.ppos + 1; lx.ptok <- P_lparen
    | ')', _ -> lx.ppos <- lx.ppos + 1; lx.ptok <- P_rparen
    | ',', _ -> lx.ppos <- lx.ppos + 1; lx.ptok <- P_comma
    | '$', _ -> lx.ptok <- P_var (scan_variable_name lx)
    | '[', _ -> lx.ptok <- P_cmd (scan_command lx)
    | '"', _ -> lx.ptok <- P_quoted (scan_quoted lx)
    | '{', _ -> lx.ptok <- P_str (scan_braced lx)
    | '\\', _ ->
      (* Backslash-newline continuation inside expressions. *)
      let repl, j = Chars.backslash_subst s lx.ppos in
      if String.trim repl = "" then begin
        lx.ppos <- j;
        scan_token lx
      end
      else lx.ptok <- P_str repl
    | '0' .. '9', _ -> lx.ptok <- P_num (scan_number lx)
    | '.', Some d when Chars.is_digit d -> lx.ptok <- P_num (scan_number lx)
    | '<', Some '<' -> two "<<"
    | '>', Some '>' -> two ">>"
    | '<', Some '=' -> two "<="
    | '>', Some '=' -> two ">="
    | '=', Some '=' -> two "=="
    | '!', Some '=' -> two "!="
    | '&', Some '&' -> two "&&"
    | '|', Some '|' -> two "||"
    | ('+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '~' | '&' | '|' | '^' | '?' | ':'), _
      -> one (String.make 1 c)
    | ('a' .. 'z' | 'A' .. 'Z' | '_'), _ ->
      let i = ref lx.ppos in
      while !i < n && Chars.is_var_char s.[!i] do
        incr i
      done;
      let name = String.sub s lx.ppos (!i - lx.ppos) in
      lx.ppos <- !i;
      lx.ptok <- P_ident name
    | _ -> lex_error "syntax error in expression near %C" c

let lex_next lx =
  try scan_token lx with Lex (pre, msg) -> lx.ptok <- P_bad (pre, msg)

let stop lx pre msg =
  lx.ptok <- P_stop msg;
  A_fail (pre, msg)

(* The substitution a token performs as it is lexed. *)
let substitution = function
  | P_var name -> Some (A_var name)
  | P_cmd script -> Some (A_cmd script)
  | P_quoted parts -> Some (A_quoted parts)
  | _ -> None

(* [a] is a complete operand and the token after it has been lexed. *)
let after_operand lx a =
  match lx.ptok with
  | P_bad (pre, msg) -> stop lx (a :: pre) msg
  | tok -> (
    match substitution tok with Some e -> A_then (a, e) | None -> a)

let advance lx a =
  lex_next lx;
  after_operand lx a

let rec p_ternary lx =
  let cond = p_binary lx 0 in
  match lx.ptok with
  | P_op "?" -> (
    lex_next lx;
    let t = p_ternary lx in
    match lx.ptok with
    | P_stop msg -> A_ternary (cond, t, A_fail ([], msg))
    | P_op ":" -> (
      lex_next lx;
      let f = p_ternary lx in
      match lx.ptok with
      | P_stop msg -> A_ternary (cond, A_fail ([ t ], msg), f)
      | _ -> A_ternary (cond, t, f))
    | _ ->
      let msg = "missing ':' in ternary expression" in
      A_ternary (cond, A_fail ([ t ], msg), stop lx [] msg))
  | _ -> cond

and p_binary lx min_level =
  let lhs = ref (p_unary lx) in
  let continue_ = ref true in
  while !continue_ do
    match lx.ptok with
    | P_op op -> (
      match binary_level op with
      | Some level when level >= min_level ->
        lex_next lx;
        let rhs = p_binary lx (level + 1) in
        lhs :=
          (match (op, lx.ptok) with
          | "&&", P_stop msg -> A_ternary (!lhs, rhs, A_fail ([], msg))
          | "||", P_stop msg -> A_ternary (!lhs, A_fail ([], msg), rhs)
          | _ -> A_binop (op, !lhs, rhs))
      | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and p_unary lx =
  match lx.ptok with
  | P_op (("-" | "+" | "!" | "~") as op) ->
    lex_next lx;
    A_unop (op, p_unary lx)
  | _ -> p_primary lx

and p_primary lx =
  match lx.ptok with
  | P_num v -> advance lx (A_const v)
  | P_str s -> advance lx (A_const (operand_value s))
  | P_var name -> advance lx (A_var name)
  | P_cmd script -> advance lx (A_cmd script)
  | P_quoted parts ->
    advance lx
      (match parts with
      | [] -> A_const (operand_value "")
      | [ Q_lit s ] -> A_const (operand_value s)
      | _ -> A_quoted parts)
  | P_lparen -> (
    lex_next lx;
    let v = p_ternary lx in
    match lx.ptok with
    | P_rparen -> advance lx v
    | P_stop _ -> v
    | _ -> stop lx [ v ] "missing close paren in expression")
  | P_ident name -> (
    lex_next lx;
    match lx.ptok with
    | P_bad (pre, msg) -> stop lx pre msg
    | P_lparen ->
      lex_next lx;
      p_args lx name []
    | tok -> (
      match String.lowercase_ascii name with
      | "true" | "yes" | "on" -> after_operand lx (A_const (Int 1))
      | "false" | "no" | "off" -> after_operand lx (A_const (Int 0))
      | _ ->
        stop lx
          (Option.to_list (substitution tok))
          (Printf.sprintf "unknown operand %S in expression" name)))
  | P_bad (pre, msg) -> stop lx pre msg
  | P_op op ->
    stop lx [] (Printf.sprintf "unexpected operator %S in expression" op)
  | P_comma -> stop lx [] "unexpected ',' in expression"
  | P_rparen -> stop lx [] "unexpected ')' in expression"
  | P_end -> stop lx [] "premature end of expression"
  | P_stop msg -> A_fail ([], msg)

(* [acc] holds the arguments parsed so far, last first. *)
and p_args lx name acc =
  match lx.ptok with
  | P_rparen -> close_call lx name acc
  | _ -> (
    let v = p_ternary lx in
    match lx.ptok with
    | P_comma ->
      lex_next lx;
      p_args lx name (v :: acc)
    | P_rparen -> close_call lx name (v :: acc)
    | P_stop _ -> A_func (name, List.rev (v :: acc))
    | _ ->
      stop lx (List.rev (v :: acc)) "missing ')' in math function call")

(* The token after a call's ")" is lexed, and substituted, before the
   function applies: a lexical error there wins over the call's own
   errors, and a substitution runs after the last argument. Every math
   function takes an argument, so a call without one always fails. *)
and close_call lx name acc =
  lex_next lx;
  match lx.ptok with
  | P_bad (pre, msg) -> stop lx (List.rev_append acc pre) msg
  | tok -> (
    match (substitution tok, acc) with
    | None, _ -> A_func (name, List.rev acc)
    | Some e, last :: rest -> A_func (name, List.rev (A_then (last, e) :: rest))
    | Some e, [] -> (
      match apply_function name [] with
      | v -> A_then (A_const v, e)
      | exception Error msg -> A_fail ([ e ], msg)))

let parse src =
  let lx = { psrc = src; ppos = 0; ptok = P_end } in
  lex_next lx;
  let a = p_ternary lx in
  match lx.ptok with
  | P_end -> a
  | P_stop msg -> ( match a with A_fail _ -> a | _ -> A_fail ([ a ], msg))
  | _ ->
    stop lx [ a ] (Printf.sprintf "extra tokens at end of expression %S" src)

let rec eval_ast env a =
  match a with
  | A_const v -> v
  | A_var name -> operand_value (env.get_var name)
  | A_cmd script -> operand_value (env.eval_cmd script)
  | A_quoted parts ->
    let buf = Buffer.create 16 in
    List.iter
      (function
        | Q_lit s -> Buffer.add_string buf s
        | Q_var name -> Buffer.add_string buf (env.get_var name)
        | Q_cmd script -> Buffer.add_string buf (env.eval_cmd script))
      parts;
    operand_value (Buffer.contents buf)
  | A_unop (op, x) -> apply_unary op (eval_ast env x)
  | A_binop ("&&", x, y) ->
    if truthy (eval_ast env x) then bool_val (truthy (eval_ast env y))
    else bool_val false
  | A_binop ("||", x, y) ->
    if truthy (eval_ast env x) then bool_val true
    else bool_val (truthy (eval_ast env y))
  | A_binop (op, x, y) ->
    let a = eval_ast env x in
    let b = eval_ast env y in
    apply_binary op a b
  | A_ternary (c, t, f) ->
    if truthy (eval_ast env c) then eval_ast env t else eval_ast env f
  | A_func (name, args) ->
    (* Arguments substitute in lexical order. *)
    let vals =
      List.rev (List.fold_left (fun acc x -> eval_ast env x :: acc) [] args)
    in
    apply_function name vals
  | A_then (x, y) ->
    let v = eval_ast env x in
    ignore (eval_ast env y);
    v
  | A_fail (pre, msg) ->
    List.iter (fun x -> ignore (eval_ast env x)) pre;
    raise (Error msg)
