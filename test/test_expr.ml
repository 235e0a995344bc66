(* Tests for Expr's total parser.

   expr_cases.txt freezes the behaviour of Tcl's parse-while-evaluate
   expression evaluator, which substitutes each token as it is lexed:
   2,500 distinct strings from [Expr_gen.gen] with seed 20261017, each
   with that evaluator's parse verdict, its value or error message, and
   the ordered log of variable reads and command substitutions it made
   through [Expr_gen.logging_env]. The recording evaluator already had
   the shift-count and int()/round() range checks (one case, !int(1e300),
   depends on them), so the fixture freezes parsing, substitution order
   and error precedence. Replaying it through [parse] + [eval_ast] must
   reproduce every field byte for byte; a rejected string's root must be
   [A_fail] with the same message. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let fixture = "expr_cases.txt"

let load_cases () =
  In_channel.with_open_bin fixture In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map Expr_gen.case_of_line

let verdict = function
  | Tcl.Expr.A_fail (_, msg) -> "error " ^ msg
  | _ -> "ok"

let replay (c : Expr_gen.case) =
  let ast = Tcl.Expr.parse c.expr in
  let env, log = Expr_gen.logging_env () in
  let result = Expr_gen.outcome (fun () -> Tcl.Expr.eval_ast env ast) in
  { c with parse = verdict ast; result; log = log () }

let fixture_replays () =
  let cases = load_cases () in
  let mismatches =
    List.filter_map
      (fun c ->
        let got = replay c in
        if got = c then None
        else
          Some
            (Printf.sprintf "expected %s\n     got %s" (Expr_gen.case_line c)
               (Expr_gen.case_line got)))
      cases
  in
  (match mismatches with
  | [] -> ()
  | m :: _ ->
    Alcotest.failf "%d of %d cases differ; first:\n%s" (List.length mismatches)
      (List.length cases) m);
  let count p = List.length (List.filter p cases) in
  let rejected (c : Expr_gen.case) = c.parse <> "ok" in
  check_bool "at least 2000 cases" true (List.length cases >= 2000);
  check_bool "at least 500 rejected by the parser" true (count rejected >= 500);
  check_bool "at least 100 with a substitution before the syntax error" true
    (count (fun c ->
         rejected c && c.log <> [] && String.starts_with ~prefix:"error" c.result)
    >= 100)

(* Probes, each checked against the parse-while-evaluate evaluator:
   one-token lookahead, a failure inside a skipped branch, a type error
   that precedes the syntax error, the lookahead's placement after
   calls, parenthesised groups and ternary branches, and a failing
   branch of &&, || or ?: under a pending operator that must not
   apply. *)
let probe expr ~result ~log () =
  let got = replay { Expr_gen.expr; parse = ""; result = ""; log = [] } in
  check_string expr result got.result;
  Alcotest.(check (list string)) (expr ^ " log") log got.log

let probes =
  [
    ( "lookahead substitutes before the operator fails",
      probe {|"a" + 1 [incr z]|} ~result:{|error expected number but got "a"|}
        ~log:[ "cmd incr z" ] );
    ( "failure in a skipped branch still raises",
      probe "0 && (1 + [incr z]"
        ~result:"error missing close paren in expression" ~log:[] );
    ( "first type error wins over extra tokens",
      probe {|"abc" * 2 2|} ~result:{|error expected number but got "abc"|}
        ~log:[] );
    ( "lookahead after a call runs before the function applies",
      probe "bogus(1) [incr z]"
        ~result:{|error unknown math function "bogus"|} ~log:[ "cmd incr z" ] );
    ( "lexical error after a call wins over the call",
      probe "bogus(1) @" ~result:"error syntax error in expression near '@'"
        ~log:[] );
    ( "partial quoted substitutions run before its lexical error",
      probe {|1 + "$a[incr z]|} ~result:"error missing close quote in expression"
        ~log:[ "get a"; "cmd incr z" ] );
    ( "lookahead after an argumentless call",
      probe "int() [incr z]"
        ~result:{|error math function "int" takes one argument|}
        ~log:[ "cmd incr z" ] );
    ( "a parenthesised call applies before the lookahead",
      probe "(bogus(1)) [incr z]"
        ~result:{|error unknown math function "bogus"|} ~log:[] );
    ( "lookahead after a skipped ternary branch is not substituted",
      probe "1 ? 2 : 3 [incr z]"
        ~result:{|error extra tokens at end of expression "1 ? 2 : 3 [incr z]"|}
        ~log:[] );
    ( "lookahead after a taken ternary branch is substituted",
      probe "0 ? 2 : 3 [incr z]"
        ~result:{|error extra tokens at end of expression "0 ? 2 : 3 [incr z]"|}
        ~log:[ "cmd incr z" ] );
    ( "lookahead after an unknown operand",
      probe "foo [incr z]"
        ~result:{|error unknown operand "foo" in expression|}
        ~log:[ "cmd incr z" ] );
    ( "lookahead inside an unclosed call",
      probe "sin(1, [incr z]"
        ~result:"error missing ')' in math function call"
        ~log:[ "cmd incr z" ] );
  ]
  @ List.map
      (fun (expr, msg, log) ->
        ( "an error in a branch aborts the pending operator: " ^ expr,
          probe expr ~result:("error " ^ msg) ~log ))
      [
        ({|"abc" + (0 && (1|}, "missing close paren in expression", []);
        ({|"abc" + (0 || (1|}, "missing close paren in expression", []);
        ({|"abc" + (1 || ([incr z]|}, "missing close paren in expression", []);
        ({|"abc" + (0 ? ([incr z] : 2)|}, "missing close paren in expression", []);
        ({|"abc" + (1 ? (2 : 3)|}, "missing close paren in expression", []);
        ( {|"abc" + (1 ? [incr z] : (3|},
          "missing close paren in expression",
          [ "cmd incr z" ] );
        ({|"abc" + (0 ? [incr z] 3)|}, "missing ':' in ternary expression", []);
        ( {|"abc" + (1 ? [incr z] 3)|},
          "missing ':' in ternary expression",
          [ "cmd incr z" ] );
      ]

(* ------------------------------------------------------------------ *)
(* Totality: parse never raises, and eval_ast raises nothing but
   Expr.Error, with an environment that answers with fixed values or
   fails with Expr.Error. *)

let fixed_env =
  {
    Tcl.Expr.get_var =
      (fun name ->
        if String.length name mod 2 = 0 then "12"
        else raise (Tcl.Expr.Error "no such variable"));
    eval_cmd =
      (fun script ->
        if String.length script mod 3 = 0 then raise (Tcl.Expr.Error "boom")
        else "2.5");
  }

let total src =
  match Tcl.Expr.eval_ast fixed_env (Tcl.Expr.parse src) with
  | _ | (exception Tcl.Expr.Error _) -> true

let total_on_bytes =
  QCheck.Test.make ~name:"parse and eval_ast are total on byte strings"
    ~count:2000
    QCheck.(string_gen_of_size Gen.(int_bound 40) Gen.char)
    total

let expr_chars = "0123456789.xe+-*/%<>=!&|^~?:,()[]{}$\"\\ \nabsintfoo"

let total_on_expr_chars =
  QCheck.Test.make ~name:"parse and eval_ast are total on expression characters"
    ~count:2000
    QCheck.(
      string_gen_of_size Gen.(int_bound 40)
        Gen.(map (String.get expr_chars) (int_bound (String.length expr_chars - 1))))
    total

let total_on_generated =
  QCheck.Test.make ~name:"parse and eval_ast are total on generated expressions"
    ~count:2000 (QCheck.make ~print:Fun.id Expr_gen.gen) total

let () =
  Alcotest.run "expr"
    [
      ("fixture", [ Alcotest.test_case "frozen cases replay byte-identically" `Quick fixture_replays ]);
      ("probes", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) probes);
      ( "totality",
        List.map QCheck_alcotest.to_alcotest
          [ total_on_bytes; total_on_expr_chars; total_on_generated ] );
    ]
