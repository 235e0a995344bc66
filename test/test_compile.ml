(* Tests for the parse-once compilation layer: the compiled evaluator
   must be byte-identical to the reference character-at-a-time evaluator
   (values, statuses, errorInfo traces, command counts), caches must be
   shared, bounded and never stale, and the [time]/clock satellites must
   behave. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let new_interp ~compile () =
  let tcl = Tcl.Builtins.new_interp () in
  Tcl.Interp.set_compile_enabled tcl compile;
  tcl

let stat tcl key =
  match List.assoc_opt key (Tcl.Interp.compile_stats tcl) with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "no compile stat %S" key

let run tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

(* ------------------------------------------------------------------ *)
(* Differential: every observable of a script run must be identical with
   the compile cache on and off.  Each script runs in two fresh
   interpreters; we compare status, result value, errorInfo and the
   executed-command count. *)

let observe ~compile script =
  let tcl = new_interp ~compile () in
  let status, value = Tcl.Interp.eval tcl script in
  let status_name =
    match status with
    | Tcl.Interp.Tcl_ok -> "ok"
    | Tcl.Interp.Tcl_error -> "error"
    | Tcl.Interp.Tcl_return -> "return"
    | Tcl.Interp.Tcl_break -> "break"
    | Tcl.Interp.Tcl_continue -> "continue"
  in
  Printf.sprintf "status=%s value=%S errorInfo=%S commands=%d" status_name
    value
    (Tcl.Interp.get_error_info tcl)
    (Tcl.Interp.command_count tcl)

let differential script () =
  check_string script (observe ~compile:false script)
    (observe ~compile:true script)

let differential_scripts =
  [
    (* plain commands, separators, grouping *)
    "set a 1000";
    "set a 1; set b 2; set a";
    "set a 1\nset b 2\nset b";
    "set msg \"Hello, world\"";
    "set x {a b {x1 x2}}";
    "set a 5; set b {$a}";
    "set a 5; set b \"$a!\"";
    "set ab 7; set x ${ab}";
    "set x [set y [set z 9]]";
    "set y 5; set x a[set y]b";
    "set x \\$a";
    "set x a\\nb";
    "set x \\x41";
    "# a comment\nset x 3";
    "set x {a;b}";
    "set x a$; set x";
    "";
    "  \n\t ";
    "set x ]";
    (* arrays and variable forms *)
    "set a(1) one; set a(2) two; set a(1)";
    "set i 2; set a(x$i) v; set a(x2)";
    (* control flow *)
    "set r {}; foreach i {a b c} {lappend r $i-}; set r";
    "set s 0; for {set i 1} {$i <= 10} {incr i} {incr s $i}; set s";
    "set s 0; set i 0; while {$i < 5} {incr i; if {$i == 3} continue; \
     incr s $i}; set s";
    "set i 0; while 1 {incr i; if {$i == 4} break}; set i";
    "if {1 < 2} {set x yes} else {set x no}";
    (* procs, recursion, return *)
    "proc double {n} {expr {$n * 2}}; double 21";
    "proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr \
     {$n - 1}]]}}; fact 6";
    "proc p {} {return early; set never 1}; p";
    (* uplevel / upvar / global *)
    "proc bump {v} {upvar $v x; incr x}; set c 5; bump c; set c";
    "proc setter {} {uplevel {set outer 42}}; setter; set outer";
    "set g 1; proc rd {} {global g; incr g}; rd; set g";
    (* eval-constructed scripts *)
    "set body {set x 5}; eval $body; set x";
    "set cmd set; $cmd x 9";
    "eval {set a 1} ; eval \"set b [set a]\"; set b";
    (* catch and errors *)
    "catch {undefined_cmd a b} msg; set msg";
    "catch {expr {1 /}} msg; set msg";
    "catch {set} msg; set msg";
    "proc inner {} {error boom}; proc outer {} {inner}; catch outer m; \
     set m";
    (* errors that propagate to top level (errorInfo trace compared) *)
    "proc inner {} {error boom}; proc outer {} {inner}; outer";
    "undefined_cmd a b";
    "set x [undefined_cmd]";
    "expr {2 +}";
    "incr notanumbervar";
    "while {1} {error inside-loop}";
    "if {[error in-cond]} {set x 1}";
    (* syntax errors, including mid-script ones with side effects *)
    "set x {unclosed";
    "set x [set y 1";
    "set x \"unclosed";
    "set ok 1; set x {unclosed";
    "set x {abc}]";
    (* expressions: operators, functions, short-circuit *)
    "expr {3 + 4 * 2}";
    "expr {(3 + 4) * 2}";
    "expr {7 % 3 == 1 ? \"yes\" : \"no\"}";
    "expr {\"abc\" < \"abd\"}";
    "set i 0; expr {$i > 0 && [incr i]}; set i";
    "set i 0; expr {1 || [incr i]}; set i";
    "expr {int(3.9) + abs(-2)}";
    "set n 4; expr {$n * $n}";
    "expr 1 + 2";
    (* recursion limits (PR7): the overflow error, its catchability and
       re-arming must look the same from both evaluators *)
    "interp recursionlimit 30; proc loop {} {loop}; loop";
    "interp recursionlimit 30; proc loop {} {loop}; list [catch loop m] $m";
    "interp recursionlimit 20; proc down {n} {if {$n == 0} {return done}; \
     down [expr {$n - 1}]}; set a [catch {down 100}]; interp recursionlimit \
     400; list $a [down 100]";
    (* malformed expressions whose substitutions run before the error *)
    "set z 0; catch {expr {[incr z] [incr z]}}; set z";
    "set z 0; catch {expr {\"a\" + 1 [incr z]}}; set z";
    "set z 0; catch {while {[incr z] <} {}}; set z";
    "set z 0; list [catch {expr {0 && (1 + [incr z]}} m] $m $z";
    "set z 0; list [catch {expr {\"abc\" * 2 [incr z]}} m] $m $z";
    "set z 0; list [catch {if {[incr z] && (} {set x 1}} m] $m $z";
    "set z 0; list [catch {for {set i 0} {$i < [incr z] [incr z]} {incr i} \
     {}} m] $m $z";
    "set z 0; expr {[incr z] + \"q[incr z]\" @}";
    "set z 0; if {1 || [incr z] (} {set x 1}";
    "set z 0; set e {[incr z] [incr z]}; list [catch {expr $e} m] $m $z";
    "proc p {} {set z 0; list [catch {expr {[incr z] [incr z]}} m] $m $z}; p";
    "proc p {} {set z 0; set r [catch {while {[incr z] < 3 [incr z]} {}} \
     m]; list $r $m $z}; p";
    "proc p {} {set z 0; list [catch {if {$z || \"[incr z]} {}} m] $m $z}; p";
    "proc p {n} {set z 0; list [catch {for {} {[incr z] ? $n :} {} {}} m] \
     $m $z}; p 1";
    "proc p {} {set z 0; list [catch {expr {bogus([incr z]) [incr z]}} m] \
     $m $z}; p";
    "proc p {} {set z 0; if {[incr z] == 1 [incr z]} {set x 1}}; p";
    "list [catch {expr {1 << -1}} m] $m [expr {1 << 64}] [expr {-5 >> 70}] \
     [expr {5 >> 63}] [expr {1 << 62}]";
    "list [catch {expr {int(1e300)}} m] $m [catch {expr {round(-1e300)}} n] \
     $n [catch {expr {int(sqrt(-1))}} o] $o";
  ]

let differential_tests =
  List.map (fun s -> (Printf.sprintf "on/off identical: %s" s, differential s))
    differential_scripts

(* ------------------------------------------------------------------ *)
(* Cache behavior: shared entries, hits/misses, freshness across proc
   redefinition and rename, bounded size. *)

let cache_tests =
  [
    ( "second evaluation of a script is a cache hit",
      fun () ->
        let tcl = new_interp ~compile:true () in
        ignore (run tcl "set x 1; set y 2");
        check_int "misses after first run" 1 (stat tcl "script_misses");
        check_int "hits after first run" 0 (stat tcl "script_hits");
        ignore (run tcl "set x 1; set y 2");
        check_int "hits after second run" 1 (stat tcl "script_hits");
        check_int "misses unchanged" 1 (stat tcl "script_misses") );
    ( "loop bodies share one cache entry across iterations",
      fun () ->
        let tcl = new_interp ~compile:true () in
        (* Inlined loop bodies run as lowered code without consulting
           the cache; a body re-entered through [eval] looks it up on
           every iteration, missing once and then hitting. *)
        ignore
          (run tcl "set body {incr i}; set i 0; while {$i < 100} {eval $body}");
        check_bool "hits dominate" true
          (stat tcl "script_hits" > 90);
        check_bool "misses stay small" true (stat tcl "script_misses" < 10) );
    ( "compiled evaluation performs no legacy parse passes",
      fun () ->
        let tcl = new_interp ~compile:true () in
        ignore (run tcl "set i 0; while {$i < 50} {incr i}");
        let compiles = stat tcl "script_compiles" in
        check_int "one parse pass per compile" compiles
          (stat tcl "parse_passes") );
    ( "proc redefinition replaces the compiled body",
      fun () ->
        let tcl = new_interp ~compile:true () in
        ignore (run tcl "proc greet {} {return old}");
        check_string "old body" "old" (run tcl "greet");
        ignore (run tcl "proc greet {} {return new}");
        check_string "new body" "new" (run tcl "greet") );
    ( "renamed proc keeps its compiled body; name can be reused",
      fun () ->
        let tcl = new_interp ~compile:true () in
        ignore (run tcl "proc greet {} {return original}");
        check_string "before rename" "original" (run tcl "greet");
        ignore (run tcl "rename greet hello");
        check_string "after rename" "original" (run tcl "hello");
        ignore (run tcl "proc greet {} {return replacement}");
        check_string "reused name" "replacement" (run tcl "greet");
        check_string "renamed untouched" "original" (run tcl "hello") );
    ( "script cache is bounded",
      fun () ->
        let tcl = new_interp ~compile:true () in
        for i = 1 to 700 do
          ignore (run tcl (Printf.sprintf "set x %d" i))
        done;
        check_bool "size stays within the limit" true
          (stat tcl "script_cache_size" <= 512);
        check_bool "evictions happened" true (stat tcl "script_evictions" > 0)
    );
    ( "clear_compile_caches empties both caches",
      fun () ->
        let tcl = new_interp ~compile:true () in
        ignore (run tcl "set x [expr {1 + 2}]");
        Tcl.Interp.clear_compile_caches tcl;
        check_int "script cache empty" 0 (stat tcl "script_cache_size");
        (* The interpreter still works after a cache flush. *)
        check_string "still evaluates" "3" (run tcl "set x [expr {1 + 2}]") );
    ( "disabled cache records no hits and evaluates identically",
      fun () ->
        let tcl = new_interp ~compile:false () in
        ignore (run tcl "set x 1");
        ignore (run tcl "set x 1");
        check_int "no hits" 0 (stat tcl "script_hits");
        check_int "no misses" 0 (stat tcl "script_misses");
        check_bool "legacy parse passes counted" true
          (stat tcl "parse_passes" > 0) );
    ( "expr ASTs are cached and reused",
      fun () ->
        let tcl = new_interp ~compile:true () in
        (* Literal expressions are lowered into the VM's typed IR; a
           non-literal [expr $e] goes through the AST cache on every
           iteration. *)
        ignore
          (run tcl
             "set e {$i + 1}; set i 0; while {$i < 20} {set i [expr $e]}");
        check_bool "expr hits recorded" true (stat tcl "expr_hits" > 10) );
  ]

(* ------------------------------------------------------------------ *)
(* Satellite: [time] propagates abnormal completions and reads the
   pluggable clock. *)

let time_tests =
  [
    ( "time propagates break out of the loop",
      fun () ->
        let tcl = new_interp ~compile:true () in
        check_string "break escapes time" "1"
          (run tcl
             "set i 0; while 1 {incr i; time {break} 5; incr i 100}; set i")
    );
    ( "time propagates continue",
      fun () ->
        let tcl = new_interp ~compile:true () in
        check_string "continue escapes time" "0"
          (run tcl
             "set s 0; foreach i {1 2 3} {time {continue} 2; incr s $i}; \
              set s") );
    ( "time propagates return from a proc",
      fun () ->
        let tcl = new_interp ~compile:true () in
        check_string "return escapes time" "7"
          (run tcl "proc p {} {time {return 7} 5; return never}; p") );
    ( "time propagates errors with the body's trace",
      fun () ->
        let tcl = new_interp ~compile:true () in
        (match Tcl.Interp.eval tcl "time {error boom} 3" with
        | Tcl.Interp.Tcl_error, msg -> check_string "error value" "boom" msg
        | status, v ->
          Alcotest.failf "expected error, got %s %S"
            (match status with Tcl.Interp.Tcl_ok -> "ok" | _ -> "other")
            v);
        check_bool "errorInfo mentions the body" true
          (let info = Tcl.Interp.get_error_info tcl in
           String.length info > 0) );
    ( "time reads the pluggable clock",
      fun () ->
        let tcl = new_interp ~compile:true () in
        (* A fake clock that advances 1 ms per reading: [time] reads it
           once before and once after the loop, so 10 iterations measure
           1 ms total = 100 us per iteration, deterministically. *)
        let ticks = ref 0.0 in
        Tcl.Interp.set_time_source tcl
          (Some (fun () -> ticks := !ticks +. 0.001; !ticks));
        check_string "deterministic measurement"
          "100 microseconds per iteration" (run tcl "time {set x 1} 10") );
    ( "time rejects a bad count with context",
      fun () ->
        let tcl = new_interp ~compile:true () in
        match Tcl.Interp.eval tcl "time {set x 1} notanint" with
        | Tcl.Interp.Tcl_error, msg ->
          check_string "count context"
            "expected integer but got \"notanint\" (reading iteration count)"
            msg
        | _, v -> Alcotest.failf "expected error, got %S" v );
    ( "incr reports which variable failed to parse",
      fun () ->
        let tcl = new_interp ~compile:true () in
        ignore (run tcl "set v notanumber");
        match Tcl.Interp.eval tcl "incr v" with
        | Tcl.Interp.Tcl_error, msg ->
          check_string "incr context"
            "expected integer but got \"notanumber\" (reading value of \
             variable \"v\" to increment)"
            msg
        | _, v -> Alcotest.failf "expected error, got %S" v );
  ]

(* ------------------------------------------------------------------ *)
(* Binding dispatch: a storm of events over a button grid must hit the
   script cache nearly every time, and the counters must be visible
   through xstat / the metrics registry. *)

let fresh_app ?(name = "compiletest") () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (server, app)

let run_app app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let binding_tests =
  [
    ( "binding storm hit rate exceeds 90%",
      fun () ->
        let server, app = fresh_app () in
        for i = 0 to 8 do
          ignore (run_app app (Printf.sprintf "button .b%d -text b%d" i i));
          ignore (run_app app (Printf.sprintf "pack append . .b%d {top}" i));
          ignore (run_app app (Printf.sprintf "bind .b%d z {incr hits}" i))
        done;
        ignore (run_app app "set hits 0");
        Tk.Core.update app;
        let w = Tk.Core.lookup_exn app ".b4" in
        let win =
          Option.get (Server.lookup_window server w.Tk.Core.win)
        in
        let p = Window.root_position win in
        Server.inject_motion server ~x:(p.Geom.x + 2) ~y:(p.Geom.y + 2);
        Tk.Core.update app;
        Tk.Core.reset_metrics app;
        for _ = 1 to 50 do
          Server.inject_key server ~keysym:"z" ~pressed:true;
          Tk.Core.update app
        done;
        check_string "all dispatches ran" "50" (run_app app "set hits");
        let m key =
          match Tk.Core.metric app ("tcl.compile." ^ key) with
          | Some v -> int_of_string v
          | None -> Alcotest.failf "missing metric tcl.compile.%s" key
        in
        let hits = m "script_hits" and misses = m "script_misses" in
        let rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
        check_bool
          (Printf.sprintf "hit rate %.2f > 0.9 (hits %d misses %d)" rate hits
             misses)
          true (rate > 0.9) );
    ( "xstat exposes the tcl.compile counters",
      fun () ->
        let _server, app = fresh_app ~name:"xstatcompile" () in
        ignore (run_app app "set x 1");
        ignore (run_app app "set x 1");
        let hits =
          int_of_string (run_app app "xstat get tcl.compile.script_hits")
        in
        check_bool "script_hits via xstat" true (hits >= 1);
        ignore (run_app app "xstat reset");
        (* Re-running the same [xstat get ...] text would itself score a
           cache hit before the command reads the counter; a differently
           spelled script is a miss, so it observes the reset value. *)
        check_string "reset clears the counter" "0"
          (run_app app "xstat get  tcl.compile.script_hits") );
  ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Recursion limit: both evaluators emit Tcl's exact overflow message *)

let overflow_phrase = "too many nested evaluations (infinite loop?)"

let overflow_message ~compile () =
  let tcl = new_interp ~compile () in
  Tcl.Interp.set_recursion_limit tcl 25;
  ignore (run tcl "proc loop {} {loop}");
  match Tcl.Interp.eval tcl "loop" with
  | Tcl.Interp.Tcl_error, msg ->
    let first_line =
      match String.index_opt msg '\n' with
      | Some i -> String.sub msg 0 i
      | None -> msg
    in
    check_string "exact Tcl message" overflow_phrase first_line
  | status, v ->
    Alcotest.failf "expected overflow error, got %s %S"
      (match status with Tcl.Interp.Tcl_ok -> "ok" | _ -> "non-error")
      v

let recursion_tests =
  [
    ("overflow message, reference path", overflow_message ~compile:false);
    ("overflow message, compiled path", overflow_message ~compile:true);
  ]

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "compile"
    [
      ("differential", List.map (fun (n, f) -> tc n f) differential_tests);
      ("recursion", List.map (fun (n, f) -> tc n f) recursion_tests);
      ("caches", List.map (fun (n, f) -> tc n f) cache_tests);
      ("time", List.map (fun (n, f) -> tc n f) time_tests);
      ("bindings", List.map (fun (n, f) -> tc n f) binding_tests);
    ]
