(* Tests for the bytecode VM: every observable of a script run must be
   byte-identical across three execution tiers — the reference
   character-at-a-time evaluator, the bytecode VM, and the same VM with
   every inlined structural opcode deopted (the structural builtins are
   re-registered, so they are no longer the canonical definitions and
   each opcode dispatches its generic invoke instead).  We compare
   status, result value, errorInfo and the executed-command count; the
   corpus leans on the VM's sharp edges (dual-ported values and %.12g
   float rendering, slot versus hash variable access, inline-cached
   dispatch, multi-part words, deopt when a core builtin is shadowed)
   plus the recursionlimit / resource-limit / cancellation messages.
   The counters section checks the tcl.vm.* metrics. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

type mode = Reference | Vm | Deopt

let mode_name = function
  | Reference -> "reference"
  | Vm -> "vm"
  | Deopt -> "deopt"

let new_interp mode =
  let tcl = Tcl.Builtins.new_interp () in
  (match mode with
  | Reference -> Tcl.Interp.set_compile_enabled tcl false
  | Vm -> ()
  | Deopt ->
    (* Same command procedures, fresh definitions: no longer the ones
       snapshotted as canonical. *)
    Tcl.Cmd_control.install tcl);
  tcl

let status_name = function
  | Tcl.Interp.Tcl_ok -> "ok"
  | Tcl.Interp.Tcl_error -> "error"
  | Tcl.Interp.Tcl_return -> "return"
  | Tcl.Interp.Tcl_break -> "break"
  | Tcl.Interp.Tcl_continue -> "continue"

let observation tcl (status, value) =
  Printf.sprintf "status=%s value=%S errorInfo=%S commands=%d"
    (status_name status) value
    (Tcl.Interp.get_error_info tcl)
    (Tcl.Interp.command_count tcl)

let observe mode script =
  let tcl = new_interp mode in
  observation tcl (Tcl.Interp.eval tcl script)

(* The reference evaluator is the oracle; the VM must reproduce it byte
   for byte both with its structural opcodes inlined and deopted. *)
let differential script () =
  let oracle = observe Reference script in
  check_string (Printf.sprintf "vm: %s" script) oracle (observe Vm script);
  check_string
    (Printf.sprintf "deopt: %s" script)
    oracle (observe Deopt script)

let differential_scripts =
  [
    (* dual-ported values: ints and floats shimmer through string reps *)
    "expr {1.0 / 3}";
    "expr {0.1 + 0.2}";
    "expr {2.5 * 2}";
    "set x [expr {1.0 / 3}]; set y $x; expr {$y * 3}";
    "set x 1e15; expr {$x + 1.0}";
    "expr {double(7)}";
    "set x 3.5; string length $x";
    "set i 5; append i 0; incr i";
    "set x 07; incr x";
    (* int overflow wraps identically on every tier (native 63-bit) *)
    "expr {4611686018427387903 + 1}";
    "expr {-4611686018427387904 - 1}";
    "set x 4611686018427387903; incr x";
    (* end-relative indices and empty-list operations *)
    "lindex {a b c d} end-1";
    "lrange {a b c d e} 1 end-2";
    "lindex {} 0";
    "lrange {} 0 end";
    "llength {}";
    "lsort {}";
    "set l {}; lappend l; set l";
    "linsert {a b c} end-1 X";
    "catch {lindex {a b} end-5} m; set m";
    (* slot-resolved locals, upvar/global aliasing into slotted frames *)
    "proc f {a b} {set c [expr {$a + $b}]; incr c; return $c}; f 3 4";
    "proc f {n} {set n 0; while {$n < 5} {incr n}; set n}; f 99";
    "proc bump {v} {upvar $v x; incr x 10}; proc g {} {set y 1; bump y; \
     set y}; g";
    "set g 100; proc rd {} {global g; incr g; set g}; rd";
    "proc outer {} {set x 1; uplevel {set lifted 5}; set x}; outer; \
     set lifted";
    (* arrays force the hash path inside otherwise-slotted frames *)
    "proc f {} {set a(1) one; set a(2) two; set a(1)}; f";
    "proc f {i} {set a(x$i) v$i; set a(x2)}; f 2";
    (* inline-cached dispatch across redefinition *)
    "proc p {} {return one}; set r [p]; proc p {} {return two}; \
     list $r [p]";
    "proc q {n} {return $n}; set s 0; set i 0; while {$i < 10} {incr i; \
     incr s [q $i]}; set s";
    (* shadowing a core builtin deopts the inlined opcode *)
    "rename set realset; proc set {v x} {realset ::shadowed 1; uplevel \
     [list realset $v $x]}; set probe 7; realset out $probe; rename set {}; \
     rename realset set; list $probe $::shadowed";
    (* catch / return interactions the typed result channel must respect *)
    "proc p {} {catch {return 5}}; p";
    "proc p {} {list [catch {return 5} m] $m}; p";
    "proc p {} {expr {\"[return 9]\"}}; p";
    "proc p {} {catch {error boom} m; set m}; p";
    (* control flow: break/continue from nested bodies *)
    "set s 0; for {set i 0} {$i < 10} {incr i} {if {$i == 3} continue; \
     if {$i == 6} break; incr s $i}; set s";
    "set r {}; foreach i {1 2 3} {foreach j {a b} {if {$j == \"b\"} \
     continue; lappend r $i$j}}; set r";
    (* errors carry the original command text in the trace *)
    "proc inner {} {error boom}; proc outer {} {inner}; outer";
    "proc f {n} {expr {$n + }}; f 1";
    "set x [undefined_cmd]";
    "incr missingvar nonint";
    "proc f {a} {return $a}; f";
    "proc f {a} {return $a}; f 1 2";
    (* PR 7: per-interp recursion limits *)
    "interp recursionlimit 30; proc loop {} {loop}; loop";
    "interp recursionlimit 30; proc loop {} {loop}; list [catch loop m] $m";
    "interp recursionlimit 20; proc down {n} {if {$n == 0} {return done}; \
     down [expr {$n - 1}]}; set a [catch {down 100}]; interp recursionlimit \
     400; list $a [down 100]";
    (* a top-level script whose first lowering happens while [set] or
       [if] is shadowed, so it is never canonical *)
    "rename set set_orig; proc set {args} {uplevel [linsert $args 0 \
     set_orig]}; eval {set a 1; if {$a} {set b [expr {$a + 1}]}; \
     foreach i {1 2} {set c$i $i}; list $a $b $c2}";
    "rename if if_orig; proc if {c b} {uplevel [list if_orig $c $b]}; eval \
     {set n 0; while {$n < 3} {incr n; if {$n == 2} {set hit $n}}; \
     list $n $hit}";
    (* [...] inside multi-part words, at top level and in proc slots *)
    "set x 0; set s \"a[incr x]b\"; list $s $x";
    "set i 0; set arr(1) one; set arr(2) two; list $arr([incr i]) \
     $arr([incr i]) $i";
    "set n 0; set a(k[incr n]) 1; set a(k[incr n]) 2; list [lsort [array \
     names a]] $n";
    "proc f {i} {set a(k$i) v$i; set s \"<$a(k$i)>[incr i]$i\"; list $s \
     $a(k[expr {$i - 1}])}; f 3";
    "set x 0; list \"[incr x]-[incr x]\" $x [catch {set y \"a[error \
     inner]b\"} m] $m";
    (* a syntax error after a side-effecting substitution: the
       substitution still runs before the error is reported *)
    "set n 0; catch {set x \"[incr n]}; set n";
    "set n 0; set x \"[incr n]";
    "proc f {} {set n 0; catch {set x a$n(\"[incr n]}; set n}; f";
    (* a mid-loop shadow whose deopted commands have nested
       substitutions *)
    "set n 0; set log {}; while {$n < 5} {incr n; set log \"$log [expr {$n \
     * 2}]-[string length $log]\"; if {$n == 2} {rename set set_orig; proc \
     set {v args} {uplevel [linsert $args 0 set_orig $v]}}}; rename set {}; \
     rename set_orig set; list $n $log";
    "proc p {} {set n 0; set s {}; while {$n < 4} {incr n; set s \
     \"$s[incr n 0]x${n}:[string length $s]\"; if {$n == 2} {rename incr \
     incr_orig; proc incr {v {by 1}} {upvar $v x; incr_orig x $by}}}; \
     list $n $s}; set r [p]; rename incr {}; rename incr_orig incr; set r";
    (* malformed expressions whose substitutions run before the error
       (one-token lookahead, failures in skipped branches), in expr, if,
       while and for, at top level and in procs *)
    "set z 0; catch {expr {[incr z] [incr z]}}; set z";
    "set z 0; catch {expr {\"a\" + 1 [incr z]}}; set z";
    "set z 0; catch {while {[incr z] <} {}}; set z";
    "set z 0; list [catch {expr {0 && (1 + [incr z]}} m] $m $z";
    "set z 0; list [catch {expr {\"abc\" * 2 [incr z]}} m] $m $z";
    "set z 0; list [catch {if {[incr z] && (} {set x 1}} m] $m $z";
    "set z 0; list [catch {if {0} {} elseif {[incr z] [incr z]} {}} m] $m $z";
    "set z 0; list [catch {for {set i 0} {$i < [incr z] [incr z]} {incr i} \
     {}} m] $m $z";
    "set z 0; list [catch {while {[incr z] < 3 || \"[incr z]} {}} m] $m $z";
    "set z 0; expr {[incr z] + \"q[incr z]\" @}";
    "set z 0; if {1 || [incr z] (} {set x 1}";
    "set z 0; set e {[incr z] [incr z]}; list [catch {expr $e} m] $m $z";
    "set z 0; list [catch {expr {[incr z]} + {[incr z]} [incr z]} m] $m $z";
    "proc p {} {set z 0; list [catch {expr {[incr z] [incr z]}} m] $m $z}; p";
    "proc p {} {set z 0; set r [catch {while {[incr z] < 3 [incr z]} {}} \
     m]; list $r $m $z}; p";
    "proc p {} {set z 0; list [catch {if {$z || \"[incr z]} {}} m] $m $z}; p";
    "proc p {n} {set z 0; list [catch {for {} {[incr z] ? $n :} {} {}} m] \
     $m $z}; p 1";
    "proc p {} {set z 0; list [catch {expr {bogus([incr z]) [incr z]}} m] \
     $m $z}; p";
    "proc p {} {set z 0; if {[incr z] == 1 [incr z]} {set x 1}}; p";
    "proc p {} {set z 0; while {$z < 2 && [incr z] $z} {}}; p";
    "proc p {} {set z 0; for {set i 0} {[incr z] ? 1 : (} {incr i} {}}; p";
    (* shift counts outside 0..62 and int()/round() out of range *)
    "list [catch {expr {1 << -1}} m] $m [expr {1 << 64}] [expr {-5 >> 70}] \
     [expr {5 >> 63}] [expr {1 << 62}]";
    "list [catch {expr {int(1e300)}} m] $m [catch {expr {round(-1e300)}} n] \
     $n [catch {expr {int(sqrt(-1))}} o] $o";
    "proc p {x} {list [catch {expr {$x << -2}} m] $m [expr {$x >> 100}] \
     [expr {-$x >> 100}]}; p 3";
  ]

let differential_tests =
  List.map
    (fun s -> (Printf.sprintf "three tiers identical: %s" s, differential s))
    differential_scripts

(* ------------------------------------------------------------------ *)
(* PR 7 guard machinery under the VM: command budgets, time limits on an
   injected clock, and cancellation must trip at the same command with
   the same message on every tier (the guard spends one budget unit per
   executed command, so parity here proves the VM's command accounting
   matches the reference evaluator exactly). *)

let observe_command_limit mode =
  let tcl = new_interp mode in
  Tcl.Interp.set_command_limit tcl 50;
  let res = Tcl.Interp.eval tcl "set i 0; while 1 {incr i}" in
  Printf.sprintf "%s i=%s" (observation tcl res)
    (Option.value ~default:"?" (Tcl.Interp.get_var tcl "i"))

let observe_time_limit mode =
  let tcl = new_interp mode in
  let ticks = ref 0 in
  Tcl.Interp.set_limit_clock tcl
    (Some
       (fun () ->
         incr ticks;
         !ticks));
  Tcl.Interp.set_time_limit tcl 40;
  let res = Tcl.Interp.eval tcl "set i 0; while 1 {incr i}" in
  Printf.sprintf "%s i=%s" (observation tcl res)
    (Option.value ~default:"?" (Tcl.Interp.get_var tcl "i"))

let observe_cancel ~unwind mode =
  let tcl = new_interp mode in
  Tcl.Interp.register tcl "trip_cancel" (fun _ _ ->
      Tcl.Interp.cancel ~unwind tcl;
      (Tcl.Interp.Tcl_ok, ""));
  let script =
    if unwind then "set i 0; catch {while 1 {incr i; trip_cancel}} m; set m"
    else "set i 0; while 1 {incr i; trip_cancel}"
  in
  let res = Tcl.Interp.eval tcl script in
  Printf.sprintf "%s i=%s" (observation tcl res)
    (Option.value ~default:"?" (Tcl.Interp.get_var tcl "i"))

let guard_differential label observe_fn expect_msg () =
  let oracle = observe_fn Reference in
  check_bool
    (Printf.sprintf "%s: oracle reports %S (got %s)" label expect_msg oracle)
    true
    (let quoted = Printf.sprintf "%S" expect_msg in
     (* The message appears as the value field of the observation. *)
     let rec contains i =
       i + String.length quoted <= String.length oracle
       && (String.sub oracle i (String.length quoted) = quoted
          || contains (i + 1))
     in
     contains 0);
  List.iter
    (fun mode ->
      check_string
        (Printf.sprintf "%s: %s" label (mode_name mode))
        oracle (observe_fn mode))
    [ Vm; Deopt ]

let guard_tests =
  [
    ( "command budget trips at the same command",
      guard_differential "command limit" observe_command_limit
        "command count limit exceeded" );
    ( "time limit trips at the same boundary",
      guard_differential "time limit" observe_time_limit "time limit exceeded"
    );
    ( "plain cancel lands at the same command",
      guard_differential "cancel" (observe_cancel ~unwind:false)
        "eval canceled" );
    ( "unwinding cancel escapes catch identically",
      guard_differential "cancel -unwind" (observe_cancel ~unwind:true)
        "eval unwound" );
  ]

(* ------------------------------------------------------------------ *)
(* tcl.vm.* counters: lowering, slot hits and deopt accounting. *)

let vm_stat tcl key =
  match List.assoc_opt key (Tcl.Interp.vm_stats tcl) with
  | Some v -> v
  | None -> Alcotest.failf "no vm stat %S" key

let vm_stat_int tcl key = int_of_string (vm_stat tcl key)

let run tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let counter_tests =
  [
    ( "hot proc loop lowers code and serves variables from slots",
      fun () ->
        let tcl = new_interp Vm in
        ignore
          (run tcl
             "proc step {n} {expr {$n + 1}}\n\
              set i 0\n\
              while {$i < 100} {set i [step $i]}\n\
              set i");
        check_bool "programs were lowered" true (vm_stat_int tcl "compiled" > 0);
        check_bool "slot hits dominate" true
          (vm_stat_int tcl "slot_hits" > 100) );
    ( "non-canonical builtins still run lowered code, deopting per opcode",
      fun () ->
        let tcl = new_interp Deopt in
        check_string "loop still works" "100"
          (run tcl "set i 0; while {$i < 100} {incr i}; set i");
        check_string "re-registered builtins are not canonical" "0"
          (vm_stat tcl "canonical");
        check_bool "the script was lowered" true
          (vm_stat_int tcl "compiled" > 0);
        (* The while opcode deopts once; its body and condition run
           through the command, as re-entered scripts. *)
        check_bool "structural opcodes deopted" true
          (vm_stat_int tcl "deopts" > 100) );
    ( "shadowing a core builtin flips canonical off and counts deopts",
      fun () ->
        let tcl = new_interp Vm in
        ignore (run tcl "set i 0; while {$i < 5} {incr i}");
        check_string "canonical while builtins are intact" "1"
          (vm_stat tcl "canonical");
        let before = vm_stat_int tcl "deopts" in
        (* The loop is already running as lowered code when iteration 3
           shadows [incr] with a double-stepping proc; the remaining
           iterations must deopt the inlined opcodes back to dispatch
           (so the shadow is honored: 1,2,3 then +2 steps to 5 and 7). *)
        check_string "mid-loop shadow is honored" "7"
          (run tcl
             "set n 0\n\
              while {$n < 6} {\n\
             \  incr n\n\
             \  if {$n == 3} {\n\
             \    rename incr incr_orig\n\
             \    proc incr {v} {upvar $v x; incr_orig x 2}\n\
             \  }\n\
              }\n\
              set n");
        check_string "shadowed builtin drops canonical" "0"
          (vm_stat tcl "canonical");
        check_bool "inlined opcodes deopted to dispatch" true
          (vm_stat_int tcl "deopts" > before);
        ignore (run tcl "rename incr {}");
        ignore (run tcl "rename incr_orig incr");
        check_string "restoring the builtin restores canonical" "1"
          (vm_stat tcl "canonical") );
    ( "a counter reset clears the vm counters",
      fun () ->
        let tcl = new_interp Vm in
        ignore (run tcl "proc f {} {return 1}; f");
        check_bool "counters moved" true (vm_stat_int tcl "compiled" > 0);
        Counters.reset (Tcl.Interp.counters tcl);
        check_int "compiled cleared" 0 (vm_stat_int tcl "compiled");
        check_int "slot hits cleared" 0 (vm_stat_int tcl "slot_hits") );
  ]

(* ------------------------------------------------------------------ *)
(* The counters surface through xstat / the metrics registry as
   tcl.vm.*, alongside tcl.compile.*. *)

let metrics_tests =
  [
    ( "xstat exposes the tcl.vm counters",
      fun () ->
        let server = Server.create () in
        let app =
          Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"xstatvm" ()
        in
        let run_app script =
          match Tcl.Interp.eval_value app.Tk.Core.interp script with
          | Ok v -> v
          | Error msg -> Alcotest.failf "script %S failed: %s" script msg
        in
        ignore (run_app "set i 0; while {$i < 50} {incr i}");
        check_string "canonical visible" "1"
          (run_app "xstat get tcl.vm.canonical");
        let hits = int_of_string (run_app "xstat get tcl.vm.slot_hits") in
        check_bool "slot hits visible and nonzero" true (hits > 0);
        ignore (run_app "xstat reset");
        (* Read slot_hits, not compiled: lowering the [xstat get ...]
           script itself bumps the compiled counter before the command
           reads it, while a variable-free script makes no slot traffic. *)
        check_string "reset clears vm counters" "0"
          (run_app "xstat get  tcl.vm.slot_hits") );
  ]

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "vm"
    [
      ("differential", List.map (fun (n, f) -> tc n f) differential_tests);
      ("guards", List.map (fun (n, f) -> tc n f) guard_tests);
      ("counters", List.map (fun (n, f) -> tc n f) counter_tests);
      ("metrics", List.map (fun (n, f) -> tc n f) metrics_tests);
    ]
