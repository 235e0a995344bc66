(* The X protocol error model, fault injection and graceful degradation
   (ROADMAP: robustness). Exercises every layer: typed X_error values
   from the simulated server, the deterministic fault-injection plan,
   resource-cache fallbacks, widget operations on dead windows, the
   tkerror background-error pipeline, and the full widget tour built
   while every 7th request is rejected. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_app ?(name = "test") () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (server, app)

let fallbacks app = Counters.value app.Tk.Core.counters "rescache_fallbacks"

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let expect_error app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> Alcotest.failf "script %S unexpectedly returned %S" script v
  | Error msg -> msg

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Route a button click at a widget's center. *)
let click app path =
  let server = app.Tk.Core.server in
  let w = Tk.Core.lookup_exn app path in
  let win = Option.get (Server.lookup_window server w.Tk.Core.win) in
  let p = Window.root_position win in
  let x = p.Geom.x + (w.Tk.Core.width / 2)
  and y = p.Geom.y + (w.Tk.Core.height / 2) in
  Server.inject_motion server ~x ~y;
  Server.inject_button server ~button:1 ~pressed:true;
  Server.inject_button server ~button:1 ~pressed:false;
  Tk.Core.update app

(* ------------------------------------------------------------------ *)
(* The error model: typed X errors from the server *)

let error_model_tests =
  [
    ( "scripted fault raises X_error with the requested code",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.script_fault server Xerror.BadAlloc;
        (match Server.alloc_color conn "red" with
        | _ -> Alcotest.fail "expected an X_error"
        | exception Xerror.X_error e ->
          check_string "code" "BadAlloc" (Xerror.code_name e.Xerror.code);
          check_bool "injected" true e.Xerror.injected;
          check_bool "serial counted" true (e.Xerror.serial > 0));
        check_int "injected count" 1 (Server.faults_injected server);
        (* The plan is one-shot: the retry succeeds. *)
        check_bool "retry succeeds" true
          (Server.alloc_color conn "red" <> None) );
    ( "operations on a destroyed window raise a genuine BadWindow",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        let win =
          Server.create_window conn ~parent:(Server.root server) ~x:0 ~y:0
            ~width:10 ~height:10 ~border_width:0
        in
        Server.destroy_window conn win;
        (match Server.map_window conn win with
        | () -> Alcotest.fail "expected an X_error"
        | exception Xerror.X_error e ->
          check_string "code" "BadWindow" (Xerror.code_name e.Xerror.code);
          check_bool "not injected" false e.Xerror.injected;
          check_int "resource" win e.Xerror.resource;
          (* Genuine errors don't count toward the injected/absorbed
             invariant even when a layer above absorbs them. *)
          Server.note_absorbed server e);
        check_int "injected" 0 (Server.faults_injected server);
        check_int "absorbed" 0 (Server.faults_absorbed server) );
    ( "periodic plan is deterministic for a fixed seed",
      fun () ->
        let stream seed =
          let server = Server.create () in
          let conn = Server.connect server ~name:"t" in
          let win =
            Server.create_window conn ~parent:(Server.root server) ~x:0 ~y:0
              ~width:50 ~height:50 ~border_width:0
          in
          Server.set_fault_plan server ~seed ~fail_every_nth:5 ();
          List.init 23 (fun _ ->
              match Server.clear_window conn win with
              | () -> false
              | exception Xerror.X_error _ -> true)
        in
        check_bool "same seed, same faults" true (stream 3 = stream 3);
        check_bool "faults actually fire" true (List.mem true (stream 3));
        check_bool "different seed shifts the phase" true
          (stream 0 <> stream 3) );
    ( "fail_kind scopes injection to one request class",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        let win =
          Server.create_window conn ~parent:(Server.root server) ~x:0 ~y:0
            ~width:50 ~height:50 ~border_width:0
        in
        Server.set_fault_plan server ~fail_every_nth:1
          ~fail_kind:Server.Resource ();
        (* Non-resource requests sail through... *)
        Server.clear_window conn win;
        Server.map_window conn win;
        (* ...every resource allocation is rejected with BadAlloc. *)
        (match Server.alloc_color conn "blue" with
        | _ -> Alcotest.fail "expected an X_error"
        | exception Xerror.X_error e ->
          check_string "code" "BadAlloc" (Xerror.code_name e.Xerror.code));
        check_int "one injected" 1 (Server.faults_injected server) );
    ( "clear_faults disarms injection but keeps counters",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.script_fault server Xerror.BadFont;
        (match Server.open_font conn "fixed" with
        | _ -> Alcotest.fail "expected an X_error"
        | exception Xerror.X_error _ -> ());
        Server.set_fault_plan server ~fail_every_nth:1 ();
        Server.clear_faults server;
        check_bool "disarmed" true (Server.open_font conn "fixed" <> None);
        check_int "counter kept" 1 (Server.faults_injected server) );
  ]

(* ------------------------------------------------------------------ *)
(* Resource-cache degradation *)

let degradation_tests =
  [
    ( "color allocation degrades to monochrome",
      fun () ->
        let _server, app = fresh_app () in
        let server = app.Tk.Core.server in
        let cache = app.Tk.Core.cache in
        Server.script_fault server Xerror.BadAlloc;
        (match Tk.Rescache.color cache "orchid" with
        | Some c -> check_string "dark names go black" "#000000" (Color.to_hex c)
        | None -> Alcotest.fail "expected a fallback color");
        Server.script_fault server Xerror.BadAlloc;
        (match Tk.Rescache.color cache "white smoke" with
        | Some c ->
          check_string "light names stay white" "#ffffff" (Color.to_hex c)
        | None -> Alcotest.fail "expected a fallback color");
        check_int "two fallbacks" 2 (fallbacks app);
        check_int "absorbed = injected" (Server.faults_injected server)
          (Server.faults_absorbed server);
        (* The substitute was cached like a real answer: no new fault. *)
        ignore (Tk.Rescache.color cache "orchid");
        check_int "cached" 2 (fallbacks app) );
    ( "font allocation degrades to the fixed font",
      fun () ->
        let _server, app = fresh_app () in
        let server = app.Tk.Core.server in
        Server.script_fault server Xerror.BadFont;
        (match Tk.Rescache.font app.Tk.Core.cache "*-times-18-*" with
        | Some f -> check_string "family" "fixed" f.Font.family
        | None -> Alcotest.fail "expected a fallback font");
        check_int "absorbed = injected" (Server.faults_injected server)
          (Server.faults_absorbed server) );
    ( "GC allocation degrades to a client-side context",
      fun () ->
        let _server, app = fresh_app () in
        let server = app.Tk.Core.server in
        let cache = app.Tk.Core.cache in
        (* Prime the component caches so the scripted fault lands on the
           CreateGC request itself, not on a color lookup. *)
        ignore (Tk.Rescache.gc cache ~foreground:"black" ~background:"white" ());
        let before = fallbacks app in
        Server.script_fault server Xerror.BadAlloc;
        let gc = Tk.Rescache.gc cache ~foreground:"white" ~background:"black" () in
        check_int "null id" Xid.none gc.Gcontext.gc_id;
        check_int "one fallback" (before + 1) (fallbacks app);
        check_int "absorbed = injected" (Server.faults_injected server)
          (Server.faults_absorbed server) );
    ( "widget operations on a dead window are no-ops",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "frame .f -width 40 -height 40; pack append . .f {top}");
        Tk.Core.update app;
        let w = Tk.Core.lookup_exn app ".f" in
        (* Kill the window server-side, bypassing the widget layer (as a
           window manager or a buggy peer could). *)
        Server.destroy_window app.Tk.Core.conn w.Tk.Core.win;
        (* Client-side operations degrade to no-ops instead of raising. *)
        Tk.Core.move_resize w ~x:5 ~y:5 ~width:30 ~height:30;
        Tk.Core.schedule_redraw w;
        Tk.Core.update app;
        (* The DestroyNotify has been processed: the widget is forgotten. *)
        check_bool "forgotten" true
          (match Tk.Core.lookup app ".f" with
          | None -> true
          | Some w -> w.Tk.Core.destroyed) );
  ]

(* ------------------------------------------------------------------ *)
(* Background errors: the tkerror pipeline *)

let tkerror_tests =
  [
    ( "binding errors route through tkerror and the loop survives",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "proc tkerror msg {global errs; lappend errs $msg}");
        ignore
          (run app
             "button .b -text hi; pack append . .b {top}; bind .b <Button-1> \
              {error boom}");
        Tk.Core.update app;
        click app ".b";
        check_bool "tkerror saw the error" true
          (contains ~needle:"boom" (run app "set errs"));
        (* The event loop is still alive: a second click reports again. *)
        click app ".b";
        check_int "two reports" 2
          (int_of_string (run app "llength $errs")) );
    ( "tkerror is preferred over bgerror",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "proc tkerror msg {global who; set who tkerror}");
        ignore (run app "proc bgerror msg {global who; set who bgerror}");
        ignore (run app "after 0 {error x}");
        Tk.Core.update app;
        check_string "handler" "tkerror" (run app "set who") );
    ( "timer script errors reach tkerror with context",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "proc tkerror msg {global last; set last $msg}");
        ignore (run app "after 0 {error tick-fail}");
        Tk.Core.update app;
        check_bool "message" true
          (contains ~needle:"tick-fail" (run app "set last")) );
    ( "X errors in dispatcher callbacks are absorbed",
      fun () ->
        let _server, app = fresh_app () in
        ignore
          (Tk.Dispatch.after app.Tk.Core.disp ~ms:0 (fun () ->
               Xerror.raise_error Xerror.BadValue));
        (* Would previously unwind mainloop/update; now absorbed. *)
        Tk.Core.update app;
        check_bool "loop alive" true (not app.Tk.Core.app_destroyed) );
    ( "errorInfo is populated for background errors",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "proc tkerror msg {}");
        ignore (run app "after 0 {error deep-failure}");
        Tk.Core.update app;
        check_bool "stack trace" true
          (contains ~needle:"deep-failure" (run app "info errorinfo")) );
  ]

(* ------------------------------------------------------------------ *)
(* send to dead peers *)

let send_tests =
  [
    ( "stale registry entries are pruned; send reports them as unknown",
      fun () ->
        let _server, app = fresh_app () in
        (* Forge a registry entry whose communication window is dead, as
           would linger after a peer crashed without cleanup. The registry
           garbage-collects it on the next read, so it is never visible in
           [winfo interps] and a send reports an unknown interpreter (a
           Tcl error, not a crash). *)
        let entries = Tk.Core.read_registry app in
        Tk.Core.write_registry app (entries @ [ ("ghost", 424242) ]);
        check_bool "ghost never listed" false
          (List.mem "ghost" (Tk.Sendcmd.interps app));
        let msg = expect_error app "send ghost set x 1" in
        check_bool "reported as unknown" true
          (contains ~needle:"no registered interpreter" msg) );
    ( "send to a cleanly destroyed app reports no such interpreter",
      fun () ->
        let server, app = fresh_app () in
        let peer = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"peer" () in
        check_string "reachable while alive" "42"
          (run app "send peer expr 41+1");
        Tk.Core.destroy_app peer;
        let msg = expect_error app "send peer set x 1" in
        check_bool "unregistered" true
          (contains ~needle:"no registered interpreter" msg) );
  ]

(* ------------------------------------------------------------------ *)
(* The acceptance torture test: the widget tour under fire *)

let tour =
  {|wm title . "widget tour"
label .title -text "All widgets, one window"

frame .row1
menubutton .row1.mb -text File -menu .row1.mb.m
menu .row1.mb.m
.row1.mb.m add command -label Quit -command {destroy .}
button .row1.ok -text Button -command {set pressed 1}
checkbutton .row1.check -text Check -variable ticked
radiobutton .row1.r1 -text A -variable which -value a
radiobutton .row1.r2 -text B -variable which -value b
pack append .row1 .row1.mb {left} .row1.ok {left} .row1.check {left} \
  .row1.r1 {left} .row1.r2 {left}

frame .row2
scrollbar .row2.sb -command ".row2.list view"
listbox .row2.list -scroll ".row2.sb set" -geometry 14x4
entry .row2.entry -width 14
scale .row2.scale -from 0 -to 10 -length 80 -label vol
pack append .row2 .row2.sb {left filly} .row2.list {left} \
  .row2.entry {left} .row2.scale {left}

message .msg -width 260 -text "Tk permits collections of smaller applications."

frame .row3
text .row3.text -width 22 -height 3
canvas .row3.canvas -width 120 -height 40
pack append .row3 .row3.text {left} .row3.canvas {left}

pack append . .title {top} .row1 {top} .row2 {top} .msg {top} .row3 {top}

.row2.list insert end one two three four five six
.row2.entry insert 0 "type here"
.row2.scale set 7
.row3.text insert 1.0 "a text widget\nwith two lines"
.row3.canvas create rectangle 4 4 116 36
.row3.canvas create line 4 36 116 4
.row3.canvas create text 30 22 -text canvas
.row1.check select
.row1.r2 invoke
update|}

let tour_paths =
  [
    ".title"; ".row1"; ".row1.mb"; ".row1.mb.m"; ".row1.ok"; ".row1.check";
    ".row1.r1"; ".row1.r2"; ".row2"; ".row2.sb"; ".row2.list"; ".row2.entry";
    ".row2.scale"; ".msg"; ".row3"; ".row3.text"; ".row3.canvas";
  ]

let tour_tests =
  [
    ( "widget tour builds its full hierarchy with every 7th request failing",
      fun () ->
        let server = Server.create ~width:1280 ~height:800 () in
        Server.set_fault_plan server ~fail_every_nth:7 ();
        let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"tour" () in
        ignore (run app tour);
        Tk.Core.update app;
        List.iter
          (fun path ->
            check_bool (Printf.sprintf "%s exists" path) true
              (Tk.Core.lookup app path <> None))
          tour_paths;
        check_bool "faults actually fired" true
          (Server.faults_injected server > 0);
        check_int "every injected fault was absorbed"
          (Server.faults_injected server)
          (Server.faults_absorbed server);
        (* The display still renders to a usable screen dump. *)
        let dump =
          Raster.render server ~window:(Tk.Core.main_widget app).Tk.Core.win ()
        in
        check_bool "screen dump non-empty" true (String.length dump > 100);
        (* Widget state survived the torture. *)
        check_string "radio variable" "b" (run app "set which");
        check_string "scale value" "7" (run app ".row2.scale get");
        (* Calm the server down: the next full repaint is complete. *)
        Server.clear_faults server;
        List.iter
          (fun path ->
            match Tk.Core.lookup app path with
            | Some w -> Tk.Core.schedule_redraw w
            | None -> ())
          ("." :: tour_paths);
        Tk.Core.update app;
        let dump =
          Raster.render server ~window:(Tk.Core.main_widget app).Tk.Core.win ()
        in
        check_bool "labels render after faults clear" true
          (contains ~needle:"Button" dump) );
    ( "destructive script under faults: binding errors and dead windows",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "proc tkerror msg {global errs; lappend errs $msg}");
        ignore
          (run app
             "button .b -text go; pack append . .b {top}; bind .b <Button-1> \
              {error bang}");
        Tk.Core.update app;
        Server.set_fault_plan server ~fail_every_nth:5 ();
        click app ".b";
        click app ".b";
        ignore (run app "destroy .b");
        Tk.Core.update app;
        Server.clear_faults server;
        check_bool "errors were reported" true
          (int_of_string (run app "llength $errs") >= 2);
        check_int "every injected fault was absorbed"
          (Server.faults_injected server)
          (Server.faults_absorbed server);
        check_bool "app alive" true (not app.Tk.Core.app_destroyed) );
  ]

let suite name tests =
  ( name,
    List.map
      (fun (doc, f) -> Alcotest.test_case doc `Quick f)
      tests )

let () =
  Alcotest.run "faults"
    [
      suite "error-model" error_model_tests;
      suite "degradation" degradation_tests;
      suite "tkerror" tkerror_tests;
      suite "send" send_tests;
      suite "tour" tour_tests;
    ]
