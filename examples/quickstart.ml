(* Quickstart: the paper's §4 "Hello, world" button.

   Creates a Tk application on a simulated display, builds the exact
   widget from the paper, exercises the widget command (configure, flash),
   clicks it with synthesized input, and shows the ASCII screen dump. *)

open Xsim

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" script msg)

let () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"quickstart" () in

  print_endline "== Tk quickstart: the paper's Section 4 example ==";
  print_endline "";
  print_endline "  button .hello -bg Red -text \"Hello, world\" \\";
  print_endline "      -command \"print Hello!\\n\"";
  print_endline "";

  (* Creating a widget also creates a Tcl command named after it. *)
  ignore
    (run app
       {|button .hello -bg Red -text "Hello, world" -command "print Hello!\n"|});
  ignore (run app "pack append . .hello {top expand}");
  Tk.Core.update app;

  Printf.printf "Widget created; '.hello' is now a Tcl command: %b\n"
    (Tcl.Interp.command_exists app.Tk.Core.interp ".hello");
  Printf.printf "Its -text option reads back as: %s\n"
    (run app ".hello cget -text");
  print_endline "";

  print_endline "Screen dump after packing:";
  print_string
    (Raster.render server ~window:(Tk.Core.main_widget app).Tk.Core.win ());
  print_endline "";

  (* The paper's §4 widget-command examples. *)
  print_endline "Running: .hello flash";
  ignore (run app ".hello flash");
  print_endline "Running: .hello configure -bg PalePink1 -relief sunken";
  ignore (run app ".hello configure -bg PalePink1 -relief sunken");
  Tk.Core.update app;
  Printf.printf "Background is now: %s\n" (run app ".hello cget -bg");
  print_endline "";

  (* Click the button with synthesized mouse input: the -command runs. *)
  let w = Tk.Core.lookup_exn app ".hello" in
  let win = Option.get (Server.lookup_window server w.Tk.Core.win) in
  let p = Window.root_position win in
  let cx = p.Geom.x + (w.Tk.Core.width / 2)
  and cy = p.Geom.y + (w.Tk.Core.height / 2) in
  print_endline "Clicking the button (synthesized ButtonPress/Release):";
  Server.inject_motion server ~x:cx ~y:cy;
  Server.inject_button server ~button:1 ~pressed:true;
  Server.inject_button server ~button:1 ~pressed:false;
  Tk.Core.update app;
  print_endline "";

  (* Figure 7's bindings, verbatim. *)
  print_endline "Adding Figure 7 bindings and triggering them:";
  ignore (run app {|bind .hello <Enter> {print "hi\n"}|});
  ignore (run app {|bind .hello a {print "you typed 'a'\n"}|});
  ignore (run app {|bind .hello <Double-Button-1> {print "mouse at %x %y\n"}|});
  Server.inject_motion server ~x:500 ~y:500;
  Server.inject_motion server ~x:cx ~y:cy;
  Tk.Core.update app;
  Server.inject_key server ~keysym:"a" ~pressed:true;
  Tk.Core.update app;
  Server.inject_button server ~button:1 ~pressed:true;
  Server.inject_button server ~button:1 ~pressed:false;
  Server.inject_button server ~button:1 ~pressed:true;
  Tk.Core.update app;
  print_endline "";

  let count = Counters.value app.Tk.Core.counters in
  Printf.printf
    "Server traffic for this whole session: %d requests (%d round trips)\n"
    (count "requests_total") (count "round_trips")
