(* A tour of the complete widget set in one window: every widget class the
   paper lists in §7 (plus canvas and text) created, packed and rendered.
   Doubles as a visual smoke test of the toolkit. *)

open Xsim

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" script msg)

let tour =
  {|wm title . "widget tour"
label .title -text "All widgets, one window"

frame .row1
menubutton .row1.mb -text File -menu .row1.mb.m
menu .row1.mb.m
.row1.mb.m add command -label Quit -command {destroy .}
button .row1.ok -text Button -command {print clicked\n}
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

message .msg -width 260 -text "Tk permits collections of smaller specialized applications that communicate with each other."

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

let () =
  let server = Server.create ~width:1280 ~height:800 () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"tour" () in
  ignore (run app tour);
  Tk.Core.update app;
  print_endline "== The complete widget set ==";
  print_endline "";
  print_string
    (Raster.render server ~window:(Tk.Core.main_widget app).Tk.Core.win ());
  print_endline "";
  Printf.printf "Checkbutton variable: ticked = %s\n" (run app "set ticked");
  Printf.printf "Radiobutton variable: which = %s\n" (run app "set which");
  Printf.printf "Scale value: %s\n" (run app ".row2.scale get");
  Printf.printf "Canvas items: %s\n" (run app ".row3.canvas itemcount");
  let count = Counters.value app.Tk.Core.counters in
  Printf.printf "Built with %d server requests (%d round trips)\n"
    (count "requests_total") (count "round_trips")
