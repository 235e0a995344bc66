(* Closed-loop benchmark client: one process, one client, no threads.

     bench.exe --workload NAME --seed N (--seconds S | --ops N)
               [--max-ops N] [--trace-out FILE]

   The workload's initial state is built, the loop warms up past cache
   fill, and then seeded ops run back to back until [--seconds] of wall
   time have passed (at most [--max-ops] ops), or exactly [--ops] ops.
   Every op's output is checked against the benchmark's own model of what
   it should be.  After the measured phase the initial state is built
   again several times, and those builds are timed.  With [--trace-out],
   each call the benchmark makes into a layer is recorded as a span and
   the spans are written to that file at the end.  The result is one JSON
   object on stdout; run.py turns it into metrics.

   All inputs come from the seed: the same seed gives the same ops, the
   same X requests and the same counter totals. *)

open Xsim

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Spans: one per call the benchmark makes into a layer, kept in memory.
   They never nest, so a span's self time is its duration. *)

let span_names =
  [| "tcl.eval"; "tk.events"; "tk.drain"; "tk.timers"; "tk.idle";
     "xsim.input"; "xsim.raster" |]

let sp_eval = 0
and sp_events = 1
and sp_drain = 2
and sp_timers = 3
and sp_idle = 4
and sp_input = 5
and sp_raster = 6

let tracing = ref false
let current_op = ref 0
let n_spans = ref 0
let sp_kind = ref (Array.make 4096 0)
let sp_op = ref (Array.make 4096 0)
let sp_start = ref (Array.make 4096 0)
let sp_stop = ref (Array.make 4096 0)

let record_span k t0 t1 =
  let cap = Array.length !sp_kind in
  if !n_spans = cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    sp_kind := grow !sp_kind;
    sp_op := grow !sp_op;
    sp_start := grow !sp_start;
    sp_stop := grow !sp_stop
  end;
  let i = !n_spans in
  !sp_kind.(i) <- k;
  !sp_op.(i) <- !current_op;
  !sp_start.(i) <- t0;
  !sp_stop.(i) <- t1;
  n_spans := i + 1

let span k f =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    record_span k t0 (now_ns ());
    r
  end

let write_spans path ~origin =
  let oc = open_out path in
  output_string oc "op\tspan\tstart_ns\tend_ns\n";
  for i = 0 to !n_spans - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\n" !sp_op.(i)
      span_names.(!sp_kind.(i))
      (!sp_start.(i) - origin)
      (!sp_stop.(i) - origin)
  done;
  close_out oc

let span_self_us () =
  let tot = Array.make (Array.length span_names) 0 in
  for i = 0 to !n_spans - 1 do
    let k = !sp_kind.(i) in
    tot.(k) <- tot.(k) + (!sp_stop.(i) - !sp_start.(i))
  done;
  Array.to_list
    (Array.mapi (fun k ns -> (span_names.(k), float_of_int ns /. 1e3)) tot)

(* ------------------------------------------------------------------ *)
(* The benchmark's calls into the layers *)

exception Check of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check s)) fmt

let eval interp script =
  match span sp_eval (fun () -> Tcl.Interp.eval_value interp script) with
  | Ok v -> v
  | Error msg -> failf "%s: %s" script msg

(* Events the benchmark's event loop processed, and its other sweep
   outcomes: totals the traced run must reproduce exactly. *)
let loop_events = ref 0
let loop_drained = ref 0
let loop_timers = ref 0
let loop_idles = ref 0

(* [Tk.Core.update], split into its public parts so each is a span:
   X events, the drain hooks (send mailbox), due timers and idle
   callbacks, repeated until a sweep finds nothing to do. *)
let update app =
  let rec go guard =
    if not app.Tk.Core.app_destroyed then begin
      let n = span sp_events (fun () -> Tk.Core.process_pending app) in
      let drained =
        span sp_drain (fun () ->
            List.fold_left (fun acc d -> acc + d ()) 0 app.Tk.Core.drain_hooks)
      in
      let timers =
        span sp_timers (fun () -> Tk.Dispatch.run_due_timers app.Tk.Core.disp)
      in
      let idles = span sp_idle (fun () -> Tk.Dispatch.run_idle app.Tk.Core.disp) in
      loop_events := !loop_events + n;
      loop_drained := !loop_drained + drained;
      loop_timers := !loop_timers + timers;
      loop_idles := !loop_idles + idles;
      if n + drained + timers + idles > 0 && guard > 0 then go (guard - 1)
    end
  in
  go 1000

let new_app server name =
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (* Sends back off and time out on the dispatcher clock; a virtual clock
     keeps every wait deterministic and off the wall clock. *)
  let (_advance : int -> unit) = Tk.Dispatch.use_virtual_clock app.Tk.Core.disp in
  app

(* Counter totals over a set of applications: every integer counter of
   [Tk.Core.metrics_snapshot], summed. *)
let app_counters apps =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun app ->
      List.iter
        (fun (k, v) ->
          match int_of_string_opt v with
          | Some n ->
            Hashtbl.replace tbl k
              (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
          | None -> ())
        (Tk.Core.metrics_snapshot app))
    apps;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let interp_counters interp =
  List.filter_map
    (fun (k, v) -> Option.map (fun n -> (k, n)) (int_of_string_opt v))
    (List.map (fun (k, v) -> ("tcl.compile." ^ k, v))
       (Tcl.Interp.compile_stats interp)
    @ List.map (fun (k, v) -> ("tcl.vm." ^ k, v)) (Tcl.Interp.vm_stats interp))

(* ------------------------------------------------------------------ *)
(* Workloads *)

type instance = {
  op : unit -> unit;
      (** one op: the timed part, plus untimed checks of its outputs
          (wrapped in [untimed]); raises [Check] on a wrong output *)
  warmed : int -> bool;  (** steady after this many warm-up ops? *)
  setups : int;  (** timed builds after the measured phase *)
  windows : int;
      (** wall-time spans the measured phase is cut into; each must hold
          enough ops for its p90 to have ten samples beyond it *)
  heap_at : int;
      (** measured ops after which the peak heap is read: a count every
          run reaches even on a slow host *)
  counters : unit -> (string * int) list;
  final_check : unit -> string list;  (** whole-state checks at the end *)
  teardown : unit -> unit;
}

(* Time spent on output checks inside an op (and on the set-up builds
   made between ops), and the counter traffic they cause, are excluded
   from the op's latency, from the rates and from the counter totals. *)
let check_ns = ref 0
let excluded : (string, int) Hashtbl.t = Hashtbl.create 64

let untimed ?counters f =
  let t0 = now_ns () in
  let was = !tracing in
  tracing := false;
  let before = Option.fold ~none:[] ~some:(fun c -> c ()) counters in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun c ->
          List.iter
            (fun (k, v) ->
              let d = v - Option.value ~default:0 (List.assoc_opt k before) in
              if d <> 0 then
                Hashtbl.replace excluded k
                  (d + Option.value ~default:0 (Hashtbl.find_opt excluded k)))
            (c ()))
        counters;
      tracing := was;
      check_ns := !check_ns + (now_ns () - t0))
    f

let root_xy app w =
  let rec go w =
    match Tk.Path.parent w.Tk.Core.path with
    | None -> (w.Tk.Core.x, w.Tk.Core.y)
    | Some p ->
      let px, py = go (Tk.Core.lookup_exn app p) in
      (px + w.Tk.Core.x, py + w.Tk.Core.y)
  in
  go w

let contains_token s tok =
  (* [tok] occurs in [s] between characters that cannot extend a label
     of the form bI-N.  A border may be drawn over the cell just past the
     text, so a following '-' still delimits. *)
  let n = String.length s and m = String.length tok in
  let label_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') in
  let rec from i =
    if i + m > n then false
    else if
      String.sub s i m = tok
      && (i = 0 || not (label_char s.[i - 1]))
      && (i + m = n || not (label_char s.[i + m]))
    then true
    else from (i + 1)
  in
  from 0

(* ui_session: one application, 40 buttons in 4 columns, an entry and a
   500-item listbox; each op is one user action run to quiescence. *)
let ui_session ~setup_rng:_ ~rng =
  let server = Server.create () in
  let app = new_app server "ui" in
  let interp = app.Tk.Core.interp in
  let nbuttons = 40 in
  let path i = Printf.sprintf ".top.c%d.b%d" (i / 10) i in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "frame .top\npack append . .top {top}\n";
  for c = 0 to 3 do
    Printf.bprintf buf "frame .top.c%d\npack append .top .top.c%d {left}\n" c c
  done;
  for i = 0 to nbuttons - 1 do
    Printf.bprintf buf
      "set clicks(%d) 0\nbutton %s -text b%d-0 -command {incr clicks(%d)}\n\
       pack append .top.c%d %s {top}\n"
      i (path i) i i (i / 10) (path i)
  done;
  Buffer.add_string buf
    "entry .e\npack append . .e {top fillx}\nlistbox .lb\n\
     pack append . .lb {top}\n\
     for {set i 0} {$i < 500} {incr i} {.lb insert end \"item $i\"}\n\
     focus .e\n";
  ignore (eval interp (Buffer.contents buf));
  update app;
  let labels = Array.init nbuttons (Printf.sprintf "b%d-0") in
  let clicks = Array.make nbuttons 0 in
  let typed = Buffer.create 64 in
  let entry = Tk.Core.lookup_exn app ".e" in
  let serial = ref 0 in
  let counters () = app_counters [ app ] in
  let click () =
    let i = Random.State.int rng nbuttons in
    let w = Tk.Core.lookup_exn app (path i) in
    let x, y = root_xy app w in
    let cx = x + (w.Tk.Core.width / 2) and cy = y + (w.Tk.Core.height / 2) in
    span sp_input (fun () ->
        Server.inject_motion server ~x:cx ~y:cy;
        Server.inject_button server ~button:1 ~pressed:true;
        Server.inject_button server ~button:1 ~pressed:false);
    update app;
    clicks.(i) <- clicks.(i) + 1;
    untimed (fun () ->
        let got = Tcl.Interp.get_var interp (Printf.sprintf "clicks(%d)" i) in
        if got <> Some (string_of_int clicks.(i)) then
          failf "clicks(%d) = %s, expected %d" i
            (Option.value ~default:"<unset>" got)
            clicks.(i))
  in
  let relabel () =
    let i = Random.State.int rng nbuttons in
    incr serial;
    let label = Printf.sprintf "b%d-%d" i !serial in
    ignore (eval interp (Printf.sprintf "%s configure -text %s" (path i) label));
    update app;
    labels.(i) <- label;
    untimed (fun () ->
        let got = Tk.Core.cget (Tk.Core.lookup_exn app (path i)) "-text" in
        if got <> label then failf "%s cget -text = %S, expected %S" (path i) got label)
  in
  let type_text () =
    if Buffer.length typed > 40 then begin
      ignore (eval interp ".e delete 0 end");
      Buffer.clear typed
    end;
    let s =
      String.init
        (1 + Random.State.int rng 8)
        (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))
    in
    span sp_input (fun () -> Server.inject_string server s);
    update app;
    Buffer.add_string typed s;
    untimed (fun () ->
        let got = Tk_widgets.Entry.contents entry in
        if got <> Buffer.contents typed then
          failf ".e holds %S, expected %S" got (Buffer.contents typed))
  in
  let transient () =
    (* Table II's shape: create, display and delete a frame of buttons. *)
    incr serial;
    let b = Buffer.create 512 in
    Buffer.add_string b "frame .d\n";
    for k = 0 to 9 do
      Printf.bprintf b "button .d.b%d -text t%d.%d\npack append .d .d.b%d {left}\n"
        k !serial k k
    done;
    Buffer.add_string b "pack append . .d {top}";
    ignore (eval interp (Buffer.contents b));
    update app;
    let shown = Tk.Core.lookup app ".d.b9" <> None in
    ignore (eval interp "destroy .d");
    update app;
    untimed (fun () ->
        if not shown then failf "transient frame .d was not created";
        if Tk.Core.lookup app ".d" <> None then failf ".d survived destroy")
  in
  let screendump () =
    let dump = span sp_raster (fun () -> Raster.render server ()) in
    untimed (fun () ->
        Array.iter
          (fun l ->
            if not (contains_token dump l) then
              failf "screendump lacks the label %S" l)
          labels)
  in
  (* The four action kinds weigh the same: no recorded session gives
     their shares, so none is guessed.  One action in a hundred is a
     screendump. *)
  let op () =
    let r = Random.State.int rng 100 in
    if r = 99 then screendump ()
    else
      match r mod 4 with
      | 0 -> click ()
      | 1 -> relabel ()
      | 2 -> type_text ()
      | _ -> transient ()
  in
  let final_check () =
    List.concat
      [
        List.concat
          (List.init nbuttons (fun i ->
               let got = eval interp (Printf.sprintf "%s cget -text" (path i)) in
               let n = eval interp (Printf.sprintf "set clicks(%d)" i) in
               (if got <> labels.(i) then
                  [ Printf.sprintf "%s cget -text = %S, expected %S" (path i) got
                      labels.(i) ]
                else [])
               @
               if n <> string_of_int clicks.(i) then
                 [ Printf.sprintf "clicks(%d) = %s, expected %d" i n clicks.(i) ]
               else []));
        (let got = eval interp ".e get" in
         if got <> Buffer.contents typed then
           [ Printf.sprintf ".e get = %S, expected %S" got (Buffer.contents typed) ]
         else []);
      ]
  in
  {
    op;
    (* The caches fill within a few hundred actions; the structure of
       the app does not change after. *)
    warmed = (fun n -> n >= 2000);
    setups = 21;
    windows = 10;
    heap_at = 50_000;
    counters;
    final_check;
    teardown = (fun () -> Tk.Core.destroy_app app);
  }

(* canvas_dashboard: 100k small rectangles over a plane 3x the visible
   800x600 in each direction, a 200-item "hot" cluster, and a <Motion>
   binding that queries the index; each op is one frame. *)
let canvas_dashboard ~setup_rng ~rng =
  let n_items = 100_000 and n_hot = 200 in
  let plane_w = 2400 and plane_h = 1800 in
  let server = Server.create () in
  let app = new_app server "dash" in
  let interp = app.Tk.Core.interp in
  ignore
    (eval interp
       "canvas .c -width 800 -height 600\npack append . .c {top}\n\
        bind .c <Motion> {set closest [.c find closest %x %y]}");
  (* Model: corner coordinates by item id (ids start at 1). *)
  let total = n_items + n_hot in
  let x1 = Array.make (total + 1) 0 and y1 = Array.make (total + 1) 0 in
  let x2 = Array.make (total + 1) 0 and y2 = Array.make (total + 1) 0 in
  let set_item id a b c d =
    x1.(id) <- a;
    y1.(id) <- b;
    x2.(id) <- c;
    y2.(id) <- d
  in
  let random_rect rng =
    let a = Random.State.int rng (plane_w - 10)
    and b = Random.State.int rng (plane_h - 8) in
    (a, b, a + 2 + Random.State.int rng 7, b + 2 + Random.State.int rng 5)
  in
  for id = 1 to n_items do
    let a, b, c, d = random_rect setup_rng in
    let got =
      eval interp (Printf.sprintf ".c create rectangle %d %d %d %d" a b c d)
    in
    if got <> string_of_int id then failf "create returned %s, expected %d" got id;
    set_item id a b c d
  done;
  let hot0_x = 200 and hot0_y = 200 in
  for k = 0 to n_hot - 1 do
    let id = n_items + 1 + k in
    let a = hot0_x + (k mod 20 * 9) and b = hot0_y + (k / 20 * 9) in
    ignore
      (eval interp
         (Printf.sprintf ".c create rectangle %d %d %d %d -tags hot" a b (a + 5)
            (b + 4)));
    set_item id a b (a + 5) (b + 4)
  done;
  update app;
  let canvas = Tk.Core.lookup_exn app ".c" in
  let cx, cy = root_xy app canvas in
  let hot_x = ref hot0_x and hot_y = ref hot0_y in
  let frame = ref 0 in
  let counters () = app_counters [ app ] in
  (* These checks go through Tcl and the canvas index: their counter
     traffic is subtracted. *)
  let untimed f = untimed ~counters f in
  let coords_of id =
    Printf.sprintf "%d %d %d %d" x1.(id) y1.(id) x2.(id) y2.(id)
  in
  let check_coords id =
    let got = eval interp (Printf.sprintf ".c coords %d" id) in
    if got <> coords_of id then
      failf ".c coords %d = %S, expected %S" id got (coords_of id)
  in
  let check_overlapping () =
    (* A sampled query rectangle: around the hot cluster half the time. *)
    let qx, qy =
      if Random.State.bool rng then
        (!hot_x - 40 + Random.State.int rng 80, !hot_y - 40 + Random.State.int rng 80)
      else (Random.State.int rng plane_w, Random.State.int rng plane_h)
    in
    let qw = 20 + Random.State.int rng 180 and qh = 20 + Random.State.int rng 180 in
    let got =
      eval interp
        (Printf.sprintf ".c find overlapping %d %d %d %d" qx qy (qx + qw) (qy + qh))
    in
    let expect = Buffer.create 256 in
    for id = 1 to total do
      if
        min x1.(id) x2.(id) <= qx + qw
        && max x1.(id) x2.(id) >= qx
        && min y1.(id) y2.(id) <= qy + qh
        && max y1.(id) y2.(id) >= qy
      then begin
        if Buffer.length expect > 0 then Buffer.add_char expect ' ';
        Buffer.add_string expect (string_of_int id)
      end
    done;
    if got <> Buffer.contents expect then
      failf ".c find overlapping %d %d %d %d = {%s}, expected {%s}" qx qy
        (qx + qw) (qy + qh) got (Buffer.contents expect)
  in
  let op () =
    incr frame;
    (* The hot cluster drifts, bouncing to stay inside the visible area. *)
    let step v = if v < 0 then v - 1 else v + 1 in
    let dx = step (Random.State.int rng 5 - 2)
    and dy = step (Random.State.int rng 5 - 2) in
    let dx = if !hot_x + dx < 50 || !hot_x + dx > 550 then -dx else dx in
    let dy = if !hot_y + dy < 50 || !hot_y + dy > 350 then -dy else dy in
    ignore (eval interp (Printf.sprintf ".c move hot %d %d" dx dy));
    hot_x := !hot_x + dx;
    hot_y := !hot_y + dy;
    for id = n_items + 1 to total do
      set_item id (x1.(id) + dx) (y1.(id) + dy) (x2.(id) + dx) (y2.(id) + dy)
    done;
    for _ = 1 to 4 do
      let px = Random.State.int rng 800 and py = Random.State.int rng 600 in
      span sp_input (fun () ->
          Server.inject_motion server ~x:(cx + px) ~y:(cy + py));
      update app
    done;
    let moved =
      if !frame mod 5 = 0 then
        List.init 8 (fun _ ->
            let id = 1 + Random.State.int rng n_items in
            let a = Random.State.int rng 790 and b = Random.State.int rng 590 in
            let c = a + 2 + Random.State.int rng 7
            and d = b + 2 + Random.State.int rng 5 in
            ignore
              (eval interp (Printf.sprintf ".c coords %d %d %d %d %d" id a b c d));
            set_item id a b c d;
            id)
      else []
    in
    update app;
    untimed (fun () ->
        List.iter check_coords moved;
        check_coords (n_items + 1 + Random.State.int rng n_hot);
        check_coords (1 + Random.State.int rng n_items);
        check_overlapping ())
  in
  let final_check () =
    let hot = eval interp ".c find withtag hot" in
    let n = List.length (String.split_on_char ' ' hot) in
    (if n <> n_hot then [ Printf.sprintf "%d items tagged hot, expected %d" n n_hot ]
     else [])
    @
    let count = eval interp ".c itemcount" in
    if count <> string_of_int total then
      [ Printf.sprintf ".c itemcount = %s, expected %d" count total ]
    else []
  in
  {
    op;
    (* Two full cycles of the 5-frame pattern settle the index and the
       damage pipeline. *)
    warmed = (fun n -> n >= 10);
    (* A build takes over a second, and is made inside a span; four
       spans of 25 s hold over 100 frames each even so. *)
    setups = 3;
    windows = 4;
    heap_at = 250;
    counters;
    final_check;
    teardown = (fun () -> Tk.Core.destroy_app app);
  }

(* send_fleet: 64 applications on one display; each op is one send from
   a random app to another: 90% synchronous [mul X 3], 10% asynchronous
   [incr counter K]. *)
let send_fleet ~setup_rng:_ ~rng =
  let n_apps = 64 in
  let server = Server.create () in
  let apps =
    Array.init n_apps (fun i -> new_app server (Printf.sprintf "app%02d" i))
  in
  Array.iter
    (fun app ->
      ignore
        (eval app.Tk.Core.interp "proc mul {a b} {expr {$a * $b}}\nset counter 0"))
    apps;
  Array.iter update apps;
  let counter = Array.make n_apps 0 in
  let counters () = app_counters (Array.to_list apps) in
  let op () =
    let i = Random.State.int rng n_apps in
    let j = (i + 1 + Random.State.int rng (n_apps - 1)) mod n_apps in
    let src = apps.(i) and dst = apps.(j) in
    if Random.State.int rng 10 < 9 then begin
      let x = Random.State.int rng 1_000_000_000 in
      let got =
        eval src.Tk.Core.interp
          (Printf.sprintf "send %s {mul %d 3}" dst.Tk.Core.app_name x)
      in
      update src;
      update dst;
      untimed (fun () ->
          if got <> string_of_int (3 * x) then
            failf "send %s {mul %d 3} = %S" dst.Tk.Core.app_name x got)
    end
    else begin
      let k = 1 + Random.State.int rng 1000 in
      ignore
        (eval src.Tk.Core.interp
           (Printf.sprintf "send -async %s {incr counter %d}" dst.Tk.Core.app_name k));
      update src;
      update dst;
      counter.(j) <- counter.(j) + k;
      untimed (fun () ->
          let got = Tcl.Interp.get_var dst.Tk.Core.interp "counter" in
          if got <> Some (string_of_int counter.(j)) then
            failf "%s: counter = %s, expected %d" dst.Tk.Core.app_name
              (Option.value ~default:"<unset>" got)
              counter.(j))
    end
  in
  (* A cache that has evicted is full. *)
  let cache_full app =
    List.assoc_opt "script_evictions" (Tcl.Interp.compile_stats app.Tk.Core.interp)
    <> Some "0"
  in
  let final_check () =
    List.concat
      (List.init n_apps (fun j ->
           let got = eval apps.(j).Tk.Core.interp "set counter" in
           if got <> string_of_int counter.(j) then
             [ Printf.sprintf "%s: final counter = %s, expected %d"
                 apps.(j).Tk.Core.app_name got counter.(j) ]
           else []))
  in
  {
    op;
    (* Past the point where every app's script cache is full (after that
       every miss evicts), plus a margin; at most 100,000 sends, in case
       the caches are unbounded. *)
    warmed =
      (let full_at = ref 0 in
       fun n ->
         if !full_at = 0 && n mod 256 = 0 && Array.for_all cache_full apps then
           full_at := n;
         (!full_at > 0 && n >= !full_at + 2000) || n >= 100_000);
    setups = 21;
    windows = 10;
    heap_at = 100_000;
    counters;
    final_check;
    teardown = (fun () -> Array.iter Tk.Core.destroy_app apps);
  }

(* script_compute: seeded calls into a fixed Tcl library; no X traffic.
   The lists that [listsum] and [sortdata] walk are generated by the
   benchmark and installed as the global array [data], one list per size. *)
let library =
  {|proc fib {n} {
  if {$n < 2} {return $n}
  expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
}
proc sumsq {n} {
  set s 0
  set i 0
  while {$i < $n} {
    set s [expr {($s + $i * $i) % 1000003}]
    incr i
  }
  return $s
}
proc tri {n} {
  set s 0
  for {set i 1} {$i <= $n} {incr i} {
    for {set j 0} {$j < 8} {incr j} {
      set s [expr {$s + ($i ^ $j)}]
    }
  }
  return $s
}
proc buildsort {n x} {
  set l {}
  for {set i 0} {$i < $n} {incr i} {
    set x [expr {($x * 1103515245 + 12345) % 2147483648}]
    lappend l [expr {$x % 100000}]
  }
  set s [lsort -integer $l]
  list [lindex $s 0] [lindex $s [expr {$n / 2}]] [lindex $s end]
}
proc listsum {n} {
  global data
  set s 0
  foreach v $data($n) {
    set s [expr {$s + $v}]
  }
  return $s
}
proc sortdata {n} {
  global data
  set s [lsort -integer $data($n)]
  list [llength $s] [lindex $s 0] [lindex $s [expr {$n / 2}]] [lindex $s end]
}
proc strwork {n} {
  set s {}
  for {set i 0} {$i < $n} {incr i} {
    append s [format %04d [expr {($i * 7919) % 10000}]]
  }
  list [string length $s] [string range $s 8 19] [string first 0042 $s]
}
proc arrsum {n} {
  for {set i 0} {$i < $n} {incr i} {
    set a(k$i) [expr {$i * 3 % 101}]
  }
  set s 0
  foreach k [array names a] {
    incr s $a($k)
  }
  list [array size a] $s
}
|}

(* Reference implementations of the library, in OCaml. *)
let rec ref_fib n = if n < 2 then n else ref_fib (n - 1) + ref_fib (n - 2)

let ref_sumsq n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := (!s + (i * i)) mod 1000003
  done;
  string_of_int !s

let ref_tri n =
  let s = ref 0 in
  for i = 1 to n do
    for j = 0 to 7 do
      s := !s + (i lxor j)
    done
  done;
  string_of_int !s

let ref_buildsort n x =
  let x = ref x in
  let s =
    Array.init n (fun _ ->
        x := ((!x * 1103515245) + 12345) mod 2147483648;
        !x mod 100000)
  in
  Array.sort compare s;
  Printf.sprintf "%d %d %d" s.(0) s.(n / 2) s.(n - 1)

let ref_listsum l = string_of_int (Array.fold_left ( + ) 0 l)

let ref_sortdata l =
  let s = Array.copy l in
  Array.sort compare s;
  let n = Array.length s in
  Printf.sprintf "%d %d %d %d" n s.(0) s.(n / 2) s.(n - 1)

let ref_strwork n =
  let b = Buffer.create (4 * n) in
  for i = 0 to n - 1 do
    Printf.bprintf b "%04d" (i * 7919 mod 10000)
  done;
  let s = Buffer.contents b in
  let rec find i =
    if i + 4 > String.length s then -1
    else if String.sub s i 4 = "0042" then i
    else find (i + 1)
  in
  Printf.sprintf "%d %s %d" (String.length s) (String.sub s 8 12) (find 0)

let ref_arrsum n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + (i * 3 mod 101)
  done;
  Printf.sprintf "%d %d" n !s

(* Sizes for the list walks: 100 to 10000 on a log scale. *)
let data_sizes =
  Array.init 13 (fun k -> int_of_float (Float.round (100. *. (10. ** (float_of_int k /. 6.)))))

let script_compute ~setup_rng ~rng =
  let interp = Tcl.Builtins.new_interp () in
  ignore (eval interp library);
  let data =
    Array.map
      (fun n -> Array.init n (fun _ -> Random.State.int setup_rng 1_000_000))
      data_sizes
  in
  Array.iteri
    (fun k l ->
      Tcl.Interp.set_var interp
        (Printf.sprintf "data(%d)" data_sizes.(k))
        (String.concat " " (Array.to_list (Array.map string_of_int l))))
    data;
  let counters () = interp_counters interp in
  (* Arguments come from small grids so call texts repeat: the proc
     bodies and the call scripts both hit the compile caches. *)
  let pick lo step n = lo + (step * Random.State.int rng n) in
  let op () =
    let script, expect =
      match Random.State.int rng 8 with
      | 0 ->
        let n = pick 10 1 7 in
        (Printf.sprintf "fib %d" n, fun () -> string_of_int (ref_fib n))
      | 1 ->
        let n = pick 500 500 10 in
        (Printf.sprintf "sumsq %d" n, fun () -> ref_sumsq n)
      | 2 ->
        let n = pick 50 50 10 in
        (Printf.sprintf "tri %d" n, fun () -> ref_tri n)
      | 3 ->
        let n = pick 100 100 10 and x = Random.State.int rng 4 in
        (Printf.sprintf "buildsort %d %d" n x, fun () -> ref_buildsort n x)
      | 4 ->
        let k = Random.State.int rng (Array.length data_sizes) in
        ( Printf.sprintf "listsum %d" data_sizes.(k),
          fun () -> ref_listsum data.(k) )
      | 5 ->
        let k = Random.State.int rng (Array.length data_sizes) in
        ( Printf.sprintf "sortdata %d" data_sizes.(k),
          fun () -> ref_sortdata data.(k) )
      | 6 ->
        let n = pick 100 100 10 in
        (Printf.sprintf "strwork %d" n, fun () -> ref_strwork n)
      | _ ->
        let n = pick 100 100 10 in
        (Printf.sprintf "arrsum %d" n, fun () -> ref_arrsum n)
    in
    let got = eval interp script in
    untimed (fun () ->
        let want = expect () in
        if got <> want then failf "%s = %S, expected %S" script got want)
  in
  {
    op;
    (* Long enough for every call text of the grids to be compiled. *)
    warmed = (fun n -> n >= 600);
    setups = 21;
    windows = 10;
    heap_at = 5000;
    counters;
    final_check = (fun () -> []);
    teardown = ignore;
  }

let workloads =
  [
    ("ui_session", ui_session);
    ("canvas_dashboard", canvas_dashboard);
    ("send_fleet", send_fleet);
    ("script_compute", script_compute);
  ]

(* ------------------------------------------------------------------ *)
(* Statistics and output *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let p50_of a =
  let s = Array.copy a in
  Array.sort compare s;
  quantile s 0.5

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_float f = Printf.sprintf "%.6f" f

(* ------------------------------------------------------------------ *)
(* Main *)

(* Room for one latency per measured op.  The array lives outside the
   OCaml heap, so the benchmark's own bookkeeping stays out of the peak
   heap figure; pages it never reaches are never touched.  A timed phase
   that fills it ends there. *)
let max_latencies = 1 lsl 22

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let ops = ref 0 and max_ops = ref max_int in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--ops", Arg.Set_int ops, "N run exactly N measured ops instead");
      ("--max-ops", Arg.Set_int max_ops, "N stop a timed phase after N ops");
      ("--trace-out", Arg.Set_string trace_out, "FILE record spans into FILE");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N (--seconds S | --ops N)";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !ops > max_latencies then begin
    prerr_endline "--ops: too many ops";
    exit 2
  end;
  let lat = Bigarray.(Array1.create float64 c_layout max_latencies) in
  let attempted = ref 0 and failed = ref 0 and messages = ref [] in
  let note_failure msg =
    incr failed;
    if List.length !messages < 10 then messages := msg :: !messages
  in
  let build () =
    let t0 = now_ns () in
    let inst =
      make
        ~setup_rng:(Random.State.make [| !seed; 1 |])
        ~rng:(Random.State.make [| !seed; 2 |])
    in
    (inst, float_of_int (now_ns () - t0) /. 1e9)
  in
  (* The build that is measured.  Its time is reported apart: a fresh
     process often runs its first work at a fraction of its later speed. *)
  let inst, setup_first = build () in
  (* Set-up time: the initial state is built [inst.setups] more times,
     spread over the second half of the measured phase, so that the
     builds meet the host in the same states as the ops do.  Each build
     is timed alone; the build, its teardown and a full collection of its
     garbage are kept out of the op figures like an output check, and
     its counter traffic, event-loop totals and GC work are subtracted.
     None starts before the peak heap is read, so that figure holds one
     build. *)
  let setup_times = ref [] in
  let build_minor_words = ref 0.0 and build_majors = ref 0 in
  let timed_build () =
    let loops = (!loop_events, !loop_drained, !loop_timers, !loop_idles) in
    let g0 = Gc.quick_stat () in
    untimed ~counters:inst.counters (fun () ->
        let i, dt = build () in
        i.teardown ();
        Gc.full_major ();
        setup_times := dt :: !setup_times);
    let g1 = Gc.quick_stat () in
    build_minor_words := !build_minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    build_majors := !build_majors + (g1.Gc.major_collections - g0.Gc.major_collections);
    let e, d, t, i = loops in
    loop_events := e;
    loop_drained := d;
    loop_timers := t;
    loop_idles := i
  in
  let run_op () =
    incr attempted;
    match inst.op () with
    | () -> ()
    | exception Check msg -> note_failure msg
    | exception e -> note_failure (Printexc.to_string e)
  in
  (* Warm-up: the same op stream, until the workload reports steady
     state. *)
  let warm = ref 0 in
  while not (inst.warmed !warm) do
    run_op ();
    incr warm
  done;
  Gc.compact ();
  (* Measured phase.  The phase is cut into [inst.windows] equal spans of
     [seconds]: for each, the index of its first op, its start time and
     the check time before it. *)
  let windows = inst.windows in
  let n = ref 0 in
  let win_first = Array.make (windows + 1) 0 in
  let win_time = Array.make (windows + 1) 0 in
  let win_check = Array.make (windows + 1) 0 in
  let c0 = inst.counters () in
  let loop0 = (!loop_events, !loop_drained, !loop_timers, !loop_idles) in
  Hashtbl.reset excluded;
  let gc0 = Gc.quick_stat () in
  tracing := !trace_out <> "";
  let t_start = now_ns () in
  let span_ns = int_of_float (!seconds *. 1e9) / windows in
  let t_end = t_start + int_of_float (!seconds *. 1e9) in
  let continue () =
    if !ops > 0 then !n < !ops
    else !n < !max_ops && !n < max_latencies && now_ns () < t_end
  in
  let check_total = ref 0 and win = ref 0 and prev_end = ref t_start in
  let heap_top = ref None in
  let build_due k =
    t_start + int_of_float (!seconds *. 1e9 *. (0.5 +. (0.5 *. float_of_int k
                                                         /. float_of_int inst.setups)))
  in
  while continue () do
    current_op := !n;
    check_ns := 0;
    let t0 = now_ns () in
    run_op ();
    let t1 = now_ns () in
    (* This op ends past the current window: the next one starts with it. *)
    while !win + 1 < windows && t1 - t_start >= (!win + 1) * span_ns do
      incr win;
      win_first.(!win) <- !n;
      win_time.(!win) <- !prev_end - t_start;
      win_check.(!win) <- !check_total
    done;
    check_total := !check_total + !check_ns;
    lat.{!n} <- float_of_int (t1 - t0 - !check_ns) /. 1e3;
    prev_end := t1;
    incr n;
    if !n = inst.heap_at then heap_top := Some (Gc.quick_stat ()).Gc.top_heap_words;
    let built = List.length !setup_times in
    if !heap_top <> None && built < inst.setups && t1 >= build_due built then begin
      check_ns := 0;
      timed_build ();
      check_total := !check_total + !check_ns;
      prev_end := now_ns ()
    end
  done;
  for k = !win + 1 to windows do
    win_first.(k) <- !n;
    win_time.(k) <- !prev_end - t_start;
    win_check.(k) <- !check_total
  done;
  let elapsed = float_of_int (now_ns () - t_start) /. 1e9 in
  tracing := false;
  let gc1 = Gc.quick_stat () in
  let build_minor, build_major = (!build_minor_words, !build_majors) in
  let c1 = inst.counters () in
  let e0, d0, t0, i0 = loop0 in
  let deltas =
    List.map
      (fun (k, v) ->
        let base = Option.value ~default:0 (List.assoc_opt k c0) in
        let ex = Option.value ~default:0 (Hashtbl.find_opt excluded k) in
        (k, v - base - ex))
      c1
    @ [
        ("loop.events", !loop_events - e0);
        ("loop.drained", !loop_drained - d0);
        ("loop.timers", !loop_timers - t0);
        ("loop.idles", !loop_idles - i0);
      ]
  in
  List.iter note_failure (inst.final_check ());
  if !trace_out <> "" then write_spans !trace_out ~origin:t_start;
  (* Builds the phase had no room for. *)
  inst.teardown ();
  while List.length !setup_times < inst.setups do
    timed_build ()
  done;
  let slice lo hi = Array.init (hi - lo) (fun k -> lat.{lo + k}) in
  (* Rate and latency percentiles per window, so that a burst of host
     noise moves one window rather than the whole run. *)
  let window_stats =
    List.init windows (fun k ->
        let lo = win_first.(k) and hi = win_first.(k + 1) in
        let busy =
          win_time.(k + 1) - win_time.(k) - (win_check.(k + 1) - win_check.(k))
        in
        let w = slice lo hi in
        Array.sort compare w;
        json_obj
          [
            ("ops", string_of_int (hi - lo));
            ( "ops_per_s",
              json_float
                (if busy > 0 then float_of_int (hi - lo) /. (float_of_int busy /. 1e9)
                 else 0.0) );
            ("p50", json_float (quantile w 0.5));
            ("p90", json_float (quantile w 0.9));
          ])
  in
  let sorted = slice 0 !n in
  Array.sort compare sorted;
  let quarter = min !n (max 1 (!n / 4)) in
  let fields =
    [
      ("workload", json_string !workload);
      ("seed", string_of_int !seed);
      ("ocaml", json_string Sys.ocaml_version);
      ("attempted", string_of_int !attempted);
      ("failed", string_of_int !failed);
      ("messages", "[" ^ String.concat ", " (List.rev_map json_string !messages) ^ "]");
      ("warmup_ops", string_of_int !warm);
      ("ops", string_of_int !n);
      ("elapsed_s", json_float elapsed);
      ("check_s", json_float (float_of_int !check_total /. 1e9));
      ("windows", "[" ^ String.concat ", " window_stats ^ "]");
      ("setup_first_s", json_float setup_first);
      ("setup_s", "[" ^ String.concat ", " (List.rev_map json_float !setup_times) ^ "]");
      ( "latency_us",
        json_obj
          [
            ("p50", json_float (quantile sorted 0.5));
            ("p90", json_float (quantile sorted 0.9));
            ("p99", json_float (quantile sorted 0.99));
            ("p50_first_quarter", json_float (p50_of (slice 0 quarter)));
            ("p50_last_quarter", json_float (p50_of (slice (!n - quarter) !n)));
          ] );
      ( "gc",
        json_obj
          [
            ( "minor_words",
              json_float (gc1.Gc.minor_words -. gc0.Gc.minor_words -. build_minor) );
            ( "major_collections",
              string_of_int
                (gc1.Gc.major_collections - gc0.Gc.major_collections - build_major) );
            (* The peak up to a fixed op count: how many ops a run
               completes depends on the host's speed. *)
            ( "top_heap_words",
              string_of_int (Option.value ~default:gc1.Gc.top_heap_words !heap_top) );
            ("heap_at_reached", string_of_bool (!heap_top <> None));
            ("top_heap_words_end", string_of_int gc1.Gc.top_heap_words);
          ] );
      ( "counters",
        json_obj
          (List.map
             (fun (k, v) -> (k, string_of_int v))
             (List.sort compare deltas)) );
      ( "spans_self_us",
        json_obj (List.map (fun (k, v) -> (k, json_float v)) (span_self_us ())) );
    ]
  in
  print_endline (json_obj fields)
