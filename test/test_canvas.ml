(* Canvas-at-scale tests: the spatial index pinned against a naive
   linear-scan oracle (the `-no-canvas-index` ablation path) on a seeded
   randomized op stream, damage-region repaint proven byte-identical to a
   full redraw at the raster, tag-index consistency across every mutating
   verb, and the O(dirty) repaint counters. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_app ?(name = "canvas") () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (server, app)

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let run_err app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> Alcotest.failf "script %S unexpectedly succeeded: %s" script v
  | Error msg -> msg

let canvas_app ?(indexed = true) ?(name = "canvas") () =
  let server, app = fresh_app ~name () in
  Tk_widgets.Canvas.set_index_enabled indexed;
  ignore (run app "canvas .c -width 300 -height 200");
  Tk_widgets.Canvas.set_index_enabled true;
  ignore (run app "pack append . .c {top}");
  Tk.Core.update app;
  (server, app)

let metric app name =
  match Tk.Core.metric app name with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "missing metric %s" name

(* ------------------------------------------------------------------ *)
(* Deterministic surface behaviour *)

let surface_tests =
  [
    ( "tags: create -tags, addtag, dtag, gettags, find withtag",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 30 20 -tags {box hot}" in
        let b = run app ".c create line 0 0 50 50 -tags box" in
        check_string "withtag box" (a ^ " " ^ b) (run app ".c find withtag box");
        check_string "withtag hot" a (run app ".c find withtag hot");
        ignore (run app ".c addtag cold withtag box");
        check_string "gettags b" "box cold" (run app (".c gettags " ^ b));
        ignore (run app ".c dtag box cold");
        check_string "cold dropped" "box hot" (run app (".c gettags " ^ a));
        ignore (run app ".c dtag hot");
        check_string "one-arg dtag" "box" (run app (".c gettags " ^ a));
        check_string "gettags of unknown tag" "" (run app ".c gettags nosuch")
    );
    ( "find all/overlapping/enclosed/closest and bbox",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 30 20" in
        let b = run app ".c create rectangle 100 100 140 120" in
        let c = run app ".c create text 12 15 -text x" in
        check_string "all" (String.concat " " [ a; b; c ])
          (run app ".c find all");
        check_string "overlapping" b
          (run app ".c find overlapping 110 105 115 110");
        check_string "enclosed" b (run app ".c find enclosed 99 99 141 121");
        check_string "closest" b (run app ".c find closest 120 110");
        check_string "closest with halo picks topmost within halo" c
          (run app ".c find closest 13 14 500");
        check_string "bbox" "100 100 141 121" (run app (".c bbox " ^ b));
        check_string "bbox of nothing" "" (run app ".c bbox nosuch") );
    ( "raise/lower control display order (topmost wins find closest)",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 30 30" in
        let b = run app ".c create rectangle 10 10 30 30" in
        check_string "later create on top" b (run app ".c find closest 20 20");
        ignore (run app (".c raise " ^ a));
        check_string "raised to top" a (run app ".c find closest 20 20");
        ignore (run app (".c lower " ^ a));
        check_string "lowered to bottom" b (run app ".c find closest 20 20");
        ignore (run app (".c raise " ^ a ^ " " ^ b));
        check_string "raise above" a (run app ".c find closest 20 20") );
    ( "bulk move/itemconfigure/scale touch only the tag",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 20 20 -tags hot" in
        let b = run app ".c create rectangle 50 50 60 60" in
        ignore (run app ".c move hot 5 -5");
        check_string "a moved" "15 5 25 15" (run app (".c coords " ^ a));
        check_string "b untouched" "50 50 60 60" (run app (".c coords " ^ b));
        ignore (run app ".c scale hot 0 0 2.0 2.0");
        check_string "a scaled" "30 10 50 30" (run app (".c coords " ^ a));
        ignore (run app ".c itemconfigure hot -fill red");
        check_string "a filled" "red"
          (run app (".c itemconfigure " ^ a ^ " -fill"));
        check_string "b unfilled" ""
          (run app (".c itemconfigure " ^ b ^ " -fill")) );
    ( "coords replacement validates the item kind's arity",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 20 20" in
        let msg = run_err app (".c coords " ^ a ^ " 1 2 3") in
        check_bool "arity error" true
          (msg = "wrong # coordinates: expected 4, got 3");
        check_string "coords unchanged" "10 10 20 20"
          (run app (".c coords " ^ a));
        let t = run app ".c create text 5 5 -text hi" in
        let msg = run_err app (".c coords " ^ t ^ " 1 2 3 4") in
        check_bool "text arity error" true
          (msg = "wrong # coordinates: expected 2, got 4") );
    ( "delete by tag, by id, and all",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create line 0 0 5 5 -tags junk" in
        let _b = run app ".c create line 1 1 6 6 -tags junk" in
        let c = run app ".c create line 2 2 7 7" in
        ignore (run app ".c delete junk");
        check_string "tag deleted" c (run app ".c find all");
        check_bool "id gone" true
          (run_err app (".c coords " ^ a) <> "");
        ignore (run app ".c delete all");
        check_string "empty" "0" (run app ".c itemcount") );
    ( "kind defaults: rectangle outline-only, line/text black fill",
      fun () ->
        let _, app = canvas_app () in
        let r = run app ".c create rectangle 0 0 5 5" in
        check_string "rect fill" ""
          (run app (".c itemconfigure " ^ r ^ " -fill"));
        check_string "rect outline" "black"
          (run app (".c itemconfigure " ^ r ^ " -outline"));
        let l = run app ".c create line 0 0 5 5" in
        check_string "line fill" "black"
          (run app (".c itemconfigure " ^ l ^ " -fill")) );
  ]

(* ------------------------------------------------------------------ *)
(* Seeded randomized op stream, applied identically to an indexed canvas
   and to the linear-scan ablation (the oracle). *)

let seed = 0x5eed

let tag_pool = [| "a"; "b"; "hot"; "grid" |]

let color_pool = [| "black"; "red"; "gray50"; "" |]

let rint rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let rtag rng = tag_pool.(Random.State.int rng (Array.length tag_pool))

let rcolor rng = color_pool.(Random.State.int rng (Array.length color_pool))

(* One random mutating op as a Tcl script. [ids] mirrors the live id set
   (identical in both apps since the stream is identical); [away] holds
   the ±1000 px jumps not yet moved back. *)
let random_op rng ids next_id away =
  let pick_id () = List.nth !ids (Random.State.int rng (List.length !ids)) in
  let coords4 () =
    Printf.sprintf "%d %d %d %d" (rint rng (-60) 340) (rint rng (-40) 240)
      (rint rng (-60) 340) (rint rng (-40) 240)
  in
  let choice = if !ids = [] then 0 else Random.State.int rng 12 in
  match choice with
  | 0 | 1 | 2 -> (
    let id = !next_id in
    next_id := id + 1;
    ids := !ids @ [ id ];
    let tags = if Random.State.bool rng then " -tags " ^ rtag rng else "" in
    match Random.State.int rng 3 with
    | 0 ->
      Printf.sprintf ".c create rectangle %s -fill {%s} -outline {%s}%s"
        (coords4 ()) (rcolor rng) (rcolor rng) tags
    | 1 ->
      Printf.sprintf ".c create line %s -fill {%s}%s" (coords4 ())
        (rcolor rng) tags
    | _ ->
      Printf.sprintf ".c create text %d %d -text {w%d}%s" (rint rng (-60) 340)
        (rint rng (-40) 240) (rint rng 0 99) tags)
  | 3 ->
    let id = pick_id () in
    ids := List.filter (fun i -> i <> id) !ids;
    Printf.sprintf ".c delete %d" id
  | 4 ->
    Printf.sprintf ".c move %s %d %d"
      (if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng)
      (rint rng (-30) 30) (rint rng (-30) 30)
  | 5 ->
    Printf.sprintf ".c itemconfigure %s -fill {%s}"
      (if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng)
      (rcolor rng)
  | 6 ->
    Printf.sprintf ".c %s %s"
      (if Random.State.bool rng then "raise" else "lower")
      (if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng)
  | 7 ->
    if Random.State.bool rng then
      Printf.sprintf ".c addtag %s withtag %d" (rtag rng) (pick_id ())
    else Printf.sprintf ".c dtag %d %s" (pick_id ()) (rtag rng)
  | 8 ->
    Printf.sprintf ".c scale %s %d %d %.2f %.2f" (rtag rng)
      (rint rng (-20) 20) (rint rng (-20) 20)
      (0.5 +. Random.State.float rng 1.5)
      (0.5 +. Random.State.float rng 1.5)
  | 10 -> (
    (* Off the window and back: a jump of about 1000 px in x or y, or the
       reverse of an earlier jump whose target still exists. *)
    away :=
      List.filter
        (fun (spec, _, _) ->
          match int_of_string_opt spec with
          | Some id -> List.mem id !ids
          | None -> true)
        !away;
    match !away with
    | (spec, dx, dy) :: rest when Random.State.bool rng ->
      away := rest;
      Printf.sprintf ".c move %s %d %d" spec (-dx) (-dy)
    | _ ->
      let spec =
        if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng
      in
      let far () =
        (if Random.State.bool rng then 1000 else -1000) + rint rng (-30) 30
      in
      let dx, dy =
        if Random.State.bool rng then (far (), rint rng (-30) 30)
        else (rint rng (-30) 30, far ())
      in
      away := (spec, dx, dy) :: !away;
      Printf.sprintf ".c move %s %d %d" spec dx dy)
  | 11 ->
    (* A new canvas font moves every text item's bbox. *)
    Printf.sprintf ".c configure -font %s"
      (if Random.State.bool rng then "fixed"
       else "-adobe-helvetica-bold-r-normal--24-240")
  | _ ->
    (* Relative restack: distinct ids only (self-reference is an error). *)
    let a = pick_id () and b = pick_id () in
    if a = b then Printf.sprintf ".c raise %d" a
    else
      Printf.sprintf ".c %s %d %d"
        (if Random.State.bool rng then "raise" else "lower")
        a b

(* Queries whose answers must match between index and oracle. *)
let probe_queries rng =
  let r () =
    Printf.sprintf "%d %d %d %d" (rint rng (-80) 360) (rint rng (-60) 260)
      (rint rng (-80) 360) (rint rng (-60) 260)
  in
  [
    ".c find all";
    ".c itemcount";
    Printf.sprintf ".c find overlapping %s" (r ());
    Printf.sprintf ".c find enclosed %s" (r ());
    Printf.sprintf ".c find closest %d %d" (rint rng (-80) 360)
      (rint rng (-60) 260);
    Printf.sprintf ".c find closest %d %d %d" (rint rng (-80) 360)
      (rint rng (-60) 260) (rint rng 0 40);
    Printf.sprintf ".c find withtag %s" (rtag rng);
    Printf.sprintf ".c bbox %s" (rtag rng);
  ]

let canvas_widget app = Tk.Core.lookup_exn app ".c"

(* The canvas window's keyed op store, keys ascending. *)
let op_store server app =
  match Server.lookup_window server (canvas_widget app).Tk.Core.win with
  | None -> Alcotest.fail "canvas window missing"
  | Some win ->
    List.sort compare
      (Hashtbl.fold (fun k ops acc -> (k, ops) :: acc) win.Window.ops [])

(* After partial repaints, the op store and the raster must be what a
   from-scratch full redraw leaves. Returns the raster. *)
let check_damage_equals_full ~label server app =
  let damaged = Raster.render server () in
  let damaged_ops = op_store server app in
  Tk.Core.schedule_redraw (canvas_widget app);
  Tk.Core.update app;
  check_bool (label ^ ": damage op store = full") true
    (damaged_ops = op_store server app);
  check_string (label ^ ": damage raster = full") (Raster.render server ())
    damaged;
  damaged

(* Window sizes applied mid-run: a shrink, then an enlargement that shows
   items the smaller window left off. *)
let resizes = [ (9, "-width 240 -height 150"); (17, "-width 360 -height 260") ]

(* Drive [rounds] batches; on each batch apply the same random ops to both
   apps, drain (partial repaint path), and compare every probe; then force
   a full redraw on each app and require its op store and raster output to
   be identical to what the damage path left. Returns a transcript for the
   two-run identity check. *)
let differential_run () =
  let rng = Random.State.make [| seed |] in
  let server_i, app_i = canvas_app ~indexed:true ~name:"cv-index" () in
  let server_l, app_l = canvas_app ~indexed:false ~name:"cv-linear" () in
  let ids = ref [] and next_id = ref 1 and away = ref [] in
  let transcript = Buffer.create 4096 in
  for round = 1 to 25 do
    (match List.assoc_opt round resizes with
    | Some size ->
      let op = ".c configure " ^ size in
      Buffer.add_string transcript (op ^ "\n");
      List.iter
        (fun app ->
          ignore (run app op);
          Tk.Core.update app;
          check_string (op ^ ": window resized")
            (List.nth (String.split_on_char ' ' size) 1)
            (run app "winfo width .c"))
        [ app_i; app_l ]
    | None -> ());
    for _ = 1 to 8 do
      let op = random_op rng ids next_id away in
      Buffer.add_string transcript (op ^ "\n");
      let ri = run app_i op and rl = run app_l op in
      check_string ("op result: " ^ op) rl ri
    done;
    (* Drain both: indexed app takes the damage path where possible. *)
    Tk.Core.update app_i;
    Tk.Core.update app_l;
    List.iter
      (fun q ->
        let ri = run app_i q and rl = run app_l q in
        check_string (Printf.sprintf "round %d: %s" round q) rl ri;
        Buffer.add_string transcript (q ^ " -> " ^ ri ^ "\n"))
      (probe_queries rng);
    (* A small targeted edit so the partial-repaint path runs every round
       (the wide-ranging batch above usually unions into a deopt-to-full). *)
    let tick = run app_i ".c create rectangle 2 2 6 6" in
    check_string "tick ids agree" (run app_l ".c create rectangle 2 2 6 6")
      tick;
    next_id := !next_id + 1;
    Tk.Core.update app_i;
    Tk.Core.update app_l;
    ignore (run app_i (".c delete " ^ tick));
    ignore (run app_l (".c delete " ^ tick));
    Tk.Core.update app_i;
    Tk.Core.update app_l;
    (* Damage vs full: the keyed op store after partial repaints must be
       indistinguishable from a from-scratch redraw, on both apps. *)
    let label = Printf.sprintf "round %d" round in
    let damaged = check_damage_equals_full ~label server_i app_i in
    ignore (check_damage_equals_full ~label:(label ^ " linear") server_l app_l);
    Buffer.add_string transcript damaged
  done;
  (* Tag-index consistency, both directions, through the Tcl surface. *)
  List.iter
    (fun app ->
      let all =
        String.split_on_char ' ' (run app ".c find all")
        |> List.filter (fun s -> s <> "")
      in
      Array.iter
        (fun tag ->
          let members =
            String.split_on_char ' ' (run app (".c find withtag " ^ tag))
            |> List.filter (fun s -> s <> "")
          in
          List.iter
            (fun id ->
              let tags = run app (".c gettags " ^ id) in
              check_bool
                (Printf.sprintf "withtag %s member %s carries the tag" tag id)
                true
                (List.mem tag (String.split_on_char ' ' tags)))
            members;
          List.iter
            (fun id ->
              let tags = String.split_on_char ' ' (run app (".c gettags " ^ id)) in
              if List.mem tag tags then
                check_bool
                  (Printf.sprintf "item %s with tag %s is in withtag" id tag)
                  true (List.mem id members))
            all)
        tag_pool)
    [ app_i; app_l ];
  (* The run must actually have exercised the machinery it claims to. *)
  check_bool "indexed app used the grid" true
    (metric app_i "tk.canvas.index_queries" > 0);
  check_bool "oracle app used linear scans" true
    (metric app_l "tk.canvas.linear_scans" > 0);
  check_bool "damage path ran" true
    (metric app_i "tk.canvas.damage_redraws" > 0);
  check_bool "damage coalescing happened" true
    (metric app_i "tk.damage.coalesced" > 0);
  Buffer.contents transcript

let differential_tests =
  [
    ( "randomized stream: index = linear oracle, damage raster = full",
      fun () -> ignore (differential_run ()) );
    ( "two runs on the fixed seed are identical",
      fun () ->
        let t1 = differential_run () in
        let t2 = differential_run () in
        check_string "transcripts equal" t1 t2 );
  ]

(* ------------------------------------------------------------------ *)
(* O(dirty) repaint accounting *)

let counter_tests =
  [
    ( "move-one in a populated canvas repaints O(dirty), not O(n)",
      fun () ->
        let _, app = canvas_app () in
        ignore
          (run app
             "for {set i 0} {$i < 400} {incr i} { .c create rectangle \
              [expr ($i%20)*15] [expr ($i/20)*10] [expr ($i%20)*15+8] \
              [expr ($i/20)*10+6] }");
        let hot = run app ".c create rectangle 290 190 296 196 -tags hot" in
        ignore hot;
        Tk.Core.update app;
        let full_before = metric app "tk.canvas.full_redraws" in
        let considered_before = metric app "tk.canvas.items_considered" in
        ignore (run app ".c move hot 1 1");
        Tk.Core.update app;
        check_bool "no full redraw" true
          (metric app "tk.canvas.full_redraws" = full_before);
        check_bool "one damage redraw more" true
          (metric app "tk.canvas.damage_redraws" > 0);
        let considered =
          metric app "tk.canvas.items_considered" - considered_before
        in
        check_bool
          (Printf.sprintf "considered %d of 401 items" considered)
          true
          (considered < 20) );
    ( "damage covering the widget deopts to a full redraw",
      fun () ->
        let _, app = canvas_app () in
        ignore (run app ".c create rectangle 0 0 299 199 -tags big");
        Tk.Core.update app;
        let deopt_before = metric app "tk.damage.deopt_full" in
        ignore (run app ".c move big 1 0");
        Tk.Core.update app;
        check_bool "deopted" true
          (metric app "tk.damage.deopt_full" > deopt_before) );
  ]

(* ------------------------------------------------------------------ *)
(* Visible clip: the op store holds exactly the items whose padded bbox
   meets the window *)

let id_count ids =
  List.length (List.filter (fun s -> s <> "") (String.split_on_char ' ' ids))

(* Items whose bbox, padded by one raster cell, meets the window. *)
let visible_count app =
  let width = int_of_string (run app "winfo width .c")
  and height = int_of_string (run app "winfo height .c") in
  id_count
    (run app
       (Printf.sprintf ".c find overlapping %d %d %d %d" (-Raster.scale_x)
          (-Raster.scale_y)
          (width + Raster.scale_x - 1)
          (height + Raster.scale_y - 1)))

let visible_tests =
  [
    ( "an item moved wholly off the window leaves no ghost (move, coords, \
       scale)",
      fun () ->
        List.iter
          (fun edit ->
            let server, app = canvas_app () in
            let blank = Raster.render server () in
            ignore (run app ".c create rectangle 10 10 20 20 -fill black");
            Tk.Core.update app;
            check_bool "drawn" true (Raster.render server () <> blank);
            let full_before = metric app "tk.canvas.full_redraws" in
            ignore (run app edit);
            Tk.Core.update app;
            check_bool (edit ^ ": took the partial repaint") true
              (metric app "tk.canvas.full_redraws" = full_before);
            check_string (edit ^ ": nothing left on screen") blank
              (Raster.render server ());
            ignore (check_damage_equals_full ~label:edit server app))
          [ ".c move 1 1000 0"; ".c coords 1 1000 10 1010 20";
            ".c scale 1 0 0 100 1" ] );
    ( "a full redraw draws only the visible items",
      fun () ->
        List.iter
          (fun indexed ->
            let _, app = canvas_app ~indexed () in
            (* 2000 items over a 3000x2000 plane; the window shows ~1%. *)
            ignore
              (run app
                 "for {set i 0} {$i < 2000} {incr i} { .c create rectangle \
                  [expr ($i*37)%3000] [expr ($i*53)%2000] \
                  [expr ($i*37)%3000+8] [expr ($i*53)%2000+6] }");
            Tk.Core.update app;
            let visible = visible_count app in
            check_bool
              (Printf.sprintf "%d of 2000 items visible" visible)
              true
              (visible > 0 && visible < 100);
            let drawn_before = metric app "tk.canvas.items_drawn" in
            let full_before = metric app "tk.canvas.full_redraws" in
            Tk.Core.schedule_redraw (canvas_widget app);
            Tk.Core.update app;
            check_bool "one full redraw" true
              (metric app "tk.canvas.full_redraws" = full_before + 1);
            let drawn = metric app "tk.canvas.items_drawn" - drawn_before in
            check_bool
              (Printf.sprintf "drew %d, %d visible (index %b)" drawn visible
                 indexed)
              true (drawn <= visible))
          [ true; false ] );
    ( "items reaching past the window paint nothing outside it",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "canvas .c -width 120 -height 60");
        ignore (run app "pack append . .c {top}");
        Tk.Core.update app;
        let before = Raster.render server () in
        ignore (run app ".c create rectangle 100 20 300 200");
        ignore (run app ".c create line 10 10 400 300");
        Tk.Core.update app;
        let after = Raster.render server () in
        let bounds =
          Window.bounds
            (Option.get
               (Server.lookup_window server (canvas_widget app).Tk.Core.win))
        in
        let lines s = Array.of_list (String.split_on_char '\n' s) in
        let before = lines before and after = lines after in
        let char_at rows row col =
          if row < Array.length rows && col < String.length rows.(row) then
            rows.(row).[col]
          else ' '
        in
        let changed_outside = ref [] in
        Array.iteri
          (fun row line ->
            String.iteri
              (fun col c ->
                let cell =
                  Geom.rect ~x:(col * Raster.scale_x) ~y:(row * Raster.scale_y)
                    ~width:Raster.scale_x ~height:Raster.scale_y
                in
                if
                  c <> char_at before row col
                  && not (Geom.intersects cell bounds)
                then changed_outside := (row, col) :: !changed_outside)
              line)
          after;
        check_bool "the items were drawn" true (before <> after);
        Alcotest.(check (list (pair int int)))
          "cells changed outside the canvas window" [] !changed_outside );
    ( "a new canvas -font moves text bboxes and the index with them",
      fun () ->
        let _, app = canvas_app () in
        ignore (run app ".c create text 10 40 -text hello");
        check_string "fixed" "10 30 40 43" (run app ".c bbox 1");
        ignore
          (run app ".c configure -font -adobe-helvetica-bold-r-normal--24-240");
        check_string "bbox follows the font" "10 21 80 44"
          (run app ".c bbox 1");
        check_string "the index finds it there" "1"
          (run app ".c find overlapping 60 35 80 40") );
    ( "enlarging the window shows items that were off-window",
      fun () ->
        let server, app = canvas_app () in
        ignore (run app ".c create rectangle 400 240 460 290 -fill black");
        Tk.Core.update app;
        check_bool "off-window item not drawn" false
          (String.contains (Raster.render server ()) '#');
        check_string "nothing visible" "0" (string_of_int (visible_count app));
        ignore (run app ".c configure -width 500 -height 300");
        Tk.Core.update app;
        check_string "window grew" "500" (run app "winfo width .c");
        check_bool "item drawn after enlarging" true
          (String.contains (Raster.render server ()) '#');
        ignore (check_damage_equals_full ~label:"enlarged" server app) );
  ]

let () =
  Alcotest.run "canvas"
    [
      ("surface", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) surface_tests);
      ( "differential",
        List.map (fun (n, f) -> Alcotest.test_case n `Quick f) differential_tests );
      ("counters", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) counter_tests);
      ("visible", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) visible_tests);
    ]
