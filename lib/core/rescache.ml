open Xsim

(* Counted into the connection's block. *)
let c_hits = Counters.counter "rescache_hits"
let c_misses = Counters.counter "rescache_misses"
let c_fallbacks = Counters.counter "rescache_fallbacks"

type t = {
  conn : Server.connection;
  colors : (string, Color.t) Hashtbl.t;
  fonts : (string, Font.t) Hashtbl.t;
  cursors : (string, Cursor.t) Hashtbl.t;
  bitmaps : (string, Bitmap.t) Hashtbl.t;
  gcs : (string, Gcontext.t) Hashtbl.t;
  color_names : (string, string) Hashtbl.t; (* hex -> first name used *)
  mutable enabled : bool;
  counters : Counters.t;
}

let create conn =
  {
    conn;
    colors = Hashtbl.create 16;
    fonts = Hashtbl.create 8;
    cursors = Hashtbl.create 8;
    bitmaps = Hashtbl.create 8;
    gcs = Hashtbl.create 16;
    color_names = Hashtbl.create 16;
    enabled = true;
    counters = Server.counters conn;
  }

let set_enabled t flag = t.enabled <- flag

let normalise name = String.lowercase_ascii (String.trim name)

(* A failed server request (real or fault-injected) degrades to a
   [fallback] resource rather than propagating: the paper's Tk keeps
   running on default fonts and monochrome colors when allocations fail.
   The substitute is cached like a real answer so one fault costs one
   fallback, deterministically. *)
let fetch_degraded t fetch fallback name =
  try fetch t.conn name
  with Xerror.X_error e ->
    Server.note_absorbed (Server.server_of t.conn) e;
    Counters.incr t.counters c_fallbacks;
    Some (fallback name)

(* Generic cached lookup: [fetch] performs the server request. *)
let lookup t table fetch fallback name =
  let key = normalise name in
  if not t.enabled then begin
    Counters.incr t.counters c_misses;
    fetch_degraded t fetch fallback name
  end
  else
    match Hashtbl.find_opt table key with
    | Some v ->
      Counters.incr t.counters c_hits;
      Some v
    | None -> (
      Counters.incr t.counters c_misses;
      match fetch_degraded t fetch fallback name with
      | Some v ->
        Hashtbl.replace table key v;
        Some v
      | None -> None)

(* Monochrome degradation: light-sounding names stay light, everything
   else goes black, so reliefs and text remain legible. *)
let color_fallback name =
  let n = normalise name in
  let mentions_white =
    let nl = String.length n in
    let rec go i = i + 5 <= nl && (String.sub n i 5 = "white" || go (i + 1)) in
    go 0
  in
  if mentions_white then Color.white else Color.black

let color t name =
  let result = lookup t t.colors Server.alloc_color color_fallback name in
  (match result with
  | Some c ->
    let hex = Color.to_hex c in
    if not (Hashtbl.mem t.color_names hex) then
      Hashtbl.replace t.color_names hex name
  | None -> ());
  result

let font t name =
  lookup t t.fonts Server.open_font (fun name -> Font.fallback ~name ()) name

let cursor t name =
  lookup t t.cursors Server.alloc_cursor (fun _ -> Cursor.fallback) name

let bitmap t name =
  lookup t t.bitmaps Server.alloc_bitmap (fun _ -> Bitmap.fallback ()) name

let color_name t c = Hashtbl.find_opt t.color_names (Color.to_hex c)

let gc t ?(foreground = "black") ?(background = "white") ?font:font_name () =
  let key =
    Printf.sprintf "%s/%s/%s" (normalise foreground) (normalise background)
      (match font_name with Some f -> normalise f | None -> "-")
  in
  match if t.enabled then Hashtbl.find_opt t.gcs key else None with
  | Some gc ->
    Counters.incr t.counters c_hits;
    gc
  | None ->
    let fg = Option.value (color t foreground) ~default:Color.black in
    let bg = Option.value (color t background) ~default:Color.white in
    let fnt =
      match font_name with
      | Some name -> font t name
      | None -> font t Font.default_name
    in
    let gc =
      try Server.create_gc t.conn ~foreground:fg ~background:bg ?font:fnt ()
      with Xerror.X_error e ->
        (* A rejected GC allocation degrades to a client-side context with
           a null id: drawing continues with the resolved components. *)
        Server.note_absorbed (Server.server_of t.conn) e;
        Counters.incr t.counters c_fallbacks;
        Gcontext.make ~id:Xid.none ~foreground:fg ~background:bg ?font:fnt ()
    in
    if t.enabled then Hashtbl.replace t.gcs key gc;
    gc
