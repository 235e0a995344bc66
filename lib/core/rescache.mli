(** The resource cache (paper §3.3): colors, fonts, cursors and bitmaps are
    cached by their textual names so that repeated requests are served
    without talking to the X server. The cache also keeps the reverse
    mapping so widgets can report human-readable names for resources in
    use.

    The [rescache_hits]/[rescache_misses] counters (in the connection's
    block) make the saved server traffic measurable, and the cache can be
    disabled entirely for the ablation benchmark.

    The cache is also the degradation point for failed resource requests:
    when the server rejects an allocation (a genuine error or an injected
    fault), the lookup falls back to a guaranteed resource — the "fixed"
    font, black/white colors, the default cursor, a built-in stipple — and
    counts the substitution ([rescache_fallbacks]) instead of propagating
    the error. *)

type t

val create : Xsim.Server.connection -> t

val set_enabled : t -> bool -> unit
(** When disabled every lookup goes to the server (the ablation case). *)

val color : t -> string -> Xsim.Color.t option
(** Resolve a color name/hex spec, allocating on first use. The result is
    canonicalised so equal specs share one entry. *)

val font : t -> string -> Xsim.Font.t option
val cursor : t -> string -> Xsim.Cursor.t option
val bitmap : t -> string -> Xsim.Bitmap.t option

val color_name : t -> Xsim.Color.t -> string option
(** Reverse lookup: the textual name a cached color was allocated under. *)

val gc :
  t ->
  ?foreground:string ->
  ?background:string ->
  ?font:string ->
  unit ->
  Xsim.Gcontext.t
(** A graphics context whose components are resolved through the cache.
    GCs themselves are cached by their component names, so widgets sharing
    colors/fonts share GCs too. *)
