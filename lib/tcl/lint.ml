(* Static analysis of Tcl/Tk scripts over the Compile representation.

   The toolkit's scripts are checked the way Xt applications are checked
   by the C compiler: before anything runs.  [analyze_program] compiles
   every file (directly, bypassing the interpreter's caches — linting
   must not disturb interpreter state) and walks the compiled programs
   with the command signature registry (Interp.signature) in hand.
   Passes, each labelled in the diagnostic it emits:

   - "unknown": unknown command / misspelled subcommand / bad -option,
     with "did you mean" suggestions; suppressed when the script defines
     a proc of that name anywhere, or a user [unknown] handler is
     visible (then every unresolved name may be handled at run time);
   - "arity": against the registry's usage strings, so lint prints
     exactly the "wrong # args: should be ..." message the runtime
     would, and against script-defined proc formals;
   - "dataflow": per-proc def/use (honoring global/upvar/foreach/catch
     writes) flagging variables that may be read before being set —
     including interprocedurally, through literal-upvar summaries of
     called procedures;
   - "deadcode": code after an unconditional return/break/continue/
     error/exit, after a constant-true [while]/[for], and skipped
     constant-false branches;
   - "absint": abstract interpretation of constant expressions over the
     value-kind lattice (Absint) — guaranteed [expr] failures with the
     runtime's byte-identical message, [incr] of a variable whose value
     is a known non-integer constant, constant out-of-range [lindex];
   - "callgraph": whole-program reachability (procedures defined but
     never referenced from live code) and cycles of unconditional calls
     (guaranteed infinite recursion);
   - "capability": with [safe], every reachable invocation of a command
     the -safe interpreter profile hides (Interp_cmd.unsafe_commands),
     whether direct or through an [interp alias];
   - "check"/"widget"/"options": per-argument literal validators
     (binding event patterns), widget path shape and option tables.

   The analysis is deliberately conservative: a dynamic word (one with
   $-substitution or [command] substitution in it) defeats any check
   that would need its value, a braced word is only descended into as a
   script where the signature (or the structure of a control command)
   says a script belongs, and the call graph errs toward "reachable"
   (every literal token anywhere in a node counts as a mention).  The
   goal is zero false positives on working scripts; soundness bugs err
   toward silence. *)

type severity = Error | Warning

type diag = {
  line : int;  (* 1-based *)
  col : int;  (* 1-based *)
  severity : severity;
  pass : string;  (* which analysis produced it, e.g. "arity" *)
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let format_diag ?file d =
  let prefix = match file with Some f -> f ^ ":" | None -> "" in
  Printf.sprintf "%s%d:%d: %s: %s" prefix d.line d.col
    (severity_name d.severity) d.message

(* ------------------------------------------------------------------ *)
(* Script completeness: braces, brackets and quotes balance.  Shared by
   [info complete] and wish's interactive continuation prompt. *)

let complete script =
  let n = String.length script in
  let rec scan i depth in_quote =
    if i >= n then depth <= 0 && not in_quote
    else
      match script.[i] with
      | '\\' -> scan (i + 2) depth in_quote
      | '"' -> scan (i + 1) depth (not in_quote)
      | ('{' | '[') when not in_quote -> scan (i + 1) (depth + 1) in_quote
      | ('}' | ']') when not in_quote -> scan (i + 1) (depth - 1) in_quote
      | _ -> scan (i + 1) depth in_quote
  in
  scan 0 0 false

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* The closest candidate within edit distance 2 — far enough to catch a
   typo, near enough not to suggest nonsense. *)
let suggest token candidates =
  let best =
    List.fold_left
      (fun acc c ->
        let d = levenshtein token c in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ when d <= 2 && d < String.length c -> Some (c, d)
        | _ -> acc)
      None candidates
  in
  match best with
  | Some (c, d) when d > 0 -> Printf.sprintf " (did you mean \"%s\"?)" c
  | _ -> ""

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Array-element names read/write their base variable. *)
let var_base name =
  match String.index_opt name '(' with
  | Some i -> String.sub name 0 i
  | None -> name

let parent_path path =
  if path = "." then None
  else
    match String.rindex_opt path '.' with
    | Some 0 -> Some "."
    | Some i -> Some (String.sub path 0 i)
    | None -> None

(* ------------------------------------------------------------------ *)
(* Analysis context and scopes *)

type proc_info = {
  p_formals : (string * bool) list;  (* formal name, has default *)
  p_varargs : bool;  (* trailing "args" *)
}

(* A reachable use of a command the -safe profile hides. *)
type cap_hit = {
  h_file : string option;
  h_off : int;
  h_name : string;  (* the hidden command *)
  h_via : string option;  (* the alias it was reached through, if any *)
  h_node : Callgraph.node;
}

(* Literal-upvar summary of a procedure body: which caller variables it
   links, and whether it reads or writes them through the link. *)
type utarget = Ulit of string | Uformal of int

type uv = { u_target : utarget; u_read : bool; u_write : bool }

type ctx = {
  interp : Interp.t;
  safe : bool;  (* check against the -safe hidden-command profile *)
  whole : bool;  (* whole-program mode: report unreachable procedures *)
  cg : Callgraph.t;
  mutable cur_file : string option;
  mutable diags :
    (string option * int * severity * string * string) list;
      (* file, absolute offset, severity, pass, message *)
  procs : (string, proc_info option) Hashtbl.t;
      (* procs defined anywhere in the program; None = formals unknown *)
  bodies : (string, string) Hashtbl.t;  (* literal proc bodies *)
  created : (string, Interp.widget_sig option) Hashtbl.t;
      (* widget paths created anywhere in the program *)
  extra : (string, unit) Hashtbl.t;  (* rename / alias targets etc. *)
  aliases_cap : (string, string) Hashtbl.t;
      (* alias name -> hidden command it resolves to *)
  mutable cap_hits : cap_hit list;
  summaries : (string, uv list) Hashtbl.t;
  mutable has_dynamic : bool;
      (* a dynamically-named command, or a dynamic eval/uplevel/after
         script, may call anything: reachability reports are off *)
  mutable suppress_unknown : bool;  (* a user [unknown] handler exists *)
}

type scope =
  | Top  (* global scope: variables live across scripts; no dataflow *)
  | Inproc of pscope

and pscope = {
  ps_proc : string;
  ps_defined : (string, unit) Hashtbl.t;
  ps_warned : (string, unit) Hashtbl.t;
}

(* Walker state threaded through every command: the dataflow scope, the
   call-graph node being populated, and flags describing how the
   current command relates to its node's entry. *)
type wctx = {
  scope : scope;
  soft : bool;  (* reads inside catch/uplevel stay quiet *)
  node : Callgraph.node;
  cond : bool;  (* nested under any conditional construct *)
  dead : bool;  (* after an unconditional terminator *)
  kinds : (string, Absint.v) Hashtbl.t;
      (* value kinds of scalar variables along the walked path; absent
         means unknown (Vtop) *)
}

(* What a command (or command sequence) does to straight-line control
   flow: [term] when it always terminates the sequence (the terminator's
   name, for the dead-code message), [esc] when it *may* transfer
   control away (so everything after is conditional, but not dead). *)
type wres = { term : string option; esc : bool }

let nores = { term = None; esc = false }

let report ctx off severity ~pass fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <- (ctx.cur_file, off, severity, pass, message) :: ctx.diags)
    fmt

let report_at ctx file off severity ~pass fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <- (file, off, severity, pass, message) :: ctx.diags)
    fmt

let lit_arg (cmd : Compile.command) i =
  match List.nth_opt cmd.words i with
  | Some (Compile.W_lit s) -> Some s
  | _ -> None

let word_off (cmd : Compile.command) i =
  match List.nth_opt cmd.wpos i with Some p -> p | None -> cmd.pos

(* A literal argument viewed as a nested script: its content plus the
   offset of that content within the enclosing compile unit (skipping
   the opening brace or quote).  Positions inside braced bodies are
   best-effort: Chars.braced_content collapses backslash-newlines, so a
   body containing one maps approximately. *)
let script_arg usrc (cmd : Compile.command) i =
  match (List.nth_opt cmd.words i, List.nth_opt cmd.wpos i) with
  | Some (Compile.W_lit s), Some wp ->
    let delta =
      if wp < String.length usrc && (usrc.[wp] = '{' || usrc.[wp] = '"') then 1
      else 0
    in
    Some (s, wp + delta)
  | _ -> None

let nargs (cmd : Compile.command) = List.length cmd.words - 1

(* ------------------------------------------------------------------ *)
(* Pre-pass: collect proc definitions (and literal bodies), widget
   creations, rename and alias targets anywhere in the program (any
   nesting), so pass 1 can suppress unknown-command reports for names
   the script itself provides.  The pre-pass descends into *every*
   braced word — over-collecting from data braces only ever suppresses
   diagnostics, never invents them. *)

let record_proc ctx name formals =
  let info =
    match Tcl_list.parse formals with
    | Error _ -> None
    | Ok fs ->
      let formal f =
        match Tcl_list.parse f with
        | Ok [ n ] -> Some (n, false)
        | Ok [ n; _default ] -> Some (n, true)
        | _ -> None
      in
      let rec build acc = function
        | [] -> Some { p_formals = List.rev acc; p_varargs = false }
        | [ "args" ] -> Some { p_formals = List.rev acc; p_varargs = true }
        | f :: rest -> (
          match formal f with
          | Some fm -> build (fm :: acc) rest
          | None -> None)
      in
      build [] fs
  in
  (* Keep the best information seen: a redefinition with unknown formals
     must not erase known ones (conservatively, either may apply). *)
  match Hashtbl.find_opt ctx.procs name with
  | Some (Some _) -> if info <> None then Hashtbl.replace ctx.procs name info
  | _ -> Hashtbl.replace ctx.procs name info

let rec prepass ctx depth (prog : Compile.program) =
  if depth > 20 then ()
  else
    List.iter
      (fun (cmd : Compile.command) ->
        (match cmd.words with
        | Compile.W_lit "proc" :: Compile.W_lit name :: Compile.W_lit formals
          :: rest ->
          record_proc ctx name formals;
          (match rest with
          | [ Compile.W_lit body ] ->
            if not (Hashtbl.mem ctx.bodies name) then
              Hashtbl.add ctx.bodies name body
          | _ -> ())
        | Compile.W_lit "rename" :: _ :: Compile.W_lit newname :: _ ->
          Hashtbl.replace ctx.extra newname ()
        | Compile.W_lit "interp" :: Compile.W_lit "alias" :: _path
          :: Compile.W_lit src :: rest
          when src <> "" ->
          Hashtbl.replace ctx.extra src ();
          (match rest with
          | _tpath :: Compile.W_lit target :: _
            when List.mem target Interp_cmd.unsafe_commands ->
            Hashtbl.replace ctx.aliases_cap src target
          | _ -> ())
        | Compile.W_lit creator :: Compile.W_lit path :: _
          when starts_with "." path -> (
          match Interp.signature_of ctx.interp creator with
          | Some { Interp.sig_widget = Some ws; _ } ->
            if not (Hashtbl.mem ctx.created path) then
              Hashtbl.replace ctx.created path (Some ws)
          | _ -> ())
        | _ -> ());
        List.iter
          (fun w ->
            match w with
            | Compile.W_lit s ->
              if String.contains s '\n' || String.contains s ';'
                 || String.contains s '[' || String.contains s ' '
              then prepass ctx (depth + 1) (Compile.compile s)
            | Compile.W_parts parts | Compile.W_fail (parts, _) ->
              prepass_parts ctx depth parts)
          cmd.words)
      prog

and prepass_parts ctx depth parts =
  List.iter
    (fun p ->
      match p with
      | Compile.Lit _ | Compile.Var _ -> ()
      | Compile.Var_idx (_, idx) -> prepass_parts ctx depth idx
      | Compile.Cmd prog -> prepass ctx (depth + 1) prog)
    parts

(* ------------------------------------------------------------------ *)
(* Dataflow primitives *)

let define scope name =
  match scope with
  | Top -> ()
  | Inproc ps -> Hashtbl.replace ps.ps_defined (var_base name) ()

let use ctx scope ~soft off name =
  match scope with
  | Top -> ()
  | Inproc ps ->
    let base = var_base name in
    if
      (not soft) && base <> ""
      && (not (Hashtbl.mem ps.ps_defined base))
      && not (Hashtbl.mem ps.ps_warned base)
    then begin
      Hashtbl.replace ps.ps_warned base ();
      report ctx off Warning ~pass:"dataflow"
        "\"%s\" may be used before being set in procedure \"%s\"" base
        ps.ps_proc
    end

(* ------------------------------------------------------------------ *)
(* Value-kind table helpers.  Absence means unknown; only scalar names
   without parens are tracked. *)

let kind_get wc name =
  if String.contains name '(' then Absint.Vtop
  else
    match Hashtbl.find_opt wc.kinds name with
    | Some v -> v
    | None -> Absint.Vtop

let kind_set wc name v =
  if String.contains name '(' || name = "" then ()
  else if v = Absint.Vtop then Hashtbl.remove wc.kinds name
  else Hashtbl.replace wc.kinds name v

(* ------------------------------------------------------------------ *)
(* The walker *)

let known_command ctx name =
  Interp.command_exists ctx.interp name
  || Interp.signature_of ctx.interp name <> None
  || Hashtbl.mem ctx.procs name
  || Hashtbl.mem ctx.created name
  || Hashtbl.mem ctx.extra name

let command_candidates ctx =
  Interp.command_names ctx.interp
  @ Hashtbl.fold (fun k _ acc -> k :: acc) ctx.procs []

(* Does the first-word literal name disqualify the command from checks?
   Binding scripts carry %-sequences; a $-leading name is a compile
   artifact of an unusual quoting and never resolvable statically. *)
let uncheckable_name name =
  name = "" || String.contains name '%' || name.[0] = '$'

let scripty s =
  String.contains s '\n' || String.contains s ';' || String.contains s '['
  || String.contains s ' '

(* Over-approximate the set of variables a script may write, for
   havocking the kind table around loop bodies and deferred scripts.
   [all] covers upvar/uplevel, event-loop reentry ([vwait]/[update]) and
   calls into script-defined procs (which may upvar into us).  Unknown
   commands are runtime errors unless an [unknown] handler exists, so
   they only havoc everything in that case.  Over-adding names from
   data braces is harmless — a havoc only loses precision. *)
let rec writes_of_prog ctx depth tbl all (prog : Compile.program) =
  if depth > 10 then all := true
  else
    List.iter
      (fun (cmd : Compile.command) ->
        let n = nargs cmd in
        let add i =
          match lit_arg cmd i with
          | Some v -> Hashtbl.replace tbl (var_base v) ()
          | None -> all := true
        in
        (match lit_arg cmd 0 with
        | None -> all := true
        | Some name when name <> "" && name.[0] = '$' -> all := true
        | Some name when uncheckable_name name || starts_with "." name -> ()
        | Some name -> (
          match name with
          | "set" | "append" | "lappend" | "incr" -> add 1
          | "unset" | "global" | "variable" ->
            for i = 1 to n do
              add i
            done
          | "foreach" ->
            let rec go i =
              if i + 1 <= n then begin
                add i;
                go (i + 2)
              end
            in
            go 1
          | "catch" -> if n >= 2 then add 2
          | "gets" -> if n >= 2 then add 2
          | "scan" | "regexp" ->
            for i = 3 to n do
              add i
            done
          | "regsub" -> if n >= 4 then add n
          | "array" -> if n >= 2 then add 2
          | "vwait" | "update" | "tkwait" | "upvar" | "uplevel" | "eval" ->
            all := true
          | _ ->
            if Hashtbl.mem ctx.procs name then all := true
            else if ctx.suppress_unknown && not (known_command ctx name) then
              all := true));
        List.iter
          (fun w ->
            match w with
            | Compile.W_lit s ->
              if scripty s then
                writes_of_prog ctx (depth + 1) tbl all (Compile.compile s)
            | Compile.W_parts parts | Compile.W_fail (parts, _) ->
              writes_of_parts ctx depth tbl all parts)
          cmd.words)
      prog

and writes_of_parts ctx depth tbl all parts =
  List.iter
    (fun p ->
      match p with
      | Compile.Lit _ | Compile.Var _ -> ()
      | Compile.Var_idx (_, idx) -> writes_of_parts ctx depth tbl all idx
      | Compile.Cmd prog -> writes_of_prog ctx (depth + 1) tbl all prog)
    parts

let writes_of ctx prog =
  let tbl = Hashtbl.create 8 and all = ref false in
  writes_of_prog ctx 0 tbl all prog;
  (tbl, !all)

let merge_writes (t1, a1) (t2, a2) =
  Hashtbl.iter (fun k () -> Hashtbl.replace t1 k ()) t2;
  (t1, a1 || a2)

let havoc wc (tbl, all) =
  if all then Hashtbl.reset wc.kinds
  else Hashtbl.iter (fun v () -> Hashtbl.remove wc.kinds v) tbl

let writes_member (tbl, all) name = all || Hashtbl.mem tbl name

(* A single [expr] invocation whose arguments are literals or plain
   scalar $-substitutions, reconstructed as expression text and parsed.
   The runtime concatenates multiple arguments with spaces; a bare $var
   word round-trips exactly ([expr $n - 1] = [expr {$n - 1}]). *)
let expr_ast_of (c : Compile.command) =
  match c.words with
  | Compile.W_lit "expr" :: (_ :: _ as args) -> (
    let piece = function
      | Compile.W_lit s -> Some s
      | Compile.W_parts [ Compile.Var v ]
        when v <> "" && not (String.contains v '(') ->
        Some ("$" ^ v)
      | _ -> None
    in
    let rec pieces acc = function
      | [] -> Some (List.rev acc)
      | w :: tl -> (
        match piece w with
        | Some s -> pieces (s :: acc) tl
        | None -> None)
    in
    match pieces [] args with
    | Some ps -> (
      match Expr.parse (String.concat " " ps) with
      | Expr.A_fail _ -> None
      | ast -> Some ast)
    | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Upvar summaries: which caller variables a procedure body links with
   a literal (or formal-named) [upvar 1], and whether it reads or
   writes them.  Reads under [catch] don't count (the body may be
   probing), and nested [proc] definitions are skipped — their upvar
   targets the *inner* caller. *)

let index_of_formal info name =
  let rec go i = function
    | [] -> None
    | (f, _) :: tl -> if f = name then Some i else go (i + 1) tl
  in
  go 0 info.p_formals

let summary_of ctx name =
  match Hashtbl.find_opt ctx.summaries name with
  | Some s -> s
  | None ->
    let summ =
      match
        (Hashtbl.find_opt ctx.bodies name, Hashtbl.find_opt ctx.procs name)
      with
      | Some body, Some (Some info) ->
        let pairs = ref [] in
        let reads = Hashtbl.create 4 and writes = Hashtbl.create 4 in
        let rec scan depth ~soft (prog : Compile.program) =
          if depth > 10 then ()
          else
            List.iter
              (fun (cmd : Compile.command) ->
                if lit_arg cmd 0 <> Some "proc" then begin
                  (match cmd.words with
                  | Compile.W_lit "upvar" :: rest ->
                    (* Only level-1 (explicit or implicit) links target
                       the direct caller. *)
                    let rest_ok =
                      match rest with
                      | Compile.W_lit lvl :: tl
                        when lvl <> ""
                             && (lvl.[0] = '#' || int_of_string_opt lvl <> None)
                        ->
                        if lvl = "1" then Some tl else None
                      | tl -> Some tl
                    in
                    (match rest_ok with
                    | None -> ()
                    | Some rest ->
                      let rec pairup = function
                        | other :: Compile.W_lit local :: tl ->
                          (match other with
                          | Compile.W_lit o when o <> "" ->
                            pairs := (Ulit o, local) :: !pairs
                          | Compile.W_parts [ Compile.Var v ] -> (
                            match index_of_formal info v with
                            | Some j -> pairs := (Uformal j, local) :: !pairs
                            | None -> ())
                          | _ -> ());
                          pairup tl
                        | _ -> ()
                      in
                      pairup rest)
                  | _ -> ());
                  (match lit_arg cmd 0 with
                  | Some ("set" | "append" | "lappend" | "foreach") -> (
                    match lit_arg cmd 1 with
                    | Some v -> Hashtbl.replace writes (var_base v) ()
                    | None -> ())
                  | Some "catch" when nargs cmd >= 2 -> (
                    match lit_arg cmd 2 with
                    | Some v -> Hashtbl.replace writes (var_base v) ()
                    | None -> ())
                  | Some "gets" when nargs cmd >= 2 -> (
                    match lit_arg cmd 2 with
                    | Some v -> Hashtbl.replace writes (var_base v) ()
                    | None -> ())
                  | Some "incr" -> (
                    match lit_arg cmd 1 with
                    | Some v ->
                      if not soft then Hashtbl.replace reads (var_base v) ()
                    | None -> ())
                  | _ -> ());
                  let soft' = soft || lit_arg cmd 0 = Some "catch" in
                  let rec parts_reads ~soft parts =
                    List.iter
                      (fun p ->
                        match p with
                        | Compile.Lit _ -> ()
                        | Compile.Var v ->
                          if not soft then
                            Hashtbl.replace reads (var_base v) ()
                        | Compile.Var_idx (v, idx) ->
                          if not soft then
                            Hashtbl.replace reads (var_base v) ();
                          parts_reads ~soft idx
                        | Compile.Cmd prog -> scan (depth + 1) ~soft prog)
                      parts
                  in
                  List.iter
                    (fun w ->
                      match w with
                      | Compile.W_lit s ->
                        if scripty s then
                          scan (depth + 1) ~soft:soft' (Compile.compile s)
                      | Compile.W_parts parts | Compile.W_fail (parts, _) ->
                        parts_reads ~soft:soft' parts)
                    cmd.words
                end)
              prog
        in
        scan 0 ~soft:false (Compile.compile body);
        List.filter_map
          (fun (target, local) ->
            let r = Hashtbl.mem reads local
            and w = Hashtbl.mem writes local in
            if r || w then Some { u_target = target; u_read = r; u_write = w }
            else None)
          (List.rev !pairs)
      | _ -> []
    in
    Hashtbl.replace ctx.summaries name summ;
    summ

(* ------------------------------------------------------------------ *)
(* The walker proper *)

let rec walk ctx usrc origin wc (prog : Compile.program) : wres =
  let term = ref None and esc = ref false and dead_reported = ref false in
  List.iter
    (fun (cmd : Compile.command) ->
      if cmd.words <> [] then
        match !term with
        | Some by ->
          if not !dead_reported then begin
            dead_reported := true;
            report ctx (origin + cmd.pos) Warning ~pass:"deadcode"
              "unreachable command after \"%s\"" by
          end;
          ignore
            (walk_command ctx usrc origin { wc with cond = true; dead = true }
               cmd)
        | None ->
          let wc' = if !esc then { wc with cond = true } else wc in
          let r = walk_command ctx usrc origin wc' cmd in
          if r.esc then esc := true;
          if r.term <> None then term := r.term)
    prog;
  { term = !term; esc = !esc }

and walk_command ctx usrc origin wc (cmd : Compile.command) : wres =
  (* Substitutions run in word order before the command fires: record
     variable uses and descend into [command] substitutions first. *)
  let failed = ref false in
  List.iteri
    (fun i w ->
      let off = origin + word_off cmd i in
      match w with
      | Compile.W_lit _ -> ()
      | Compile.W_parts parts -> walk_parts ctx usrc origin wc off parts
      | Compile.W_fail (parts, msg) ->
        walk_parts ctx usrc origin wc off parts;
        failed := true;
        report ctx off Error ~pass:"syntax" "syntax error: %s" msg)
    cmd.words;
  if not wc.dead then record_mentions ctx wc cmd;
  let r =
    if !failed then nores
    else
      match lit_arg cmd 0 with
      | None ->
        (* dynamic command name: nothing checkable, anything callable *)
        ctx.has_dynamic <- true;
        nores
      | Some name when uncheckable_name name ->
        if name <> "" && name.[0] = '$' then ctx.has_dynamic <- true;
        nores
      | Some name when starts_with "." name ->
        walk_widget_call ctx usrc origin wc cmd name;
        nores
      | Some name ->
        let off = origin + cmd.pos in
        if not (known_command ctx name) then begin
          if not ctx.suppress_unknown then
            report ctx off Error ~pass:"unknown"
              "invalid command name \"%s\"%s" name
              (suggest name (command_candidates ctx));
          nores
        end
        else begin
          if Hashtbl.mem ctx.procs name then
            Callgraph.add_call ctx.cg ~from:wc.node ~callee:name
              ~file:ctx.cur_file ~off ~cond:(wc.cond || wc.dead);
          capability ctx wc off name;
          let r =
            match Interp.signature_of ctx.interp name with
            | Some s -> apply_signature ctx usrc origin wc cmd name s
            | None ->
              check_script_proc ctx origin wc cmd name;
              nores
          in
          apply_effects ctx usrc origin wc cmd name;
          r
        end
  in
  match lit_arg cmd 0 with
  | Some (("return" | "break" | "continue" | "error" | "exit") as nm) ->
    { term = Some nm; esc = true }
  | _ -> r

(* Every literal token anywhere in a live command is a potential
   callback reference; feeding them all to the call graph keeps the
   unreachable-procedure pass free of false positives.  [proc] is
   skipped entirely: its body is walked under its own node, and
   attributing the body's tokens to the enclosing node would resurrect
   procedures only referenced by dead ones. *)
and record_mentions ctx wc cmd =
  if lit_arg cmd 0 <> Some "proc" then
    let mention tok =
      if Hashtbl.mem ctx.procs tok then Callgraph.add_mention ctx.cg wc.node tok
    in
    let rec parts_mentions parts =
      List.iter
        (fun p ->
          match p with
          | Compile.Lit s -> Callgraph.tokens_of_literal s mention
          | Compile.Var _ -> ()
          | Compile.Var_idx (_, idx) -> parts_mentions idx
          | Compile.Cmd _ -> ())
        parts
    in
    List.iter
      (fun w ->
        match w with
        | Compile.W_lit s -> Callgraph.tokens_of_literal s mention
        | Compile.W_parts parts | Compile.W_fail (parts, _) ->
          parts_mentions parts)
      cmd.words

and capability ctx wc off name =
  if ctx.safe && not wc.dead then begin
    if List.mem name Interp_cmd.unsafe_commands then
      ctx.cap_hits <-
        {
          h_file = ctx.cur_file;
          h_off = off;
          h_name = name;
          h_via = None;
          h_node = wc.node;
        }
        :: ctx.cap_hits
    else
      match Hashtbl.find_opt ctx.aliases_cap name with
      | Some target ->
        ctx.cap_hits <-
          {
            h_file = ctx.cur_file;
            h_off = off;
            h_name = target;
            h_via = Some name;
            h_node = wc.node;
          }
          :: ctx.cap_hits
      | None -> ()
  end

and walk_parts ctx usrc origin wc off parts =
  List.iter
    (fun p ->
      match p with
      | Compile.Lit _ -> ()
      | Compile.Var n -> use ctx wc.scope ~soft:wc.soft off n
      | Compile.Var_idx (b, idx) ->
        use ctx wc.scope ~soft:wc.soft off b;
        walk_parts ctx usrc origin wc off idx
      | Compile.Cmd prog -> ignore (walk ctx usrc origin wc prog))
    parts

(* Abstractly evaluate a literal condition or [expr] argument.  Reads
   consult the kind table and feed the dataflow pass; bracketed
   command substitutions are walked (conditionally — the runtime may
   short-circuit past them).  Returns the constant truth of the
   condition if proven; reports a guaranteed runtime failure unless
   the context is soft or dead.  [effects] is set when an embedded
   command script was walked (its writes have mutated the kind table,
   so snapshot-restoring callers must re-havoc). *)
and fold_condition ctx usrc origin ?(effects = ref false) wc cmd i =
  ignore usrc;
  match lit_arg cmd i with
  | None -> None
  | Some s -> (
    let off = origin + word_off cmd i in
    match Expr.parse s with
    | Expr.A_fail _ -> None
    | ast -> (
      let hooks =
        {
          Absint.lookup = (fun u -> kind_get wc u);
          note_use =
            (fun ~soft u -> use ctx wc.scope ~soft:(wc.soft || soft) off u);
          eval_cmd =
            (fun ~soft s' ->
              effects := true;
              ignore
                (walk ctx s' off
                   { wc with soft = wc.soft || soft; cond = true }
                   (Compile.compile s')));
        }
      in
      match Absint.truthy (Absint.eval_ast hooks ast) with
      | r -> r
      | exception Absint.Guaranteed msg ->
        if not (wc.soft || wc.dead) then
          report ctx off Error ~pass:"absint" "%s" msg;
        None))

(* Arity of a proc defined by the script under analysis, reported with
   the interpreter's own messages; valid calls feed the upvar
   summary. *)
and check_script_proc ctx origin wc cmd name =
  match Hashtbl.find_opt ctx.procs name with
  | Some (Some info) ->
    let n = nargs cmd in
    let required =
      List.length (List.filter (fun (_, dflt) -> not dflt) info.p_formals)
    in
    let maximum =
      if info.p_varargs then max_int else List.length info.p_formals
    in
    if n > maximum then
      report ctx (origin + cmd.pos) Error ~pass:"arity"
        "called \"%s\" with too many arguments" name
    else if n < required then begin
      match List.nth_opt info.p_formals n with
      | Some (formal, _) ->
        report ctx (origin + cmd.pos) Error ~pass:"arity"
          "no value given for parameter \"%s\" to \"%s\"" formal name
      | None -> ()
    end
    else apply_upvar_site ctx origin wc cmd name
  | _ -> ()

and apply_upvar_site ctx origin wc cmd name =
  List.iter
    (fun u ->
      let target =
        match u.u_target with
        | Ulit x -> Some x
        | Uformal j -> lit_arg cmd (j + 1)
      in
      match target with
      | None -> ()
      | Some x
        when x = "" || String.contains x '%' || String.contains x '$' ->
        ()
      | Some x -> (
        let base = var_base x in
        if u.u_write then begin
          define wc.scope base;
          Hashtbl.remove wc.kinds base
        end
        else if u.u_read then
          match wc.scope with
          | Top -> ()
          | Inproc ps ->
            if
              (not (wc.soft || wc.dead))
              && (not (Hashtbl.mem ps.ps_defined base))
              && not (Hashtbl.mem ps.ps_warned base)
            then begin
              Hashtbl.replace ps.ps_warned base ();
              report ctx (origin + cmd.pos) Warning ~pass:"dataflow"
                "\"%s\" may be used before being set in procedure \"%s\" \
                 (read via upvar by \"%s\")"
                base ps.ps_proc name
            end))
    (summary_of ctx name)

and apply_signature ctx usrc origin wc cmd name (s : Interp.signature) : wres
    =
  let n = nargs cmd in
  let off = origin + cmd.pos in
  if n < s.Interp.sig_min || (s.Interp.sig_max >= 0 && n > s.Interp.sig_max)
  then begin
    report ctx off Error ~pass:"arity" "wrong # args: should be \"%s\""
      s.Interp.sig_usage;
    nores
  end
  else begin
    (* Subcommand table: only a literal first argument that cannot be a
       window path, switch or substitution artifact is checkable.  An
       open table ([sig_open_subs]) means an unmatched word is legal —
       [send appName ...] — so only near-misses are flagged, softly. *)
    (match (s.Interp.sig_subs, lit_arg cmd 1) with
    | (_ :: _ as subs), Some sub
      when n >= 1 && sub <> ""
           && (not (starts_with "." sub))
           && (not (starts_with "-" sub))
           && not (String.contains sub '%') -> (
      match List.find_opt (fun x -> x.Interp.sub_name = sub) subs with
      | None ->
        let names =
          List.sort String.compare (List.map (fun x -> x.Interp.sub_name) subs)
        in
        if s.Interp.sig_open_subs then begin
          let hint = suggest sub names in
          if hint <> "" then
            report ctx (origin + word_off cmd 1) Warning ~pass:"subcommand"
              "\"%s\" is not a %s subcommand%s" sub name hint
        end
        else
          report ctx (origin + word_off cmd 1) Error ~pass:"subcommand"
            "bad option \"%s\": should be %s%s" sub (Interp.alternatives names)
            (suggest sub names)
      | Some x ->
        let rest = n - 1 in
        if
          rest < x.Interp.sub_min
          || (x.Interp.sub_max >= 0 && rest > x.Interp.sub_max)
        then
          report ctx off
            (if s.Interp.sig_open_subs then Warning else Error)
            ~pass:"arity" "wrong # args: should be \"%s\"" s.Interp.sig_usage)
    | _ -> ());
    (* Leading -option switches: only literal words, only up to the
       first non-switch argument or a "--" terminator, and only when the
       signature declares an option set (value arguments may legally
       start with a dash, so commands without a declared set are never
       checked). *)
    (match s.Interp.sig_options with
    | [] -> ()
    | options ->
      let start =
        match (s.Interp.sig_subs, lit_arg cmd 1) with
        | _ :: _, Some sub
          when List.exists (fun x -> x.Interp.sub_name = sub) s.Interp.sig_subs
          ->
          2
        | _ -> 1
      in
      let sorted = List.sort String.compare options in
      let rec scan i =
        if i <= n then
          match lit_arg cmd i with
          | Some w
            when starts_with "-" w && w <> "--"
                 && not (String.contains w '%') ->
            if not (List.mem w options) then
              report ctx (origin + word_off cmd i) Error ~pass:"options"
                "bad option \"%s\": should be %s%s" w
                (Interp.alternatives sorted) (suggest w sorted)
            else scan (i + 1)
          | _ -> ()
      in
      scan start);
    (* Per-argument literal validators (e.g. bind event patterns). *)
    List.iter
      (fun { Interp.chk_arg; chk } ->
        match lit_arg cmd chk_arg with
        | Some v when not (String.contains v '%') -> (
          match chk v with
          | Some msg ->
            report ctx (origin + word_off cmd chk_arg) Error ~pass:"check"
              "%s" msg
          | None -> ())
        | _ -> ())
      s.Interp.sig_checks;
    (* Widget creation: path shape, parent, option/value pairs. *)
    (match s.Interp.sig_widget with
    | Some ws -> check_widget_creation ctx usrc origin cmd ws
    | None -> ());
    walk_structure ctx usrc origin wc cmd name s
  end

(* Control commands get structural recursion into their braced bodies —
   with constant conditions folded, loop-clobbered kinds havocked and
   call-conditionality tracked; anything else follows the signature's
   script-argument indices. *)
and walk_structure ctx usrc origin wc cmd name s : wres =
  let n = nargs cmd in
  let warg wc' i =
    match script_arg usrc cmd i with
    | Some (content, rel) ->
      walk ctx content (origin + rel) wc' (Compile.compile content)
    | None -> nores
  in
  let writes_arg i =
    match script_arg usrc cmd i with
    | Some (content, _) -> writes_of ctx (Compile.compile content)
    | None -> (Hashtbl.create 1, true)
  in
  let dynamic_script i = i <= n && lit_arg cmd i = None in
  match name with
  | "proc" ->
    (match lit_arg cmd 1 with
    | Some pname when pname <> "" ->
      Callgraph.add_def ctx.cg pname ~file:ctx.cur_file
        ~off:(origin + cmd.pos)
    | _ -> ());
    (match (lit_arg cmd 1, lit_arg cmd 2) with
    | Some pname, Some _formals -> (
      match Hashtbl.find_opt ctx.procs pname with
      | Some (Some info) ->
        let ps =
          {
            ps_proc = pname;
            ps_defined = Hashtbl.create 8;
            ps_warned = Hashtbl.create 8;
          }
        in
        List.iter
          (fun (f, _) -> Hashtbl.replace ps.ps_defined f ())
          info.p_formals;
        Hashtbl.replace ps.ps_defined "args" ();
        ignore
          (warg
             {
               scope = Inproc ps;
               soft = false;
               node = Callgraph.Nproc pname;
               cond = false;
               dead = false;
               kinds = Hashtbl.create 16;
             }
             3)
      | _ -> ())
    | _ -> ());
    nores
  | "if" -> (
    (* if cond ?then? body ?elseif cond ?then? body ...? ??else? body? *)
    let rec parse i acc =
      if i > n then None
      else
        let bi = if lit_arg cmd (i + 1) = Some "then" then i + 2 else i + 1 in
        if bi > n then None
        else
          let acc = (i, bi) :: acc in
          if bi = n then Some (List.rev acc, None)
          else
            match lit_arg cmd (bi + 1) with
            | Some "elseif" -> parse (bi + 2) acc
            | Some "else" ->
              if bi + 2 = n then Some (List.rev acc, Some (bi + 2)) else None
            | _ when bi + 1 = n ->
              Some (List.rev acc, Some (bi + 1)) (* old-style implicit else *)
            | _ -> None
    in
    match parse 1 [] with
    | Some (arms, els) -> walk_if ctx usrc origin wc cmd arms els
    | None ->
      (* Irregular shape (the runtime would likely error): walk what
         looks like bodies, conservatively. *)
      let rec clause i =
        let i = if lit_arg cmd i = Some "then" then i + 1 else i in
        if i <= n then begin
          ignore (warg { wc with cond = true } i);
          tail (i + 1)
        end
      and tail i =
        if i <= n then
          match lit_arg cmd i with
          | Some "elseif" -> clause (i + 2)
          | Some "else" -> ignore (warg { wc with cond = true } (i + 1))
          | _ when i = n -> ignore (warg { wc with cond = true } i)
          | _ -> ()
      in
      clause 2;
      Hashtbl.reset wc.kinds;
      nores)
  | "while" -> (
    let w = writes_arg 2 in
    havoc wc w;
    match fold_condition ctx usrc origin wc cmd 1 with
    | Some false -> nores (* body never runs *)
    | Some true ->
      let r = warg { wc with cond = true } 2 in
      havoc wc w;
      if r.esc then { nores with esc = true }
      else { term = Some "while"; esc = true }
    | None ->
      let r = warg { wc with cond = true } 2 in
      havoc wc w;
      { nores with esc = r.esc })
  | "for" -> (
    ignore (warg wc 1);
    let w = merge_writes (writes_arg 4) (writes_arg 3) in
    havoc wc w;
    match fold_condition ctx usrc origin wc cmd 2 with
    | Some false -> nores
    | Some true ->
      let r = warg { wc with cond = true } 4 in
      ignore (warg { wc with cond = true } 3);
      havoc wc w;
      if r.esc then { nores with esc = true }
      else { term = Some "for"; esc = true }
    | None ->
      let r = warg { wc with cond = true } 4 in
      ignore (warg { wc with cond = true } 3);
      havoc wc w;
      { nores with esc = r.esc })
  | "foreach" ->
    (match lit_arg cmd 1 with Some v -> define wc.scope v | None -> ());
    if n >= 3 && n mod 2 = 1 then begin
      let w = writes_arg n in
      havoc wc w;
      (* Element kinds for the one-variable form: the loop variable is
         always one of the literal list's elements, so it gets their
         join — before the body (any iteration) and after it (the last
         one), unless the body itself writes it. *)
      let simple =
        if n = 3 then
          match (lit_arg cmd 1, lit_arg cmd 2) with
          | Some v, Some lst
            when v <> ""
                 && (not (String.contains v ' '))
                 && not (String.contains v '(') -> (
            match Tcl_list.parse lst with
            | Ok (_ :: _ as elems) ->
              let jv =
                List.fold_left
                  (fun acc e -> Absint.join acc (Absint.Vconst e))
                  Absint.Vbot elems
              in
              kind_set wc v jv;
              Some (v, jv)
            | _ ->
              Hashtbl.remove wc.kinds v;
              None)
          | Some v, _ ->
            Hashtbl.remove wc.kinds (var_base v);
            None
          | None, _ -> None
        else begin
          (match lit_arg cmd 1 with
          | Some v -> Hashtbl.remove wc.kinds (var_base v)
          | None -> ());
          None
        end
      in
      let r = warg { wc with cond = true } n in
      havoc wc w;
      (match simple with
      | Some (v, jv) when not (writes_member w v) -> kind_set wc v jv
      | _ -> ());
      { nores with esc = r.esc }
    end
    else nores
  | "catch" ->
    (* The body is often *expected* to fail (catch {unset x} is the
       idiom for "forget x if set"), so record its writes but keep its
       reads quiet; it also swallows break/return, so nothing
       propagates. *)
    let w = writes_arg 1 in
    ignore (warg { wc with soft = true; cond = true } 1);
    havoc wc w;
    nores
  | "time" ->
    let w = writes_arg 1 in
    havoc wc w;
    let r = warg wc 1 in
    havoc wc w;
    { nores with esc = r.esc }
  | "eval" ->
    if List.exists (fun i -> dynamic_script i) [ 1 ] && n >= 1 then
      ctx.has_dynamic <- true;
    if n = 1 then warg wc 1 else nores
  | "uplevel" ->
    (* Runs in the caller's frame, whose variables we cannot see. *)
    if n >= 1 && dynamic_script n then ctx.has_dynamic <- true;
    if n = 1 then
      ignore
        (warg { wc with soft = true; cond = true; kinds = Hashtbl.create 4 } 1);
    nores
  | "after" ->
    (* The script fires later from the event loop, at global scope.
       Only the "after ms script" form carries one ("after cancel id"
       does not). *)
    (match lit_arg cmd 1 with
    | Some ms when int_of_string_opt ms <> None ->
      if n = 2 then begin
        if dynamic_script 2 then ctx.has_dynamic <- true;
        ignore
          (warg
             { wc with scope = Top; cond = true; kinds = Hashtbl.create 4 }
             2)
      end
    | _ -> ());
    nores
  | "bind" ->
    if n = 3 then
      ignore
        (warg { wc with scope = Top; cond = true; kinds = Hashtbl.create 4 } 3);
    nores
  | "send" -> nores (* executes in another interpreter; not ours to judge *)
  | _ ->
    List.iter
      (fun i ->
        if i <= n then begin
          havoc wc (writes_arg i);
          ignore (warg { wc with cond = true; kinds = Hashtbl.create 4 } i)
        end)
      s.Interp.sig_scripts;
    nores

(* The conditional-branch walker: conditions fold against the kind
   table.  A proven-true arm is walked in the current conditionality
   (its writes persist); a proven-false arm is skipped entirely; once a
   condition is unknown, every remaining arm is walked as conditional
   from a snapshot of the entry kinds, which are then havocked by the
   union of the arms' writes. *)
and walk_if ctx usrc origin wc cmd arms els =
  let warg wc' i =
    match script_arg usrc cmd i with
    | Some (content, rel) ->
      walk ctx content (origin + rel) wc' (Compile.compile content)
    | None -> nores
  in
  let havoc_arg i =
    match script_arg usrc cmd i with
    | Some (content, _) -> havoc wc (writes_of ctx (Compile.compile content))
    | None -> Hashtbl.reset wc.kinds
  in
  let rec go = function
    | [] -> ( match els with Some bi -> warg wc bi | None -> nores)
    | (ci, bi) :: rest -> (
      match fold_condition ctx usrc origin wc cmd ci with
      | Some true -> warg wc bi
      | Some false -> go rest
      | None -> unfolded ((ci, bi) :: rest))
  and unfolded remaining =
    let base = Hashtbl.copy wc.kinds in
    let restore () =
      Hashtbl.reset wc.kinds;
      Hashtbl.iter (Hashtbl.replace wc.kinds) base
    in
    let effects = ref false in
    let results = ref [] in
    List.iteri
      (fun k (ci, bi) ->
        if k > 0 then begin
          (* Later conditions only evaluate if the earlier ones were
             false — fold them softly, for their reads and embedded
             scripts. *)
          ignore
            (fold_condition ctx usrc origin ~effects { wc with soft = true }
               cmd ci);
          restore ()
        end;
        results := warg { wc with cond = true } bi :: !results;
        restore ())
      remaining;
    let with_else =
      match els with
      | Some bi ->
        results := warg { wc with cond = true } bi :: !results;
        restore ();
        true
      | None -> false
    in
    List.iter (fun (_, bi) -> havoc_arg bi) remaining;
    (match els with Some bi -> havoc_arg bi | None -> ());
    if !effects then Hashtbl.reset wc.kinds;
    let rs = !results in
    let term =
      if with_else && rs <> [] && List.for_all (fun r -> r.term <> None) rs
      then Some "if"
      else None
    in
    { term; esc = term <> None || List.exists (fun r -> r.esc) rs }
  in
  go arms

and check_widget_creation ctx usrc origin cmd (ws : Interp.widget_sig) =
  match lit_arg cmd 1 with
  | None -> ()
  | Some path ->
    let off = origin + word_off cmd 1 in
    if not (starts_with "." path) then
      report ctx off Error ~pass:"widget" "bad window path name \"%s\"" path
    else begin
      (match parent_path path with
      | Some parent
        when (not (Hashtbl.mem ctx.created parent))
             && not (Interp.command_exists ctx.interp parent) ->
        report ctx off Error ~pass:"widget"
          "bad window path name \"%s\" (parent \"%s\" is never created)" path
          parent
      | _ -> ());
      check_option_pairs ctx origin cmd ~start:2 ~what:ws.Interp.ws_class
        ws.Interp.ws_options
    end;
    ignore usrc

(* -switch value pairs, as in widget creation and configure.  Switches
   may be abbreviated to an unambiguous prefix (Core.find_spec). *)
and check_option_pairs ctx origin cmd ~start ~what options =
  let n = nargs cmd in
  let rec go i =
    if i <= n then begin
      (match lit_arg cmd i with
      | Some sw when sw <> "" && not (String.contains sw '%') ->
        let off = origin + word_off cmd i in
        let matches = List.filter (fun o -> starts_with sw o) options in
        if List.mem sw options || List.length matches = 1 then begin
          if i = n then
            report ctx off Error ~pass:"options" "value for \"%s\" missing" sw
        end
        else if matches = [] then
          report ctx off Error ~pass:"options" "unknown option \"%s\"%s" sw
            (suggest sw options)
        else report ctx off Error ~pass:"options" "ambiguous option \"%s\"" sw
      | _ -> ());
      go (i + 2)
    end
  in
  ignore what;
  go start

(* A command named by a widget path: resolve the class the script gave
   it and check subcommand, arity and configure options. *)
and walk_widget_call ctx usrc origin wc cmd path =
  let off = origin + cmd.pos in
  let class_of =
    match Hashtbl.find_opt ctx.created path with
    | Some ws -> ws
    | None -> None
  in
  if
    (not (Hashtbl.mem ctx.created path))
    && not (Interp.command_exists ctx.interp path)
  then begin
    if not ctx.suppress_unknown then
      report ctx off Error ~pass:"unknown" "invalid command name \"%s\"%s" path
        (suggest path (Hashtbl.fold (fun k _ acc -> k :: acc) ctx.created []))
  end
  else
    (match class_of with
    | None -> () (* live widget of unknown class: nothing safe to say *)
    | Some ws -> (
      let n = nargs cmd in
      if n = 0 then
        report ctx off Error ~pass:"widget"
          "wrong # args: should be \"%s option ?arg arg ...?\"" path
      else
        match lit_arg cmd 1 with
        | None -> ()
        | Some "configure" ->
          check_option_pairs ctx origin cmd ~start:2 ~what:ws.Interp.ws_class
            ws.Interp.ws_options
        | Some "cget" ->
          if n <> 2 then
            report ctx off Error ~pass:"widget"
              "wrong # args: should be \"%s cget option\"" path
          else
            check_option_pairs ctx origin cmd ~start:2
              ~what:ws.Interp.ws_class ws.Interp.ws_options
        | Some sub when not (String.contains sub '%') -> (
          match
            List.find_opt (fun x -> x.Interp.sub_name = sub) ws.Interp.ws_subs
          with
          | None ->
            let names =
              "cget" :: "configure"
              :: List.map (fun x -> x.Interp.sub_name) ws.Interp.ws_subs
            in
            report ctx (origin + word_off cmd 1) Error ~pass:"widget"
              "bad option \"%s\" for %s%s" sub path (suggest sub names)
          | Some x ->
            let rest = n - 1 in
            if
              rest < x.Interp.sub_min
              || (x.Interp.sub_max >= 0 && rest > x.Interp.sub_max)
            then
              report ctx off Error ~pass:"widget" "wrong # args for \"%s %s\""
                path sub)
        | Some _ -> ()));
  ignore usrc;
  ignore wc

(* Variable def/use effects of the commands that touch variables, plus
   their effect on the kind table and the constant-folding checks that
   hang off it. *)
and apply_effects ctx usrc origin wc cmd name =
  let n = nargs cmd in
  let arg = lit_arg cmd in
  let off i = origin + word_off cmd i in
  let define_arg i =
    match arg i with Some v -> define wc.scope v | None -> ()
  in
  let use_arg i =
    match arg i with
    | Some v -> use ctx wc.scope ~soft:wc.soft (off i) v
    | None -> ()
  in
  let clear_arg i =
    match arg i with
    | Some v -> Hashtbl.remove wc.kinds (var_base v)
    | None -> ()
  in
  let live = not (wc.soft || wc.dead) in
  match name with
  | "set" ->
    if n >= 2 then begin
      define_arg 1;
      match arg 1 with
      | Some v ->
        let kv =
          match List.nth_opt cmd.words 2 with
          | Some (Compile.W_lit s) -> Absint.Vconst s
          | Some (Compile.W_parts [ Compile.Var u ]) -> kind_get wc u
          | Some (Compile.W_parts [ Compile.Cmd [ c ] ]) -> (
            match expr_ast_of c with
            | Some ast -> Absint.eval_quiet (fun u -> kind_get wc u) ast
            | None -> Absint.Vtop)
          | _ -> Absint.Vtop
        in
        if String.contains v '(' then Hashtbl.remove wc.kinds (var_base v)
        else kind_set wc v kv
      | None -> ()
    end
    else use_arg 1
  | "incr" ->
    (match arg 1 with
    | Some v -> (
      match Hashtbl.find_opt wc.kinds (var_base v) with
      | Some (Absint.Vconst c)
        when int_of_string_opt (String.trim c) = None && live ->
        report ctx (off 1) Error ~pass:"absint"
          "expected integer but got \"%s\" (reading value of variable \"%s\" \
           to increment)"
          c v
      | _ -> ())
    | None -> ());
    (match arg 2 with
    | Some inc when int_of_string_opt (String.trim inc) = None && live ->
      report ctx (off 2) Error ~pass:"absint"
        "expected integer but got \"%s\" (reading increment)" inc
    | _ -> ());
    use_arg 1;
    define_arg 1;
    (match arg 1 with
    | Some v when not (String.contains v '(') -> kind_set wc v Absint.Vint
    | Some v -> Hashtbl.remove wc.kinds (var_base v)
    | None -> ())
  | "append" | "lappend" ->
    define_arg 1;
    clear_arg 1
  | "unset" ->
    for i = 1 to n do
      use_arg i;
      define_arg i;
      clear_arg i
    done
  | "global" | "variable" ->
    (* Globals are defined elsewhere by definition. *)
    for i = 1 to n do
      define_arg i;
      clear_arg i
    done
  | "upvar" ->
    (* upvar ?level? otherVar localVar ... — locals become aliases. *)
    let first_is_level =
      match arg 1 with
      | Some a ->
        (a <> "" && (a.[0] = '#' || int_of_string_opt a <> None)) && n >= 3
      | None -> false
    in
    let start = if first_is_level then 3 else 2 in
    let i = ref start in
    while !i <= n do
      define_arg !i;
      clear_arg !i;
      i := !i + 2
    done
  | "foreach" ->
    define_arg 1 (* kinds handled structurally in walk_structure *)
  | "catch" ->
    if n = 2 then begin
      define_arg 2;
      clear_arg 2
    end
  | "scan" ->
    for i = 3 to n do
      define_arg i;
      clear_arg i
    done
  | "gets" ->
    if n = 2 then begin
      define_arg 2;
      clear_arg 2
    end
  | "regexp" ->
    (* regexp ?flags? exp string ?matchVar subVar ...? — without flag
       parsing, defining every trailing literal is the safe direction. *)
    for i = 3 to n do
      define_arg i;
      clear_arg i
    done
  | "regsub" ->
    if n >= 4 then begin
      define_arg n;
      clear_arg n
    end
  | "vwait" ->
    define_arg 1;
    (* the event loop runs arbitrary handlers meanwhile *)
    Hashtbl.reset wc.kinds
  | "update" -> Hashtbl.reset wc.kinds
  | "expr" ->
    (* A fully literal [expr] folds like a condition: a raised failure
       is guaranteed at run time, with the runtime's own message. *)
    let rec lits i acc =
      if i > n then Some (List.rev acc)
      else
        match arg i with
        | Some s -> lits (i + 1) (s :: acc)
        | None -> None
    in
    if n >= 1 then begin
      match lits 1 [] with
      | Some parts -> (
        match Expr.parse (String.concat " " parts) with
        | Expr.A_fail _ -> ()
        | ast -> (
          let hooks =
            {
              Absint.lookup = (fun u -> kind_get wc u);
              note_use =
                (fun ~soft u ->
                  use ctx wc.scope ~soft:(wc.soft || soft) (off 1) u);
              eval_cmd =
                (fun ~soft s' ->
                  ignore
                    (walk ctx s' (off 1)
                       { wc with soft = wc.soft || soft; cond = true }
                       (Compile.compile s')));
            }
          in
          match Absint.eval_ast hooks ast with
          | _ -> ()
          | exception Absint.Guaranteed msg ->
            if live then report ctx (off 1) Error ~pass:"absint" "%s" msg))
      | None -> ()
    end
  | "lindex" -> (
    (* A constant index beyond a constant list is legal but returns an
       empty string — almost always a mistake worth a warning. *)
    match (arg 1, arg 2) with
    | Some lst, Some idx when n = 2 -> (
      match (Tcl_list.parse lst, int_of_string_opt (String.trim idx)) with
      | Ok elems, Some i when (i < 0 || i >= List.length elems) && live ->
        report ctx (off 2) Warning ~pass:"absint"
          "constant index %d is out of range for this %d-element list \
           (lindex returns an empty string)"
          i (List.length elems)
      | _ -> ())
    | _ -> ())
  | _ -> ignore usrc

(* ------------------------------------------------------------------ *)
(* Whole-program passes over the completed call graph *)

let finish_callgraph ctx =
  if ctx.whole && not (ctx.has_dynamic || ctx.suppress_unknown) then
    List.iter
      (fun (name, file, off) ->
        (* Handlers the toolkit invokes implicitly are always live. *)
        if not (List.mem name [ "unknown"; "tkerror"; "bgerror" ]) then
          report_at ctx file off Warning ~pass:"callgraph"
            "procedure \"%s\" is defined but never called" name)
      (Callgraph.unreachable ctx.cg);
  List.iter
    (fun (p, c) ->
      report_at ctx c.Callgraph.c_file c.Callgraph.c_off Error ~pass:"callgraph"
        "\"%s\" unconditionally calls \"%s\": infinite recursion is guaranteed"
        p c.Callgraph.c_callee)
    (Callgraph.infinite_recursion ctx.cg)

let finish_capability ctx =
  if ctx.safe then begin
    let live = Callgraph.reachable ctx.cg in
    let live_node = function
      | Callgraph.Nroot -> true
      | Callgraph.Nproc p -> Hashtbl.mem live p
    in
    List.iter
      (fun h ->
        if live_node h.h_node then
          match h.h_via with
          | None ->
            report_at ctx h.h_file h.h_off Error ~pass:"capability"
              "hidden command \"%s\" would be denied in a safe interpreter"
              h.h_name
          | Some alias ->
            report_at ctx h.h_file h.h_off Error ~pass:"capability"
              "\"%s\" is an alias for hidden command \"%s\" and would be \
               denied in a safe interpreter"
              alias h.h_name)
      (List.rev ctx.cap_hits)
  end

(* ------------------------------------------------------------------ *)
(* Entry points *)

let line_col src off =
  let off = max 0 (min off (String.length src)) in
  let line = ref 1 and col = ref 1 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

type outcome = {
  o_diags : (string option * diag) list;
  o_procs : int;
  o_edges : int;
}

let analyze_program ?(safe = false) ?(whole = false) interp
    (files : (string option * string) list) =
  (* Compile directly — never through the interpreter's caches, never
     executing anything: analysis must leave the interpreter exactly as
     it found it (except the tcl.lint.* counters). *)
  let ctx =
    {
      interp;
      safe;
      whole;
      cg = Callgraph.create ();
      cur_file = None;
      diags = [];
      procs = Hashtbl.create 16;
      bodies = Hashtbl.create 16;
      created = Hashtbl.create 16;
      extra = Hashtbl.create 4;
      aliases_cap = Hashtbl.create 4;
      cap_hits = [];
      summaries = Hashtbl.create 8;
      has_dynamic = false;
      suppress_unknown = false;
    }
  in
  let compiled =
    List.map (fun (file, src) -> (file, src, Compile.compile src)) files
  in
  List.iter (fun (_f, _s, prog) -> prepass ctx 0 prog) compiled;
  ctx.suppress_unknown <-
    Hashtbl.mem ctx.procs "unknown" || Interp.command_exists interp "unknown";
  List.iter
    (fun (file, src, prog) ->
      ctx.cur_file <- file;
      ignore
        (walk ctx src 0
           {
             scope = Top;
             soft = false;
             node = Callgraph.Nroot;
             cond = false;
             dead = false;
             kinds = Hashtbl.create 16;
           }
           prog))
    compiled;
  ctx.cur_file <- None;
  finish_callgraph ctx;
  finish_capability ctx;
  let rank file =
    let rec go i = function
      | [] -> max_int
      | (f, _, _) :: tl -> if f = file then i else go (i + 1) tl
    in
    go 0 compiled
  in
  let sorted =
    List.sort
      (fun (f1, o1, s1, _, m1) (f2, o2, s2, _, m2) ->
        compare (rank f1, o1, s1, m1) (rank f2, o2, s2, m2))
      ctx.diags
  in
  let src_of file =
    match List.find_opt (fun (f, _, _) -> f = file) compiled with
    | Some (_, s, _) -> s
    | None -> ""
  in
  let o_diags =
    List.map
      (fun (file, off, severity, pass, message) ->
        let line, col = line_col (src_of file) off in
        (file, { line; col; severity; pass; message }))
      sorted
  in
  let errors =
    List.length (List.filter (fun (_, d) -> d.severity = Error) o_diags)
  in
  let warnings = List.length o_diags - errors in
  Interp.note_lint interp ~errors ~warnings;
  {
    o_diags;
    o_procs = Callgraph.proc_count ctx.cg;
    o_edges = Callgraph.edge_count ctx.cg;
  }

let analyze ?safe interp src =
  List.map snd (analyze_program ?safe interp [ (None, src) ]).o_diags

(* Diagnostics rendered as a Tcl list of {line col severity msg}
   elements — the result of the [lint] command. *)
let to_tcl_list diags =
  Tcl_list.format
    (List.map
       (fun d ->
         Tcl_list.format
           [
             string_of_int d.line;
             string_of_int d.col;
             severity_name d.severity;
             d.message;
           ])
       diags)
