(* Register/slot bytecode for the Tcl compile layer.

   [lower] translates a {!Compile.program} into an instruction array
   with resolved variable references: procedure locals become slot
   indices into the frame's cell array, other names carry a one-entry
   inline cache validated by the owning frame's generation counter.
   The structural commands (set, incr, expr, if, while, for, foreach,
   return, break, continue) are recognized *syntactically* — literal
   command name at the exact arity, braced bodies, parseable
   conditions — and lowered to dedicated opcodes; everything else (and
   every irregular form) stays an [Ivk] that substitutes its words and
   goes through ordinary command dispatch.  Lowering is total: every
   word, including multi-part words and embedded syntax errors, becomes
   a VM word, so lowered code never refers back to the compiled form.

   Lowering never consults the command table, so the result can be
   cached like compiled programs; whether the inlined opcodes may
   actually bypass dispatch is the *executor's* decision (the
   interpreter tracks whether the ten structural builtins are still
   canonical).  Each structural opcode carries its own generic [Ivk]
   form, lowered lazily on first use, which the executor dispatches
   instead when the builtins are not canonical.
   The executor lives in {!Interp}; the types are parametric over the
   frame representation ['f] to keep this module free of interpreter
   internals. *)

type 'f cache = ('f * int * Tval.t) option ref
(** One-entry inline cache for a by-name variable reference: the frame
    it resolved in, that frame's generation at resolution time, and the
    value cell. Stale as soon as the generation moves. *)

type 'f vref =
  | Rslot of int * string  (** procedure local: slot index + name *)
  | Rname of string * 'f cache  (** by-name with inline cache *)

type 'f code = {
  insns : 'f insn array;
  locals : string array;
      (** slot names for the frame this code runs in ([||] for nested
          and top-level code: nested code shares the enclosing frame) *)
}

and 'f insn =
  | Ivk of { vwords : 'f vword list; orig : Compile.command }
      (** substitute the words, dispatch normally *)
  | Iset of { dst : 'f vref; value : 'f vword option; slow : 'f slow }
  | Iincr of { dst : 'f vref; by : 'f amount; slow : 'f slow }
  | Iexpr of { e : 'f vexpr; slow : 'f slow }
  | Iif of {
      arms : ('f vexpr * 'f code) list;
      els : 'f code option;
      slow : 'f slow;
    }
  | Iwhile of { cond : 'f vexpr; body : 'f code; slow : 'f slow }
  | Ifor of {
      init : 'f code;
      cond : 'f vexpr;
      next : 'f code;
      body : 'f code;
      slow : 'f slow;
    }
  | Iforeach of {
      dst : 'f vref;
      items : 'f items;
      body : 'f code;
      slow : 'f slow;
    }
  | Ireturn of { value : 'f vword option; slow : 'f slow }
  | Ibreak of { slow : 'f slow }
  | Icontinue of { slow : 'f slow }

(* A structural opcode's source command and its generic [Ivk] form: the
   executor traces errors with [cmd]'s text, and dispatches [ivk] instead
   of the inlined opcode when the builtins are not canonical.  [ivk] is
   lowered on first use — most code never needs it. *)
and 'f slow = { cmd : Compile.command; ivk : 'f insn Lazy.t }

and 'f amount = Aconst of int | Aword of 'f vword

and 'f items = Lconst of string list | Lword of 'f vword

and 'f vword =
  | Wlit of Tval.t
      (** literal word as a shared dual-ported value: its numeric/list
          reps, parsed once at first use, persist across executions *)
  | Wvar of 'f vref
  | Wvcmd of 'f code  (** a whole-word [\[...\]] substitution *)
  | Wexpr of { e : 'f vexpr; code : 'f code; orig : Compile.command }
      (** a whole-word [\[expr ...\]] whose script is a single canonical
          expr command: the executor may evaluate [e] directly (typed,
          no string round-trip), falling back to [code] on deopt *)
  | Wparts of 'f vpart list  (** concatenation of substituted parts *)
  | Wfail of 'f vpart list * string
      (** a syntax error found mid-word: substitute the parts for their
          side effects, then fail with the parser's message *)

and 'f vpart =
  | Plit of string
  | Pvar of 'f vref
  | Pelem of string * 'f vpart list
      (** [$base(index)]: array element named by a substituted index *)
  | Pcmd of 'f code

and 'f qpart = Ql of string | Qv of string | Qc of 'f code

(* Typed expression IR, mirroring Expr.ast one constructor for one so
   evaluation can reuse Expr's apply functions byte-identically. *)
and 'f vexpr =
  | Xconst of Expr.value
  | Xvar of 'f vref
  | Xcmd of 'f code
  | Xquoted of 'f qpart list
  | Xunop of string * 'f vexpr
  | Xbinop of string * 'f vexpr * 'f vexpr
  | Xternary of 'f vexpr * 'f vexpr * 'f vexpr
  | Xfunc of string * 'f vexpr list

(* ------------------------------------------------------------------ *)
(* Lowering *)

type lstate = {
  compile : string -> Compile.program;
      (* braced bodies and bracketed scripts are compiled through the
         interpreter's counted compiler so the pass shows up in
         tcl.compile.* like any other compilation *)
  alloc : bool;  (* procedure context: new names may claim slots *)
  tbl : (string, int) Hashtbl.t;
  mutable names : string list;  (* allocated slot names, reversed *)
  mutable count : int;
}

(* Slots are scanned linearly by name on the slow path; keep the table
   small enough that the scan stays cheap. *)
let max_slots = 32

let ref_of st name =
  (* Array references (and any name that could be one) resolve by name:
     arrays always live in the frame hashtable. *)
  if String.contains name '(' then Rname (name, ref None)
  else
    match Hashtbl.find_opt st.tbl name with
    | Some i -> Rslot (i, name)
    | None ->
      if st.alloc && st.count < max_slots then begin
        let i = st.count in
        st.count <- st.count + 1;
        Hashtbl.add st.tbl name i;
        st.names <- name :: st.names;
        Rslot (i, name)
      end
      else Rname (name, ref None)

(* The commands [lower_named] turns into dedicated opcodes. *)
let inline_names =
  [ "set"; "incr"; "expr"; "if"; "while"; "for"; "foreach"; "return";
    "break"; "continue" ]

let lit = function Compile.W_lit s -> Some s | _ -> None

let all_lits words =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Compile.W_lit s :: rest -> go (s :: acc) rest
    | _ -> None
  in
  go [] words

let rec lower_word st (w : Compile.word) =
  match w with
  | Compile.W_lit s ->
    (* Prime the numeric rep now: every copy bound from this literal
       then carries it, so "fib 28" never re-parses the 28. *)
    let tv = Tval.of_string s in
    ignore (Tval.num tv);
    Wlit tv
  | Compile.W_parts [ Compile.Var name ] -> Wvar (ref_of st name)
  | Compile.W_parts [ Compile.Cmd prog ] -> (
    let code = lower_prog st prog in
    match code.insns with
    | [| Iexpr { e; slow } |] -> Wexpr { e; code; orig = slow.cmd }
    | _ -> Wvcmd code)
  | Compile.W_parts parts -> Wparts (lower_parts st parts)
  | Compile.W_fail (parts, msg) -> Wfail (lower_parts st parts, msg)

and lower_parts st parts =
  List.map
    (fun (p : Compile.part) ->
      match p with
      | Compile.Lit s -> Plit s
      | Compile.Var name -> Pvar (ref_of st name)
      | Compile.Var_idx (base, idx) -> Pelem (base, lower_parts st idx)
      | Compile.Cmd prog -> Pcmd (lower_prog st prog))
    parts

and lower_prog st (prog : Compile.program) =
  { insns = Array.of_list (List.map (lower_command st) prog); locals = [||] }

and lower_body st src = lower_prog st (st.compile src)

and lower_command st (c : Compile.command) =
  match c.words with
  | Compile.W_lit name :: rest -> lower_named st c name rest
  | _ -> lower_ivk st c

and lower_ivk st c = Ivk { vwords = List.map (lower_word st) c.words; orig = c }

(* The generic form of a structural command, for when the builtins are
   not canonical.  Slots are all claimed by the time it is forced, so it
   only reads them. *)
and slow_of st c =
  { cmd = c; ivk = lazy (lower_ivk { st with alloc = false } c) }

(* The cases here are the commands listed in [inline_names]. *)
and lower_named st c name rest =
  let ivk () = lower_ivk st c in
  match (name, rest) with
  | "set", [ n ] -> (
    match lit n with
    | Some n -> Iset { dst = ref_of st n; value = None; slow = slow_of st c }
    | None -> ivk ())
  | "set", [ n; v ] -> (
    match lit n with
    | Some n ->
      Iset
        {
          dst = ref_of st n;
          value = Some (lower_word st v);
          slow = slow_of st c;
        }
    | None -> ivk ())
  | "incr", [ n ] -> (
    match lit n with
    | Some n -> Iincr { dst = ref_of st n; by = Aconst 1; slow = slow_of st c }
    | None -> ivk ())
  | "incr", [ n; b ] -> (
    match lit n with
    | None -> ivk ()
    | Some n ->
      let by =
        match lit b with
        | Some s -> (
          (* A malformed literal increment keeps the word form so the
             executor reports the runtime parse error verbatim. *)
          match int_of_string_opt (String.trim s) with
          | Some i -> Aconst i
          | None -> Aword (Wlit (Tval.of_string s)))
        | None -> Aword (lower_word st b)
      in
      Iincr { dst = ref_of st n; by; slow = slow_of st c })
  | "expr", _ :: _ -> (
    match all_lits rest with
    | Some args -> (
      match Expr.parse (String.concat " " args) with
      | Expr.A_fail _ -> ivk ()
      | ast -> Iexpr { e = lower_ast st ast; slow = slow_of st c })
    | None -> ivk ())
  | "if", _ -> (
    match all_lits rest with
    | Some ws -> lower_if st (slow_of st c) ws ivk
    | None -> ivk ())
  | "while", [ cond; body ] -> (
    match (lit cond, lit body) with
    | Some cond, Some body -> (
      match Expr.parse cond with
      | Expr.A_fail _ -> ivk ()
      | ast ->
        Iwhile
          {
            cond = lower_ast st ast;
            body = lower_body st body;
            slow = slow_of st c;
          })
    | _ -> ivk ())
  | "for", [ init; cond; next; body ] -> (
    match (lit init, lit cond, lit next, lit body) with
    | Some init, Some cond, Some next, Some body -> (
      match Expr.parse cond with
      | Expr.A_fail _ -> ivk ()
      | ast ->
        Ifor
          {
            init = lower_body st init;
            cond = lower_ast st ast;
            next = lower_body st next;
            body = lower_body st body;
            slow = slow_of st c;
          })
    | _ -> ivk ())
  | "foreach", [ var; lst; body ] -> (
    match (lit var, lit body) with
    | Some var, Some body -> (
      let items =
        match lit lst with
        | Some s -> (
          (* Pre-parse literal lists; malformed ones keep the reference
             path so the runtime error and trace match exactly. *)
          match Tcl_list.parse s with
          | Stdlib.Ok l -> Some (Lconst l)
          | Stdlib.Error _ -> None)
        | None -> Some (Lword (lower_word st lst))
      in
      match items with
      | Some items ->
        Iforeach
          {
            dst = ref_of st var;
            items;
            body = lower_body st body;
            slow = slow_of st c;
          }
      | None -> ivk ())
    | _ -> ivk ())
  | "return", [] -> Ireturn { value = None; slow = slow_of st c }
  | "return", [ v ] ->
    Ireturn { value = Some (lower_word st v); slow = slow_of st c }
  | "break", [] -> Ibreak { slow = slow_of st c }
  | "continue", [] -> Icontinue { slow = slow_of st c }
  | _ -> ivk ()

(* Mirror cmd_if's clause/tail grammar statically; any irregularity
   (missing body, unparseable condition, trailing words) falls back to
   the dispatched command, which reproduces the runtime error. *)
and lower_if st slow ws ivk =
  let rec clause ws acc =
    match ws with
    | cond :: rest -> (
      let rest = match rest with "then" :: r -> r | r -> r in
      match rest with
      | body :: rest -> (
        match Expr.parse cond with
        | Expr.A_fail _ -> None
        | ast ->
          tail ((lower_ast st ast, lower_body st body) :: acc) rest)
      | [] -> None)
    | [] -> None
  and tail acc = function
    | [] -> Some (List.rev acc, None)
    | "elseif" :: rest -> clause rest acc
    | "else" :: [ body ] -> Some (List.rev acc, Some (lower_body st body))
    | [ body ] -> Some (List.rev acc, Some (lower_body st body))
    | _ -> None
  in
  match clause ws [] with
  | Some (arms, els) -> Iif { arms; els; slow }
  | None -> ivk ()

and lower_ast st (a : Expr.ast) =
  match a with
  | Expr.A_const v -> Xconst v
  | Expr.A_var name -> Xvar (ref_of st name)
  | Expr.A_cmd script -> Xcmd (lower_prog st (st.compile script))
  | Expr.A_quoted parts ->
    Xquoted
      (List.map
         (function
           | Expr.Q_lit s -> Ql s
           | Expr.Q_var n -> Qv n
           | Expr.Q_cmd s -> Qc (lower_prog st (st.compile s)))
         parts)
  | Expr.A_unop (op, x) -> Xunop (op, lower_ast st x)
  | Expr.A_binop (op, x, y) -> Xbinop (op, lower_ast st x, lower_ast st y)
  | Expr.A_ternary (c, a, b) ->
    Xternary (lower_ast st c, lower_ast st a, lower_ast st b)
  | Expr.A_func (name, args) -> Xfunc (name, List.map (lower_ast st) args)
  | Expr.A_then _ | Expr.A_fail _ ->
    invalid_arg "Vm.lower_ast: failed parse (its root is A_fail)"

let lower ~compile prog =
  let st =
    { compile; alloc = false; tbl = Hashtbl.create 8; names = []; count = 0 }
  in
  lower_prog st prog

let lower_proc ~compile ~formals prog =
  let st =
    { compile; alloc = true; tbl = Hashtbl.create 8; names = []; count = 0 }
  in
  List.iter
    (fun f ->
      if
        (not (String.contains f '('))
        && (not (Hashtbl.mem st.tbl f))
        && st.count < max_slots
      then begin
        Hashtbl.add st.tbl f st.count;
        st.names <- f :: st.names;
        st.count <- st.count + 1
      end)
    formals;
  let code = lower_prog st prog in
  { code with locals = Array.of_list (List.rev st.names) }
