(** Register/slot bytecode lowered from {!Compile} programs.

    {!lower} (whole scripts) and {!lower_proc} (procedure bodies, with
    formal parameters pre-allocated to local slots) translate a
    compiled program into an instruction array with resolved variable
    references and typed expressions. Lowering is purely syntactic —
    it reads no variables and consults no command table — so lowered
    code can be cached alongside the compiled form and never goes
    stale.  It is also total: every word of every command becomes a VM
    word, so the interpreter runs all compiled code on this VM.  Whether
    the inlined structural opcodes may bypass command dispatch is
    decided at execution time by the interpreter, which deopts per
    instruction to the opcode's generic {!insn.Ivk} form (see {!slow})
    when [set]/[if]/[while]/... have been redefined, renamed or
    hidden.

    All types are parametric over the frame representation ['f]: the
    executor lives in {!Interp}, which instantiates ['f] with its
    frame type. *)

type 'f cache = ('f * int * Tval.t) option ref
(** One-entry inline cache: frame, frame generation, value cell. *)

type 'f vref =
  | Rslot of int * string  (** procedure local: slot index + name *)
  | Rname of string * 'f cache  (** by-name lookup with inline cache *)

type 'f code = {
  insns : 'f insn array;
  locals : string array;
      (** slot names for the frame this code runs in ([||] for nested
          and top-level code, which share the enclosing frame) *)
}

and 'f insn =
  | Ivk of { vwords : 'f vword list; orig : Compile.command }
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

and 'f slow = { cmd : Compile.command; ivk : 'f insn Lazy.t }
(** A structural opcode's source command (its text goes into errorInfo
    traces) and the generic [Ivk] for it, lowered on first force: the
    deopt path when the structural builtins are not canonical. *)

and 'f amount = Aconst of int | Aword of 'f vword

and 'f items = Lconst of string list | Lword of 'f vword

and 'f vword =
  | Wlit of Tval.t
      (** literal word as a shared dual-ported value (numeric/list reps
          parsed once, persist across executions) *)
  | Wvar of 'f vref
  | Wvcmd of 'f code
  | Wexpr of { e : 'f vexpr; code : 'f code; orig : Compile.command }
      (** whole-word [\[expr ...\]] with a single canonical expr
          command: evaluated typed, deopting to [code] *)
  | Wparts of 'f vpart list  (** concatenation of substituted parts *)
  | Wfail of 'f vpart list * string
      (** syntax error found mid-word: substitute the parts for their
          side effects, then fail with the parser's message *)

and 'f vpart =
  | Plit of string
  | Pvar of 'f vref
  | Pelem of string * 'f vpart list
      (** [$base(index)]: array element named by a substituted index *)
  | Pcmd of 'f code

and 'f qpart = Ql of string | Qv of string | Qc of 'f code

and 'f vexpr =
  | Xconst of Expr.value
  | Xvar of 'f vref
  | Xcmd of 'f code
  | Xquoted of 'f qpart list
  | Xunop of string * 'f vexpr
  | Xbinop of string * 'f vexpr * 'f vexpr
  | Xternary of 'f vexpr * 'f vexpr * 'f vexpr
  | Xfunc of string * 'f vexpr list

val inline_names : string list
(** The structural commands lowered to dedicated opcodes.  The executor
    inlines them only while every one of them is still the builtin
    definition snapshotted by {!Interp.mark_canonical}. *)

val lower : compile:(string -> Compile.program) -> Compile.program -> 'f code
(** Lower a top-level script. All variable references resolve by name
    (with inline caches); [locals] is [[||]]. [compile] is used for
    braced loop/condition bodies and bracketed scripts inside
    expressions. *)

val lower_proc :
  compile:(string -> Compile.program) ->
  formals:string list ->
  Compile.program ->
  'f code
(** Lower a procedure body. Formals claim the first local slots, and
    literal [set]/[incr]/[foreach] targets (and [$x] reads) claim
    further ones as they appear, up to a small bound; the executor
    builds the call frame from [locals]. *)
