(** Tcl arithmetic expressions, as used by the [expr] command and the
    conditions of [if], [while] and [for].

    {!parse} reads an expression once into an AST, without touching any
    variable or command; {!eval_ast} evaluates it, performing [$]-variable
    and [\[...\]]-command substitution through the callbacks in {!env}
    (so braced conditions like [{$i < 10}] work). Operands are integers,
    floats or strings, with Tcl's coercion rules: an operator computes
    numerically when both operands parse as numbers, and string comparison
    otherwise (ordering and (in)equality only). *)

type value = Int of int | Float of float | Str of string

type env = {
  get_var : string -> string;
      (** Resolve [$name] (or [$name(index)]); raise {!Error} if unset. *)
  eval_cmd : string -> string;
      (** Evaluate a bracketed command substitution; raise {!Error} on
          script error. *)
}

exception Error of string

val to_string : value -> string

val truthy : value -> bool
(** Interpret a value as a condition (numbers against zero, the words
    true/false/yes/no/on/off). @raise Error otherwise. *)

val number_of_string : string -> value option
(** Parse a string as [Int] or [Float] if possible ([None] otherwise):
    {!Tval.parse_num}, the parse every numeric rep comes from. *)

(** {2 Evaluation primitives}

    The building blocks {!eval_ast} is made of, exposed so the bytecode
    VM ({!Vm}) can evaluate its typed expression IR, and the linter fold
    constants, with exactly the same coercions and error messages. *)

val operand_value : string -> value
(** A substituted operand: numeric if it parses as a number, else [Str]. *)

val bool_val : bool -> value
(** [Int 1] / [Int 0], the result form of comparisons and [&&]/[||]. *)

val apply_binary : string -> value -> value -> value
(** Apply a (non-short-circuit) binary operator. A shift by a negative
    count fails; a count of {!Sys.int_size} or more shifts every bit out.
    @raise Error on type errors, divide by zero, a negative shift count,
    or unknown operators. *)

val apply_unary : string -> value -> value

val apply_function : string -> value list -> value
(** Apply a math function ([sin], [abs], [pow], ...) to its argument
    values. [int] and [round] of an infinite or out-of-range float fail
    with "integer value too large to represent", of NaN with "domain
    error: argument not in valid range". @raise Error on arity, type or
    range errors. *)

(** {2 Parsing and evaluation}

    The semantics are those of Tcl's parse-while-evaluate expression
    parser: each token is substituted as soon as it is lexed, one token
    ahead of the parser; an operator applies once its right operand is
    complete; the unreached branch of [&&], [||] and [?:] is parsed but
    neither substituted nor applied. {!parse} records that control flow
    as an AST, so the result can be cached keyed by the source string
    and {!eval_ast} replays the same substitutions, operator applications
    and errors in the same order. *)

type qpart = Q_lit of string | Q_var of string | Q_cmd of string

type ast =
  | A_const of value
  | A_var of string
  | A_cmd of string
  | A_quoted of qpart list
  | A_unop of string * ast
  | A_binop of string * ast * ast
  | A_ternary of ast * ast * ast
  | A_func of string * ast list
  | A_then of ast * ast
      (** The first operand's value, after the second's substitutions:
          a substituting token lexed right after a complete operand.
          Only inside a failed parse. *)
  | A_fail of ast list * string
      (** Evaluate the operands for their substitutions, then raise the
          message. Only inside a failed parse, whose root is always
          one. *)

val parse : string -> ast
(** Parse without evaluating; never raises. A syntax or lexical error
    makes the root an [A_fail] carrying the error, placed so that
    evaluation first runs the substitutions and operator applications
    that precede the error (which may fail first). Any other root means
    the expression is well formed. *)

val eval_ast : env -> ast -> value
(** Evaluate a parsed expression. @raise Error on syntax, type or
    substitution errors; exceptions from the {!env} callbacks pass
    through. *)
