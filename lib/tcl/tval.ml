(* Dual-ported Tcl values, after Tcl 8.0's "shimmering" design: every
   value has a canonical string representation plus lazily-computed
   cached representations (integer/float, parsed list).  Reading a rep
   computes and caches it; writing through any setter invalidates the
   others.  The string rep itself is rendered lazily so hot numeric
   paths (incr/expr in the VM) never touch strings until someone asks. *)

type num = Nnone | Nmaybe | Nint of int | Ndbl of float

type t = {
  mutable s : string option; (* canonical string, rendered on demand *)
  mutable n : num; (* cached numeric rep; Nmaybe = not yet parsed *)
  mutable l : string list option; (* cached parsed-list rep *)
}

(* Tcl's default float formatting is %.12g (tcl_precision 12); %g's six
   significant digits lose bits, so [expr 1.0/3] would not round-trip
   through its string rep.  Integer-valued floats keep the trailing
   ".0" so they stay floats when re-parsed.  If 12 digits don't
   round-trip (rare), fall back to 17, which always does. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    match float_of_string_opt s with
    | Some g when g = f -> s
    | _ -> Printf.sprintf "%.17g" f

let of_string s = { s = Some s; n = Nmaybe; l = None }

(* Value-semantics duplicate: the reps are immutable, so sharing them is
   safe; only the containing record must be fresh (a bound variable cell
   is mutated in place by set/incr). *)
let copy t = { s = t.s; n = t.n; l = t.l }
let of_int i = { s = None; n = Nint i; l = None }
let of_float f = { s = None; n = Ndbl f; l = None }

let to_string t =
  match t.s with
  | Some s -> s
  | None ->
    let s =
      match t.n with
      | Nint i -> string_of_int i
      | Ndbl f -> float_to_string f
      | Nnone | Nmaybe -> "" (* unreachable: s = None implies numeric *)
    in
    t.s <- Some s;
    s

(* Trim, try int, then float. Expr.number_of_string is this parse. *)
let parse_num s =
  let s' = String.trim s in
  if s' = "" then Nnone
  else
    match int_of_string_opt s' with
    | Some i -> Nint i
    | None -> (
      match float_of_string_opt s' with
      | Some f -> Ndbl f
      | None -> Nnone)

let num t =
  match t.n with
  | Nmaybe ->
    let n = parse_num (to_string t) in
    t.n <- n;
    n
  | n -> n

let set_string t s =
  t.s <- Some s;
  t.n <- Nmaybe;
  t.l <- None

let set_int t i =
  t.s <- None;
  t.n <- Nint i;
  t.l <- None

let set_float t f =
  t.s <- None;
  t.n <- Ndbl f;
  t.l <- None

let list t =
  match t.l with
  | Some l -> Ok l
  | None -> (
    match Tcl_list.parse (to_string t) with
    | Ok l ->
      t.l <- Some l;
      Ok l
    | Error _ as e -> e)
