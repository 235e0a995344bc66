type merge = Sum | Max

type entry = {
  name : string;
  merge : merge;
  render : int -> string;
}

type counter = int

type t = {
  counts : int array;
  reads : (unit -> int) option array;  (* computed entries *)
}

(* The declarations, newest first, and the name -> slot index. *)
let declared : entry list ref = ref []
let count = ref 0
let by_name : (string, int) Hashtbl.t = Hashtbl.create 128
let sealed = ref false

(* Frozen at the first [create]: every block has one slot per entry. *)
let entries : entry array ref = ref [||]

let counter ?(merge = Sum) ?(render = string_of_int) name =
  if !sealed then
    invalid_arg ("Counters: " ^ name ^ " declared after the first block");
  if Hashtbl.mem by_name name then
    invalid_arg ("Counters: duplicate counter " ^ name);
  let slot = !count in
  Hashtbl.add by_name name slot;
  declared := { name; merge; render } :: !declared;
  count := slot + 1;
  slot

let create () =
  if not !sealed then begin
    sealed := true;
    entries := Array.of_list (List.rev !declared)
  end;
  { counts = Array.make !count 0; reads = Array.make !count None }

(* Slots come from [counter] and every block is as long as the sealed
   declaration list, so the hot-path accessors skip the bounds check. *)
let incr t c = Array.unsafe_set t.counts c (Array.unsafe_get t.counts c + 1)
let add t c n = Array.unsafe_set t.counts c (Array.unsafe_get t.counts c + n)
let set t c n = Array.unsafe_set t.counts c n

let get t c =
  match t.reads.(c) with Some read -> read () | None -> t.counts.(c)

let compute t c read = t.reads.(c) <- Some read
let reset t = Array.fill t.counts 0 (Array.length t.counts) 0

let value t name =
  match Hashtbl.find_opt by_name name with
  | Some c -> get t c
  | None -> invalid_arg ("Counters.value: unknown counter " ^ name)

let find t name =
  Option.map
    (fun c -> !entries.(c).render (get t c))
    (Hashtbl.find_opt by_name name)

let fold ?(prefix = "") t f =
  let acc = ref [] in
  for c = Array.length !entries - 1 downto 0 do
    let e = !entries.(c) in
    if String.starts_with ~prefix e.name then acc := f e (get t c) :: !acc
  done;
  !acc

let values ?prefix t = fold ?prefix t (fun e v -> (e.name, v))
let to_list ?prefix t = fold ?prefix t (fun e v -> (e.name, e.render v))

let merge blocks =
  let m = create () in
  Array.iteri
    (fun c e ->
      m.counts.(c) <-
        List.fold_left
          (fun acc b ->
            let v = get b c in
            match e.merge with Sum -> acc + v | Max -> max acc v)
          0 blocks)
    !entries;
  m
