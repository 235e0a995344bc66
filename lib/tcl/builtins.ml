(* The interp command needs to create fresh fully-equipped interpreters
   (slaves get the whole built-in set), so install and new_interp are
   mutually recursive: Interp_cmd receives new_interp as a callback. *)
let rec install t =
  Cmd_control.install t;
  Cmd_list.install t;
  Cmd_string.install t;
  Cmd_info.install t;
  Cmd_file.install t;
  Cmd_regexp.install t;
  Cmd_misc.install t;
  Interp_cmd.install ~sub_interp:(fun () -> new_interp ()) t;
  (* All structural builtins are in place: let the VM inline them. *)
  Interp.mark_canonical t

and new_interp ?counters () =
  let t = Interp.create ?counters () in
  install t;
  t

let create_slave ~master ~safe name =
  Interp_cmd.create_slave ~sub_interp:(fun () -> new_interp ()) ~master ~safe
    name
