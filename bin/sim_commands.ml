(* Simulation-only commands shared by wish and tclcheck: both binaries
   register the same names (wish with real implementations so scripts can
   be driven headlessly, tclcheck only needs the signatures), so a script
   that runs under wish also lints clean under tclcheck. *)

open Xsim

let install app =
  let interp = app.Tk.Core.interp in
  Tcl.Interp.register_value interp "screendump" (fun _ words ->
      match words with
      | [ _ ] -> Raster.render app.Tk.Core.server ()
      | [ _; path ] ->
        let w = Tk.Core.lookup_exn app path in
        Raster.render app.Tk.Core.server ~window:w.Tk.Core.win ()
      | _ -> Tcl.Interp.wrong_args "screendump ?window?");
  Tcl.Interp.register_value interp "inject" (fun _ words ->
      let server = app.Tk.Core.server in
      let int_arg s =
        match int_of_string_opt s with
        | Some i -> i
        | None -> Tcl.Interp.failf "expected integer but got \"%s\"" s
      in
      (match words with
      | [ _; "motion"; x; y ] ->
        Server.inject_motion server ~x:(int_arg x) ~y:(int_arg y)
      | [ _; "button"; n ] ->
        Server.inject_button server ~button:(int_arg n) ~pressed:true;
        Server.inject_button server ~button:(int_arg n) ~pressed:false
      | [ _; "press"; n ] ->
        Server.inject_button server ~button:(int_arg n) ~pressed:true
      | [ _; "release"; n ] ->
        Server.inject_button server ~button:(int_arg n) ~pressed:false
      | [ _; "key"; keysym ] ->
        Server.inject_key server ~keysym ~pressed:true;
        Server.inject_key server ~keysym ~pressed:false
      | [ _; "string"; text ] -> Server.inject_string server text
      | _ ->
        Tcl.Interp.wrong_args
          "inject motion x y | button n | key keysym | string text");
      Tk.Core.update app;
      "");
  let count name = Counters.value app.Tk.Core.counters name in
  Tcl.Interp.register_value interp "serverstats" (fun _ _ ->
      Printf.sprintf
        "requests %d round-trips %d resources %d windows %d draws %d \
         properties %d"
        (count "requests_total") (count "round_trips")
        (count "requests_resource") (count "requests_window")
        (count "requests_draw") (count "requests_property"));
  Tcl.Interp.register_value interp "faultstats" (fun _ _ ->
      let server = app.Tk.Core.server in
      Printf.sprintf "injected %d absorbed %d fallbacks %d"
        (Server.faults_injected server)
        (Server.faults_absorbed server)
        (count "rescache_fallbacks"));
  Tcl.Interp.register_value interp "crashtest" (fun _ words ->
      let int_arg s =
        match int_of_string_opt s with
        | Some i -> i
        | None -> Tcl.Interp.failf "expected integer but got \"%s\"" s
      in
      match words with
      | [ _; "at"; n ] ->
        Server.set_crash_plan app.Tk.Core.conn ~at_request:(int_arg n);
        ""
      | [ _; "kill"; name ] -> (
        (* Abruptly kill a peer application's connection — the driver for
           two-interpreter crash scenarios (the peer's interpreter lives
           on with a dead connection, exactly like a wish under
           -crash-at). Killing our own name is allowed: it crashes this
           application's connection in place. *)
        match
          List.find_opt
            (fun a -> a.Tk.Core.app_name = name)
            (Tk.Core.local_apps app.Tk.Core.server)
        with
        | Some peer ->
          Server.kill_connection peer.Tk.Core.conn;
          ""
        | None -> Tcl.Interp.failf "no application named \"%s\"" name)
      | [ _; "status" ] ->
        Printf.sprintf "alive %d crashed %d crash-at %d serial %d"
          (if Server.connection_alive app.Tk.Core.conn then 1 else 0)
          (if Server.connection_crashed app.Tk.Core.conn then 1 else 0)
          (Server.crash_plan app.Tk.Core.conn)
          (Server.serial app.Tk.Core.conn)
      | _ -> Tcl.Interp.wrong_args "crashtest at n | kill app | status");
  List.iter
    (Tcl.Interp.register_signature interp)
    Tcl.Interp.
      [
        signature "screendump" 0 ~max:1 ~usage:"screendump ?window?";
        signature "inject" 2 ~max:3
          ~usage:"inject motion x y | button n | key keysym | string text";
        signature "serverstats" 0 ~max:0 ~usage:"serverstats";
        signature "faultstats" 0 ~max:0 ~usage:"faultstats";
        signature "crashtest" 1 ~max:2
          ~usage:"crashtest at n | kill app | status"
          ~subs:
            [
              subsig "at" 1 ~max:1;
              subsig "kill" 1 ~max:1;
              subsig "status" 0 ~max:0;
            ];
      ]
