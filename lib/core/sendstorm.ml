(* A deterministic fleet-scale crash-storm harness for the send fabric.

   One run builds [cfg.apps] applications on a fresh simulated display,
   puts every dispatcher on one shared virtual clock, arms crash plans on
   a seeded subset of connections, makes a seeded subset deaf (alive but
   never answering — the distinct-from-died timeout case), and then
   drives a seeded mix of synchronous, retrying, asynchronous, future and
   broadcast sends through the fleet.  Everything that varies is drawn
   from one linear-congruential stream, so the same config produces the
   same request trace, the same crash points, the same outcomes and the
   same tk.send.* counters, run after run. *)

type config = {
  apps : int;
  crash_percent : int;  (* % of apps armed with a crash plan *)
  hang_percent : int;  (* % of apps made deaf (alive, never answering) *)
  hostile_percent : int;  (* % of apps sending runaway/forbidden scripts *)
  sends_per_app : int;
  mailbox_limit : int;
  timeout_ms : int;  (* per-send deadline on the virtual clock *)
  guarded : bool;  (* arm send guards on every app *)
  guard_time_ms : int;  (* per-request time limit when guarded *)
  guard_cmds : int;  (* per-request command budget when guarded *)
  seed : int;
}

let default =
  {
    apps = 50;
    crash_percent = 2;
    hang_percent = 2;
    hostile_percent = 0;
    sends_per_app = 3;
    mailbox_limit = 16;
    timeout_ms = 200;
    guarded = false;
    guard_time_ms = 0;
    guard_cmds = 0;
    seed = 42;
  }

type report = {
  cfg : config;
  outcomes : (string * int) list;  (* state -> count, sorted by state *)
  sends_issued : int;  (* aggregated tk.send.sends *)
  skipped_dead_senders : int;
  unresolved_futures : int;
  crashes_planned : int;
  crashes_landed : int;
  hung : int;
  counters : (string * int) list;  (* tk.send.*, tcl.limit.*, sorted *)
  requests_total : int;
  requests_per_send : float;
  latencies_ms : int array;  (* virtual ms per awaited send, sorted *)
}

(* The same LCG the send fabric uses for retry jitter; here it drives the
   storm plan (victims, targets, send kinds, scripts). *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx =
      int_of_float (Float.round (p /. 100.0 *. float_of_int (n - 1)))
    in
    float_of_int sorted.(max 0 (min (n - 1) idx))

let counters_equal a b = a.counters = b.counters && a.outcomes = b.outcomes

let bump table state =
  let n = try Hashtbl.find table state with Not_found -> 0 in
  Hashtbl.replace table state (n + 1)

let run cfg =
  let server = Xsim.Server.create () in
  (* One clock for the whole fleet: every dispatcher reads the same
     counter and every backoff sleep advances it for everyone. *)
  let vnow = ref 0.0 in
  let clock () = !vnow in
  let sleep ms = vnow := !vnow +. (float_of_int ms /. 1000.0) in
  let apps =
    Array.init cfg.apps (fun i ->
        let app =
          Main.create ~server ~name:(Printf.sprintf "app%04d" i) ()
        in
        Dispatch.set_clock app.Core.disp clock;
        Dispatch.set_sleep app.Core.disp sleep;
        app.Core.send.Core.mailbox_limit <- cfg.mailbox_limit;
        (* Guarded fleets alternate evaluation contexts, so one storm
           exercises both guard shapes: even apps arm limits on the main
           interpreter, odd apps evaluate in a -safe slave. *)
        if cfg.guarded then begin
          app.Core.send.Core.guard_mode <-
            (if i land 1 = 0 then Core.Guard_limits else Core.Guard_safe);
          app.Core.send.Core.guard_time_ms <- cfg.guard_time_ms;
          app.Core.send.Core.guard_cmds <- cfg.guard_cmds
        end;
        ignore (Tcl.Interp.eval app.Core.interp "set hits 0");
        app)
  in
  (* A hostile app sends runaway or forbidden scripts chosen for its
     victim's guard shape: time-runaways ([while 1 {after 1}], which
     advances the shared virtual clock) and CPU-runaways
     ([while 1 {set spin 1}], killed by command budgets) at
     limits-guarded victims; forbidden [exit] (hidden-command denial)
     and CPU-runaways at safe-slave victims.  [exit] is never sent to a
     main-interpreter victim — nothing there would stop it. *)
  let hostile i =
    cfg.guarded && cfg.hostile_percent > 0 && i > 0
    && (i * 7 + 3) mod 100 < cfg.hostile_percent
  in
  let hostile_script target_idx pick =
    if cfg.guarded && target_idx land 1 = 1 then
      if pick = 0 then "exit 7" else "while 1 {set spin 1}"
    else if pick = 0 then "while 1 {after 1}"
    else "while 1 {set spin 1}"
  in
  let requests_issued () =
    Array.fold_left
      (fun acc app -> acc + Xsim.Server.serial app.Core.conn)
      0 apps
  in
  let baseline_requests = requests_issued () in
  (* Seeded fault plan: crash victims die mid-traffic at a seeded request
     count; hung apps stay alive but never pick up a send again. *)
  let rng = ref (lcg (cfg.seed + 1)) in
  (* Draw from the high bits: the LCG's low bits cycle with tiny periods
     (bit k has period 2^k), so [mod] on the raw state is badly biased. *)
  let draw bound =
    rng := lcg !rng;
    if bound <= 0 then 0 else !rng lsr 13 mod bound
  in
  let crashes_planned = ref 0 in
  let hung = ref 0 in
  Array.iteri
    (fun i app ->
      if i > 0 && draw 100 < cfg.crash_percent then begin
        incr crashes_planned;
        let at = Xsim.Server.serial app.Core.conn + 2 + draw 40 in
        Xsim.Server.set_crash_plan app.Core.conn ~at_request:at
      end
      else if i > 0 && draw 100 < cfg.hang_percent then begin
        incr hung;
        app.Core.pre_handlers <- []
      end)
    apps;
  let outcomes = Hashtbl.create 8 in
  let latencies = ref [] in
  let skipped = ref 0 in
  let future_handles = ref [] in
  let sender_ok app =
    (not app.Core.app_destroyed)
    && Xsim.Server.connection_alive app.Core.conn
  in
  let record_outcome o = bump outcomes (Sendcmd.outcome_state o) in
  let timed f =
    let t0 = Dispatch.now_ms apps.(0).Core.disp in
    let r = f () in
    let t1 = Dispatch.now_ms apps.(0).Core.disp in
    latencies := (t1 - t0) :: !latencies;
    r
  in
  (* The storm: each round every live app issues one seeded send.  A
     third of the traffic targets app0000 — the hotspot whose bounded
     mailbox is what the async floods overflow. *)
  for _round = 1 to cfg.sends_per_app do
    Array.iteri
      (fun i app ->
        if not (sender_ok app) then incr skipped
        else begin
          let target_idx =
            if i > 0 && draw 10 < 3 then 0 else draw cfg.apps
          in
          let target = Printf.sprintf "app%04d" target_idx in
          let script =
            if draw 10 = 0 then "error storm"
            else "set hits [expr {$hits + 1}]"
          in
          let kind = draw 100 in
          try
            if hostile i then
              (* Hostile traffic is all synchronous: the sender waits
                 out each victim's verdict, so every runaway's
                 termination (limit trip or denial) lands in the outcome
                 tally. *)
              record_outcome
                (timed (fun () ->
                     Sendcmd.send_outcome ~timeout_ms:cfg.timeout_ms app
                       ~target
                       (hostile_script target_idx (draw 2))))
            else if kind < 55 then
              record_outcome
                (timed (fun () ->
                     Sendcmd.send_outcome ~timeout_ms:cfg.timeout_ms app
                       ~target script))
            else if kind < 63 then
              record_outcome
                (timed (fun () ->
                     Sendcmd.send_outcome ~timeout_ms:cfg.timeout_ms
                       ~retry:true app ~target script))
            else if kind < 83 then
              (* Asyncs go out in bursts: enough records accumulate on
                 the hotspot's wire between pumps to hit the mailbox
                 bound, which is what makes overflow a reachable state. *)
              for _ = 1 to 5 do
                match Sendcmd.send_async app ~target script with
                | Ok () -> ()
                | Error _ -> bump outcomes "died"
              done
            else if kind < 97 then (
              match
                Sendcmd.send_future ~timeout_ms:cfg.timeout_ms app ~target
                  script
              with
              | Ok handle -> future_handles := (app, handle) :: !future_handles
              | Error _ -> bump outcomes "died")
            else
              (* A narrow multicast: every app whose zero-padded name
                 shares the hotspot's first three digits (10 peers). *)
              List.iter
                (fun (_, state, _) -> bump outcomes state)
                (timed (fun () ->
                     Sendcmd.broadcast ~timeout_ms:cfg.timeout_ms
                       ~pattern:"app000?" app script))
          with Xsim.Xerror.X_error e ->
            (* The sender itself crashed mid-send (its own crash plan
               fired while posting or polling). *)
            Xsim.Server.note_absorbed server e;
            bump outcomes "sender-crashed"
        end)
      apps
  done;
  (* Resolution phase: settle every future (each resolves to exactly one
     terminal state — the deadline guarantees termination) and drain the
     fleet's mailboxes until quiescent. *)
  List.iter
    (fun (app, handle) ->
      if sender_ok app then
        match timed (fun () -> Sendcmd.wait_future app handle) with
        | Ok (state, _) -> bump outcomes state
        | Error _ -> bump outcomes "lost"
      else bump outcomes "sender-crashed")
    (List.rev !future_handles);
  Array.iter (fun app -> if sender_ok app then Core.update app) apps;
  Array.iter (fun app -> if sender_ok app then Core.update app) apps;
  let sorted_assoc tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let crashes_landed =
    Array.fold_left
      (fun acc app ->
        if Xsim.Server.connection_crashed app.Core.conn then acc + 1
        else acc)
      0 apps
  in
  let unresolved =
    Array.fold_left
      (fun acc app ->
        if sender_ok app then acc + Sendcmd.pending_futures app else acc)
      0 apps
  in
  let requests_total = requests_issued () - baseline_requests in
  (* The fleet's counters: summed, high-water marks by max. *)
  let counters =
    let fleet =
      Counters.merge
        (List.map (fun app -> app.Core.counters) (Array.to_list apps))
    in
    List.sort compare
      (Counters.values ~prefix:"tk.send." fleet
      @ Counters.values ~prefix:"tcl.limit." fleet)
  in
  let sends_issued =
    try List.assoc "tk.send.sends" counters with Not_found -> 0
  in
  let latencies_ms =
    let a = Array.of_list !latencies in
    Array.sort compare a;
    a
  in
  {
    cfg;
    outcomes = sorted_assoc outcomes;
    sends_issued;
    skipped_dead_senders = !skipped;
    unresolved_futures = unresolved;
    crashes_planned = !crashes_planned;
    crashes_landed;
    hung = !hung;
    counters;
    requests_total;
    requests_per_send =
      (if sends_issued = 0 then 0.0
       else float_of_int requests_total /. float_of_int sends_issued);
    latencies_ms;
  }
