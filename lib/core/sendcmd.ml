open Xsim

let script_property = "TK_SEND_SCRIPT"
let result_property_prefix = "TK_SEND_RESULT_"

(* Sender side: requests issued (all variants), and how they resolved;
   self-sends on the fast path, fire-and-forget posts, broadcasts,
   reposts after a mailbox overflow, sends refused for reaching a hidden
   command or cut short by the target's limits. *)
let c_sends = Counters.counter "tk.send.sends"
let c_ok = Counters.counter "tk.send.ok"
let c_errors = Counters.counter "tk.send.errors"
let c_self_fast_path = Counters.counter "tk.send.self_fast_path"
let c_async = Counters.counter "tk.send.async"
let c_broadcasts = Counters.counter "tk.send.broadcasts"
let c_retries = Counters.counter "tk.send.retries"
let c_overflows = Counters.counter "tk.send.overflows"
let c_died = Counters.counter "tk.send.died"
let c_timeouts = Counters.counter "tk.send.timeouts"
let c_denied = Counters.counter "tk.send.denied"
let c_limited = Counters.counter "tk.send.limited"
let c_futures_created = Counters.counter "tk.send.futures_created"
let c_futures_resolved = Counters.counter "tk.send.futures_resolved"

(* Receiver side: requests accepted into, evaluated from and refused by a
   full mailbox, its deepest depth, and incoming scripts that hit a
   hidden command or this target's limits. *)
let c_mailbox_enqueued = Counters.counter "tk.send.mailbox_enqueued"
let c_mailbox_drained = Counters.counter "tk.send.mailbox_drained"
let c_mailbox_rejected = Counters.counter "tk.send.mailbox_rejected"

let c_mailbox_high_water =
  Counters.counter ~merge:Counters.Max "tk.send.mailbox_depth_high_water"

let c_recv_denied = Counters.counter "tk.send.recv_denied"
let c_recv_limited = Counters.counter "tk.send.recv_limited"

let default_timeout_ms = 5000
let max_backoff_ms = 64

let interps app = List.map fst (Core.read_registry app)

(* Deterministic backoff jitter: a per-app LCG seeded from the connection
   id at create_app time, so retry schedules are reproducible run to run
   but distinct app to app (no lock-step thundering herd). *)
let jitter app bound =
  let s = app.Core.send in
  s.Core.send_rng <- ((s.Core.send_rng * 1103515245) + 12345) land 0x3FFFFFFF;
  if bound <= 0 then 0 else s.Core.send_rng mod bound

(* ------------------------------------------------------------------ *)
(* Receiver side: mailbox, drain, replies *)

(* Reply codes on the wire: "0" ok, "1" Tcl error, "2" mailbox overflow,
   "3" hidden-command denial, "4" resource limit exceeded.  Overflow and
   limit-exceeded are deliberately distinct codes with distinct messages:
   the first is the *mailbox* refusing before evaluation, the second the
   *evaluator* cutting a runaway short. *)
let reply app ~sender ~serial ~code ~value ~info =
  (* The sender may die between posting the script and our reply: writing
     the result property then raises BadWindow, which we absorb (there is
     nobody left to answer). *)
  Core.absorb app ~default:() @@ fun () ->
  let prop =
    Server.intern_atom app.Core.conn (result_property_prefix ^ serial)
  in
  Server.change_property app.Core.conn sender ~prop ~ptype:Atom.string
    (Tcl.Tcl_list.format [ code; value; info ])

(* How one incoming script's evaluation ended, beyond ok/error: a
   hidden-command denial or a resource-limit trip gets its own class so
   the wire reply and the sender's outcome can distinguish them. *)
type eval_class =
  | C_ok
  | C_error
  | C_denied
  | C_limited of Tcl.Interp.limit_kind

let limited_msg app kind =
  Printf.sprintf "script in application \"%s\" exceeded its %s limit"
    app.Core.app_name
    (match kind with
    | Tcl.Interp.Limit_time -> "time"
    | Tcl.Interp.Limit_commands -> "command")

(* The interpreter incoming scripts evaluate in under [Guard_safe]: a
   [-safe] slave of the main interpreter named "send", created lazily
   and re-created if a script deleted it ([interp delete send] from the
   master side is legal — the guard just makes a fresh one). *)
let guard_interp app =
  let s = app.Core.send in
  let master = app.Core.interp in
  let cached =
    match s.Core.guard_interp with
    | Some gi -> (
      match Tcl.Interp.find_slave master "send" with
      | Some live when live == gi -> Some gi
      | Some _ | None -> None)
    | None -> None
  in
  match cached with
  | Some gi -> gi
  | None -> (
    ignore (Tcl.Interp.delete_slave master "send");
    match Tcl.Builtins.create_slave ~master ~safe:true "send" with
    | Ok gi ->
      s.Core.guard_interp <- Some gi;
      gi
    | Error _ ->
      (* Unreachable: the name was just deleted.  Fall back to the main
         interpreter rather than dropping the request. *)
      master)

(* Remote scripts execute at global scope, whatever the receiving
   application happened to be doing.  The self-send fast path calls this
   same function, so the two paths are differential-identical (result,
   status, errorInfo, guard behavior).  Under [Guard_limits]/[Guard_safe]
   the configured limits are armed around the evaluation and disarmed
   after, so a runaway script is cut short without leaving the
   interpreter limited for its own user. *)
let eval_remote app script =
  let s = app.Core.send in
  let m = app.Core.counters in
  let interp, guarded =
    match s.Core.guard_mode with
    | Core.Guard_off -> (app.Core.interp, false)
    | Core.Guard_limits -> (app.Core.interp, true)
    | Core.Guard_safe -> (guard_interp app, true)
  in
  (* Arm limits only for the outermost request: a request evaluated
     nested inside another (a blocking script pumps the event loop,
     which drains again) runs under the outer request's armed budget —
     re-arming here would reset the outer script's deadline, and
     disarming on the way out would strip it. *)
  let armed = guarded && not s.Core.draining in
  let denied_before = Tcl.Interp.denied_count interp in
  if armed then begin
    s.Core.draining <- true;
    if s.Core.guard_time_ms > 0 then
      Tcl.Interp.set_time_limit interp s.Core.guard_time_ms;
    if s.Core.guard_cmds > 0 then
      Tcl.Interp.set_command_limit interp s.Core.guard_cmds
  end;
  let disarm () =
    if armed then begin
      Tcl.Interp.set_time_limit interp 0;
      Tcl.Interp.set_command_limit interp 0;
      s.Core.draining <- false
    end
  in
  let status, value =
    match
      Tcl.Interp.with_level interp 0 (fun () -> Tcl.Interp.eval interp script)
    with
    | r -> r
    | exception e ->
      disarm ();
      raise e
  in
  let cls =
    match status with
    | Tcl.Interp.Tcl_error -> (
      match Tcl.Interp.limit_tripped interp with
      | Some k -> C_limited k
      | None ->
        if Tcl.Interp.denied_count interp > denied_before then C_denied
        else C_error)
    | _ -> C_ok
  in
  let info =
    match status with
    | Tcl.Interp.Tcl_error -> Tcl.Interp.get_error_info interp
    | _ -> ""
  in
  disarm ();
  (* The limit/unwind error has been delivered into the reply; it must
     not keep unwinding the (self-path) sender's own catch frames. *)
  if armed then Tcl.Interp.clear_unwinding interp;
  (match cls with
  | C_denied -> Counters.incr m c_recv_denied
  | C_limited _ -> Counters.incr m c_recv_limited
  | C_ok | C_error -> ());
  (status, value, info, cls)

let evaluate_request app (rq : Core.send_request) =
  let _status, value, info, cls = eval_remote app rq.Core.sq_script in
  if rq.Core.sq_mode <> "async" then begin
    let code, value, info =
      match cls with
      | C_ok -> ("0", value, "")
      | C_error -> ("1", value, info)
      | C_denied -> ("3", value, "")
      | C_limited k -> ("4", limited_msg app k, "")
    in
    reply app ~sender:rq.Core.sq_sender ~serial:rq.Core.sq_serial ~code
      ~value ~info
  end

(* Accept or refuse one parked request.  Refusals answer immediately with
   the overflow code (asyncs are dropped silently — there is nobody
   waiting), so a sender learns about backpressure without waiting out
   its deadline. *)
let enqueue_request app (rq : Core.send_request) =
  let s = app.Core.send in
  let m = app.Core.counters in
  if Queue.length s.Core.mailbox >= s.Core.mailbox_limit then begin
    Counters.incr m c_mailbox_rejected;
    if rq.Core.sq_mode <> "async" then
      reply app ~sender:rq.Core.sq_sender ~serial:rq.Core.sq_serial
        ~code:"2"
        ~value:
          (Printf.sprintf "mailbox of application \"%s\" is full (limit %d)"
             app.Core.app_name s.Core.mailbox_limit)
        ~info:""
  end
  else begin
    Queue.add rq s.Core.mailbox;
    Counters.incr m c_mailbox_enqueued;
    let depth = Queue.length s.Core.mailbox in
    if depth > Counters.get m c_mailbox_high_water then
      Counters.set m c_mailbox_high_water depth
  end

(* Requests are appended to the script property as elements of a Tcl
   list, so a burst from many senders accumulates losslessly; one read
   takes the whole batch. *)
let parse_record str =
  match Tcl.Tcl_list.parse str with
  | Ok [ serial; sender; mode; script ] -> (
    match int_of_string_opt sender with
    | Some w ->
      Some
        {
          Core.sq_serial = serial;
          sq_sender = w;
          sq_mode = mode;
          sq_script = script;
        }
    | None -> None)
  | Ok _ | Error _ -> None

let handle_incoming app =
  Core.absorb app ~default:() @@ fun () ->
  let prop = Server.intern_atom app.Core.conn script_property in
  match Server.get_property app.Core.conn app.Core.comm_win ~prop with
  | None -> ()
  | Some p -> (
    Server.delete_property app.Core.conn app.Core.comm_win ~prop;
    match Tcl.Tcl_list.parse p.Window.prop_data with
    | Ok records ->
      List.iter
        (fun r ->
          match parse_record r with
          | Some rq -> enqueue_request app rq
          | None -> ())
        records
    | Error _ -> ())

(* The event handler only parks requests; evaluation happens when the
   event loop drains the mailbox (Core.update runs the drain hooks), so
   a remote script never executes re-entrantly in the middle of another
   event handler. *)
let pre_handler app (d : Event.delivery) =
  if d.Event.window <> app.Core.comm_win then false
  else
    match d.Event.event with
    | Event.Property_notify { prop_deleted = false; prop_atom } ->
      (match Server.atom_name app.Core.conn prop_atom with
      | Some name when name = script_property -> handle_incoming app
      | Some _ | None -> ());
      true
    | Event.Property_notify { prop_deleted = true; _ } -> true
    | _ -> false

let drain_mailbox app =
  let s = app.Core.send in
  let m = app.Core.counters in
  (* Snapshot the depth: requests enqueued by scripts we evaluate here
     wait for the next sweep, keeping each drain bounded.  A drained
     script that blocks (a synchronous send or [after]) pumps the event
     loop, which may drain again — that nesting is what lets nested
     RPC bottom out, and [eval_remote] makes it safe by arming resource
     limits only at the outermost request (see [Core.draining]). *)
  let n = Queue.length s.Core.mailbox in
  for _ = 1 to n do
    match Queue.take_opt s.Core.mailbox with
    | None -> ()
    | Some rq ->
      Counters.incr m c_mailbox_drained;
      evaluate_request app rq
  done;
  n

(* ------------------------------------------------------------------ *)
(* Sender side: posting, polling, liveness *)

let fresh_serial app =
  app.Core.send_serial <- app.Core.send_serial + 1;
  string_of_int app.Core.send_serial

let post app ~target_comm ~serial ~mode script =
  let prop = Server.intern_atom app.Core.conn script_property in
  Server.append_property app.Core.conn target_comm ~prop ~ptype:Atom.string
    (" "
    ^ Tcl.Tcl_list.format
        [
          Tcl.Tcl_list.format
            [ serial; string_of_int app.Core.comm_win; mode; script ];
        ])

let take_reply app serial =
  let prop =
    Server.intern_atom app.Core.conn (result_property_prefix ^ serial)
  in
  match Server.get_property app.Core.conn app.Core.comm_win ~prop with
  | None -> None
  | Some p -> (
    Server.delete_property app.Core.conn app.Core.comm_win ~prop;
    match Tcl.Tcl_list.parse p.Window.prop_data with
    | Ok [ code; value ] -> Some (code, value, "")
    | Ok [ code; value; info ] -> Some (code, value, info)
    | Ok _ | Error _ -> Some ("1", "malformed send reply", ""))

(* Is the peer behind this communication window still alive?  For
   in-process peers (every client in the simulation) this is an O(1)
   table lookup; the X liveness ping is the fallback for windows we
   cannot map to a local application. *)
let peer_alive app comm =
  match Core.app_of_comm app.Core.server comm with
  | Some peer ->
    (not peer.Core.app_destroyed) && Server.connection_alive peer.Core.conn
  | None ->
    Core.absorb app ~default:true @@ fun () ->
    Server.window_exists app.Core.conn comm

(* Make progress while waiting: pump ourselves (drains our mailbox, so
   nested sends back to us keep working) and the target — not the whole
   display, which would make every send O(clients) at fleet scale. *)
let pump app comm =
  if
    (not app.Core.app_destroyed)
    && Server.connection_alive app.Core.conn
  then Core.update app;
  match Core.app_of_comm app.Core.server comm with
  | Some peer
    when (not peer.Core.app_destroyed)
         && Server.connection_alive peer.Core.conn ->
    Core.update peer
  | Some _ | None -> ()

(* One send's terminal state.  The failure taxonomy is deliberately
   disjoint: [died] (liveness ping failed), [timeout] (alive but
   unresponsive past the deadline), [overflow] (refused by the target's
   mailbox before evaluation), [denied] (the script reached a hidden
   command in the target's guard context), [limited] (the target's
   resource limits cut the script short), [error] (the remote script
   raised an ordinary Tcl error). *)
type outcome =
  | O_ok of string
  | O_error of string
  | O_died of string
  | O_timeout of string
  | O_overflow of string
  | O_denied of string
  | O_limited of string

let outcome_state = function
  | O_ok _ -> "ok"
  | O_error _ -> "error"
  | O_died _ -> "died"
  | O_timeout _ -> "timeout"
  | O_overflow _ -> "overflow"
  | O_denied _ -> "denied"
  | O_limited _ -> "limited"

let outcome_value = function
  | O_ok v | O_error v | O_died v | O_timeout v | O_overflow v | O_denied v
  | O_limited v ->
    v

(* The self-send fast path maps an eval_remote classification onto the
   same outcome (with the same message text) the wire path would have
   delivered, keeping the two paths differential-identical. *)
let outcome_of_local app (value, cls) =
  match cls with
  | C_ok -> O_ok value
  | C_error -> O_error value
  | C_denied -> O_denied value
  | C_limited k -> O_limited (limited_msg app k)

let died_msg target = Printf.sprintf "target application \"%s\" died" target

let timeout_msg target timeout_ms =
  Printf.sprintf
    "send to application \"%s\" timed out after %d ms (interpreter is \
     alive but unresponsive)"
    target timeout_ms

let future_timeout_msg target =
  Printf.sprintf
    "send to application \"%s\" timed out (interpreter is alive but \
     unresponsive)"
    target

(* Count one terminal outcome against the sender's tk.send.* metrics. *)
let count_outcome app o =
  let m = app.Core.counters in
  match o with
  | O_ok _ -> Counters.incr m c_ok
  | O_error _ -> Counters.incr m c_errors
  | O_died _ -> Counters.incr m c_died
  | O_timeout _ -> Counters.incr m c_timeouts
  | O_overflow _ -> Counters.incr m c_overflows
  | O_denied _ -> Counters.incr m c_denied
  | O_limited _ -> Counters.incr m c_limited

(* Wait for the reply to [serial] against [deadline] on the dispatcher
   clock.  Polls pump the sender and the target so evaluation makes
   progress; between polls we back off exponentially.  An overflow reply
   triggers a jittered-backoff repost when [retry] is set, bounded by the
   same overall deadline. *)
let wait_reply app ~target ~comm ~serial ~deadline ~timeout_ms ~retry script
    =
  let disp = app.Core.disp in
  let m = app.Core.counters in
  let rec wait backoff =
    pump app comm;
    match take_reply app serial with
    | Some ("0", value, _) -> O_ok value
    | Some ("1", value, _) -> O_error value
    | Some ("3", value, _) -> O_denied value
    | Some ("4", value, _) -> O_limited value
    | Some (_, value, _) ->
      if retry && Dispatch.now_ms disp < deadline then begin
        Counters.incr m c_retries;
        Dispatch.sleep_ms disp (backoff + jitter app backoff);
        match post app ~target_comm:comm ~serial ~mode:"call" script with
        | () -> wait (min (backoff * 2) max_backoff_ms)
        | exception Xerror.X_error e ->
          Server.note_absorbed app.Core.server e;
          O_died (died_msg target)
      end
      else O_overflow value
    | None ->
      if not (peer_alive app comm) then O_died (died_msg target)
      else if Dispatch.now_ms disp >= deadline then
        O_timeout (timeout_msg target timeout_ms)
      else begin
        Dispatch.sleep_ms disp backoff;
        wait (min (backoff * 2) max_backoff_ms)
      end
  in
  wait 1

(* Post to a possibly-stale registry entry.  The fast lookup does not
   ping entries, so the target may have crashed since it registered: the
   post then raises, and we re-read the (ghost-collecting) registry once
   and retry a fresh entry before giving up. *)
type posted =
  | P_posted of Xid.t  (** the comm window actually posted to *)
  | P_died  (** registered but unreachable (fresh retry included) *)
  | P_unknown  (** never registered *)

let post_with_retry app ~target ~serial ~mode script =
  match Core.lookup_registry_raw app target with
  | None -> P_unknown
  | Some comm -> (
    match post app ~target_comm:comm ~serial ~mode script with
    | () -> P_posted comm
    | exception Xerror.X_error e -> (
      Server.note_absorbed app.Core.server e;
      match Core.lookup_registry app target with
      | Some comm' when comm' <> comm -> (
        match post app ~target_comm:comm' ~serial ~mode script with
        | () -> P_posted comm'
        | exception Xerror.X_error e2 ->
          Server.note_absorbed app.Core.server e2;
          P_died)
      | Some _ -> P_died
      | None ->
        (* The stale entry was just garbage-collected and nothing took
           its place: the name is simply no longer registered. *)
        P_unknown))

let no_interp_msg target =
  Printf.sprintf "no registered interpreter named \"%s\"" target

let is_self app target =
  target = app.Core.app_name && app.Core.send.Core.self_fast_path

(* ------------------------------------------------------------------ *)
(* Synchronous send *)

let send_outcome ?(timeout_ms = default_timeout_ms) ?(retry = false) app
    ~target script =
  let m = app.Core.counters in
  Counters.incr m c_sends;
  let o =
    if is_self app target then begin
      Counters.incr m c_self_fast_path;
      let _, value, _, cls = eval_remote app script in
      outcome_of_local app (value, cls)
    end
    else begin
      let serial = fresh_serial app in
      match post_with_retry app ~target ~serial ~mode:"call" script with
      | P_unknown -> O_died (no_interp_msg target)
      | P_died -> O_died (died_msg target)
      | P_posted comm ->
        let deadline = Dispatch.now_ms app.Core.disp + timeout_ms in
        wait_reply app ~target ~comm ~serial ~deadline ~timeout_ms ~retry
          script
    end
  in
  count_outcome app o;
  o

let send ?timeout_ms ?retry app ~target script =
  match send_outcome ?timeout_ms ?retry app ~target script with
  | O_ok v -> Ok v
  | O_error v | O_died v | O_timeout v | O_overflow v | O_denied v
  | O_limited v ->
    Error v

(* ------------------------------------------------------------------ *)
(* Asynchronous (fire-and-forget) send *)

let send_async app ~target script =
  let m = app.Core.counters in
  Counters.incr m c_sends;
  Counters.incr m c_async;
  if is_self app target then begin
    (* Self-sends still defer to the mailbox: async means "after I return
       to the event loop", even at home. *)
    Counters.incr m c_self_fast_path;
    enqueue_request app
      {
        Core.sq_serial = fresh_serial app;
        sq_sender = app.Core.comm_win;
        sq_mode = "async";
        sq_script = script;
      };
    Ok ()
  end
  else
    let serial = fresh_serial app in
    match post_with_retry app ~target ~serial ~mode:"async" script with
    | P_posted _ -> Ok ()
    | P_died ->
      Counters.incr m c_died;
      Error (died_msg target)
    | P_unknown -> Error (no_interp_msg target)

(* ------------------------------------------------------------------ *)
(* Futures *)

let resolve_future app (ft : Core.send_future) o =
  ft.Core.ft_state <- Some (outcome_state o, outcome_value o);
  count_outcome app o;
  let m = app.Core.counters in
  Counters.incr m c_futures_resolved

(* Advance one future if its reply is in, its peer died, or its deadline
   passed.  Returns true when the call resolved it. *)
let check_future app (ft : Core.send_future) =
  match ft.Core.ft_state with
  | Some _ -> false
  | None -> (
    match take_reply app ft.Core.ft_serial with
    | Some ("0", value, _) ->
      resolve_future app ft (O_ok value);
      true
    | Some ("1", value, _) ->
      resolve_future app ft (O_error value);
      true
    | Some ("3", value, _) ->
      resolve_future app ft (O_denied value);
      true
    | Some ("4", value, _) ->
      resolve_future app ft (O_limited value);
      true
    | Some (_, value, _) ->
      resolve_future app ft (O_overflow value);
      true
    | None ->
      if not (peer_alive app ft.Core.ft_comm) then begin
        resolve_future app ft (O_died (died_msg ft.Core.ft_target));
        true
      end
      else if Dispatch.now_ms app.Core.disp >= ft.Core.ft_deadline then begin
        resolve_future app ft
          (O_timeout (future_timeout_msg ft.Core.ft_target));
        true
      end
      else false)

let check_futures app =
  Hashtbl.fold
    (fun _ ft n -> if check_future app ft then n + 1 else n)
    app.Core.send.Core.futures 0

let pending_futures app =
  Hashtbl.fold
    (fun _ ft n -> if ft.Core.ft_state = None then n + 1 else n)
    app.Core.send.Core.futures 0

let new_future_handle app =
  let s = app.Core.send in
  s.Core.future_serial <- s.Core.future_serial + 1;
  Printf.sprintf "future#%d" s.Core.future_serial

let register_future app ~target ~comm ~serial ~deadline =
  let handle = new_future_handle app in
  let ft =
    {
      Core.ft_target = target;
      ft_comm = comm;
      ft_serial = serial;
      ft_deadline = deadline;
      ft_state = None;
    }
  in
  Hashtbl.replace app.Core.send.Core.futures handle ft;
  let m = app.Core.counters in
  Counters.incr m c_futures_created;
  (handle, ft)

let send_future ?(timeout_ms = default_timeout_ms) app ~target script =
  let m = app.Core.counters in
  Counters.incr m c_sends;
  let deadline = Dispatch.now_ms app.Core.disp + timeout_ms in
  if is_self app target then begin
    Counters.incr m c_self_fast_path;
    let handle, ft =
      register_future app ~target ~comm:app.Core.comm_win
        ~serial:(fresh_serial app) ~deadline
    in
    let _, value, _, cls = eval_remote app script in
    resolve_future app ft (outcome_of_local app (value, cls));
    Ok handle
  end
  else
    let serial = fresh_serial app in
    match post_with_retry app ~target ~serial ~mode:"call" script with
    | P_unknown -> Error (no_interp_msg target)
    | P_died ->
      (* The target existed and is gone: the future is born resolved, so
         no future is ever lost to a crash racing the post. *)
      let handle, ft =
        register_future app ~target ~comm:Xid.none ~serial ~deadline
      in
      resolve_future app ft (O_died (died_msg target));
      Ok handle
    | P_posted comm ->
      let handle, _ =
        register_future app ~target ~comm ~serial ~deadline
      in
      Ok handle

let wait_future app handle =
  match Hashtbl.find_opt app.Core.send.Core.futures handle with
  | None -> Error (Printf.sprintf "no such send future \"%s\"" handle)
  | Some ft ->
    let rec loop backoff =
      match ft.Core.ft_state with
      | Some (state, value) ->
        Hashtbl.remove app.Core.send.Core.futures handle;
        Ok (state, value)
      | None ->
        pump app ft.Core.ft_comm;
        ignore (check_future app ft);
        if ft.Core.ft_state = None then
          Dispatch.sleep_ms app.Core.disp backoff;
        loop (min (backoff * 2) max_backoff_ms)
    in
    loop 1

let future_result app handle =
  match Hashtbl.find_opt app.Core.send.Core.futures handle with
  | None -> Error (Printf.sprintf "no such send future \"%s\"" handle)
  | Some ft -> (
    ignore (check_future app ft);
    match ft.Core.ft_state with
    | None -> Ok None
    | Some (state, value) ->
      Hashtbl.remove app.Core.send.Core.futures handle;
      Ok (Some (state, value)))

(* ------------------------------------------------------------------ *)
(* Broadcast / multicast *)

(* Post to every matching peer first, then collect replies: the fan-out
   overlaps all the evaluations, and one dead or unresponsive peer costs
   its own outcome — never the whole broadcast. *)
let broadcast ?(timeout_ms = default_timeout_ms) ?pattern app script =
  let m = app.Core.counters in
  Counters.incr m c_broadcasts;
  let entries = Core.read_registry app in
  let entries =
    match pattern with
    | None -> entries
    | Some p ->
      List.filter (fun (name, _) -> Tcl.Glob.matches ~pattern:p name) entries
  in
  let pending =
    List.map
      (fun (name, comm) ->
        Counters.incr m c_sends;
        if is_self app name then begin
          Counters.incr m c_self_fast_path;
          let o =
            let _, value, _, cls = eval_remote app script in
            outcome_of_local app (value, cls)
          in
          count_outcome app o;
          (name, `Done o)
        end
        else begin
          let serial = fresh_serial app in
          match post app ~target_comm:comm ~serial ~mode:"call" script with
          | () -> (name, `Wait (comm, serial))
          | exception Xerror.X_error e ->
            Server.note_absorbed app.Core.server e;
            let o = O_died (died_msg name) in
            count_outcome app o;
            (name, `Done o)
        end)
      entries
  in
  let deadline = Dispatch.now_ms app.Core.disp + timeout_ms in
  List.map
    (fun (name, st) ->
      match st with
      | `Done o -> (name, outcome_state o, outcome_value o)
      | `Wait (comm, serial) ->
        let o =
          wait_reply app ~target:name ~comm ~serial ~deadline ~timeout_ms
            ~retry:false script
        in
        count_outcome app o;
        (name, outcome_state o, outcome_value o))
    pending

(* ------------------------------------------------------------------ *)
(* The Tcl-level [send] command *)

let usage =
  "send ?-async? ?-future? ?-retry? ?-timeout ms? ?-all? ?-glob pattern? \
   ?--? ?appName? arg ?arg ...?"

let command app : Tcl.Interp.command =
 fun _interp words ->
  let err msg = (Tcl.Interp.Tcl_error, msg) in
  match words with
  | [ _; "wait"; handle ] -> (
    match wait_future app handle with
    | Error msg -> err msg
    | Ok ("ok", value) -> Tcl.Interp.ok value
    | Ok (_, value) -> err value)
  | [ _; "result"; handle ] -> (
    match future_result app handle with
    | Error msg -> err msg
    | Ok None -> Tcl.Interp.ok "pending"
    | Ok (Some (state, value)) ->
      Tcl.Interp.ok (Tcl.Tcl_list.format [ state; value ]))
  | [ _; "guard" ] ->
    Tcl.Interp.ok
      (match app.Core.send.Core.guard_mode with
      | Core.Guard_off -> "off"
      | Core.Guard_limits -> "limits"
      | Core.Guard_safe -> "safe")
  | [ _; "guard"; mode ] -> (
    match mode with
    | "off" ->
      app.Core.send.Core.guard_mode <- Core.Guard_off;
      Tcl.Interp.ok ""
    | "limits" | "on" ->
      app.Core.send.Core.guard_mode <- Core.Guard_limits;
      Tcl.Interp.ok ""
    | "safe" ->
      app.Core.send.Core.guard_mode <- Core.Guard_safe;
      Tcl.Interp.ok ""
    | _ ->
      err
        (Printf.sprintf "bad guard mode \"%s\": should be off, limits, or safe"
           mode))
  | [ _; "limit"; kind ] -> (
    match kind with
    | "time" -> Tcl.Interp.ok (string_of_int app.Core.send.Core.guard_time_ms)
    | "commands" -> Tcl.Interp.ok (string_of_int app.Core.send.Core.guard_cmds)
    | _ ->
      err (Printf.sprintf "bad limit type \"%s\": should be time or commands" kind))
  | [ _; "limit"; kind; n ] -> (
    match (kind, int_of_string_opt n) with
    | "time", Some v when v >= 0 ->
      app.Core.send.Core.guard_time_ms <- v;
      Tcl.Interp.ok ""
    | "commands", Some v when v >= 0 ->
      app.Core.send.Core.guard_cmds <- v;
      Tcl.Interp.ok ""
    | ("time" | "commands"), _ ->
      err (Printf.sprintf "expected non-negative integer but got \"%s\"" n)
    | _ ->
      err (Printf.sprintf "bad limit type \"%s\": should be time or commands" kind))
  | [ _; "mailbox" ] ->
    Tcl.Interp.ok (string_of_int app.Core.send.Core.mailbox_limit)
  | [ _; "mailbox"; limit ] -> (
    match int_of_string_opt limit with
    | Some n when n > 0 ->
      app.Core.send.Core.mailbox_limit <- n;
      Tcl.Interp.ok ""
    | Some _ | None ->
      err (Printf.sprintf "expected positive integer but got \"%s\"" limit))
  | _ :: rest -> (
    let async = ref false in
    let future = ref false in
    let retry = ref false in
    let all = ref false in
    let glob = ref None in
    let timeout_ms = ref None in
    (* Consume option flags until the first non-option word (or [--],
       which lets an application name start with a dash). *)
    let rec opts = function
      | "-async" :: tl ->
        async := true;
        opts tl
      | "-future" :: tl ->
        future := true;
        opts tl
      | "-retry" :: tl ->
        retry := true;
        opts tl
      | "-all" :: tl ->
        all := true;
        opts tl
      | "-glob" :: pat :: tl ->
        glob := Some pat;
        opts tl
      | "-timeout" :: ms :: tl -> (
        match int_of_string_opt ms with
        | Some n when n > 0 ->
          timeout_ms := Some n;
          opts tl
        | Some _ | None ->
          Error (Printf.sprintf "bad -timeout value \"%s\"" ms))
      | [ ("-glob" | "-timeout") ] -> Error usage
      | "--" :: tl -> Ok tl
      | (s :: _) as tl when String.length s > 1 && s.[0] = '-' ->
        ignore tl;
        Error
          (Printf.sprintf
             "bad option \"%s\": must be -async, -future, -retry, \
              -timeout, -all, -glob or --"
             s)
      | tl -> Ok tl
    in
    match opts rest with
    | Error msg -> err msg
    | Ok rest ->
      if !all || !glob <> None then begin
        match rest with
        | [] -> Tcl.Interp.wrong_args usage
        | script_words ->
          if !async || !future then
            err "-all/-glob cannot be combined with -async or -future"
          else
            let script = String.concat " " script_words in
            let results =
              broadcast ?timeout_ms:!timeout_ms ?pattern:!glob app script
            in
            Tcl.Interp.ok
              (Tcl.Tcl_list.format
                 (List.map
                    (fun (name, state, value) ->
                      Tcl.Tcl_list.format [ name; state; value ])
                    results))
      end
      else (
        match rest with
        | target :: (_ :: _ as script_words) -> (
          let script = String.concat " " script_words in
          if !async && !future then
            err "-async and -future are mutually exclusive"
          else if !async then (
            match send_async app ~target script with
            | Ok () -> Tcl.Interp.ok ""
            | Error msg -> err msg)
          else if !future then (
            match send_future ?timeout_ms:!timeout_ms app ~target script with
            | Ok handle -> Tcl.Interp.ok handle
            | Error msg -> err msg)
          else (
            match
              send ?timeout_ms:!timeout_ms ~retry:!retry app ~target script
            with
            | Ok value -> Tcl.Interp.ok value
            | Error msg -> err msg))
        | _ -> Tcl.Interp.wrong_args usage))
  | [] -> Tcl.Interp.wrong_args usage

let install app =
  app.Core.pre_handlers <- pre_handler :: app.Core.pre_handlers;
  app.Core.drain_hooks <-
    (fun () -> drain_mailbox app + check_futures app)
    :: app.Core.drain_hooks;
  Tcl.Interp.register app.Core.interp "send" (command app)
