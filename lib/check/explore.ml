(* Systematic state exploration (the correctness backbone behind the
   paper's §4.4/§5 claims).  Every explorer enumerates the crash or kill
   states of a script, judges each state in a fresh world through one
   fold, and returns one {!report} (DESIGN.md §4.19).

   Power failure ({!explore}, DESIGN.md §4.10) enumerates the crash-state
   space of an op script deterministically:

   1. RECORD — run the script once on a recording device
      ({!Trio_nvm.Pmem.set_recording}), yielding the ordered
      store/persist event log and the number of post-mount LibFS stores
      N.  Crash index i (0 <= i <= N) names the state "the process died
      at its (i+1)-th store" (i = N: the script completed, then power
      failed).

   2. ENUMERATE — one incremental {!Pmem.Replay} pass over the log
      computes the unflushed-line set at every crash index.  At each
      index, the subsets of lines that may survive the power failure
      are enumerated exhaustively when the set is small
      (at most {!exhaustive_lines} lines) and sampled from a seeded RNG
      otherwise.

   3. JUDGE — every [Crash {at; survivors}] state gets a fresh world:
      re-run the script (deterministic, so the pre-crash device is
      reconstructed exactly), kill it with the store injector, apply
      {!Pmem.crash_select} with the chosen survivors, run controller
      crash recovery + LibFS remount, and compare against the model:
      completed operations must be fully durable, the interrupted
      operation atomic (namespace is exactly the pre- or post-state).

   A failing script is greedily shrunk (drop ops, shrink sizes) while
   the exploration still fails; [trioctl crashcheck --at] replays the
   failing state.  The crash x media-fault explorer and the kill-point
   campaigns below judge their states through the same fold. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Mmu = Trio_core.Mmu
module Controller = Trio_core.Controller
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Rng = Trio_util.Rng

(* ------------------------------------------------------------------ *)
(* One report *)

type state =
  | Kill of int (* SIGKILL at the i-th kill point *)
  | Hang of int (* wedged at the i-th kill point *)
  | Crash of { at : int; survivors : (int * int) list }
      (* power failure after [at] LibFS stores, with those (page, line)
         unflushed lines surviving *)

type reason =
  | Accounting (* the page-accounting invariant broke after a GC *)
  | Escalation (* the watchdog did not tear the victim down *)
  | Certification (* the surviving state fails verification *)
  | Vacuous (* nothing was judged, or the [require]d tally stayed zero *)
  | Exception (* something threw instead of degrading cleanly *)
  | Plane of string (* a plane's own property, by name *)

type failure = {
  f_reason : reason;
  f_state : state option; (* [None]: a campaign-level failure *)
  f_ops : Script.op list; (* the victim's script, when it runs one *)
  f_detail : string;
}

type report = {
  k_points : int; (* kill or crash points the victim crosses end to end *)
  k_states : int; (* states judged, the failing one included *)
  k_tallies : (string * int) list; (* summed over passing states, first-reported order *)
  k_failure : failure option;
}

let tally r name = Option.value (List.assoc_opt name r.k_tallies) ~default:0

let reason_to_string = function
  | Accounting -> "accounting"
  | Escalation -> "escalation"
  | Certification -> "certification"
  | Vacuous -> "vacuous"
  | Exception -> "exception"
  | Plane p -> p

let pp_survivors ppf survivors =
  match survivors with
  | [] -> Fmt.pf ppf "none"
  | l ->
    Fmt.pf ppf "%s" (String.concat "," (List.map (fun (p, ln) -> Printf.sprintf "%d:%d" p ln) l))

let parse_survivors s =
  if String.trim s = "" || String.trim s = "none" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | chunk :: rest -> (
        match String.split_on_char ':' (String.trim chunk) with
        | [ p; l ] -> (
          match (int_of_string_opt p, int_of_string_opt l) with
          | Some p, Some l -> go ((p, l) :: acc) rest
          | _ -> Error (Printf.sprintf "bad surviving line %S" chunk))
        | _ -> Error (Printf.sprintf "bad surviving line %S (expected page:line)" chunk))
    in
    go [] (String.split_on_char ',' s)

let pp_state ppf = function
  | Kill i -> Fmt.pf ppf "kill point %d" i
  | Hang i -> Fmt.pf ppf "hang point %d" i
  | Crash { at; survivors = [] } -> Fmt.pf ppf "crash after %d stores" at
  | Crash { at; survivors } ->
    Fmt.pf ppf "crash after %d stores, surviving %a" at pp_survivors survivors

let pp_failure ppf f =
  Fmt.pf ppf "%s at %a: %s" (reason_to_string f.f_reason)
    (Fmt.option ~none:(Fmt.any "campaign level") pp_state)
    f.f_state f.f_detail;
  if f.f_ops <> [] then Fmt.pf ppf "@.script: %s" (Script.to_string f.f_ops)

let pp_report ppf r =
  Fmt.pf ppf "points %d  states %d" r.k_points r.k_states;
  List.iter (fun (name, n) -> Fmt.pf ppf "  %s %d" name n) r.k_tallies;
  match r.k_failure with
  | None -> Fmt.pf ppf "@.held in every state"
  | Some f -> Fmt.pf ppf "@.FAILED: %a" pp_failure f

(* ------------------------------------------------------------------ *)
(* The fold every explorer judges its states through *)

(* [count] points spread evenly over [0, points). *)
let sample points count =
  if points <= 0 || count <= 0 then []
  else if points <= count then List.init points Fun.id
  else if count = 1 then [ points / 2 ]
  else List.sort_uniq compare (List.init count (fun i -> i * (points - 1) / (count - 1)))

let add_tallies acc ts =
  List.fold_left
    (fun acc (name, n) ->
      if List.mem_assoc name acc then
        List.map (fun (k, v) -> if k = name then (k, v + n) else (k, v)) acc
      else acc @ [ (name, n) ])
    acc ts

(* Every judged kill-point state counts toward its kind, the failing one
   included. *)
let kind_tallies = function
  | Kill _ -> [ ("killed", 1); ("hung", 0) ]
  | Hang _ -> [ ("killed", 0); ("hung", 1) ]
  | Crash _ -> []

(* Judge [states] — each paired with its judgement — in order, summing
   the tallies of passing states, up to the first failure; an exception
   is a failure too.  A run that judged nothing, or whose [require]d
   tally stayed zero everywhere, exercised nothing and is vacuous. *)
let judge_all ?require ~ops ~points states =
  let fail ?state reason detail =
    Some { f_reason = reason; f_state = state; f_ops = ops; f_detail = detail }
  in
  let rec go r = function
    | [] -> r
    | (st, judge) :: rest -> (
      let r =
        { r with k_states = r.k_states + 1; k_tallies = add_tallies r.k_tallies (kind_tallies st) }
      in
      match
        try judge () with exn -> Error (Exception, "uncaught exception: " ^ Printexc.to_string exn)
      with
      | Ok ts -> go { r with k_tallies = add_tallies r.k_tallies ts } rest
      | Error (reason, d) -> { r with k_failure = fail ~state:st reason d })
  in
  let r = go { k_points = points; k_states = 0; k_tallies = []; k_failure = None } states in
  let vacuous detail = { r with k_failure = fail Vacuous detail } in
  match require with
  | _ when r.k_failure <> None -> r
  | _ when r.k_states = 0 -> vacuous (Printf.sprintf "no state judged across %d points" points)
  | Some name when tally r name = 0 ->
    vacuous
      (Printf.sprintf "no sampled state ever counted %s: the campaign is not exercising what it \
                       claims to" name)
  | _ -> r

(* ------------------------------------------------------------------ *)
(* Worlds *)

(* The explorer's fixed geometry: small enough that thousands of fresh
   worlds are cheap, big enough for any generated script.  Every phase
   (record, replay fidelity, state checks) must use the same geometry —
   addresses are part of the reconstructed state. *)
let make_world () =
  let sched = Sched.create () in
  let topo = Numa.create ~nodes:2 ~cpus_per_node:4 in
  let pmem =
    Pmem.create ~sched ~topo ~profile:Perf.optane ~pages_per_node:8192 ~store_data:true ()
  in
  let mmu = Mmu.create pmem in
  (sched, pmem, mmu)

let cred = { Trio_core.Fs_types.uid = 1000; gid = 1000 }

(* Run [f] inside a fiber of a fresh world and hand back its result. *)
let in_world f =
  let sched, pmem, mmu = make_world () in
  let out = ref None in
  Sched.spawn sched (fun () -> out := Some (f ~sched ~pmem ~mmu));
  ignore (Sched.run sched);
  match !out with
  | Some v -> v
  | None -> failwith "Explore: simulation did not run to completion"

let run_script fs model ops =
  List.iteri (fun i op -> ignore (Script.apply fs model i op : (unit, string) result)) ops

(* The post-crash probe: enumerate the root, then read and rewrite every
   path the script created.  Each call must answer [Ok] or a clean errno
   (writes degrade to EROFS/EIO); an exception fails the state. *)
let probe model fs2 =
  (match fs2.Fs.readdir "/" with Ok _ | Error _ -> ());
  Hashtbl.iter
    (fun path _ ->
      (match Fs.read_file fs2 path with Ok _ | Error _ -> ());
      match fs2.Fs.open_ path [ Trio_core.Fs_types.O_RDWR ] with
      | Ok fd ->
        (match fs2.Fs.pwrite fd (Bytes.of_string "x") 0 with Ok _ | Error _ -> ());
        (match fs2.Fs.close fd with Ok () | Error _ -> ())
      | Error _ -> ())
    model.Script.files

let read_all fs2 names =
  List.iter (fun path -> match Fs.read_file fs2 path with Ok _ | Error _ -> ()) names

(* ------------------------------------------------------------------ *)
(* Power failure: record *)

type recording = {
  rec_events : Pmem.event list;
  rec_mount_stores : int; (* LibFS stores spent mounting (before the script) *)
  rec_n_stores : int; (* LibFS stores issued by the script itself *)
  rec_divergence : string option; (* fs/model disagreement with no crash at all *)
}

let record ops =
  in_world (fun ~sched ~pmem ~mmu ->
      Pmem.set_recording pmem true;
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
      let fs = Libfs.ops libfs in
      let mount_stores = Pmem.recorded_user_stores pmem in
      let model = Script.model_create () in
      let divergence =
        match Script.apply_all fs model ops with Ok () -> None | Error d -> Some d
      in
      Pmem.set_recording pmem false;
      {
        rec_events = Pmem.recorded_events pmem;
        rec_mount_stores = mount_stores;
        rec_n_stores = Pmem.recorded_user_stores pmem - mount_stores;
        rec_divergence = divergence;
      })

(* One incremental replay pass: the unflushed-line set at every crash
   index.  The state at index i is the log prefix strictly before the
   (mount_stores + i + 1)-th LibFS store — everything the process
   managed to issue before dying there. *)
let dirty_sets_of recording =
  let n = recording.rec_n_stores in
  let sets = Array.make (n + 1) [] in
  let img = Pmem.Replay.create () in
  let ucount = ref 0 in
  List.iter
    (fun ev ->
      if Pmem.is_user_store ev then begin
        let post = !ucount - recording.rec_mount_stores in
        if post >= 0 && post <= n then sets.(post) <- Pmem.Replay.dirty img;
        incr ucount
      end;
      Pmem.Replay.apply img ev)
    recording.rec_events;
  sets.(n) <- Pmem.Replay.dirty img;
  sets

(* Image at one crash index (fresh replay of the prefix). *)
let image_at recording ~at =
  let img = Pmem.Replay.create () in
  let ucount = ref 0 in
  (try
     List.iter
       (fun ev ->
         if Pmem.is_user_store ev then begin
           if !ucount - recording.rec_mount_stores >= at then raise Exit;
           incr ucount
         end;
         Pmem.Replay.apply img ev)
       recording.rec_events
   with Exit -> ());
  img

(* ------------------------------------------------------------------ *)
(* Power failure: one state *)

exception Diverged of string

(* Re-run the script in a fresh world, dying after [at] LibFS stores,
   then crash with exactly [survivors] surviving lines, recover, remount,
   and check the model properties.  [on_precrash] sees the dead world
   just before the power failure (replay fidelity checks hook in
   here). *)
let check_state ?(on_precrash = fun ~pmem:_ -> Ok ()) ops ~at ~survivors =
  in_world (fun ~sched ~pmem ~mmu ->
      let ( let* ) = Result.bind in
      let durability r = Result.map_error (fun d -> (Plane "durability", d)) r in
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
      let fs = Libfs.ops libfs in
      let model = Script.model_create () in
      let pre = ref (Script.model_snapshot model) in
      let cur = ref (-1) in
      Pmem.fail_after_writes pmem at;
      let interrupted =
        try
          List.iteri
            (fun i op ->
              cur := i;
              pre := Script.model_snapshot model;
              match Script.apply fs model i op with
              | Ok () -> ()
              | Error d -> raise (Diverged d))
            ops;
          Ok None
        with
        | Pmem.Crash_point -> Ok (Some !cur)
        | Diverged d -> Error (Plane "model", d)
      in
      Pmem.fail_after_writes pmem (-1);
      let* interrupted = interrupted in
      (* power failure: the chosen subset of unflushed lines survives *)
      let survive_set = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace survive_set k ()) survivors;
      let* () = on_precrash ~pmem in
      Pmem.crash_select pmem ~survives:(fun ~page ~line -> Hashtbl.mem survive_set (page, line));
      Controller.crash_recover ctl;
      let libfs2 = Libfs.mount ~ctl ~proc:2 ~cred () in
      let fs2 = Libfs.ops libfs2 in
      match interrupted with
      | None ->
        (* every operation completed: full durability *)
        durability (Script.check_model fs2 model)
      | Some j ->
        (* the op in flight must be atomic, everything else durable *)
        let op = List.nth ops j in
        let* visible = durability (Script.visible_names fs2) in
        let pre_names = Script.names_of_model !pre in
        let post_names = Script.names_of_model model in
        let* () =
          if visible = pre_names || visible = post_names then Ok ()
          else
            Error
              ( Plane "atomicity",
                Printf.sprintf "op %d (%s): namespace [%s] is neither pre [%s] nor post [%s]" j
                  (Script.show_op op) (String.concat " " visible)
                  (String.concat " " pre_names) (String.concat " " post_names) )
        in
        (* files the interrupted op did not touch keep their exact
           content; data inside its own target may legitimately be
           partial (data ops are synchronous, not atomic) *)
        let touched = Script.touched_paths op in
        let pre_model = !pre in
        let* () =
          durability
            (List.fold_left
               (fun acc (path, expected) ->
                 let* () = acc in
                 if List.mem path touched then Ok ()
                 else
                   match Fs.read_file fs2 path with
                   | Ok got when String.equal got expected -> Ok ()
                   | Ok got ->
                     Error
                       (Printf.sprintf "op %d (%s): untouched %s corrupted (%d vs %d bytes)" j
                          (Script.show_op op) path (String.length got) (String.length expected))
                   | Error e ->
                     Error
                       (Printf.sprintf "op %d (%s): untouched %s lost (%s)" j (Script.show_op op)
                          path
                          (Trio_core.Fs_types.errno_to_string e)))
               (Ok ()) (Script.model_files pre_model))
        in
        (* and whatever is visible must at least be readable *)
        durability
          (List.fold_left
             (fun acc path ->
               let* () = acc in
               if Hashtbl.mem pre_model.Script.files path then
                 match Fs.read_file fs2 path with
                 | Ok _ -> Ok ()
                 | Error e ->
                   Error
                     (Printf.sprintf "%s unreadable after crash: %s" path
                        (Trio_core.Fs_types.errno_to_string e))
               else Ok ())
             (Ok ()) visible))

(* Replay fidelity: the device the re-run reconstructed must be
   bit-identical — content and unflushed-line set — to the image
   replayed from the recorded event log. *)
let replay_fidelity recording ~at ~pmem =
  let img = image_at recording ~at in
  let diverged fmt =
    Printf.ksprintf
      (fun d ->
        Error (Plane "replay", Printf.sprintf "replay divergence at crash index %d: %s" at d))
      fmt
  in
  let img_dirty = Pmem.Replay.dirty img in
  let dev_dirty = Pmem.dirty_line_list pmem in
  if img_dirty <> dev_dirty then
    diverged "%d replayed dirty lines vs %d on device" (List.length img_dirty)
      (List.length dev_dirty)
  else
    List.fold_left
      (fun acc pg ->
        Result.bind acc (fun () ->
            if Bytes.equal (Pmem.Replay.page img pg) (Pmem.peek_page pmem pg) then Ok ()
            else diverged "page %d bytes differ" pg))
      (Ok ()) (Pmem.Replay.pages img)

(* ------------------------------------------------------------------ *)
(* Power failure: the explorer *)

type config = {
  samples_per_point : int; (* sampled subsets where the dirty set is too big to enumerate *)
  max_states : int; (* overall crash-state budget *)
  seed : int; (* drives subset sampling only; exploration is otherwise deterministic *)
  check_replay : bool; (* cross-check replayed images against the live device *)
  shrink : bool; (* minimize failing scripts before reporting *)
}

let default_config =
  { samples_per_point = 6; max_states = 4096; seed = 1; check_replay = true; shrink = true }

(* Enumerate all 2^k surviving subsets when the dirty set has <= k lines. *)
let exhaustive_lines = 6

(* Candidate explorations spent shrinking one failing script. *)
let shrink_budget = 64

let subsets_of cfg ~at dirty =
  if List.length dirty <= exhaustive_lines then
    (* all 2^k subsets, mask order: [] first, everything-survives last *)
    List.init
      (1 lsl List.length dirty)
      (fun mask -> List.filteri (fun i _ -> mask land (1 lsl i) <> 0) dirty)
  else begin
    let rng = Rng.create (cfg.seed + (at * 2654435761)) in
    let sample () = List.filter (fun _ -> Rng.bool rng) dirty in
    let sampled = List.init (max 0 (cfg.samples_per_point - 2)) (fun _ -> sample ()) in
    [] :: dirty :: sampled
  end

(* Tallies: [sampled] counts the crash points whose surviving subsets
   were drawn at random or cut short by [max_states] — zero means the
   enumeration was exhaustive. *)
let explore_once cfg ops =
  let recording = record ops in
  match recording.rec_divergence with
  | Some d ->
    {
      k_points = 0;
      k_states = 0;
      k_tallies = [];
      k_failure = Some { f_reason = Plane "model"; f_state = None; f_ops = ops; f_detail = d };
    }
  | None ->
    let n = recording.rec_n_stores in
    let dirty = dirty_sets_of recording in
    (* replay fidelity rides on the everything-survives state of an
       evenly spread sample of indices *)
    let fidelity = if cfg.check_replay then sample (n + 1) 9 else [] in
    let judge at survivors () =
      let on_precrash =
        if List.mem at fidelity && survivors = dirty.(at) then replay_fidelity recording ~at
        else fun ~pmem:_ -> Ok ()
      in
      Result.map (fun () -> []) (check_state ~on_precrash ops ~at ~survivors)
    in
    let plan = List.init (n + 1) (fun at -> (at, subsets_of cfg ~at dirty.(at))) in
    let states =
      List.concat_map
        (fun (at, subsets) ->
          List.map (fun survivors -> (Crash { at; survivors }, judge at survivors)) subsets)
        plan
      |> List.filteri (fun i _ -> i < cfg.max_states)
    in
    let sampled, _ =
      List.fold_left
        (fun (sampled, left) (at, subsets) ->
          let left = left - List.length subsets in
          let whole = left >= 0 && List.length dirty.(at) <= exhaustive_lines in
          ((if whole then sampled else sampled + 1), left))
        (0, cfg.max_states) plan
    in
    let r = judge_all ~ops ~points:(n + 1) states in
    { r with k_tallies = ("sampled", sampled) :: r.k_tallies }

(* Greedy minimization: keep applying the first shrink candidate that
   still fails, until none does (or the budget runs out). *)
let shrink_failure cfg f =
  let cfg = { cfg with shrink = false; check_replay = false } in
  let budget = ref shrink_budget in
  let rec go f =
    let next =
      List.find_map
        (fun candidate ->
          if !budget <= 0 || candidate = [] then None
          else begin
            decr budget;
            (explore_once cfg candidate).k_failure
          end)
        (Script.shrink_candidates f.f_ops)
    in
    match next with Some f -> go f | None -> f
  in
  go f

let explore ?(config = default_config) ops =
  let r = explore_once config ops in
  match r.k_failure with
  | Some f when config.shrink -> { r with k_failure = Some (shrink_failure config f) }
  | _ -> r

(* ------------------------------------------------------------------ *)
(* Crash x media-fault composition (DESIGN.md §4.11)

   The atomicity/durability model above assumes the medium is honest:
   what was persisted reads back.  With the media-fault plane armed,
   data genuinely disappears — stuck stores latch wrong, latent poison
   survives the power failure — so the checked property weakens from
   "the namespace matches the model" to *graceful degradation*: every
   operation after recovery returns [Ok] or a clean errno (never an
   uncaught exception), the controller's patrol scrubber runs to
   completion, and the namespace stays enumerable afterwards.

   Replay fidelity cannot compose with fault injection (poisoning
   scrambles content outside the event log), so this path never
   cross-checks replayed images; everything else is replayable from
   [fault_seed] alone.  Survivors are drawn from each state's seed, so
   its [Crash] states name only the crash point. *)

module Scrub = Trio_core.Scrub

type fault_config = {
  fault_seed : int; (* drives injection draws, survivors and poison placement *)
  transient_read_p : float; (* per-access soft read-error probability *)
  stuck_store_p : float; (* per-store latch-failure probability *)
  fault_crash_points : int; (* crash indices sampled per script *)
}

let default_fault_config =
  { fault_seed = 1; transient_read_p = 0.01; stuck_store_p = 0.02; fault_crash_points = 8 }

(* Latent poison torn into the medium at each crash, and patrol passes
   between the two degradation probes. *)
let poison_lines = 2
let scrub_rounds = 2

(* One crash+fault state: run the script with the injector armed, die
   after [at] stores, power-fail with a seeded random surviving subset,
   tear latent poison into the medium, then recover, remount, probe,
   scrub and probe again.  Model divergence is expected here (faults
   change outcomes); the model only supplies the universe of paths to
   probe.  Tallies: transient read faults and stuck stores drawn, poison
   lines injected, and the scrubber's repaired/migrated/quarantined
   pages. *)
let check_faulted_state cfg ~poison_candidates ops ~at ~state_seed =
  in_world (fun ~sched ~pmem ~mmu ->
      let rng = Rng.create state_seed in
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let fs = Libfs.ops (Libfs.mount ~ctl ~proc:1 ~cred ()) in
      let model = Script.model_create () in
      (* arm only after a clean mount: one seeded draw stream per state *)
      Pmem.set_fault_injection pmem ~seed:state_seed ~transient_read_p:cfg.transient_read_p
        ~stuck_store_p:cfg.stuck_store_p ();
      Pmem.fail_after_writes pmem at;
      (try run_script fs model ops with Pmem.Crash_point -> ());
      Pmem.fail_after_writes pmem (-1);
      (* power failure: seeded random survivors among the unflushed lines *)
      let dirty = Pmem.dirty_line_list pmem in
      let keep = Hashtbl.create 16 in
      List.iter (fun k -> if Rng.bool rng then Hashtbl.replace keep k ()) dirty;
      Pmem.crash_select pmem ~survives:(fun ~page ~line -> Hashtbl.mem keep (page, line));
      (* latent poison: media degrades anywhere in live data, not just in
         the lines that were mid-flight — targets are drawn from every
         page the script had stored to by this crash point (line -1 =
         pick one of the page's lines), plus the in-flight lines *)
      let arr =
        Array.of_list (List.rev_append dirty (List.map (fun pg -> (pg, -1)) poison_candidates))
      in
      let poisoned = if Array.length arr = 0 then 0 else poison_lines in
      for _ = 1 to poisoned do
        let page, line = arr.(Rng.int rng (Array.length arr)) in
        let line = if line < 0 then Rng.int rng Pmem.lines_per_page else line in
        Pmem.poison_line pmem ~page ~line
      done;
      Controller.crash_recover ctl;
      let fs2 = Libfs.ops (Libfs.mount ~ctl ~proc:2 ~cred ()) in
      probe model fs2;
      let scrub = Scrub.make_stats () in
      for _ = 1 to scrub_rounds do
        ignore (Scrub.patrol_once ~stats:scrub ctl : Scrub.stats)
      done;
      probe model fs2;
      let f = Pmem.fault_stats pmem in
      Ok
        [
          ("transient", f.Pmem.transient_faults);
          ("stuck", f.Pmem.stuck_stores);
          ("poison", poisoned);
          ("repaired", scrub.Scrub.repaired);
          ("migrated", scrub.Scrub.migrated);
          ("quarantined", scrub.Scrub.quarantined);
        ])

let explore_faults ?(config = default_fault_config) ops =
  let recording = record ops in
  let n = recording.rec_n_stores in
  judge_all ~ops ~points:(n + 1)
    (List.map
       (fun at ->
         ( Crash { at; survivors = [] },
           fun () ->
             let poison_candidates = Pmem.Replay.pages (image_at recording ~at) in
             check_faulted_state config ~poison_candidates ops ~at
               ~state_seed:(config.fault_seed + (at * 2654435761) + 1) ))
       (sample (n + 1) config.fault_crash_points))

(* ------------------------------------------------------------------ *)
(* Kill-point campaigns (DESIGN.md §4.19)

   Power failure (above) loses unflushed lines but kills *everyone*;
   process death loses *nothing in NVM* but kills one fiber, leaving
   its torn intermediate state live.  Every plane that claims to contain
   such a death — the LibFS process itself, snapshot publication, QoS
   throttling, directory-index maintenance — is checked by the same
   campaign:

   1. COUNT — build the plane's world ([setup]), run its [victim] in a
      killable fiber with the counting injector armed, and record how
      many kill points (Sched delay boundaries inside the killable
      scope, never inside a shielded controller syscall) it crosses.

   2. SAMPLE — spread [kill_points] kill states and [hang_points]
      wedge states evenly over that range.

   3. JUDGE — per state, rebuild the world, fire the injector at the
      sampled point, let the horizon run out, and hand the dead world
      to the plane's [judge].  The judge returns named tallies (summed
      into the report) or a typed failure; the first failure ends the
      campaign.  [require] names a tally that must be nonzero somewhere
      — a campaign that never exercised its own interaction is vacuous
      and fails. *)

type kill_config = {
  kill_points : int; (* kill-injection states sampled *)
  hang_points : int; (* wedged-mode states sampled *)
  timeout_ns : float; (* watchdog heartbeat timeout (also the lease) *)
}

let kills n = { kill_points = n; hang_points = 0; timeout_ns = 1.0e6 }

(* Horizon for one state: long enough for the victim to run (or die) and
   for every lease and the heartbeat timeout to expire afterwards. *)
let death_horizon_ns = 10.0e6

let campaign ?require ?(ops = []) ~config ~setup ~victim ~judge () =
  let run ~arm k =
    in_world (fun ~sched ~pmem ~mmu ->
        let env = setup ~sched ~pmem ~mmu in
        Sched.spawn sched (fun () -> Sched.killable (fun () -> victim env));
        arm sched;
        Sched.delay death_horizon_ns;
        Sched.disarm sched;
        k sched env)
  in
  let points = run ~arm:Sched.arm_count (fun sched _ -> Sched.kill_points_crossed sched) in
  let states kind arm count =
    List.map
      (fun i -> (kind i, fun () -> run ~arm:(fun s -> arm s ~after:i) (fun _ env -> judge env)))
      (sample points count)
  in
  judge_all ?require ~ops ~points
    (states (fun i -> Kill i) Sched.arm_kill config.kill_points
    @ states (fun i -> Hang i) Sched.arm_hang config.hang_points)

(* The shared post-kill judgement.  The watchdog must escalate the victim
   (proc 1) whether it died, wedged, or finished and went silent — it
   holds its mount resources either way; the teardown GC must balance
   the books (free + reachable + cached + badblocks = device pages); a
   second process [probe]s what survived, where the verifier gate and
   degradation ladder answer with clean errnos, never an exception; and
   after draining whatever the probe did not happen to map, the books
   must balance again with nothing left to collect. *)
let reclaim ~probe ~timeout_ns ctl =
  let ( let* ) = Result.bind in
  let gc_ok phase (gc : Controller.gc_report) =
    if gc.gc_invariant_ok && gc.gc_leaked = 0 then Ok ()
    else
      Error
        (Accounting, Fmt.str "page accounting broken after %s GC: %a" phase Controller.pp_gc_report gc)
  in
  let wd = Controller.make_watchdog_report () in
  let escalated = Controller.watchdog_once ~report:wd ctl ~timeout_ns in
  let* () =
    if List.mem 1 escalated then Ok ()
    else
      Error
        ( Escalation,
          Printf.sprintf "watchdog did not escalate the victim (escalated: [%s])"
            (String.concat ";" (List.map string_of_int escalated)) )
  in
  let gc1 = Controller.gc_once ctl in
  let* () = gc_ok "teardown" gc1 in
  let* () = probe (Libfs.ops (Libfs.mount ~ctl ~proc:2 ~cred ())) in
  ignore (Controller.drain_unverified ctl : int);
  let gc2 = Controller.gc_once ctl in
  let* () = gc_ok "probe" gc2 in
  Controller.unmap_all ctl ~proc:2;
  Ok
    [
      ("escalated", List.length wd.wd_escalated);
      ("unverified", wd.wd_unverified);
      ("reclaimed", gc1.gc_reclaimed_pages + gc2.gc_reclaimed_pages);
      ("leaked", gc1.gc_leaked + gc2.gc_leaked);
    ]

(* ------------------------------------------------------------------ *)
(* Process death (DESIGN.md §4.12)

   The victim is a LibFS running an op script, killed or wedged at
   sampled points; the judgement is the shared post-kill one, probing
   every model path (read, open for write, pwrite, close) and every
   visible name.  With [ring], the victim mounts a submission ring of
   that depth: kill points then include the ring submit path, and
   escalation must also tear the ring down and reap its in-flight
   entries. *)

let explore_proc_death ?(config = { (kills 12) with hang_points = 3 }) ?ring ops =
  campaign ~ops ~config
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns:config.timeout_ns () in
      (ctl, Libfs.ops (Libfs.mount ~ctl ~proc:1 ~cred ?ring ()), Script.model_create ()))
    ~victim:(fun (_, fs, model) -> run_script fs model ops)
    ~judge:(fun (ctl, _, model) ->
      reclaim ~timeout_ns:config.timeout_ns ctl ~probe:(fun fs2 ->
          probe model fs2;
          (match Script.visible_names fs2 with Ok names -> read_all fs2 names | Error _ -> ());
          Ok ()))
    ()

(* ------------------------------------------------------------------ *)
(* Crash during snapshot commit (DESIGN.md §4.16)

   Property: root publication is transactional.  The script populates
   the FS and one complete snapshot is taken (so the superseded root is
   substantial, not the trivial epoch-1 root over an empty tree); the
   victim is the next [Controller.snapshot_take].  A kill at any of its
   Delay boundaries must leave the device with at least one fully valid
   root — the superseded root before the commit store persists, the new
   one after — never zero.  Then the crash proper: DRAM dies with the
   controller and a new one recovers from NVM alone.  It must mount a
   root (falling back to the fsck walk would mean validation rejected a
   valid root), every file must pass a Full verification sweep, and the
   page accounting must balance with the [snap_pinned] term included.
   [Mutation.Torn_commit] must fail this campaign with zero roots. *)

let explore_snapshot_commit ?(config = kills 24) ops =
  campaign ~ops ~config
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      run_script (Libfs.ops (Libfs.mount ~ctl ~proc:1 ~cred ())) (Script.model_create ()) ops;
      Controller.unmap_all ctl ~proc:1;
      ignore (Controller.snapshot_take ctl : (int, Trio_core.Fs_types.errno) result);
      (sched, pmem, ctl, Controller.snapshot_epoch ctl))
    ~victim:(fun (_, _, ctl, _) ->
      ignore (Controller.snapshot_take ctl : (int, Trio_core.Fs_types.errno) result))
    ~judge:(fun (sched, pmem, _, pre_epoch) ->
      let valid =
        List.filter_map (fun slot -> Controller.snapshot_root_status pmem ~slot) [ 0; 1 ]
      in
      if valid = [] then Error (Plane "zero-roots", "zero valid roots after kill during publication")
      else
        match Controller.recover ~sched ~pmem ~mmu:(Mmu.create pmem) () with
        | Error e -> Error (Plane "recovery", "recovery refused both ladders: " ^ e)
        | Ok (ctl', how) -> (
          let checked, bad = Controller.audit_all ctl' in
          let gc = Controller.gc_once ctl' in
          if bad > 0 then
            Error
              ( Certification,
                Printf.sprintf "recovered state not certified: %d of %d file(s) fail Full \
                                verification" bad checked )
          else if (not gc.gc_invariant_ok) || gc.gc_leaked > 0 then
            Error
              (Accounting, Fmt.str "page accounting broken after recovery: %a" Controller.pp_gc_report gc)
          else
            match how with
            | Controller.Fsck_fallback ->
              Error
                (Plane "fsck-fallback", "valid roots existed but recovery fell back to the fsck walk")
            | Controller.Mounted_root e when e < pre_epoch ->
              Error
                ( Plane "stale-root",
                  Printf.sprintf "recovery mounted epoch %d older than the last committed root %d" e
                    pre_epoch )
            | Controller.Mounted_root e ->
              Ok [ ("old root", Bool.to_int (e = pre_epoch)); ("new root", Bool.to_int (e > pre_epoch)) ]))
    ()

(* ------------------------------------------------------------------ *)
(* SIGKILL inside QoS throttle states (DESIGN.md §4.17)

   Property: admission control composes with process death.  A tenant
   with a tiny share (0.02 against a competing enforced share of 10, no
   process behind it) is driven until its token bucket runs dry — so
   its fibers park at the ring mouth and pay admission delays on
   charged syscalls — then killed at sampled points, which include
   points immediately around those parks.  A throttled park must not
   read as liveness (the watchdog escalates), tokens owed are forgotten
   with the tenant but pages are not (the books balance), and a fresh
   honest tenant must stay serviceable.  The campaign requires a
   nonzero throttle tally: [Mutation.Qos_bypass] makes it vacuous. *)

let qos_victim fs libfs n =
  let payload = String.make 256 'q' in
  for i = 0 to n - 1 do
    ignore (Fs.write_file fs (Printf.sprintf "/q%d" i) payload : (unit, _) result);
    (* the sharing point: unmaps ride the ring, verification is charged *)
    Libfs.unmap_everything libfs
  done

let explore_qos ?(config = kills 12) ?(ring = 4) ?(ops = 10) () =
  let honest fs2 =
    match Fs.write_file fs2 "/honest" "alive" with
    | Error e ->
      Error
        ( Plane "serviceable",
          "honest tenant not serviceable after the kill: " ^ Trio_core.Fs_types.errno_to_string e )
    | Ok () ->
      (match fs2.Fs.readdir "/" with Ok _ | Error _ -> ());
      Ok ()
  in
  campaign ~require:"throttles" ~config
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns:config.timeout_ns () in
      Controller.set_qos_share ctl ~group:99 10.0;
      (ctl, Libfs.mount ~ctl ~proc:1 ~cred ~qos_share:0.02 ~ring ()))
    ~victim:(fun (_, libfs) -> qos_victim (Libfs.ops libfs) libfs ops)
    ~judge:(fun (ctl, _) ->
      (* A throttled victim spends most of the horizon parked, so the
         sampled kill can land just before the horizon's edge — give the
         heartbeat timeout room to expire before judging the watchdog. *)
      Sched.delay (2.0 *. config.timeout_ns);
      let throttles =
        List.fold_left
          (fun acc (s : Controller.qos_tenant_stats) ->
            if s.ts_group = 1 then acc + s.ts_throttles else acc)
          0 (Controller.qos_stats ctl)
      in
      Result.map
        (fun ts -> ("throttles", throttles) :: ts)
        (reclaim ~probe:honest ~timeout_ns:config.timeout_ns ctl))
    ()

(* ------------------------------------------------------------------ *)
(* SIGKILL inside directory-index mutations (DESIGN.md §4.18)

   The B-link tree over a directory's name hashes is an accelerator with
   its own multi-store mutations — leaf inserts, node splits, root
   swings — layered over the dentry truth.  The victim runs a
   create/unlink/rename mix over the root directory with sharing points,
   and node capacity is shrunk ({!Trio_core.Dirindex.with_test_capacity})
   so a handful of creates forces splits: the sampled kill points land
   inside the multi-store windows, not just between ops.  Every state
   must come back *certifiable*: the victim's own sharing points never
   drew an I5 verdict (an honest LibFS keeps its tree in step with its
   dentries — [Mutation.Skip_index] does not), the namespace stays
   enumerable, and after escalation and GC every file passes a Full
   sweep (I5 included) — the tree survived intact, was rolled back with
   its directory's checkpoint, or the directory legally dropped to
   unindexed (root = 0).  The campaign requires a nonzero split tally. *)

module Dirindex = Trio_core.Dirindex
module Layout = Trio_core.Layout
module Stats = Trio_sim.Stats

let dir_victim fs libfs n =
  let payload = String.make 64 'd' in
  for i = 0 to n - 1 do
    ignore (Fs.write_file fs (Printf.sprintf "/dx%02d" i) payload : (unit, _) result);
    if i mod 5 = 4 then
      ignore (fs.Fs.unlink (Printf.sprintf "/dx%02d" (i - 2)) : (unit, _) result);
    if i mod 7 = 6 then
      ignore
        (fs.Fs.rename (Printf.sprintf "/dx%02d" (i - 1)) (Printf.sprintf "/dr%02d" i)
          : (unit, _) result);
    if i mod 4 = 3 then Libfs.unmap_everything libfs
  done

let explore_dir_index ?(config = kills 18) ?(entries = 16) ?(capacity = 4) () =
  let enumerable fs2 =
    match Script.visible_names fs2 with
    | Error d -> Error (Plane "enumerable", "namespace not enumerable after the kill: " ^ d)
    | Ok names ->
      read_all fs2 names;
      Ok ()
  in
  let i5 (_, _, vs) = List.exists (fun v -> v.Trio_core.Verifier.check = `I5) vs in
  let ( let* ) = Result.bind in
  Dirindex.with_test_capacity capacity @@ fun () ->
  campaign ~require:"splits" ~config
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns:config.timeout_ns () in
      (pmem, ctl, Libfs.mount ~ctl ~proc:1 ~cred ()))
    ~victim:(fun (_, _, libfs) -> dir_victim (Libfs.ops libfs) libfs entries)
    ~judge:(fun (pmem, ctl, _) ->
      let* () =
        if List.exists i5 ctl.Trio_core.Ctl_state.corruption_events then
          Error (Certification, "I5 flagged the victim's index at a sharing point before the kill")
        else Ok ()
      in
      let* ts = reclaim ~probe:enumerable ~timeout_ns:config.timeout_ns ctl in
      let checked, bad = Controller.audit_all ctl in
      if bad > 0 then
        Error
          ( Certification,
            Fmt.str "%d of %d file(s) fail Full verification after the kill:%a" bad checked
              (Fmt.list ~sep:Fmt.nop (fun ppf (ino, vs) ->
                   Fmt.pf ppf "@.  ino %d: %a" ino
                     (Fmt.list ~sep:Fmt.comma Trio_core.Verifier.pp_violation)
                     vs))
              (Controller.audit_failures ctl) )
      else
        let indexed =
          Layout.read_dindex_root pmem ~actor:Pmem.kernel_actor ~dentry_addr:Layout.root_dentry_addr
          <> 0
        in
        let splits = int_of_float (Stats.get (Controller.stats ctl) "verify.dindex.splits") in
        Ok
          (ts
          @ [
              ("indexed", Bool.to_int indexed); ("unindexed", Bool.to_int (not indexed)); ("splits", splits);
            ]))
    ()
