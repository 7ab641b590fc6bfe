(* Incremental-vs-full verification differential gate (DESIGN.md §4.13).

   The incremental verifier serves snapshot bytes for provably-clean
   pages instead of re-reading them, so its *verdicts* must be
   byte-identical to a full I1–I4 walk — only the simulated cost may
   differ.  This module makes that property executable:

   [differential] runs the §6.5 attack suite (handcrafted + scripted
   campaign) and a pinned-seed crash-state exploration twice, once
   under [Full] and once under [Incremental] verification (each inside
   {!Trio_core.Controller.with_verify_mode}), and compares every
   rendered verdict byte for byte.

   Its self-test is {!Trio_core.Mutation.Drop_writes}: with pages
   silently dropped from the MMU write-set, the incremental verifier
   wrongly trusts stale snapshots (the full walk never consults the
   write-set), and the differential must diverge.  A gate that cannot
   see a broken dirty-tracker proves nothing. *)

module Controller = Trio_core.Controller
module Attacks = Trio_attacks.Attacks
module Rng = Trio_util.Rng

(* Everything one verification mode produces, rendered to stable
   strings so comparison is trivially byte-exact. *)
type snapshot = {
  vs_handcrafted : string list; (* one line per handcrafted attack *)
  vs_campaign : string; (* campaign counters *)
  vs_explore : string; (* crash-exploration report *)
}

let render_outcome (o : Attacks.outcome) =
  Fmt.str "%a :: %s" Attacks.pp_outcome o (String.concat " / " o.Attacks.a_events)

let render_campaign (c : Attacks.campaign_result) =
  Printf.sprintf "total=%d detected=%d consistent=%d" c.Attacks.c_total c.Attacks.c_detected
    c.Attacks.c_consistent

(* The exploration slice is deliberately small: the gate's job is to
   compare verdicts across modes, not to re-run the deep campaign. *)
let explore_config =
  {
    Explore.default_config with
    Explore.max_states = 256;
    check_replay = false;
    shrink = false;
  }

let run_suite ~attacks ~seeds ~script_seed ~script_len mode =
  Controller.with_verify_mode mode @@ fun () ->
  let handcrafted =
    List.map
      (fun (name, attack, i4_repair) ->
        render_outcome (Attacks.run_attack ~name ~attack ?i4_repair ()))
      attacks
  in
  let campaign = render_campaign (Attacks.run_campaign ~seeds ()) in
  let script = Script.generate (Rng.create script_seed) ~len:script_len in
  let explore = Fmt.str "%a" Explore.pp_report (Explore.explore ~config:explore_config script) in
  { vs_handcrafted = handcrafted; vs_campaign = campaign; vs_explore = explore }

(* Line-by-line comparison; [] = byte-identical. *)
let compare_snapshots ~(full : snapshot) ~(incremental : snapshot) =
  let diffs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let nf = List.length full.vs_handcrafted and ni = List.length incremental.vs_handcrafted in
  if nf <> ni then add "handcrafted attack count differs: full=%d incremental=%d" nf ni
  else
    List.iteri
      (fun i (f, g) -> if f <> g then add "attack %d:\n  full:        %s\n  incremental: %s" i f g)
      (List.combine full.vs_handcrafted incremental.vs_handcrafted);
  if full.vs_campaign <> incremental.vs_campaign then
    add "campaign:\n  full:        %s\n  incremental: %s" full.vs_campaign
      incremental.vs_campaign;
  if full.vs_explore <> incremental.vs_explore then
    add "exploration:\n  full:        %s\n  incremental: %s" full.vs_explore
      incremental.vs_explore;
  List.rev !diffs

type verdict = {
  vd_scenarios : int; (* verdicts compared across the two runs *)
  vd_diffs : string list; (* [] = the modes agree byte for byte *)
}

let scenario_count s = List.length s.vs_handcrafted + 2 (* campaign + exploration *)

(* [attacks] defaults to the whole handcrafted suite. *)
let differential ?(attacks = Attacks.handcrafted) ?(seeds = 2) ?(script_seed = 1)
    ?(script_len = 6) () =
  let full = run_suite ~attacks ~seeds ~script_seed ~script_len Controller.Full in
  let incremental = run_suite ~attacks ~seeds ~script_seed ~script_len Controller.Incremental in
  {
    vd_scenarios = scenario_count full;
    vd_diffs = compare_snapshots ~full ~incremental;
  }

let pp_verdict ppf v =
  match v.vd_diffs with
  | [] -> Fmt.pf ppf "%d scenarios: verdicts byte-identical across modes" v.vd_scenarios
  | ds ->
    Fmt.pf ppf "%d scenarios, %d divergences:@." v.vd_scenarios (List.length ds);
    List.iter (fun d -> Fmt.pf ppf "  %s@." d) ds
