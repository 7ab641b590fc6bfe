(* The ArckFS benchmark: closed-loop workloads on one simulated machine,
   end-to-end and per-layer metrics, a traced run, and end-of-run
   audits.  See benchmark/README.md.

     main.exe [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick] [--ops N] [--check FILE]
       runs every workload, each in its own OS process, one at a time;
     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--ops N]
       runs one workload in this process and ends with one JSON line.

   System metrics are virtual time from the deterministic simulator;
   simulator metrics (set-up time, host time per op, heap) are host
   time. *)

let fmt = Json.num_to_string

(* Metrics measured in host time; every other metric is virtual time or
   a count, and repeats exactly for a seed. *)
let host_metrics =
  [
    "setup_s";
    "host_us_per_op";
    "host_live_mb";
    "host_peak_mb";
    "sim.host_ns_per_event";
    "trace.host_overhead_frac";
  ]

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int option; (* sample count behind a percentile or mean *)
  gated : bool; (* in the result line, where BENCHMARK.json's bounds apply *)
}

let m ?samples ?(gated = true) name unit_ value = { name; unit_; value; samples; gated }
let virt m = not (List.mem m.name host_metrics)

(* Ops that count against the workload: errors, wrong results, lost
   acknowledged ops, and planned ops a crash kept from running. *)
let totals (r : Harness.record) =
  let total = max r.planned r.attempted in
  (total, min total (r.failed + r.lost + (total - r.attempted)))

(* The exact percentiles are printed but kept out of the result line:
   virtual latencies take few distinct values, so a percentile can read
   the same for every seed.  The gated latency metrics are means, over
   all successful ops and over the slowest 1%, which move with every
   sample.  Likewise the peak heap moves in coarse steps with the GC's
   pacing, so the gated memory metric is the live heap after the
   measured phase.  NaN marks a statistic the sample cannot support
   (fewer than 10 samples beyond the 99th percentile). *)
let end_to_end (r : Harness.record) ~peak_words =
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  let lat = Samples.sorted r.lat in
  let n = Array.length lat in
  let pct name p =
    m ~samples:n ~gated:false name "us"
      (match Samples.percentile lat ~pct:p with Some x -> x /. 1e3 | None -> nan)
  in
  let mean_from i =
    Array.fold_left ( +. ) 0.0 (Array.sub lat i (n - i)) /. float_of_int (n - i) /. 1e3
  in
  let tail = Samples.rank ~pct:99 n in
  let total, failed = totals r in
  let virtual_ms = (r.v_end -. r.v_gate) /. 1e6 in
  [
    m "goodput_ops_per_ms" "ops/ms" (float_of_int (total - failed) /. virtual_ms);
    m ~samples:n "lat_mean_us" "us" (if n = 0 then nan else mean_from 0);
    m ~samples:n "lat_tail_mean_us" "us" (if n - tail < 10 then nan else mean_from tail);
    pct "lat_p50_us" 50;
    pct "lat_p99_us" 99;
    m ~gated:false "fail_frac" "ratio" (float_of_int failed /. float_of_int total);
    m "setup_s" "s" (r.h_gate -. r.h_start);
    m "host_us_per_op" "us" ((r.h_end -. r.h_gate) *. 1e6 /. float_of_int (max 1 r.attempted));
    m "host_live_mb" "MB" (mb r.live_words);
    m ~gated:false "host_peak_mb" "MB" (mb peak_words);
  ]

(* Counters are deltas over the measured phase, normalised per measured
   op; a percentile without ten samples beyond it reads 0. *)
let per_layer (r : Harness.record) (env : Harness.env) =
  let d = Harness.delta r in
  let g k = List.assoc k d in
  let gauge k = Option.value ~default:0.0 (List.assoc_opt k r.gauges) in
  let per x = x /. float_of_int (max 1 r.attempted) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let p99 name s =
    m ~samples:(Samples.count s) name "us"
      (match Samples.percentile (Samples.sorted s) ~pct:99 with Some x -> x /. 1e3 | None -> 0.0)
  in
  let probe = env.Harness.probe in
  let vfs =
    List.concat
      (List.mapi
         (fun i op ->
           let s = probe.Probe.lat.(i) in
           let p50 = Samples.percentile (Samples.sorted s) ~pct:50 in
           [
             m (Printf.sprintf "vfs.%s.count" op) "count" (float_of_int probe.Probe.calls.(i));
             m ~samples:(Samples.count s) (Printf.sprintf "vfs.%s.p50_us" op) "us"
               (match p50 with Some x -> x /. 1e3 | None -> 0.0);
             p99 (Printf.sprintf "vfs.%s.p99_us" op) s;
           ])
         (Array.to_list Probe.ops))
  in
  let tag name =
    match Hashtbl.find_opt r.tags name with Some e -> e | None -> (Samples.create (), ref 0)
  in
  vfs
  @ [
      m "libfs.rebuild_us_per_op" "us" (per (g "rebuild_ns" /. 1e3));
      m "delegation.requests_per_op" "count" (per (g "delegation_requests"));
      m "dirindex.descents_per_op" "count" (per (g "descents"));
      m "dirindex.splits_per_op" "count" (per (g "splits"));
      m "ctl.map_us_per_op" "us" (per (g "map_ns" /. 1e3));
      m "ctl.unmap_us_per_op" "us" (per (g "unmap_ns" /. 1e3));
      m "ctl.verify_us_per_op" "us" (per (g "verify_ns" /. 1e3));
      m "verify.incremental_frac" "ratio"
        (ratio (g "verify_incremental") (g "verify_incremental" +. g "verify_full"));
      m "verify.dirty_hit_ratio" "ratio"
        (ratio (g "dirty_hits") (g "dirty_hits" +. g "dirty_misses"));
      m "verify.queue_depth_max" "count" (gauge "queue_depth_max");
      m "ctl.corruption_events" "count" (gauge "corruption_events");
      m "ctl.quarantined" "count" (gauge "quarantined");
      m "ring.ops_per_batch" "count" (ratio (g "ring_ops") (g "ring_batches"));
      m "ring.fused_frac" "ratio" (ratio (g "ring_fused") (g "ring_ops"));
      m "ring.sq_park_us_per_op" "us" (per (g "sq_park_ns" /. 1e3));
      m "ring.cq_parks_per_op" "count" (per (g "cq_parks"));
      m "shard.lock_acq_per_op" "count" (per (g "lock_acq"));
      m "shard.cross_shard_frac" "ratio" (ratio (g "cross_shard") (g "lock_acq"));
      m "shard.pool_refills_per_kop" "count" (1e3 *. per (g "pool_refills"));
      m "pmem.read_bytes_per_op" "B" (per (g "read_bytes"));
      m "pmem.write_bytes_per_op" "B" (per (g "write_bytes"));
      m "pmem.write_amp" "ratio" (ratio (g "write_bytes") probe.Probe.user_bytes);
      m "pmem.fences_per_op" "count" (per (g "fences"));
      m "pmem.peak_accessors" "count" (gauge "peak_accessors");
      p99 "minidb.get.p99_us" (fst (tag "get"));
      p99 "minidb.put.p99_us" (fst (tag "put"));
      m "minidb.flushes" "count" (g "flushes");
      m "minidb.compactions" "count" (g "compactions");
      m "sim.events_per_op" "count" (per (g "events"));
      m "sim.host_ns_per_event" "ns" ((r.h_end -. r.h_gate) *. 1e9 /. Float.max 1.0 (g "events"));
      m "share.sync.ops" "count" (float_of_int !(snd (tag "sync")));
      p99 "share.sync.lat_p99_us" (fst (tag "sync"));
      m "share.ring.ops" "count" (float_of_int !(snd (tag "ring")));
      p99 "share.ring.lat_p99_us" (fst (tag "ring"));
    ]

(* Metrics only a traced run has: virtual self time per layer, per
   measured op, and what the tracing cost in host time. *)
let trace_layer ~attempted tr ~overhead =
  let per x = x /. float_of_int (max 1 attempted) in
  [
    m "trace.self.op_us_per_op" "us" (per (Trace.self_us tr "op"));
    m "trace.self.minidb_us_per_op" "us" (per (Trace.self_us_prefix tr "minidb."));
    m "trace.self.vfs_us_per_op" "us" (per (Trace.self_us_prefix tr "vfs."));
    m "trace.self.verify_us_per_op" "us" (per (Trace.self_us tr "ctl.verify"));
    m "trace.host_overhead_frac" "ratio" overhead;
  ]

(* A finished round keeps its metrics, not its simulated machine. *)
type round = {
  attempted : int; (* measured ops run *)
  total : int; (* measured ops planned *)
  failed : int; (* of [total], see [totals] *)
  lost : int; (* of [failed], found by the audit *)
  trace : Trace.t option;
  e2e : metric list;
  layers : metric list;
}

let run_round (w : Workloads.t) ~seed ~quick ~ops ~traced =
  let ops = match ops with Some n -> n | None -> (if quick then snd else fst) w.Workloads.ops in
  (* start every round from a collected heap, so no round pays for
     sweeping the previous round's machine *)
  Gc.full_major ();
  let record, env =
    match Harness.round ~seed ~quick ~traced ~ops w.Workloads.run with
    | Ok v -> v
    | Error (record, e) ->
      let total, failed = totals record in
      Printf.printf "# %s crashed: %s\n" w.Workloads.name e;
      Printf.printf "%s fail_frac %s ratio\n%!" w.Workloads.name
        (fmt (float_of_int failed /. float_of_int total));
      exit 1
  in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let total, failed = totals record in
  {
    attempted = record.Harness.attempted;
    total;
    failed;
    lost = record.Harness.lost;
    trace = env.Harness.trace;
    e2e = end_to_end record ~peak_words;
    layers = per_layer record env;
  }

(* One value per metric across rounds: virtual metrics must agree
   exactly (disagreements are returned); host metrics take the
   median. *)
let combine rounds get =
  let columns = List.map get rounds in
  let mismatched = ref [] in
  let combined =
    List.mapi
      (fun i (first : metric) ->
        let values = List.map (fun col -> (List.nth col i).value) columns in
        if not (virt first) then { first with value = Samples.median values }
        else begin
          if List.exists (fun x -> fmt x <> fmt first.value) values then
            mismatched := first.name :: !mismatched;
          first
        end)
      (List.hd columns)
  in
  (combined, List.rev !mismatched)

(* Virtual metrics that differ between two metric lists. *)
let differs a b =
  List.filter_map
    (fun (x, y) -> if virt x && fmt x.value <> fmt y.value then Some x.name else None)
    (List.combine a b)

let print_metric w m =
  if not (Float.is_nan m.value) then
    Printf.printf "%s %s %s %s%s\n" w m.name (fmt m.value) m.unit_
      (match m.samples with Some n -> Printf.sprintf " n=%d" n | None -> "")

let write_file name json =
  let dir = Filename.concat "_build" "benchmark" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ "_build"; dir ];
  Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let metrics_json ms =
  let one m = Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] in
  Json.Obj (List.map (fun m -> (m.name, one m)) ms)

let print_self_time name (r : round) tr =
  let n = float_of_int (max 1 r.attempted) in
  Printf.printf "# %s self time per measured op (virtual us, host us):\n" name;
  List.iter
    (fun (layer, (l : Trace.layer)) ->
      Printf.printf "#   %-16s %8d spans %10.4f %10.4f\n" layer l.Trace.count
        (l.Trace.self_v /. 1e3 /. n) (l.Trace.self_h *. 1e6 /. n))
    (Trace.table tr)

(* Run one workload in this process for at least [seconds] of wall-clock
   time (at least one round), print every metric, and end with the
   result line. *)
let run_workload (w : Workloads.t) ~seed ~seconds ~traced ~quick ~ops =
  let name = w.Workloads.name in
  let t0 = Unix.gettimeofday () in
  (* A traced run alternates untraced and traced rounds, starting
     untraced: the two kinds must agree on every virtual metric, and
     their host times price the tracing.  Only the first traced round's
     trace is kept. *)
  let all = ref [] in
  let next () =
    let traced = traced && List.length !all mod 2 = 1 in
    let r = run_round w ~seed ~quick ~ops ~traced in
    let r = if List.exists (fun (t, _) -> t) !all then { r with trace = None } else r in
    all := (traced, r) :: !all
  in
  next ();
  while Unix.gettimeofday () -. t0 < seconds || (traced && List.length !all < 2) do
    next ()
  done;
  let kind k = List.rev (List.filter_map (fun (t, r) -> if t = k then Some r else None) !all) in
  let rounds = kind traced and reference = if traced then kind false else [] in
  let first = List.hd rounds in
  let e2e, e2e_bad = combine rounds (fun r -> r.e2e) in
  let layers, layer_bad = combine rounds (fun r -> r.layers) in
  let trace_bad, layers =
    match (reference, first.trace) with
    | ref_round :: later, Some tr ->
      (* the process's first round also pays for growing the heap *)
      let warm = match later with [] -> [ ref_round ] | l -> l in
      let host_us rs =
        Samples.median
          (List.map (fun r -> (List.find (fun m -> m.name = "host_us_per_op") r.e2e).value) rs)
      in
      let overhead = (host_us rounds /. host_us warm) -. 1.0 in
      let differ r = differs r.e2e first.e2e @ differs r.layers first.layers in
      ( List.concat_map differ reference,
        layers @ trace_layer ~attempted:first.attempted tr ~overhead )
    | _ -> ([], layers)
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  let attempted = sum (fun r -> r.total) and failed = sum (fun r -> r.failed) in
  List.iter (print_metric name) (e2e @ layers);
  Printf.printf "# %s: %d round(s), seed %d\n" name (List.length rounds) seed;
  List.iteri
    (fun i r ->
      let host = List.filter (fun x -> not (virt x)) r.e2e in
      Printf.printf "#   round %d:%s\n" (i + 1)
        (String.concat "" (List.map (fun x -> Printf.sprintf " %s=%s" x.name (fmt x.value)) host)))
    rounds;
  let lost = sum (fun r -> r.lost) in
  if lost > 0 then Printf.printf "# %s: the audit found %d acknowledged ops lost\n" name lost;
  List.iter
    (Printf.printf "# %s: %s differs between rounds of one seed\n" name)
    (e2e_bad @ layer_bad);
  List.iter (Printf.printf "# %s: %s differs between traced and untraced rounds\n" name) trace_bad;
  Option.iter (print_self_time name first) first.trace;
  List.iter
    (fun m ->
      if Float.is_nan m.value then begin
        Printf.printf
          "# %s: %s needs 10 samples beyond the 99th percentile; %d successful ops are too few\n"
          name m.name (Option.get m.samples);
        exit 1
      end)
    e2e;
  let correct = failed = 0 && e2e_bad = [] && layer_bad = [] && trace_bad = [] in
  let counts =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
    ]
  in
  if not quick then begin
    let run = [ ("workload", Json.Str name); ("seed", Json.Num (float_of_int seed)) ] in
    write_file
      (name ^ if traced then ".traced.json" else ".json")
      (Json.Obj
         (run @ counts @ [ ("end_to_end", metrics_json e2e); ("per_layer", metrics_json layers) ]));
    Option.iter
      (fun tr -> write_file (name ^ ".trace.json") (Trace.to_json tr ~workload:name ~seed))
      first.trace
  end;
  let gated = List.filter (fun m -> m.gated) (if traced then layers else e2e) in
  print_endline (Json.to_string (Json.Obj (counts @ [ ("metrics", metrics_json gated) ])))

(* ------------------------------------------------------------------ *)
(* Every workload, each in its own OS process *)

(* Workloads whose failures are the expected baseline (README.md,
   defect 1): run once, printed, not asserted. *)
let known_defects = [ "share_dir" ]

type child = {
  status : int;
  correct : bool;
  gated : string list; (* metric names in the result line *)
  values : (string * (string * string)) list; (* metric -> (value, unit) *)
}

let run_child (w : Workloads.t) ~seed ~seconds ~traced ~quick ~ops =
  let name = w.Workloads.name in
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed ]
    @ [ "--seconds"; fmt seconds; "--trace"; (if traced then "1" else "0") ]
    @ (if quick then [ "--quick" ] else [])
    @ match ops with Some n -> [ "--ops"; string_of_int n ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let values = ref [] and result = ref Json.Null in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"{" line then result := Json.parse line
       else begin
         print_endline line;
         match String.split_on_char ' ' line with
         | wl :: metric :: value :: unit_ :: _ when wl = name ->
           values := (metric, (value, unit_)) :: !values
         | _ -> ()
       end
     done
   with End_of_file -> ());
  let status = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 255 in
  {
    status;
    correct = Json.member "correct" !result = Some (Json.Bool true);
    gated =
      (match Json.member "metrics" !result with Some (Json.Obj l) -> List.map fst l | _ -> []);
    values = List.rev !values;
  }

(* BENCHMARK.json's workload, end-to-end and per-layer names. *)
let benchmark_names file =
  let json = Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  let name x = match Json.member "name" x with Some (Json.Str s) -> Some s | _ -> None in
  let names key =
    match Json.member key json with Some (Json.Arr l) -> List.filter_map name l | _ -> []
  in
  (names "workloads", names "end_to_end", names "per_layer")

let run_all ~seed ~seconds ~traced ~repeat ~quick ~ops ~check =
  let problems = ref [] in
  let problem f = Printf.ksprintf (fun s -> problems := s :: !problems) f in
  let spec = Option.map benchmark_names check in
  Option.iter
    (fun (wls, _, _) ->
      List.iter
        (fun wl ->
          if Workloads.find wl = None then problem "BENCHMARK.json names unknown workload %s" wl)
        wls)
    spec;
  List.iter
    (fun (w : Workloads.t) ->
      let name = w.Workloads.name in
      let asserted = not (List.mem name known_defects) in
      let repeat = if asserted then repeat else 1 in
      let run ?(seed = seed) traced = (run_child w ~seed ~seconds ~traced ~quick ~ops, traced) in
      let runs = List.init repeat (fun _ -> run (traced && repeat = 1)) in
      (* a repeated run adds one traced run and one run of the next seed *)
      let extra = if repeat < 2 then [] else [ run true; run ~seed:(seed + 1) false ] in
      let all = runs @ extra in
      let value c metric = Option.map fst (List.assoc_opt metric c.values) in
      let base = fst (List.hd runs) in
      if asserted then begin
        List.iter
          (fun (c, _) ->
            if c.status <> 0 then problem "%s: a run exited with status %d" name c.status
            else if not c.correct then problem "%s: a run was not correct" name)
          all;
        if value base "fail_frac" <> Some "0" then problem "%s: fail_frac is not 0" name
      end;
      (match extra with
      | [ (traced_run, _); (other_seed, _) ] ->
        Printf.printf "# %s over %d runs: median [q1, q3]\n" name repeat;
        List.iter
          (fun (metric, (_, unit_)) ->
            if List.mem metric host_metrics then begin
              let values =
                List.filter_map (fun (c, _) -> Option.map float_of_string (value c metric)) runs
              in
              let q1, q3 = Samples.quartiles values in
              Printf.printf "#   %s %s [%s, %s] %s\n" metric
                (fmt (Samples.median values))
                (fmt q1) (fmt q3) unit_
            end
            else begin
              if List.exists (fun (c, _) -> value c metric <> value base metric) runs then
                problem "%s: %s differs across repeats" name metric;
              if value traced_run metric <> value base metric then
                problem "%s: %s differs between the traced and untraced runs" name metric
            end)
          base.values;
        if List.for_all (fun metric -> value other_seed metric = value base metric) base.gated then
          problem "%s: seeds %d and %d give the same results" name seed (seed + 1)
      | _ -> ());
      Option.iter
        (fun (wls, e2e, layers) ->
          if List.mem name wls then begin
            List.iter
              (fun metric ->
                if not (List.exists (fun (c, _) -> List.mem_assoc metric c.values) all) then
                  problem "%s: %s was not printed" name metric)
              (e2e @ layers);
            List.iter
              (fun (c, was_traced) ->
                let want, key = if was_traced then (layers, "per_layer") else (e2e, "end_to_end") in
                if List.sort compare c.gated <> List.sort compare want then
                  problem "%s: the result line does not hold exactly BENCHMARK.json's %s metrics"
                    name key)
              all
          end)
        spec)
    Workloads.all;
  match List.rev !problems with
  | [] -> print_endline "# all checks passed"
  | ps ->
    List.iter (Printf.eprintf "FAILED: %s\n") ps;
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick] \
     [--ops N] [--check BENCHMARK.json]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 0.0 and traced = ref false in
  let repeat = ref 1 and quick = ref false and ops = ref None and check = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s when s >= 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      traced := t = "1";
      parse rest
    | "--trace" :: rest ->
      traced := true;
      parse rest
    | "--repeat" :: n :: rest ->
      repeat := (match int_of_string_opt n with Some n when n >= 1 -> n | _ -> usage ());
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--ops" :: n :: rest ->
      ops := (match int_of_string_opt n with Some n when n >= 1 -> Some n | _ -> usage ());
      parse rest
    | "--check" :: file :: rest ->
      check := Some file;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None ->
    run_all ~seed:!seed ~seconds:!seconds ~traced:!traced ~repeat:!repeat ~quick:!quick ~ops:!ops
      ~check:!check
  | Some w -> (
    match Workloads.find w with
    | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~traced:!traced ~quick:!quick ~ops:!ops
    | None ->
      Printf.eprintf "unknown workload %s\n" w;
      exit 2)
