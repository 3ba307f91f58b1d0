(* The checker workloads: check-clean (one long clean hbo sweep) and
   check-cex (many short sweeps on configurations known to violate). *)

open Util
module Sc = Mm_check.Scenario
module Runner = Mm_check.Runner
module Monitor = Mm_check.Monitor
module Config = Mm_check.Config
module Trace = Mm_sim.Trace
module Arena = Mm_sim.Arena
module Mem = Mm_mem.Mem
module B = Mm_graph.Builders

let scenario name =
  match Mm_check.Registry.find name with
  | Some sc -> sc
  | None -> failwith ("no scenario " ^ name)

(* A sweep configuration and the property its counterexample reports
   ([None] for a clean sweep). *)
type sweep_cfg = {
  label : string;
  sc : Sc.t;
  params : Sc.params;
  expect : string option;
}

(* hbo with default params: n = 6, complete graph, trusted objects,
   native registers. *)
let clean =
  { label = "hbo"; sc = scenario "hbo"; params = Sc.default_params;
    expect = None }

let clean_budget = 1000

(* The master seed of check-clean's [i]-th sweep. *)
let clean_seed seed i = derive seed (1 + (1000 * i))

(* Each reaches its violation within a few hundred trials on every seed
   tried; the budget only bounds a sweep that would not. *)
let cex_budget = 2000

let cex_configs =
  let p = Sc.default_params in
  [
    (* Thm 4.4: crashing one clique of two disjoint cliques leaves no
       represented majority. *)
    { label = "hbo-disjoint"; sc = scenario "hbo";
      params =
        { p with graph = Some (B.disjoint_cliques ~cliques:2 ~k:3);
          family = "disjoint"; n = 6; max_crashes = Some 3 };
      expect = Some "termination" };
    (* Two of four hosts down is past the emulation's f < n/2. *)
    { label = "hbo-emulated"; sc = scenario "hbo";
      params =
        { p with graph = Some (B.complete 4); n = 4;
          backend = Mem.Backend.Emulated; max_crashes = Some 2 };
      expect = Some "emulated-resilience" };
    (* Step budgets too small for any liveness property to hold. *)
    { label = "smr-starved"; sc = scenario "smr";
      params = { p with max_crashes = Some 0; max_steps = Some 80 };
      expect = Some "smr-committed" };
    { label = "paxos-starved"; sc = scenario "paxos";
      params = { p with max_crashes = Some 0; max_steps = Some 60 };
      expect = Some "paxos-termination" };
    { label = "mutex-starved"; sc = scenario "mutex";
      params = { p with max_steps = Some 60 };
      expect = Some "mutex-progress" };
  ]

(* The first [exact_sweeps] cex sweeps run on every check-cex run, so
   the counts over them repeat exactly; the traced run traces them. *)
let exact_sweeps = 2 * List.length cex_configs

let setup_cfgs cfgs =
  List.iter
    (fun c ->
      let (module S : Sc.S) = c.sc in
      ignore (Sys.opaque_identity (S.cfg_of_params c.params)))
    cfgs

let sweep c ~master_seed ~budget ~jobs =
  timed (fun () -> Runner.sweep c.sc ~master_seed ~budget ~jobs ~params:c.params ())

(* ------------------------------------------------------------------ *)
(* check-clean                                                         *)

(* One domain: with two on a 2-vCPU VM shared with other tenants, every
   stop-the-world minor collection waits for whichever vCPU the host has
   descheduled, and identical sweeps took 1.5 to 4.2 s within one run.
   The traced run sweeps with [jobs = nproc] for the Pool metrics;
   [Runner] reports the same trials at every [jobs]. *)
let clean_e2e ~seed ~seconds =
  (* A fresh master seed every pass (pass 0's is the sweep the traced
     run traces): the cost of 1000 hbo trials depends on the seed (mean
     engine steps per trial ran from 1847 to 2251 over four seeds), so
     one sweep repeated would make the run's figure a property of one
     draw of trials. *)
  let runs =
    (* Set-up takes microseconds; five 2 ms batches a pass cost little. *)
    ref_passes ~seconds ~setup_reps:5
      ~setup:(fun () -> setup_cfgs [ clean ])
      (fun i -> sweep clean ~master_seed:(clean_seed seed i) ~budget:clean_budget ~jobs:1)
  in
  let heap = heap_mb () in
  let first = (List.hd runs).out in
  let ok (r : Runner.report) =
    r.Runner.violation = None
    && r.Runner.trials_run = clean_budget
    && r.Runner.distinct_trials + r.Runner.deduped = r.Runner.trials_run
  in
  let bad = List.length (List.filter (fun p -> not (ok p.out)) runs) in
  let attempted = clean_budget * List.length runs in
  let failed = clean_budget * bad in
  let trials (r : Runner.report) = fi r.Runner.trials_run in
  {
    attempted;
    failed;
    errors =
      (if bad = 0 then []
       else
         [ Printf.sprintf "check-clean: %d of %d sweep(s) reported a violation, \
                           a short sweep or a broken dedup split"
             bad (List.length runs) ]);
    e2e = e2e_metrics ~heap ~attempted ~failed ~work:trials runs;
    named =
      wall_metrics ~name:"trials_per_s" ~work:trials runs
      @ [
          m "sweeps" "count" (fi (List.length runs));
          m "distinct_trials" "count" (fi first.Runner.distinct_trials);
        ];
    layer = [];
    exact = [ "distinct_trials" ];
  }

(* ------------------------------------------------------------------ *)
(* check-cex                                                           *)

let nth_cfg k = List.nth cex_configs (k mod List.length cex_configs)
let cex_seed seed k = derive seed (100 + k)

(* What a counterexample sweep reported: trial seed, property,
   configuration and shrunk reproducer. *)
let summary (r : Runner.report) =
  Option.map
    (fun cx ->
      ( cx.Runner.trial_seed, cx.Runner.property,
        Config.to_lines cx.Runner.config, Config.to_lines cx.Runner.shrunk ))
    r.Runner.violation

(* A counterexample sweep is correct when it reports the expected
   property and [Runner.replay] of its seed reproduces the same
   report. *)
let verify_cex c s =
  match (s, c.expect) with
  | Some (seed, property, _, _), Some want when String.equal property want ->
    summary (Runner.replay c.sc ~params:c.params ~trial_seed:seed ()) = s
  | _ -> false

let cex_e2e ~seed ~seconds ~jobs =
  (* Round-robin over the configurations, a fresh master seed per
     sweep, so every sweep adds a new input; a pass is one round.  Only
     a summary of each report is kept, so the heap does not grow with
     the sweep count. *)
  let ncfg = List.length cex_configs in
  let rounds =
    ref_passes ~seconds ~min:(exact_sweeps / ncfg) ~setup_reps:5
      ~setup:(fun () -> setup_cfgs cex_configs)
      (fun i ->
        let round =
          List.init ncfg (fun j ->
              let k = (i * ncfg) + j in
              let c = nth_cfg k in
              let r, w = sweep c ~master_seed:(cex_seed seed k) ~budget:cex_budget ~jobs in
              ((k, c, r.Runner.trials_run, summary r), w))
        in
        (round, sum (List.map snd round)))
  in
  let heap = heap_mb () in
  let runs =
    List.concat_map
      (fun p -> List.map (fun ((k, c, t, s), w) -> ((k, c, t, verify_cex c s), w)) p.out)
      rounds
  in
  let bad = List.filter (fun ((_, _, _, ok), _) -> not ok) runs in
  let attempted = List.length runs in
  let failed = List.length bad in
  let walls = List.map snd runs in
  let trials round = fi (List.fold_left (fun a ((_, _, t, _), _) -> a + t) 0 round) in
  let found_exact =
    List.length (List.filter (fun ((k, _, _, ok), _) -> k < exact_sweeps && ok) runs)
  in
  let cfg_p50 c =
    median (List.filter_map (fun ((_, c', _, _), w) -> if c'.label = c.label then Some w else None) runs)
  in
  {
    attempted;
    failed;
    errors =
      List.map
        (fun ((k, c, _, _), _) ->
          Printf.sprintf "check-cex: sweep %d (%s) did not report %s, or its replay differed"
            k c.label (Option.value c.expect ~default:"-"))
        bad;
    e2e = e2e_metrics ~heap ~attempted ~failed ~work:trials rounds;
    named =
      wall_metrics ~name:"trials_per_s" ~work:trials rounds
      @ [
        m "cex_s_p50" "s" (median walls);
        m "cex_s_p90" "s" (percentile walls 90.0);
        m "sweeps" "count" (fi attempted);
        m "cex_found_frac" "ratio" (fi found_exact /. fi exact_sweeps);
      ]
      @ List.map (fun c -> m ("cex_s_p50." ^ c.label) "s" (cfg_p50 c)) cex_configs;
    layer = [];
    exact = [ "cex_found_frac" ];
  }

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)

(* Per-layer totals over the traced sweeps. *)
type acc = {
  mutable sweeps : int;
  mutable trials : int;
  mutable executed : int;
  mutable deduped : int;
  mutable cfg_s : float;
  mutable gen_s : float;
  mutable fp_s : float;
  mutable exec_s : float;
  mutable mon_s : float;
  mutable cexs : int;
  mutable found : int;
  mutable shrink_s : float;
  mutable shrink_calls : int;
  mutable minor_words : float;
  mutable fixed_s : float;
  mutable domains : int;
  mutable imbalance : float;
  mutable major : int;
  mutable steps : int;
  mutable sent : int;
  mutable dropped : int;
  mutable reg_ops : int;
  mutable blocked : int;
  mutable count_exec_s : float;
  mutable attributed_ns : float;
}

let new_acc () =
  { sweeps = 0; trials = 0; executed = 0; deduped = 0; cfg_s = 0.0;
    gen_s = 0.0; fp_s = 0.0; exec_s = 0.0; mon_s = 0.0; cexs = 0; found = 0;
    shrink_s = 0.0; shrink_calls = 0; minor_words = 0.0;
    fixed_s = 0.0; domains = 0; imbalance = 0.0; major = 0; steps = 0;
    sent = 0; dropped = 0; reg_ops = 0; blocked = 0; count_exec_s = 0.0;
    attributed_ns = 0.0 }

(* Re-runs one sweep's trials sequentially, the way [Runner] derives and
   dedups them, with a span around each public call; then re-executes
   the executed trials once more with a trace ring large enough to hold
   every event, and counts the events by op.  Fails (through [errors])
   when the traced pass disagrees with [Runner.sweep_stats] on the same
   inputs. *)
let trace_sweep acc errors (k : Kernels.t) c ~master_seed ~budget ~jobs =
  let (module S : Sc.S) = c.sc in
  let params = c.params in
  let err fmt = Printf.ksprintf (fun s -> errors := (c.label ^ ": " ^ s) :: !errors) fmt in
  (* Timed on a second, warm run, as the untraced passes are. *)
  let sweep_stats () =
    Gc.full_major ();
    timed (fun () -> Runner.sweep_stats c.sc ~master_seed ~budget ~jobs ~params ())
  in
  ignore (sweep_stats ());
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let (report, stats), wall = sweep_stats () in
  acc.major <- acc.major + (Gc.quick_stat ()).Gc.major_collections - g0;
  let cfg, cfg_s = timed (fun () -> S.cfg_of_params params) in
  acc.cfg_s <- acc.cfg_s +. cfg_s;
  let salt = Mem.Backend.tag params.Sc.backend * 0x2545F4914F6CDD1D in
  let arena = Arena.create () in
  let rng = Rng.create master_seed in
  let memo = Hashtbl.create 64 and fps = Hashtbl.create 64 in
  let executed = ref [] in
  let per_trial = ref cfg_s in
  let rec go i =
    if i >= budget then None
    else begin
      let seed = trial_seed_of rng in
      (* A trial's draw takes microseconds: keep the fastest of three
         timings of each variant, so the fingerprint's cost is not lost
         in timer noise. *)
      let fastest f =
        let r, t1 = timed f in
        let _, t2 = timed f in
        let _, t3 = timed f in
        (r, Float.min t1 (Float.min t2 t3))
      in
      let _, tg = fastest (fun () -> S.gen cfg (Rng.create seed)) in
      let (t, fp), tf =
        fastest (fun () ->
            let r = Rng.create seed in
            Rng.fingerprint_start r;
            let t = S.gen cfg r in
            (t, Rng.fingerprint r lxor salt))
      in
      acc.trials <- acc.trials + 1;
      acc.gen_s <- acc.gen_s +. tg;
      acc.fp_s <- acc.fp_s +. (tf -. tg);
      per_trial := !per_trial +. tf;
      Hashtbl.replace fps fp ();
      if Hashtbl.mem memo fp then begin
        acc.deduped <- acc.deduped + 1;
        go (i + 1)
      end
      else begin
        acc.executed <- acc.executed + 1;
        let w0 = Gc.minor_words () in
        let o, te = timed (fun () -> S.execute ~arena cfg t) in
        let f, tm = timed (fun () -> Monitor.first_failure (S.monitors cfg t) o) in
        acc.minor_words <- acc.minor_words +. (Gc.minor_words () -. w0);
        acc.exec_s <- acc.exec_s +. te;
        acc.mon_s <- acc.mon_s +. tm;
        per_trial := !per_trial +. te +. tm;
        executed := t :: !executed;
        match f with
        | None ->
          Hashtbl.add memo fp ();
          go (i + 1)
        | Some (p, _) -> Some (i, seed, t, p)
      end
    end
  in
  let found = go 0 in
  let trials_run = match found with Some (i, _, _, _) -> i + 1 | None -> budget in
  if report.Runner.trials_run <> trials_run then
    err "traced pass ran %d trials, Runner.sweep %d" trials_run
      report.Runner.trials_run;
  if report.Runner.distinct_trials <> Hashtbl.length fps then
    err "traced pass saw %d distinct trials, Runner.sweep %d"
      (Hashtbl.length fps) report.Runner.distinct_trials;
  (match (found, report.Runner.violation) with
  | None, None -> ()
  | Some (i, seed, t, p), Some cx ->
    if cx.Runner.trial <> i || cx.Runner.trial_seed <> seed
       || not (String.equal cx.Runner.property p)
    then err "traced violation at trial %d differs from Runner's (%d)" i cx.Runner.trial;
    if Option.equal String.equal c.expect (Some p) then acc.found <- acc.found + 1;
    (* Runner re-runs the violating trial in full, then shrinks it. *)
    let _, tr =
      timed (fun () ->
          let t' = S.gen cfg (Rng.create seed) in
          let o = S.execute ~arena cfg t' in
          ignore (Monitor.first_failure (S.monitors cfg t') o))
    in
    let calls = ref 0 in
    let still_fails cand =
      incr calls;
      let o = S.execute ~arena cfg cand in
      match Monitor.first_failure (S.monitors cfg cand) o with
      | Some (p', _) -> String.equal p' p
      | None -> false
    in
    let shrunk, ts = timed (fun () -> S.shrink cfg ~still_fails t) in
    if Config.to_lines shrunk <> Config.to_lines cx.Runner.shrunk then
      err "traced shrink differs from Runner's";
    acc.cexs <- acc.cexs + 1;
    acc.shrink_s <- acc.shrink_s +. ts;
    acc.shrink_calls <- acc.shrink_calls + !calls;
    per_trial := !per_trial +. tr +. ts
  | Some (i, _, _, _), None -> err "traced pass found a violation at trial %d, Runner none" i
  | None, Some _ -> err "Runner found a violation, the traced pass none");
  let domains = Array.length stats in
  let claimed = Array.map (fun s -> s.Runner.claimed) stats in
  let total = Array.fold_left ( + ) 0 claimed in
  acc.sweeps <- acc.sweeps + 1;
  acc.domains <- acc.domains + domains;
  acc.fixed_s <- acc.fixed_s +. (wall -. (!per_trial /. fi (max 1 domains)));
  acc.imbalance <-
    acc.imbalance
    +. Float.max 0.0
         (ratio (fi (Array.fold_left max 0 claimed * domains)) (fi total) -. 1.0);
  (* Count pass: every event of every executed trial. *)
  let cap = (4 * Option.value params.Sc.max_steps ~default:60_000) + 1024 in
  let cfg_tr = S.cfg_of_params { params with Sc.trace_tail = cap } in
  let arena_tr = Arena.create () in
  let steps = ref 0 and sent = ref 0 and reg_ops = ref 0 in
  let _, tc =
    timed (fun () ->
        List.iter
          (fun t ->
            let evs = S.trace (S.execute ~arena:arena_tr cfg_tr t) in
            if List.length evs >= cap then err "trace ring of %d events overflowed" cap;
            List.iter
              (fun (e : Trace.event) ->
                match e.Trace.op with
                | Trace.Sent _ -> incr steps; incr sent
                | Trace.Read _ | Trace.Wrote _ -> incr steps; incr reg_ops
                | Trace.Blocked _ ->
                  incr steps;
                  acc.blocked <- acc.blocked + 1
                | Trace.Yielded | Trace.Received _ | Trace.Coined _
                | Trace.Atomic_op ->
                  incr steps
                | Trace.Dropped -> acc.dropped <- acc.dropped + 1
                | Trace.Delivered _ | Trace.Crashed | Trace.Restarted
                | Trace.Finished ->
                  ())
              evs)
          (List.rev !executed))
  in
  acc.count_exec_s <- acc.count_exec_s +. tc;
  acc.steps <- acc.steps + !steps;
  acc.sent <- acc.sent + !sent;
  acc.reg_ops <- acc.reg_ops + !reg_ops;
  (* Model of the execute spans: steps, messages and register ops at
     their kernel unit costs. *)
  let mem_ns =
    match params.Sc.backend with
    | Mem.Backend.Native -> (k.Kernels.mem.read_native +. k.mem.write_native) /. 2.0
    | Mem.Backend.Emulated -> k.mem.op_emulated
  in
  acc.attributed_ns <-
    acc.attributed_ns
    +. (fi !steps *. Kernels.step_base_ns k.small ~msg_ns:k.dense_ns)
    +. (fi !sent *. k.dense_ns) +. (fi !reg_ops *. mem_ns)

(* Counts × unit costs may fall short of the execute time (the rest is
   algorithm and effect-handler self time) but may not exceed it by
   more than this share: that would mean a kernel overstates a cost. *)
let attribution_tolerance = 0.25

let layer_metrics acc errors =
  let per x n = ratio (fi x) (fi n) in
  let exe = acc.executed in
  let attributed = ratio (acc.attributed_ns *. 1e-9) acc.exec_s in
  if attributed > 1.0 +. attribution_tolerance then
    errors :=
      Printf.sprintf
        "attribution: counts x unit costs are %.2f x the measured execute \
         time (tolerance %.2f)"
        attributed (1.0 +. attribution_tolerance)
      :: !errors;
  [
    m "runner.cfg_ms" "ms" (1000.0 *. ratio acc.cfg_s (fi acc.sweeps));
    m "runner.gen_us_per_trial" "us" (1e6 *. ratio acc.gen_s (fi acc.trials));
    m "rng.fingerprint_us_per_trial" "us" (1e6 *. ratio acc.fp_s (fi acc.trials));
    m "runner.execute_us_per_trial" "us" (1e6 *. ratio acc.exec_s (fi exe));
    m "monitor.us_per_trial" "us" (1e6 *. ratio acc.mon_s (fi exe));
    m "runner.dedup_hit_frac" "ratio" (per acc.deduped acc.trials);
    m "pool.fixed_ms_per_sweep" "ms" (1000.0 *. ratio acc.fixed_s (fi acc.sweeps));
    m "pool.domains" "count" (per acc.domains acc.sweeps);
    m "pool.claim_imbalance" "ratio" (ratio acc.imbalance (fi acc.sweeps));
    m "shrink.reexec_per_cex" "count" (per acc.shrink_calls acc.cexs);
    m "shrink.ms_per_cex" "ms" (1000.0 *. ratio acc.shrink_s (fi acc.cexs));
    m "engine.steps_per_trial" "count" (per acc.steps exe);
    m "network.msgs_per_trial" "count" (per acc.sent exe);
    m "network.dropped_frac" "ratio" (per acc.dropped acc.sent);
    m "mem.reg_ops_per_trial" "count" (per acc.reg_ops exe);
    m "mem.blocked_per_trial" "count" (per acc.blocked exe);
    m "runner.execute_attributed_frac" "ratio" attributed;
    m "gc.minor_words_per_trial" "words" (ratio acc.minor_words (fi exe));
    m "gc.major_collections" "count" (fi acc.major);
    m "trace.overhead_frac" "ratio" (ratio (acc.count_exec_s -. acc.exec_s) acc.exec_s);
    m "check.cex_found_frac" "ratio" (per acc.found acc.sweeps);
  ]

(* Names whose values are functions of the seed alone. *)
let exact_layer =
  [ "runner.dedup_hit_frac"; "shrink.reexec_per_cex"; "engine.steps_per_trial";
    "network.msgs_per_trial"; "network.dropped_frac"; "mem.reg_ops_per_trial";
    "mem.blocked_per_trial"; "check.cex_found_frac" ]

(* Traced sweeps over [cfgs] (each with its master seed); [unit] says
   what [attempted] counts: the trials of one sweep (check-clean) or
   the sweeps (check-cex), all failed when a cross-check fails. *)
let traced ~jobs (k : Kernels.t) cfgs ~unit =
  let errors = ref [] in
  let acc = new_acc () in
  List.iter
    (fun (c, master_seed, budget) -> trace_sweep acc errors k c ~master_seed ~budget ~jobs)
    cfgs;
  let layer = layer_metrics acc errors in
  let attempted = match unit with `Trials -> acc.trials | `Sweeps -> acc.sweeps in
  let failed =
    if !errors <> [] then attempted
    else match unit with `Trials -> 0 | `Sweeps -> acc.sweeps - acc.found
  in
  { attempted; failed; errors = List.rev !errors; e2e = []; named = []; layer;
    exact = exact_layer }

let cex_traced ~seed ~jobs k =
  traced ~jobs k
    (List.init exact_sweeps (fun i -> (nth_cfg i, cex_seed seed i, cex_budget)))
    ~unit:`Sweeps

(* Shrink runs only on a violation, so check-clean's traced run takes
   the Shrink metrics from the counterexample sweeps check-cex starts
   with; everything else comes from the clean sweep. *)
let from_cex = [ "shrink.reexec_per_cex"; "shrink.ms_per_cex"; "check.cex_found_frac" ]

let clean_traced ~seed ~jobs k =
  let r = traced ~jobs k [ (clean, clean_seed seed 0, clean_budget) ] ~unit:`Trials in
  let c = cex_traced ~seed ~jobs k in
  {
    r with
    failed = (if c.failed > 0 then r.attempted else r.failed);
    errors = r.errors @ c.errors;
    layer =
      List.map
        (fun x ->
          if List.mem x.name from_cex then List.find (fun y -> y.name = x.name) c.layer
          else x)
        r.layer;
  }
