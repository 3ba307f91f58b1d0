(* scaling_gate — `dune build @scaling-gate`: the sweep-scaling curve.

   One clean 48-trial hbo sweep (master seed 7, complete graph, n = 4) is
   timed wall-clock at jobs 1, 2, 4 and 8: one warm-up run keeps one-time
   setup out of the jobs-1 baseline, then each setting is the best of 3.
   Unlike @scaling-smoke the Runner's core-count cap stays on, so a jobs
   setting above the core count runs one domain per core and the curve is
   judged only where the host can scale:

   - monotone within 10%: for each jobs setting up to the core count, the
     speedup over jobs 1 is at least 0.9x the previous setting's;
   - a floor on the jobs-4 speedup: 2.5x on a host with >= 4 cores, else
     0.5x (no collapse; fewer cores cap the sweep below 4 domains).

   It measures wall time, so it is environment-noisy and stays out of
   @ci; run it on a quiet host. *)

module B = Mm_graph.Builders
module Scenario = Mm_check.Scenario
module Runner = Mm_check.Runner

let params =
  {
    Scenario.default_params with
    graph = Some (B.complete 4);
    n = 4;
    max_steps = Some 20_000;
    crash_window = Some 2_000;
    warmup = Some 8_000;
    window = Some 2_000;
  }

let budget = 48
let repeat = 3
let jobs_list = [ 1; 2; 4; 8 ]

let sweep jobs =
  Runner.sweep_stats
    (module Mm_check.Scenario_hbo)
    ~master_seed:7 ~budget ~jobs ~params ()

(* Best-of-[repeat] wall time of one sweep, and the domains it ran. *)
let time jobs =
  let best = ref infinity and domains = ref 0 in
  for _ = 1 to repeat do
    let t0 = Unix.gettimeofday () in
    let _, stats = sweep jobs in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    domains := Array.length stats
  done;
  (!best, !domains)

let () =
  ignore (sweep 1);
  let cores = Stdlib.Domain.recommended_domain_count () in
  let measured = List.map (fun jobs -> (jobs, time jobs)) jobs_list in
  let t1, _ = List.assoc 1 measured in
  let curve = List.map (fun (jobs, (t, d)) -> (jobs, d, t, t1 /. t)) measured in
  Printf.printf "scaling gate: %d-trial hbo sweep, best of %d, %d core(s)\n"
    budget repeat cores;
  Printf.printf "%5s %8s %10s %8s\n" "jobs" "domains" "ms/sweep" "speedup";
  List.iter
    (fun (jobs, domains, t, s) ->
      Printf.printf "%5d %8d %10.1f %8.2f\n" jobs domains (t *. 1e3) s)
    curve;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let rec monotone = function
    | (ja, _, _, sa) :: ((jb, _, _, sb) :: _ as rest) ->
      if jb <= cores && sb < 0.9 *. sa then
        fail "curve collapses: jobs %d speedup %.2f drops to %.2f at jobs %d"
          ja sa sb jb;
      monotone rest
    | _ -> ()
  in
  monotone curve;
  let _, _, _, s4 = List.find (fun (jobs, _, _, _) -> jobs = 4) curve in
  let floor = if cores >= 4 then 2.5 else 0.5 in
  if s4 < floor then
    fail "jobs 4 speedup %.2f below the %.1fx floor for a %d-core host" s4
      floor cores;
  match List.rev !failures with
  | [] -> print_endline "scaling gate: ok"
  | msgs ->
    List.iter (fun m -> print_endline ("FAIL: " ^ m)) msgs;
    exit 1
