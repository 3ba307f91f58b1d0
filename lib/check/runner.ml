module Rng = Mm_rng.Rng
module Trace = Mm_sim.Trace
module Arena = Mm_sim.Arena

type counterexample = {
  trial : int;
  trial_seed : int;
  property : string;
  detail : string;
  config : Config.t;
  shrunk : Config.t;
  trace : Mm_sim.Trace.event list;
}

type report = {
  algo : string;
  budget : int;
  trials_run : int;
  distinct_trials : int;
  deduped : int;
  violation : counterexample option;
}

type domain_stat = { claimed : int; executed : int; dedup_hits : int }

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)

let pp_counterexample fmt cx =
  Format.fprintf fmt "VIOLATION at trial %d (seed %d)@." cx.trial
    cx.trial_seed;
  Format.fprintf fmt "  property: %s@." cx.property;
  Format.fprintf fmt "  detail:   %s@." cx.detail;
  Format.fprintf fmt "  config:@.";
  Config.pp fmt cx.config;
  (match cx.shrunk with
  | [] -> ()
  | lines ->
    Format.fprintf fmt "  shrunk (minimal reproducer):@.";
    Config.pp fmt lines);
  (match cx.trace with
  | [] -> ()
  | trace ->
    Format.fprintf fmt "  trailing trace (last %d event(s)):@."
      (List.length trace);
    List.iter (fun e -> Format.fprintf fmt "    %a@." Trace.pp_event e) trace);
  Format.fprintf fmt "  replay: rerun with --replay %d to reproduce@."
    cx.trial_seed

let pp_domain_stats fmt stats =
  Format.fprintf fmt "per-domain sweep stats (%d domain(s)):@."
    (Array.length stats);
  Array.iteri
    (fun w s ->
      Format.fprintf fmt "  d%d: claimed %d  executed %d  dedup-hits %d@." w
        s.claimed s.executed s.dedup_hits)
    stats

let pp_report fmt r =
  match r.violation with
  | None ->
    Format.fprintf fmt
      "%s: %d/%d trial(s) passed, no violation found (%d distinct, %d \
       deduped)@."
      r.algo r.trials_run r.budget r.distinct_trials r.deduped
  | Some cx ->
    Format.fprintf fmt
      "%s: violation found after %d trial(s) (%d distinct, %d deduped)@.%a"
      r.algo r.trials_run r.distinct_trials r.deduped pp_counterexample cx

(* ------------------------------------------------------------------ *)
(* The generic sweep engine                                           *)

(* 62-bit non-negative trial seeds: the full width [Rng.create] accepts
   (minus the sign and one bit of slack for the CLI's plain-int
   parsing), so trial generation gets the master stream's entropy
   instead of a 30-bit slice of it. *)
let trial_seed_of rng = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

(* The effective worker-domain ceiling for parallel sweeps.  Read per
   sweep so tests (and operators) can adjust it between runs. *)
let max_workers () =
  match Sys.getenv_opt "MM_CHECK_MAX_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some k when k >= 1 -> k
    | Some _ | None -> Stdlib.Domain.recommended_domain_count ())
  | None -> Stdlib.Domain.recommended_domain_count ()

(* Distinct-trial accounting over the generation fingerprints of trials
   [0, trials_run).  Computed from the recorded fingerprint array after
   the sweep, never from the racy execution-skipping decisions, so the
   reported numbers are identical for every [jobs]/[chunk] setting. *)
let count_distinct fps trials_run =
  let seen = Hashtbl.create (2 * trials_run) in
  let d = ref 0 in
  for i = 0 to trials_run - 1 do
    if not (Hashtbl.mem seen fps.(i)) then begin
      Hashtbl.add seen fps.(i) ();
      incr d
    end
  done;
  !d

(* The domain-local trial state of one sweep worker.  Nothing in here is
   ever touched by another domain while the pool runs: the dedup memo is
   private (a duplicate first seen by two different domains executes in
   both — wasted work, never a wrong number).  The only shared array a
   worker writes is the per-trial fingerprint array, and only at the
   indices it evaluates; the pool evaluates each index at most once, so
   no two domains ever write the same slot. *)
type wctx = {
  arena : Arena.t;
  memo : (int, unit) Hashtbl.t;  (* fingerprints THIS domain saw clean *)
  mutable executed : int;
  mutable dedup_hits : int;
}

(* Driving one scenario: a trial is gen + execute + monitors, and a
   violating trial additionally delta-debugs itself through the
   scenario's [shrink], re-running candidate trials and keeping a
   reduction only if the same property still fails. *)
module Drive (Sc : Scenario.S) = struct
  (* Generate the trial and digest the full draw stream.  Equal
     fingerprints mean byte-identical draw streams, hence identical
     trials, hence identical outcomes — the soundness premise of the
     dedup memo. *)
  let gen_fp cfg ~salt ~trial_seed =
    let rng = Rng.create trial_seed in
    Rng.fingerprint_start rng;
    let t = Sc.gen cfg rng in
    (t, Rng.fingerprint rng lxor salt)

  let check ?arena cfg t =
    let o = Sc.execute ?arena cfg t in
    Monitor.first_failure (Sc.monitors cfg t) o

  let run_one ?arena cfg ~trial_seed =
    let rng = Rng.create trial_seed in
    let t = Sc.gen cfg rng in
    let o = Sc.execute ?arena cfg t in
    (t, o, Monitor.first_failure (Sc.monitors cfg t) o)

  let run_trial ?arena cfg ~trial ~trial_seed =
    let t, o, failure = run_one ?arena cfg ~trial_seed in
    match failure with
    | None -> None
    | Some (property, detail) ->
      let still_fails cand =
        let o' = Sc.execute ?arena cfg cand in
        match Monitor.first_failure (Sc.monitors cfg cand) o' with
        | Some (p, _) -> String.equal p property
        | None -> false
      in
      Some
        {
          trial;
          trial_seed;
          property;
          detail;
          config = Sc.config cfg t;
          shrunk = Sc.shrink cfg ~still_fails t;
          trace = Sc.trace o;
        }
end

(* Sweeps come in two phases so that fan-out stays deterministic:
   detection is the cheap violation predicate run (possibly in
   parallel) on every trial seed, and [run_trial] re-runs one trial in
   full — including delta-debug shrinking — to package the
   counterexample.  Every sweep, at every [jobs], runs detection through
   {!Pool.find_first} (one worker runs inline on the calling domain);
   the reported violation is the one with the lowest trial index among
   all hits (not the first to complete), and shrinking runs
   single-threaded on that trial's seed, so reports are bit-for-bit
   identical at every [jobs] setting.

   Each worker owns one reusable {!Mm_sim.Arena}, so a sweep allocates
   one simulator per domain instead of one per trial.  Clean trials
   whose generation fingerprint was already seen clean {e by the same
   domain} are counted but not re-executed; the dedup tables are
   domain-private (zero cross-domain traffic on the trial path).  Each
   worker records [fps.(i)] in place for every index it evaluates;
   every index up to the final frontier is evaluated by exactly one
   worker (the pool invariant), and [fps] is read only after the pool
   has joined, so the reported [distinct]/[deduped] split — recomputed
   from [fps] — is identical at every [jobs] setting.  Violating
   fingerprints are never memoized, so a duplicate of a violating trial
   always re-executes and the lowest-index hit is unchanged. *)
let sweep_stats (module Sc : Scenario.S) ?(master_seed = 1) ?budget ?(jobs = 1)
    ?chunk ~params () =
  if jobs < 1 then invalid_arg "Runner.sweep: jobs must be >= 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Runner.sweep: chunk must be >= 1"
  | Some _ | None -> ());
  let budget = Option.value budget ~default:Sc.default_budget in
  if budget < 0 then invalid_arg "Runner.sweep: budget must be >= 0";
  (* [jobs] is a maximum degree of parallelism, not a worker count to
     honor literally: domains beyond the core count only add
     stop-the-world synchronization (each minor collection barriers
     every domain), so oversubscribing a small machine makes sweeps
     slower, not faster.  Capping is observably safe — reports are
     jobs-invariant by construction (see the determinism tests).
     MM_CHECK_MAX_DOMAINS overrides the machine-derived cap; the
     determinism tests use it to drive the parallel path even on a
     single-core host. *)
  let jobs = min jobs (max_workers ()) in
  let module D = Drive (Sc) in
  let cfg = Sc.cfg_of_params params in
  (* The backend is resolved into [cfg], never drawn, so a native trial
     and its emulated twin share a draw stream.  Salting the generation
     fingerprint with the backend keeps their fingerprints disjoint —
     dedup can never conflate trials across backends (native sweeps keep
     their historical fingerprints: the native salt is 0). *)
  let fp_salt =
    Mm_mem.Mem.Backend.tag params.Scenario.backend * 0x2545F4914F6CDD1D
  in
  (* Trial i's seed is the i-th draw of the master stream, pre-drawn so
     any worker can evaluate any index. *)
  let rng = Rng.create master_seed in
  let seeds = Array.init budget (fun _ -> trial_seed_of rng) in
  let fps = Array.make budget 0 in
  let new_ctx _wid =
    { arena = Arena.create (); memo = Hashtbl.create 64; executed = 0;
      dedup_hits = 0 }
  in
  let detect ctx i =
    let t, fp = D.gen_fp cfg ~salt:fp_salt ~trial_seed:seeds.(i) in
    fps.(i) <- fp;
    if Hashtbl.mem ctx.memo fp then begin
      ctx.dedup_hits <- ctx.dedup_hits + 1;
      false
    end
    else begin
      ctx.executed <- ctx.executed + 1;
      match D.check ~arena:ctx.arena cfg t with
      | None ->
        Hashtbl.add ctx.memo fp ();
        false
      | Some _ -> true
    end
  in
  let r = Pool.find_first ~jobs ?chunk ~init:new_ctx ~budget detect in
  let stats =
    Array.mapi
      (fun w ctx ->
        { claimed = r.Pool.claimed.(w); executed = ctx.executed;
          dedup_hits = ctx.dedup_hits })
      r.Pool.ctxs
  in
  let trials_run, violation =
    match r.Pool.found with
    | None -> (budget, None)
    | Some i -> (
      match
        D.run_trial ~arena:r.Pool.ctxs.(0).arena cfg ~trial:i
          ~trial_seed:seeds.(i)
      with
      | Some cx -> (i + 1, Some cx)
      | None ->
        (* A trial is a pure function of its seed, so the detect hit
           must reproduce. *)
        assert false)
  in
  let distinct_trials = count_distinct fps trials_run in
  ( {
      algo = Sc.name;
      budget;
      trials_run;
      distinct_trials;
      deduped = trials_run - distinct_trials;
      violation;
    },
    stats )

let sweep sc ?master_seed ?budget ?jobs ?chunk ~params () =
  fst (sweep_stats sc ?master_seed ?budget ?jobs ?chunk ~params ())

let replay (module Sc : Scenario.S) ~params ~trial_seed () =
  let module D = Drive (Sc) in
  let cfg = Sc.cfg_of_params params in
  let violation = D.run_trial cfg ~trial:0 ~trial_seed in
  {
    algo = Sc.name;
    budget = 1;
    trials_run = 1;
    distinct_trials = 1;
    deduped = 0;
    violation;
  }

let preamble (module Sc : Scenario.S) ~params =
  Sc.preamble (Sc.cfg_of_params params)
