(* kv-failover: one long open-loop run of the sharded KV service with a
   shard-leader restart in the middle, plus a short fault-free rate
   ladder for capacity. *)

open Util
module Kv = Mm_kv.Kv
module W = Mm_kv.Workload
module H = Mm_kv.Histogram
module Nemesis = Mm_check.Nemesis
module Monitor = Mm_check.Monitor
module Net = Mm_net.Network
module Mem = Mm_mem.Mem

let shards = 2
let replicas = 3
let ops = 20_000

(* The `mm kv` defaults: 40 ticks between arrivals (25 ops/kstep), 80%
   gets, Zipf(0.9) keys over 128. *)
let spec ~ops ~gap =
  { W.clients = 300; ops; mean_gap = gap; key_space = 128; theta = 0.9;
    read_fraction = 0.8 }

let gap = 40.0
let span = int_of_float (fi ops *. gap)

(* Shard 0's initial leader (pid 0) is crashed at mid-run and rebooted
   through its recovery closure [restart_len] ticks later: a tenth of
   the run, long enough for about 1100 shard-0 arrivals, so the
   window's p99 has ten samples above it. *)
let crash_at = span / 2
let restart_len = span / 10
let heal_at = crash_at + restart_len

(* Per-op client deadline: several restart windows, so a request stuck
   behind the restart still completes in time while a wedged shard
   shows up as timeouts. *)
let op_timeout = 5 * restart_len
let max_steps = (4 * span) + (10 * op_timeout)

let gen_workload ~seed ~ops ~gap =
  W.gen (Rng.create (derive seed 1)) (spec ~ops ~gap) ~replicas

let run_failover ~seed workload =
  let timeline =
    [ { Nemesis.at = crash_at; duration = restart_len; fault = Nemesis.Restart [ 0 ] } ]
  in
  Kv.run ~seed:(derive seed 2) ~max_steps ~prepare:(Nemesis.install timeline)
    ~op_timeout ~shards ~replicas ~workload ()

let q h p = match H.percentile h p with Some v -> fi v | None -> nan
let shard_of (rc : Kv.op_record) = rc.Kv.req.W.key mod shards

(* Every get returns either the initial 0 or the value of a put on its
   key that was applied and had arrived before the get completed, and
   never a value older (in its shard's log order) than a put on that key
   that completed before the get arrived.  [Monitor.kv_linearizable]
   checks only keys with at most 62 completed ops, which this run's
   keys all exceed, so this is the check that covers gets here. *)
let stale_reads (o : Kv.outcome) =
  let slot = Hashtbl.create 4096 in
  for s = 0 to shards - 1 do
    let longest = ref [] and len = ref (-1) in
    for r = 0 to replicas - 1 do
      let l = o.Kv.logs.((s * replicas) + r) in
      let n = List.length l in
      if n > !len then begin longest := l; len := n end
    done;
    List.iter (fun (sl, id) -> if not (Hashtbl.mem slot id) then Hashtbl.add slot id sl) !longest
  done;
  (* Puts at their completion, gets at their arrival; a put counts for
     a get only when it completed strictly before the get arrived. *)
  let events = ref [] in
  Array.iteri
    (fun id (rc : Kv.op_record) ->
      match rc.Kv.req.W.op with
      | W.Put _ ->
        if rc.Kv.completion >= 0 && Hashtbl.mem slot id then
          events := (rc.Kv.completion, 0, id) :: !events
      | W.Get -> if rc.Kv.completion >= 0 then events := (rc.Kv.req.W.arrival, -1, id) :: !events)
    o.Kv.ops;
  let latest = Hashtbl.create 256 in
  let bad = ref 0 in
  List.iter
    (fun (_, kind, id) ->
      let rc = o.Kv.ops.(id) in
      let key = rc.Kv.req.W.key in
      if kind = 0 then begin
        let sl = Hashtbl.find slot id in
        match Hashtbl.find_opt latest key with
        | Some s when s >= sl -> ()
        | _ -> Hashtbl.replace latest key sl
      end
      else
        let floor = Option.value (Hashtbl.find_opt latest key) ~default:(-1) in
        let v = rc.Kv.result in
        let ok =
          if v = 0 then floor < 0
          else
            v - 1 < Array.length o.Kv.ops
            &&
            let p = o.Kv.ops.(v - 1) in
            p.Kv.req.W.op = W.Put v && p.Kv.req.W.key = key
            && p.Kv.req.W.arrival <= rc.Kv.completion
            && (match Hashtbl.find_opt slot (v - 1) with
               | Some sl -> sl >= floor
               | None -> false)
        in
        if not ok then incr bad)
    (List.sort compare !events);
  !bad

let verdict name = function
  | Monitor.Pass -> None
  | Monitor.Fail why -> Some (name ^ ": " ^ why)

let verify (o : Kv.outcome) =
  let in_time =
    Array.fold_left (fun a rc -> if rc.Kv.completion >= 0 && not rc.Kv.expired then a + 1 else a) 0 o.Kv.ops
  in
  let stale = stale_reads o in
  List.filter_map Fun.id
    [
      verdict "kv-log-consistent" (Monitor.kv_log_consistent o);
      verdict "kv-linearizable" (Monitor.kv_linearizable o);
      verdict "kv-durable" (Monitor.kv_durable o);
      (if o.Kv.duplicate_applies = 0 then None
       else Some (Printf.sprintf "%d duplicate applies" o.Kv.duplicate_applies));
      (if in_time + o.Kv.timeouts = Array.length o.Kv.ops then None
       else Some (Printf.sprintf "%d in time + %d timeouts <> %d ops" in_time o.Kv.timeouts (Array.length o.Kv.ops)));
      (if stale = 0 then None else Some (Printf.sprintf "%d stale or impossible get result(s)" stale));
      (if o.Kv.reason = Mm_sim.Engine.Stopped then None
       else Some "run hit its step limit before every request closed");
    ]

(* The simulated outcome of the failover run, in ticks. *)
let latency_metrics (o : Kv.outcome) =
  let w ?shard op from until = Kv.window_hist o ?shard ~op ~from ~until () in
  (* Steady state: the fault-free first half, less the requests still
     in flight when the leader goes down. *)
  let steady op = w op 0 (crash_at - 1000) in
  let recovery =
    Array.fold_left
      (fun best (rc : Kv.op_record) ->
        if shard_of rc = 0 && rc.Kv.req.W.arrival >= crash_at && rc.Kv.completion >= 0
        then min best (rc.Kv.completion - crash_at)
        else best)
      max_int o.Kv.ops
  in
  [
    m "get_p50_ticks" "ticks" (q (steady `Get) 50.0);
    m "get_p99_ticks" "ticks" (q (steady `Get) 99.0);
    m "put_p50_ticks" "ticks" (q (steady `Put) 50.0);
    m "put_p99_ticks" "ticks" (q (steady `Put) 99.0);
    m "failover_p99_ticks" "ticks" (q (w ~shard:0 `All crash_at heal_at) 99.0);
    m "recovery_ticks" "ticks" (if recovery = max_int then nan else fi recovery);
  ]

(* Capacity: fault-free runs at fixed total rates; the answer is the
   highest rate whose put p99 stays within [put_p99_limit] ticks both
   over the run and over its last quarter of arrivals (a growing
   backlog shows there first), with every request complete. *)
let ladder = [ 25.0; 50.0; 75.0; 100.0; 150.0; 200.0; 300.0 ]
let ladder_ops = 4000
let put_p99_limit = 1000

let capacity ~seed =
  List.fold_left
    (fun best rate ->
      let g = 1000.0 /. rate in
      let wl = gen_workload ~seed:(seed + int_of_float rate) ~ops:ladder_ops ~gap:g in
      let sp = int_of_float (fi ladder_ops *. g) in
      let o =
        Kv.run ~seed:(derive seed 3) ~max_steps:(40 * sp) ~shards ~replicas ~workload:wl ()
      in
      let p99 from = q (Kv.window_hist o ~op:`Put ~from ~until:max_int ()) 99.0 in
      let ok =
        o.Kv.completed = ladder_ops
        && p99 0 <= fi put_p99_limit
        && p99 (3 * sp / 4) <= fi put_p99_limit
      in
      if ok then Float.max best rate else best)
    0.0 ladder

let counters (o : Kv.outcome) =
  (o.Kv.total_steps, o.Kv.completed, o.Kv.timeouts, o.Kv.net.Net.sent, Mem.total_ops o.Kv.mem_total)

let e2e ~seed ~seconds =
  let workload = gen_workload ~seed ~ops ~gap in
  (* The same run every pass; its counters must repeat exactly. *)
  let first = ref None in
  let runs =
    ref_passes ~seconds
      ~setup:(fun () -> ignore (gen_workload ~seed ~ops ~gap))
      (fun _ ->
        let o, w = timed (fun () -> run_failover ~seed workload) in
        if !first = None then first := Some o;
        ((counters o, o.Kv.completed), w))
  in
  let heap = heap_mb () in
  let o = Option.get !first in
  let problems = List.map (fun p -> "kv-failover: " ^ p) (verify o) in
  let drift = List.filter (fun p -> fst p.out <> counters o) runs in
  let passes = List.length runs in
  let attempted = ops * passes in
  let failed =
    if problems <> [] || drift <> [] then attempted else o.Kv.timeouts * passes
  in
  let completed (_, c) = fi c in
  let cap = capacity ~seed in
  {
    attempted;
    failed;
    errors =
      problems
      @ (if drift = [] then []
         else [ Printf.sprintf "kv-failover: %d rerun(s) of one input drifted" (List.length drift) ]);
    e2e = e2e_metrics ~heap ~attempted ~failed ~work:completed runs;
    named =
      wall_metrics ~name:"kv_ops_per_s" ~work:completed runs
      @ List.map (fun x -> { x with name = "kv_" ^ x.name }) (latency_metrics o)
      @ [ m "kv_capacity_ops_per_kstep" "1/kstep" cap; m "runs" "count" (fi passes) ];
    layer = [];
    exact =
      [ "kv_get_p50_ticks"; "kv_get_p99_ticks"; "kv_put_p50_ticks"; "kv_put_p99_ticks";
        "kv_failover_p99_ticks"; "kv_recovery_ticks"; "kv_capacity_ops_per_kstep" ];
  }

let traced ~seed =
  let errors = ref [] in
  let workload, gen_s = timed (fun () -> gen_workload ~seed ~ops ~gap) in
  Gc.full_major ();
  let o0, untraced = timed (fun () -> run_failover ~seed workload) in
  Gc.full_major ();
  let g = Gc.quick_stat () in
  let o, traced_s = timed (fun () -> run_failover ~seed workload) in
  let g' = Gc.quick_stat () in
  if counters o <> counters o0 then errors := "kv-failover: traced run drifted" :: !errors;
  List.iter (fun p -> errors := ("kv-failover: " ^ p) :: !errors) (verify o);
  let n = fi ops in
  let mem = o.Kv.mem_total in
  let total = Mem.total_ops mem in
  let remote = mem.Mem.reads_remote + mem.Mem.writes_remote in
  let shard_rate =
    List.init shards (fun s -> Kv.shard_throughput o ~shard:s) |> sum |> fun x -> x /. fi shards
  in
  let cap = capacity ~seed in
  {
    attempted = ops;
    failed = (if !errors = [] then o.Kv.timeouts else ops);
    errors = List.rev !errors;
    e2e = [];
    named = [];
    layer =
      [
        m "workload.gen_ms" "ms" (1000.0 *. gen_s);
        m "kv.steps_per_op" "count" (fi o.Kv.total_steps /. n);
        m "kv.msgs_per_op" "count" (fi o.Kv.net.Net.sent /. n);
        m "kv.reg_ops_per_op" "count" (fi total /. n);
        m "kv.remote_reg_frac" "ratio" (ratio (fi remote) (fi total));
        m "kv.duplicate_applies" "count" (fi o.Kv.duplicate_applies);
        m "kv.timeouts" "count" (fi o.Kv.timeouts);
        m "kv.shard_ops_per_kstep" "1/kstep" shard_rate;
        m "gc.minor_words_per_op" "words" ((g'.Gc.minor_words -. g.Gc.minor_words) /. n);
        m "gc.major_collections" "count" (fi (g'.Gc.major_collections - g.Gc.major_collections));
        m "trace.overhead_frac" "ratio" ((traced_s -. untraced) /. untraced);
      ]
      @ List.map (fun x -> { x with name = "kv." ^ x.name }) (latency_metrics o)
      @ [ m "kv.capacity_ops_per_kstep" "1/kstep" cap ];
    exact =
      [ "kv.steps_per_op"; "kv.msgs_per_op"; "kv.reg_ops_per_op"; "kv.remote_reg_frac";
        "kv.duplicate_applies"; "kv.timeouts"; "kv.shard_ops_per_kstep";
        "kv.get_p50_ticks"; "kv.get_p99_ticks"; "kv.put_p50_ticks";
        "kv.put_p99_ticks"; "kv.failover_p99_ticks"; "kv.recovery_ticks";
        "kv.capacity_ops_per_kstep" ];
  }
