(* perfbench: the repository's end-to-end benchmark.  See
   perfbench/README.md for the workloads, the metrics and how to run
   it; perfbench/run.py builds this executable and passes its
   arguments through. *)

open Util

let workloads = [ "check-clean"; "check-cex"; "kv-failover"; "bign-threshold" ]

(* Every untraced run reports exactly these, in this order. *)
let e2e_spec =
  [ ("setup_s", "s"); ("heap_peak_mb", "MB"); ("ok_frac", "ratio");
    ("work_per_ref", "1/ref") ]

(* Every traced run reports exactly these; a layer a workload does not
   enter reads 0. *)
let layer_spec =
  [
    ("host.calibration_ns", "ns");
    ("runner.cfg_ms", "ms");
    ("runner.gen_us_per_trial", "us");
    ("rng.fingerprint_us_per_trial", "us");
    ("runner.execute_us_per_trial", "us");
    ("monitor.us_per_trial", "us");
    ("runner.dedup_hit_frac", "ratio");
    ("pool.fixed_ms_per_sweep", "ms");
    ("pool.domains", "count");
    ("pool.claim_imbalance", "ratio");
    ("shrink.reexec_per_cex", "count");
    ("shrink.ms_per_cex", "ms");
    ("engine.steps_per_trial", "count");
    ("network.msgs_per_trial", "count");
    ("network.dropped_frac", "ratio");
    ("mem.reg_ops_per_trial", "count");
    ("mem.blocked_per_trial", "count");
    ("engine.ns_per_step", "ns");
    ("engine.ns_per_step_bign", "ns");
    ("network.ns_per_msg_dense", "ns");
    ("network.ns_per_msg_sparse", "ns");
    ("mem.ns_per_read_native", "ns");
    ("mem.ns_per_write_native", "ns");
    ("mem.ns_per_op_emulated", "ns");
    ("mem.msgs_per_op_emulated", "count");
    ("rng.ns_per_draw", "ns");
    ("runner.execute_attributed_frac", "ratio");
    ("check.cex_found_frac", "ratio");
    ("workload.gen_ms", "ms");
    ("kv.steps_per_op", "count");
    ("kv.msgs_per_op", "count");
    ("kv.reg_ops_per_op", "count");
    ("kv.remote_reg_frac", "ratio");
    ("kv.duplicate_applies", "count");
    ("kv.timeouts", "count");
    ("kv.shard_ops_per_kstep", "1/kstep");
    ("kv.get_p50_ticks", "ticks");
    ("kv.get_p99_ticks", "ticks");
    ("kv.put_p50_ticks", "ticks");
    ("kv.put_p99_ticks", "ticks");
    ("kv.failover_p99_ticks", "ticks");
    ("kv.recovery_ticks", "ticks");
    ("kv.capacity_ops_per_kstep", "1/kstep");
    ("expansion.certificates_ms", "ms");
    ("hbo.msgs_per_step", "ratio");
    ("hbo.reg_ops_per_step", "ratio");
    ("gc.minor_words_per_trial", "words");
    ("gc.minor_words_per_op", "words");
    ("gc.minor_words_per_step", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

(* Seeds used while the benchmark and its bounds were written; any
   other seed is held out. *)
let tuning_seeds =
  List.init 65 (fun i -> i + 1) @ List.init 10 (fun i -> 101 + i) @ List.init 10 (fun i -> 201 + i)

type host = { nproc : int; calibration_ns : float }

let run_workload ~host ~jobs ~seed ~seconds ~trace name =
  if not trace then
    match name with
    | "check-clean" -> Check_wl.clean_e2e ~seed ~seconds
    | "check-cex" -> Check_wl.cex_e2e ~seed ~seconds ~jobs
    | "kv-failover" -> Kv_wl.e2e ~seed ~seconds
    | _ -> Bign_wl.e2e ~seed ~seconds
  else begin
    let k = Kernels.measure () in
    let r =
      match name with
      | "check-clean" -> Check_wl.clean_traced ~seed ~jobs k
      | "check-cex" -> Check_wl.cex_traced ~seed ~jobs k
      | "kv-failover" -> Kv_wl.traced ~seed
      | _ -> Bign_wl.traced ~seed
    in
    { r with
      layer = (m "host.calibration_ns" "ns" host.calibration_ns :: Kernels.metrics k) @ r.layer;
      exact = "mem.msgs_per_op_emulated" :: r.exact }
  end

(* The metrics the result line carries: exactly [spec], in its order. *)
let select spec (ms : metric list) =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name spec) then
        failwith ("metric " ^ x.name ^ " is not in the spec"))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with
      | Some x -> x
      | None -> m name unit_ 0.0)
    spec

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-34s %18.6g  %s\n" x.name x.value x.unit_) ms

(* Runs [name] and prints its tables; returns the metrics for the
   result line, and whether every check passed. *)
let report ~host ~jobs ~seed ~seconds ~trace name =
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n%!" name seed seconds
    (if trace then 1 else 0);
  let r = run_workload ~host ~jobs ~seed ~seconds ~trace name in
  let spec = if trace then layer_spec else e2e_spec in
  let ms = select spec (if trace then r.layer else r.e2e) in
  let ms =
    List.map
      (fun x ->
        if Float.is_finite x.value then x
        else begin
          Printf.eprintf "perfbench: %s: %s is not a number\n" name x.name;
          { x with value = 0.0 }
        end)
      ms
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) (if trace then r.layer else r.e2e) in
  if r.named <> [] then print_table "  workload metrics:" r.named;
  print_table (if trace then "  per-layer metrics:" else "  end-to-end metrics:") ms;
  List.iter (fun e -> Printf.eprintf "perfbench: FAILED %s\n" e) r.errors;
  let correct = r.errors = [] && r.failed = 0 && finite in
  (r, ms, correct)

let print_host ~host ~jobs ~seed =
  Printf.printf
    "host: {\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %S, \
     \"calibration_ns\": %s, \"jobs\": %d, \"seed\": %d, \"seed_held_out\": %b}\n"
    host.nproc (Domain.recommended_domain_count ()) Sys.ocaml_version
    (json_float host.calibration_ns) jobs seed (not (List.mem seed tuning_seeds))

let print_result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics ms)

(* Self-test: every workload twice with one seed, traced and untraced;
   the exact metrics must agree bit for bit. *)
let selftest ~host ~jobs ~seed =
  let exact_values ~trace name =
    let r = run_workload ~host ~jobs ~seed ~seconds:0.5 ~trace name in
    List.filter_map
      (fun x -> if List.mem x.name r.exact then Some (x.name, x.value) else None)
      (r.named @ r.layer)
  in
  let ok =
    List.for_all
      (fun name ->
        List.for_all
          (fun trace ->
            let a = exact_values ~trace name and b = exact_values ~trace name in
            let same =
              List.length a > 0
              && List.for_all2 (fun (n, x) (n', y) -> n = n' && Int64.bits_of_float x = Int64.bits_of_float y) a b
            in
            Printf.printf "selftest %-15s trace=%d %d exact metric(s): %s\n%!" name
              (if trace then 1 else 0) (List.length a) (if same then "identical" else "DIFFER");
            if not same then
              List.iter2 (fun (n, x) (_, y) -> Printf.printf "  %s: %.17g vs %.17g\n" n x y) a b;
            same)
          [ false; true ])
      workloads
  in
  exit (if ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload {check-clean|check-cex|kv-failover|bign-threshold|all} \
     --seed N --seconds S --trace {0|1} [--nproc P]\n       main.exe --selftest [--seed N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and self = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; parse rest
    | "--selftest" :: rest -> self := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) || !nproc < 1 then usage ();
  (* The override would let sweeps run more domains than processors. *)
  if Sys.getenv_opt "MM_CHECK_MAX_DOMAINS" <> None then begin
    prerr_endline "perfbench: unset MM_CHECK_MAX_DOMAINS first";
    exit 2
  end;
  let host = { nproc = !nproc; calibration_ns = Kernels.calibration_ns () } in
  (* Sweep with one domain per processor, as `mm check --jobs nproc`;
     Runner caps it at the recommended domain count. *)
  let jobs = !nproc in
  if !self then selftest ~host ~jobs ~seed:!seed;
  let names =
    if !workload = "all" then workloads
    else if List.mem !workload workloads then [ !workload ]
    else usage ()
  in
  print_host ~host ~jobs ~seed:!seed;
  let trace = !trace = 1 in
  let results =
    List.map
      (fun name -> (name, report ~host ~jobs ~seed:!seed ~seconds:!seconds ~trace name))
      names
  in
  let correct = List.for_all (fun (_, (_, _, c)) -> c) results in
  let attempted = List.fold_left (fun a (_, (r, _, _)) -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a (_, (r, _, _)) -> a + r.failed) 0 results in
  let ms =
    match results with
    | [ (_, (_, ms, _)) ] -> ms
    | _ -> List.concat_map (fun (name, (_, ms, _)) -> List.map (fun x -> { x with name = name ^ "/" ^ x.name }) ms) results
  in
  print_result ~correct ~attempted ~failed ms;
  exit (if correct then 0 else 1)
