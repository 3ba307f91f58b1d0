(* bign-threshold: unanimous-input HBO probes at n = 961 on the
   Margulis expander, with crash sets from the expansion certificates
   (the E15 experiment's method, sized to a few probes). *)

open Util
module B = Mm_graph.Builders
module E = Mm_graph.Expansion
module G = Mm_graph.Graph
module Hbo = Mm_consensus.Hbo
module Net = Mm_net.Network
module Mem = Mm_mem.Mem

type probe = {
  f : int;
  crashes : (int * int) list;
  decides : bool;  (** the certificate's prediction: 2 * rep > n *)
  input : int;
  engine_seed : int;
}

type setup = { g : G.t; n : int; cert_f : int; probes : probe list; certs_s : float }

(* Enough for every probe predicted to decide (they decide in round 1
   within about 400k steps here); a probe predicted not to decide runs
   out this budget. *)
let probe_max_steps = 1_500_000

let setup ~seed =
  let g = B.margulis ~m:31 in
  let n = G.order g in
  let certs, certs_s = timed (fun () -> E.prefix_certificates g) in
  let minrep s = snd certs.(s - 1) in
  (* The largest f whose worst certificate prefix of n - f survivors
     still represents a majority. *)
  let cert_f =
    let f = ref 0 in
    while !f + 1 <= n - 1 && 2 * minrep (n - (!f + 1)) > n do incr f done;
    !f
  in
  let r = Rng.create (derive seed 1) in
  let input = Rng.int r 2 in
  (* Two probes below the threshold, one at it, one just past it. *)
  let offsets = [ -40 - Rng.int r 5; -10 - Rng.int r 5; 0; 1 + Rng.int r 5 ] in
  let probes =
    List.mapi
      (fun i off ->
        let f = cert_f + off in
        let s = n - f in
        let start, rep = certs.(s - 1) in
        {
          f;
          crashes = List.map (fun p -> (p, 0)) (E.prefix_crash_set g ~start ~size:s);
          decides = 2 * rep > n;
          input;
          engine_seed = derive seed (10 + i);
        })
      offsets
  in
  { g; n; cert_f; probes; certs_s }

let run_probe st p =
  Hbo.run ~seed:p.engine_seed ~impl:Hbo.Trusted ~max_steps:probe_max_steps ~graph:st.g
    ~crashes:p.crashes ~inputs:(Array.make st.n p.input) ()

let verify st p (o : Hbo.outcome) =
  let decided = Hbo.all_correct_decided o in
  if decided <> p.decides then
    Some (Printf.sprintf "bign-threshold: f=%d %s, certificate predicts %s" p.f
            (if decided then "decided" else "undecided")
            (if p.decides then "decided" else "undecided"))
  else if not (Hbo.agreement o && Hbo.validity ~inputs:(Array.make st.n p.input) o) then
    Some (Printf.sprintf "bign-threshold: f=%d broke agreement or validity" p.f)
  else None

(* One pass: every probe with its outcome and wall seconds. *)
let run_pass st = List.map (fun p -> (p, timed (fun () -> run_probe st p))) st.probes

let e2e ~seed ~seconds =
  let st = setup ~seed in
  (* The same probes every pass; their step counts must repeat. *)
  let runs =
    ref_passes ~seconds
      ~setup:(fun () -> ignore (setup ~seed))
      (fun _ ->
        let pass =
          List.map
            (fun (p, (o, w)) -> ((o.Hbo.total_steps, verify st p o), w))
            (run_pass st)
        in
        (pass, sum (List.map snd pass)))
  in
  let heap = heap_mb () in
  let steps pass = List.map (fun ((s, _), _) -> s) pass in
  let total_steps pass = fi (List.fold_left ( + ) 0 (steps pass)) in
  let first = steps (List.hd runs).out in
  let nprobes = List.length st.probes in
  let failures run =
    List.filter_map (fun ((_, v), _) -> v) run.out
    @ (if steps run.out = first then [] else [ "bign-threshold: rerun drifted" ])
  in
  let attempted = nprobes * List.length runs in
  let failed =
    List.fold_left (fun a run -> a + min nprobes (List.length (failures run))) 0 runs
  in
  {
    attempted;
    failed;
    errors = List.sort_uniq compare (List.concat_map failures runs);
    e2e = e2e_metrics ~heap ~attempted ~failed ~work:total_steps runs;
    named =
      wall_metrics ~name:"bign_steps_per_s" ~work:total_steps runs
      @ [
          m "passes" "count" (fi (List.length runs));
          m "cert_f" "count" (fi st.cert_f);
          m "probe_steps" "count" (fi (List.fold_left ( + ) 0 first));
        ];
    layer = [];
    exact = [ "cert_f"; "probe_steps" ];
  }

let traced ~seed =
  let errors = ref [] in
  let st = setup ~seed in
  Gc.full_major ();
  let untraced = sum (List.map (fun (_, (_, w)) -> w) (run_pass st)) in
  Gc.full_major ();
  let g = Gc.quick_stat () in
  let pass, traced_s = timed (fun () -> run_pass st) in
  let g' = Gc.quick_stat () in
  List.iter (fun (p, (o, _)) -> Option.iter (fun e -> errors := e :: !errors) (verify st p o)) pass;
  let total f = fi (List.fold_left (fun a (_, (o, _)) -> a + f o) 0 pass) in
  let steps = total (fun o -> o.Hbo.total_steps) in
  {
    attempted = List.length pass;
    failed = (if !errors = [] then 0 else List.length pass);
    errors = List.rev !errors;
    e2e = [];
    named = [];
    layer =
      [
        m "expansion.certificates_ms" "ms" (1000.0 *. st.certs_s);
        m "hbo.msgs_per_step" "ratio" (total (fun o -> o.Hbo.net.Net.sent) /. steps);
        m "hbo.reg_ops_per_step" "ratio" (total (fun o -> Mem.total_ops o.Hbo.mem_total) /. steps);
        m "gc.minor_words_per_step" "words" ((g'.Gc.minor_words -. g.Gc.minor_words) /. steps);
        m "gc.major_collections" "count" (fi (g'.Gc.major_collections - g.Gc.major_collections));
        m "trace.overhead_frac" "ratio" ((traced_s -. untraced) /. untraced);
      ];
    exact = [ "hbo.msgs_per_step"; "hbo.reg_ops_per_step" ];
  }
