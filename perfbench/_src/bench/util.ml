(* Clock, statistics, seed derivation and the result record shared by
   every workload. *)

module Rng = Mm_rng.Rng

(* ------------------------------------------------------------------ *)
(* Wall clock                                                          *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* [timed f] is [(f (), seconds f took)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [0 < p <= 100]; nan on no samples. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* [median_per_call ~reps f] times [f] in batches of at least 2 ms each
   (one call per batch when a call is slower; a first call sizes the
   batch) and returns the median per-call seconds over [reps] batches.
   Short set-up steps are far below timer and scheduler noise when
   timed once. *)
let median_per_call ~reps f =
  let _, once = timed f in
  let batch = max 1 (int_of_float (0.002 /. Float.max once 1e-9)) in
  List.init reps (fun _ ->
      let _, s =
        timed (fun () ->
            for _ = 1 to batch do
              f ()
            done)
      in
      s /. fi batch)
  |> median

(* The reference kernel: a fixed loop of short-lived allocation and
   updates to a small hash table, in no library code.  Its wall time
   moves with the host's memory system the way the workloads' does: on
   a 2-vCPU Xeon VM shared with other tenants, identical passes slowed
   by up to 1.9x while other tenants loaded the machine, and this
   kernel with them, while a pure ALU loop barely moved.  So a
   workload's wall time divided by the reference's, measured right next
   to it, says how fast the program is apart from that load.  Its
   garbage is collected before the pass it is paired with. *)
let reference () =
  let recent = ref [] and h = Hashtbl.create 4096 in
  for i = 1 to 400_000 do
    recent := (i, float_of_int i) :: !recent;
    if i land 4095 = 0 then recent := [];
    Hashtbl.replace h (i land 4095) [ i ]
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h, !recent))

type 'a pass = {
  out : 'a;
  wall : float;
  ref_wall : float;  (** mean of the reference runs before and after *)
  setup_wall : float;
  setup_ref : float;  (** [setup_wall] over the reference run after it *)
}

(* [ref_passes ~seconds ~setup f] calls [f 0], [f 1], ...; each call
   returns a result and the wall seconds it timed.  The reference kernel
   is timed, between full major collections, before the first call and
   after each one; a pass's [ref_wall] is the mean of the runs before
   and after it.  After each call [setup] is timed too
   ([median_per_call] over [setup_reps] batches, default 1), just
   before the reference run after the call, so set-up time is sampled
   across the whole run rather than in one moment.  It stops once
   [seconds] have passed since it started and at least [min] (default
   1) calls were made, and returns the passes in call order. *)
let ref_passes ~seconds ?(min = 1) ?(setup_reps = 1) ~setup f =
  let t0 = now () in
  let reference_s () =
    Gc.full_major ();
    let (), s = timed reference in
    Gc.full_major ();
    s
  in
  let rec go i before acc =
    if i >= min && since t0 >= seconds then List.rev acc
    else begin
      let out, wall = f i in
      let setup_wall = median_per_call ~reps:setup_reps setup in
      let after = reference_s () in
      let p =
        { out; wall; ref_wall = (before +. after) /. 2.0; setup_wall;
          setup_ref = setup_wall /. after }
      in
      go (i + 1) after (p :: acc)
    end
  in
  go 0 (reference_s ()) []

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)

(* A non-negative seed derived from the workload seed and a tag; equal
   arguments give equal seeds. *)
let derive seed tag =
  let r = Rng.create ((seed * 1_000_003) + tag) in
  Int64.to_int (Int64.shift_right_logical (Rng.bits64 r) 2)

(* The trial-seed stream of a sweep, drawn from its master seed exactly
   as [Mm_check.Runner] draws it: trial [i]'s seed is the [i]-th call. *)
let trial_seed_of rng =
  Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
      (** operations attempted: trials, sweeps, requests or probes *)
  failed : int;  (** of those, operations whose output failed a check *)
  errors : string list;  (** one line per failed check *)
  e2e : metric list;  (** the end-to-end metrics ({!Main.e2e_spec}) *)
  named : metric list;
      (** the workload's own end-to-end names, printed in the table *)
  layer : metric list;  (** per-layer metrics; empty on untraced runs *)
  exact : string list;
      (** names in [named]/[layer] that must repeat bit-identically for
          a given seed *)
}

(* The top heap so far, in MB.  Workloads read it right after their
   timed passes, before their checks allocate. *)
let heap_mb () =
  fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.0

(* The reference kernel's wall time on the 2-vCPU Xeon VM the bounds
   were set on, in its faster phases.  [setup_s] is in seconds of a host
   where the reference takes this long. *)
let reference_host_s = 0.025

(* The end-to-end metrics every untraced run reports, in this order
   (perfbench/README.md says what each means per workload): the median
   set-up time and the median work per reference run over the passes
   [ps], where a pass did [work p.out] units of work. *)
let e2e_metrics ~heap ~attempted ~failed ~work ps =
  [
    m "setup_s" "s" (reference_host_s *. median (List.map (fun p -> p.setup_ref) ps));
    m "heap_peak_mb" "MB" heap;
    m "ok_frac" "ratio" (fi (attempted - failed) /. fi attempted);
    m "work_per_ref" "1/ref" (median (List.map (fun p -> work p.out *. p.ref_wall /. p.wall) ps));
  ]

(* The wall-time figures of [ps] for the workload's table: raw work per
   second, the median raw set-up time and the reference kernel's median
   wall time. *)
let wall_metrics ~name ~work ps =
  [
    m name "1/s" (sum (List.map (fun p -> work p.out) ps) /. sum (List.map (fun p -> p.wall) ps));
    m "setup_wall_s" "s" (median (List.map (fun p -> p.setup_wall) ps));
    m "reference_ms" "ms" (1000.0 *. median (List.map (fun p -> p.ref_wall) ps));
  ]
