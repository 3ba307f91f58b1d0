(* Unit-cost kernels: the wall cost of one engine step, one message and
   one register op, each measured on the library's public functions in
   isolation, plus the host calibration kernel.  Each kernel reports
   the median of [reps] timed repetitions. *)

open Util
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Net = Mm_net.Network
module Mem = Mm_mem.Mem
module Id = Mm_core.Id
module Dom = Mm_core.Domain

type Mm_net.Message.payload += Ball

let reps = 5

(* A fixed integer-mixing loop with no allocation and no library code:
   ns per iteration says how fast this host runs plain OCaml, so
   results from different hosts can be put side by side. *)
let calibration_ns () =
  let iters = 10_000_000 in
  let run () =
    let x = ref 0x9E3779B9 in
    for i = 1 to iters do
      x := (!x lxor (!x lsr 7)) * 0x2545F491 + i
    done;
    Sys.opaque_identity !x
  in
  median
    (List.init reps (fun _ ->
         let _, s = timed run in
         s *. 1e9 /. fi iters))

type pingpong = { ns_per_step : float; msgs_per_step : float }

(* Two processes bounce one message between them while the other
   [n - 2] are spawned and frozen (parked): they exist in every
   per-process table but are never runnable, so the cost per step shows
   whether the engine stays O(active) at this [n]. *)
let pingpong ~n ~steps =
  let once () =
    let e =
      Engine.create ~seed:7 ~domain:(Dom.isolated n) ~link:Net.Reliable ~n ()
    in
    let p0 = Id.of_int 0 and p1 = Id.of_int 1 in
    let rec wait () = match Proc.receive () with [] -> wait () | _ -> () in
    let rec volley other () =
      wait ();
      Proc.send other Ball;
      volley other ()
    in
    Engine.spawn e p0 (fun () ->
        Proc.send p1 Ball;
        volley p1 ());
    Engine.spawn e p1 (volley p0);
    for i = 2 to n - 1 do
      let p = Id.of_int i in
      Engine.spawn e p (fun () ->
          while true do
            Proc.yield ()
          done);
      Engine.freeze e p
    done;
    let _, s = timed (fun () -> ignore (Engine.run e ~max_steps:steps ())) in
    let ran = Engine.now e in
    let sent = (Net.stats (Engine.network e)).Net.sent in
    (s *. 1e9 /. fi ran, fi sent /. fi ran)
  in
  let runs = List.init reps (fun _ -> once ()) in
  {
    ns_per_step = median (List.map fst runs);
    msgs_per_step = median (List.map snd runs);
  }

(* One message end to end: [send], the [tick] that delivers it and the
   [drain] that takes it out of the mailbox, between random pairs. *)
let network_ns_per_msg ~n ~index =
  let msgs = 400_000 in
  let pr = Rng.create 5 in
  let pairs =
    Array.init 4096 (fun _ ->
        let s = Rng.int pr n in
        let d = (s + 1 + Rng.int pr (n - 1)) mod n in
        (Id.of_int s, Id.of_int d))
  in
  let once () =
    let net =
      Net.create ~rng:(Rng.create 3) ~n ~kind:Net.Reliable ~delay:Net.Immediate
        ~index ()
    in
    let _, s =
      timed (fun () ->
          for k = 0 to msgs - 1 do
            let src, dst = pairs.(k land 4095) in
            Net.send net ~now:k ~src ~dst Ball;
            Net.tick net ~now:(k + 1);
            ignore (Net.drain net dst)
          done)
    in
    assert ((Net.stats net).Net.delivered = msgs);
    s *. 1e9 /. fi msgs
  in
  median (List.init reps (fun _ -> once ()))

type mem_costs = {
  read_native : float;
  write_native : float;
  op_emulated : float;
  msgs_per_op_emulated : float;
}

(* Register reads and writes by all six members of one register, per
   backend; under [Emulated] the store also charges each op its quorum
   messages ([Mem.emulated_msgs]). *)
let mem_costs () =
  let n = 6 in
  let store backend =
    let st = Mem.create ~backend (Dom.full n) in
    let reg =
      Mem.alloc st ~name:"r" ~owner:(Id.of_int 0)
        ~shared_with:(List.init (n - 1) (fun i -> Id.of_int (i + 1)))
        0
    in
    (st, reg)
  in
  let by = Array.init n Id.of_int in
  let ns ~ops f =
    median
      (List.init reps (fun _ ->
           let _, s = timed (fun () -> f ops) in
           s *. 1e9 /. fi ops))
  in
  let _, nreg = store Mem.Backend.Native in
  let read_native =
    ns ~ops:2_000_000 (fun ops ->
        for k = 0 to ops - 1 do
          ignore (Sys.opaque_identity (Mem.read nreg ~by:by.(k mod n)))
        done)
  in
  let write_native =
    ns ~ops:2_000_000 (fun ops ->
        for k = 0 to ops - 1 do
          Mem.write nreg ~by:by.(k mod n) k
        done)
  in
  let est, ereg = store Mem.Backend.Emulated in
  let total = ref 0 in
  let op_emulated =
    ns ~ops:400_000 (fun ops ->
        total := !total + ops;
        for k = 0 to ops - 1 do
          if k land 1 = 0 then
            ignore (Sys.opaque_identity (Mem.read ereg ~by:by.(k mod n)))
          else Mem.write ereg ~by:by.(k mod n) k
        done)
  in
  {
    read_native;
    write_native;
    op_emulated;
    msgs_per_op_emulated = fi (Mem.emulated_msgs est) /. fi !total;
  }

let rng_ns_per_draw () =
  let draws = 4_000_000 in
  let r = Rng.create 11 in
  median
    (List.init reps (fun _ ->
         let _, s =
           timed (fun () ->
               let acc = ref 0 in
               for _ = 1 to draws do
                 acc := !acc + Rng.int r 1000
               done;
               Sys.opaque_identity !acc)
         in
         s *. 1e9 /. fi draws))

type t = {
  small : pingpong;  (** n = 6, the check workloads' size *)
  big : pingpong;  (** n = 961, the bign workload's size *)
  dense_ns : float;
  sparse_ns : float;
  mem : mem_costs;
  rng_ns : float;
}

let measure () =
  let small = pingpong ~n:6 ~steps:300_000 in
  let big = pingpong ~n:961 ~steps:300_000 in
  {
    small;
    big;
    dense_ns = network_ns_per_msg ~n:6 ~index:`Dense;
    sparse_ns = network_ns_per_msg ~n:961 ~index:`Sparse;
    mem = mem_costs ();
    rng_ns = rng_ns_per_draw ();
  }

(* An engine step with its message traffic taken out: the ping-pong's
   per-step cost minus its messages at the per-message kernel cost.  The
   attribution model charges messages and register ops separately, so
   the step itself must not include them. *)
let step_base_ns (p : pingpong) ~msg_ns =
  Float.max 0.0 (p.ns_per_step -. (p.msgs_per_step *. msg_ns))

let metrics k =
  [
    m "engine.ns_per_step" "ns" k.small.ns_per_step;
    m "engine.ns_per_step_bign" "ns" k.big.ns_per_step;
    m "network.ns_per_msg_dense" "ns" k.dense_ns;
    m "network.ns_per_msg_sparse" "ns" k.sparse_ns;
    m "mem.ns_per_read_native" "ns" k.mem.read_native;
    m "mem.ns_per_write_native" "ns" k.mem.write_native;
    m "mem.ns_per_op_emulated" "ns" k.mem.op_emulated;
    m "mem.msgs_per_op_emulated" "count" k.mem.msgs_per_op_emulated;
    m "rng.ns_per_draw" "ns" k.rng_ns;
  ]
