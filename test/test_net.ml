(* Tests of link semantics: Integrity, No-loss, Fair-loss, FIFO delivery
   within a link, blocking, and counters. *)

module Id = Mm_core.Id
module Rng = Mm_rng.Rng
module Net = Mm_net.Network

type Mm_net.Message.payload += Num of int

let mk ?(seed = 1) ?(kind = Net.Reliable) ?delay n =
  Net.create ~rng:(Rng.create seed) ~n ~kind ?delay ()

let id = Id.of_int

let drain_all net p =
  let rec pump acc now =
    if now > 10_000 then acc
    else begin
      Net.tick net ~now;
      let got = Net.drain net p in
      if got = [] && Net.(stats net).in_flight = 0 then acc @ got
      else pump (acc @ got) (now + 1)
    end
  in
  pump [] 0

let test_reliable_no_loss () =
  let net = mk 3 in
  for i = 1 to 50 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let got = drain_all net (id 1) in
  Alcotest.(check int) "all delivered" 50 (List.length got);
  let s = Net.stats net in
  Alcotest.(check int) "no drops" 0 s.Net.dropped

let test_integrity_no_duplication () =
  let net = mk 2 in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  let got = drain_all net (id 1) in
  Alcotest.(check int) "exactly one" 1 (List.length got);
  Alcotest.(check int) "none left" 0 (Net.peek_count net (id 1))

let test_fifo_per_link () =
  let net = mk ~delay:(Net.Fixed 3) 2 in
  for i = 1 to 20 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let got = drain_all net (id 1) in
  let nums = List.filter_map (function _, Num i -> Some i | _ -> None) got in
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1)) nums

let test_sender_attached () =
  let net = mk 3 in
  Net.send net ~now:0 ~src:(id 2) ~dst:(id 1) (Num 9);
  match drain_all net (id 1) with
  | [ (src, Num 9) ] -> Alcotest.(check int) "src" 2 (Id.to_int src)
  | _ -> Alcotest.fail "expected one message from p2"

let test_self_send_immediate () =
  let net = mk ~kind:(Net.Fair_lossy 0.9) 2 in
  (* Self-sends bypass the lossy link. *)
  for i = 1 to 20 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 0) (Num i)
  done;
  Alcotest.(check int) "all in mailbox already" 20 (Net.peek_count net (id 0))

let test_fair_lossy_statistics () =
  let net = mk ~seed:3 ~kind:(Net.Fair_lossy 0.5) 2 in
  for i = 1 to 1000 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let s = Net.stats net in
  Alcotest.(check bool)
    (Printf.sprintf "dropped ~half (%d)" s.Net.dropped)
    true
    (s.Net.dropped > 400 && s.Net.dropped < 600)

let test_fair_loss_eventual_delivery () =
  (* Send the same message repeatedly: it must get through. *)
  let net = mk ~seed:4 ~kind:(Net.Fair_lossy 0.8) 2 in
  let delivered = ref false in
  let now = ref 0 in
  while (not !delivered) && !now < 1000 do
    Net.send net ~now:!now ~src:(id 0) ~dst:(id 1) (Num 1);
    Net.tick net ~now:!now;
    if Net.drain net (id 1) <> [] then delivered := true;
    incr now
  done;
  Alcotest.(check bool) "eventually received" true !delivered

let test_block_fn () =
  let net = mk 2 in
  Net.set_block_fn net (fun ~now ~src:_ ~dst:_ -> now < 100);
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:50;
  Alcotest.(check int) "held" 0 (Net.peek_count net (id 1));
  Alcotest.(check int) "held message still in flight" 1
    (Net.stats net).Net.in_flight;
  Net.tick net ~now:100;
  Alcotest.(check int) "released" 1 (Net.peek_count net (id 1));
  Alcotest.(check int) "in_flight drained after release" 0
    (Net.stats net).Net.in_flight

let test_window_diff () =
  let net = mk 2 in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  let snap = Net.snapshot net in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 2);
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 3);
  let d = Net.diff_since net snap in
  Alcotest.(check int) "window sends" 2 d.Net.sent

let test_delay_bounds () =
  let net = mk ~delay:(Net.Uniform (5, 9)) 2 in
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:4;
  Alcotest.(check int) "not before lo" 0 (Net.peek_count net (id 1));
  Net.tick net ~now:9;
  Alcotest.(check int) "by hi" 1 (Net.peek_count net (id 1))

let test_create_validation () =
  Alcotest.(check bool) "bad drop prob" true
    (try ignore (mk ~kind:(Net.Fair_lossy 1.0) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative drop prob" true
    (try ignore (mk ~kind:(Net.Fair_lossy (-0.1)) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad delay" true
    (try ignore (mk ~delay:(Net.Fixed 0) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "uniform lo < 1" true
    (try ignore (mk ~delay:(Net.Uniform (0, 3)) 2); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "uniform hi < lo" true
    (try ignore (mk ~delay:(Net.Uniform (4, 2)) 2); false
     with Invalid_argument _ -> true)

let test_partition_holds_then_heals () =
  (* No-loss across a partition: messages sent into a held link stay
     queued (never dropped) and all come out after heal. *)
  let net = mk ~delay:(Net.Fixed 1) 4 in
  Net.partition net [ [ id 0; id 1 ]; [ id 2; id 3 ] ];
  for i = 1 to 25 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 2) (Num i)
  done;
  Net.tick net ~now:100;
  Alcotest.(check int) "held across the cut" 0 (Net.peek_count net (id 2));
  let s = Net.stats net in
  Alcotest.(check int) "nothing dropped while held" 0 s.Net.dropped;
  Alcotest.(check int) "all still in flight" 25 s.Net.in_flight;
  (* Same-side traffic is unaffected. *)
  Net.send net ~now:100 ~src:(id 0) ~dst:(id 1) (Num 99);
  Net.tick net ~now:101;
  Alcotest.(check int) "same side delivers" 1 (Net.peek_count net (id 1));
  Net.heal net;
  Net.tick net ~now:102;
  Alcotest.(check int) "all released after heal" 25 (Net.peek_count net (id 2));
  let s = Net.stats net in
  Alcotest.(check int) "in_flight drained" 0 s.Net.in_flight;
  Alcotest.(check int) "sent = delivered" s.Net.sent s.Net.delivered

let test_partition_validation () =
  let net = mk 3 in
  Alcotest.(check bool) "id out of range" true
    (try Net.partition net [ [ id 0; id 5 ] ]; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate membership" true
    (try Net.partition net [ [ id 0 ]; [ id 0; id 1 ] ]; false
     with Invalid_argument _ -> true)

let test_degrade_drop_and_restore () =
  let net = mk ~seed:7 2 in
  Net.degrade net ~src:(id 0) ~dst:(id 1) ~drop:0.95 ();
  for i = 1 to 500 do
    Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let s = Net.stats net in
  Alcotest.(check bool)
    (Printf.sprintf "most dropped on a degraded reliable link (%d)" s.Net.dropped)
    true
    (s.Net.dropped > 400);
  Net.restore net;
  let before = Net.stats net in
  for i = 1 to 100 do
    Net.send net ~now:10 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  let d = Net.diff_since net before in
  Alcotest.(check int) "no drops after restore" 0 d.Net.dropped;
  Alcotest.(check bool) "bad degrade drop" true
    (try Net.degrade net ~src:(id 0) ~dst:(id 1) ~drop:1.0 (); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative degrade delay" true
    (try Net.degrade net ~src:(id 0) ~dst:(id 1) ~extra_delay:(-1) (); false
     with Invalid_argument _ -> true)

let test_degrade_extra_delay () =
  let net = mk ~delay:(Net.Fixed 2) 2 in
  Net.degrade net ~src:(id 0) ~dst:(id 1) ~extra_delay:10 ();
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 1);
  Net.tick net ~now:11;
  Alcotest.(check int) "not at base delay" 0 (Net.peek_count net (id 1));
  Net.tick net ~now:12;
  Alcotest.(check int) "at base + extra" 1 (Net.peek_count net (id 1))

(* A closed mailbox (its owner crashed or finished) still takes every
   delivery in the counters and the observer — the message left its link —
   but stores nothing; once reopened it starts empty and stores later
   deliveries in order.  Both link indexings. *)
let test_closed_mailbox index () =
  let net =
    Net.create ~rng:(Rng.create 5) ~n:3 ~kind:Net.Reliable ~delay:(Net.Fixed 2)
      ~index ()
  in
  let delivered_to_1 = ref 0 in
  Net.set_observer net (function
    | Net.Deliver { dst; _ } when Id.to_int dst = 1 -> incr delivered_to_1
    | Net.Deliver _ | Net.Drop _ -> ());
  (* One message already in the mailbox, one in flight, at close time. *)
  Net.send net ~now:0 ~src:(id 0) ~dst:(id 1) (Num 0);
  Net.tick net ~now:2;
  Net.send net ~now:2 ~src:(id 2) ~dst:(id 1) (Num 1);
  Net.close_mailbox net (id 1);
  Alcotest.(check int) "close empties" 0 (Net.peek_count net (id 1));
  for i = 2 to 6 do
    Net.send net ~now:3 ~src:(id 0) ~dst:(id 1) (Num i)
  done;
  for now = 3 to 6 do
    Net.tick net ~now
  done;
  let s = Net.stats net in
  Alcotest.(check int) "delivered counts every message" 7 s.Net.delivered;
  Alcotest.(check int) "observer saw every delivery" 7 !delivered_to_1;
  Alcotest.(check int) "in flight drained" 0 s.Net.in_flight;
  Alcotest.(check int) "nothing stored" 0 (Net.peek_count net (id 1));
  Net.reopen_mailbox net (id 1);
  for i = 7 to 10 do
    Net.send net ~now:7 ~src:(id (i mod 2 * 2)) ~dst:(id 1) (Num i)
  done;
  for now = 7 to 9 do
    Net.tick net ~now
  done;
  Alcotest.(check (list int)) "reopened mailbox stores, in order"
    [ 8; 10; 7; 9 ]
    (List.map (function _, Num i -> i | _ -> -1) (Net.drain net (id 1)));
  Alcotest.(check int) "all counted" 11 (Net.stats net).Net.delivered

let prop_reliable_counts =
  QCheck.Test.make ~name:"reliable: sent = delivered + in_flight" ~count:50
    QCheck.(pair (int_range 1 60) (int_range 0 100))
    (fun (k, seed) ->
      let net = mk ~seed 3 in
      for i = 1 to k do
        Net.send net ~now:0 ~src:(id 0) ~dst:(id (1 + (i mod 2))) (Num i)
      done;
      Net.tick net ~now:2;
      let s = Net.stats net in
      s.Net.sent = s.Net.delivered + s.Net.in_flight && s.Net.dropped = 0)

(* --- dense vs sparse under stress ----------------------------------- *)

(* A seeded random workload at n = 40 (1,560 directed links): a dozen
   sends a step under a long fixed delay, so hundreds of links are live
   at once and the sparse table grows several times past its initial
   capacity, then shrinks again as they drain; partitions and heals,
   degrades and restores, and fair loss on odd seeds.  Returns every
   observer event and every [drain] result in order, the final stats,
   the most messages in flight at once, and the network's reachable
   words when empty and again once all traffic is gone (measured with a
   recorder-free observer, so the log is not counted). *)
let stress idx ~seed =
  let n = 40 in
  let kind = if seed mod 2 = 1 then Net.Fair_lossy 0.15 else Net.Reliable in
  let net =
    Net.create ~rng:(Rng.create seed) ~n ~kind ~delay:(Net.Fixed 40) ~index:idx ()
  in
  let quiet _ = () in
  Net.set_observer net quiet;
  let empty_words = Obj.reachable_words (Obj.repr net) in
  let log = ref [] in
  Net.set_observer net (function
    | Net.Deliver { src; dst } ->
      log := Printf.sprintf "deliver %d->%d" (Id.to_int src) (Id.to_int dst) :: !log
    | Net.Drop { src; dst } ->
      log := Printf.sprintf "drop %d->%d" (Id.to_int src) (Id.to_int dst) :: !log);
  let drain p =
    let got = Net.drain net (id p) in
    if got <> [] then
      log :=
        Printf.sprintf "drain %d: %s" p
          (String.concat " "
             (List.map
                (function
                  | src, Num i -> Printf.sprintf "%d:%d" (Id.to_int src) i
                  | _ -> "?")
                got))
        :: !log
  in
  let r = Rng.create (1000 + seed) in
  let peak = ref 0 in
  let msg = ref 0 in
  for now = 0 to 799 do
    if now < 600 then begin
      for _ = 1 to 12 do
        let s = Rng.int r n in
        (* One send in 40 is a self-send. *)
        let d = if Rng.int r 40 = 0 then s else (s + 1 + Rng.int r (n - 1)) mod n in
        incr msg;
        Net.send net ~now ~src:(id s) ~dst:(id d) (Num !msg)
      done;
      if Rng.int r 50 = 0 then begin
        let groups = 2 + Rng.int r 2 in
        let members = Array.make groups [] in
        for p = 0 to n - 1 do
          let g = Rng.int r (groups + 1) in
          if g < groups then members.(g) <- id p :: members.(g)
        done;
        Net.partition net (Array.to_list members)
      end;
      if Rng.int r 30 = 0 then Net.heal net;
      if Rng.int r 20 = 0 then begin
        let s = Rng.int r n in
        Net.degrade net ~src:(id s) ~dst:(id ((s + 1 + Rng.int r (n - 1)) mod n))
          ~drop:(Rng.float r *. 0.5) ~extra_delay:(Rng.int r 20) ()
      end;
      if Rng.int r 100 = 0 then Net.restore net
    end
    else if now = 600 then begin
      Net.heal net;
      Net.restore net
    end;
    Net.tick net ~now;
    peak := max !peak (Net.stats net).Net.in_flight;
    for _ = 1 to 5 do
      drain (Rng.int r n)
    done
  done;
  for p = 0 to n - 1 do
    drain p
  done;
  let stats = Net.stats net in
  Net.set_observer net quiet;
  (List.rev !log, stats, !peak, empty_words, Obj.reachable_words (Obj.repr net))

let test_dense_sparse_stress () =
  List.iter
    (fun seed ->
      let dlog, dstats, dpeak, dempty, didle = stress `Dense ~seed in
      let slog, sstats, speak, sempty, sidle = stress `Sparse ~seed in
      let ctx what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check bool) (ctx "hundreds of messages in flight") true (dpeak >= 300);
      Alcotest.(check int) (ctx "same peak") dpeak speak;
      Alcotest.(check int) (ctx "events + drains") (List.length dlog) (List.length slog);
      List.iteri
        (fun i (d, s) ->
          if d <> s then
            Alcotest.failf "%s: entry %d differs: dense %S, sparse %S" (ctx "log") i d s)
        (List.combine dlog slog);
      Alcotest.(check bool) (ctx "same stats") true (dstats = sstats);
      Alcotest.(check int) (ctx "all delivered") 0 sstats.Net.in_flight;
      (* Once every link is idle, the sparse store is back within a small
         constant of its empty size: only the heap's grown capacity, which
         the dense run shares, may remain. *)
      let grown = sidle - sempty and heap_growth = didle - dempty in
      Alcotest.(check bool)
        (ctx
           (Printf.sprintf "idle sparse net grew %d words, dense %d" grown
              heap_growth))
        true
        (grown <= heap_growth + 256))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "mm_net"
    [
      ( "links",
        [
          Alcotest.test_case "reliable no-loss" `Quick test_reliable_no_loss;
          Alcotest.test_case "integrity" `Quick test_integrity_no_duplication;
          Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
          Alcotest.test_case "sender attached" `Quick test_sender_attached;
          Alcotest.test_case "self-send" `Quick test_self_send_immediate;
          Alcotest.test_case "fair lossy stats" `Quick test_fair_lossy_statistics;
          Alcotest.test_case "fair loss eventual" `Quick test_fair_loss_eventual_delivery;
          Alcotest.test_case "block fn" `Quick test_block_fn;
          Alcotest.test_case "window diff" `Quick test_window_diff;
          Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "partition no-loss" `Quick
            test_partition_holds_then_heals;
          Alcotest.test_case "partition validation" `Quick
            test_partition_validation;
          Alcotest.test_case "degrade drop + restore" `Quick
            test_degrade_drop_and_restore;
          Alcotest.test_case "degrade extra delay" `Quick
            test_degrade_extra_delay;
          Alcotest.test_case "closed mailbox (dense)" `Quick
            (test_closed_mailbox `Dense);
          Alcotest.test_case "closed mailbox (sparse)" `Quick
            (test_closed_mailbox `Sparse);
          QCheck_alcotest.to_alcotest prop_reliable_counts;
        ] );
      ( "index",
        [
          Alcotest.test_case "dense = sparse under stress" `Quick
            test_dense_sparse_stress;
        ] );
    ]
