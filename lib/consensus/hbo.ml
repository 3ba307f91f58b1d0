module Id = Mm_core.Id
module Domain_ = Mm_core.Domain
module Graph = Mm_graph.Graph
module Network = Mm_net.Network
module Mem = Mm_mem.Mem
module Engine = Mm_sim.Engine
module Proc = Mm_sim.Proc
module Sched = Mm_sim.Sched

type impl =
  | Registers
  | Trusted
  | Direct

type phase =
  | R
  | P

(* Tuples carry (process id, agreed value); in phase R the value is
   always [Some v], in phase P [None] encodes the '?' of Figure 2. *)
type Mm_net.Message.payload +=
  | Hbo_msg of {
      phase : phase;
      round : int;
      tuples : (int * int option) list;
    }

type outcome = {
  reason : Engine.stop_reason;
  decisions : int option array;
  decide_step : int option array;
  decide_round : int option array;
  crashed : bool array;
  total_steps : int;
  net : Network.stats;
  mem_total : Mem.counters;
  mem_blocked : int;
  registers : int;
  coin_flips : int;
  trace : Mm_sim.Trace.event list;
}

(* A consensus-object factory: [propose host round v] runs the object
   RVals[host, round] (or PVals) for the calling process. *)
type objects = {
  rvals : int -> int -> int -> int;
  pvals : int -> int -> int option -> int option;
}

let trusted_propose reg v =
  let me = Proc.self () in
  Proc.atomic (fun () ->
      match Mem.read reg ~by:me with
      | Some w -> w
      | None ->
        Mem.write reg ~by:me (Some v);
        v)

(* Per-host, round-indexed object table: [get host round] returns the
   object of (host, round), building it with [make host round] the first
   time a round is reached.  Rounds start at 1 and grow by one, so a
   doubling array per host makes every lookup O(1). *)
let round_table n make =
  let rows = Array.make n [||] in
  fun host round ->
    let row = rows.(host) in
    let row =
      if round < Array.length row then row
      else begin
        let grown = Array.make (max 8 (2 * round)) None in
        Array.blit row 0 grown 0 (Array.length row);
        rows.(host) <- grown;
        grown
      end
    in
    match row.(round) with
    | Some obj -> obj
    | None ->
      let obj = make host round in
      row.(round) <- Some obj;
      obj

(* Same bytes as [Printf.sprintf "%s[%d,%d]" prefix host round]. *)
let object_name prefix host round =
  String.concat ""
    [ prefix; "["; string_of_int host; ","; string_of_int round; "]" ]

let make_objects impl graph store =
  let n = Graph.order graph in
  (* Each host's closed neighbourhood, computed once per run rather than
     re-sorted per object.  [Trusted] also passes one physical
     [shared_with] list per host to every allocation, which lets
     [Mem.alloc] validate it once. *)
  let nbhd () =
    Array.init n (fun h ->
        List.map Id.of_int (Graph.closed_neighborhood graph h))
  in
  match impl with
  | Direct ->
    if Graph.size graph <> 0 then
      invalid_arg
        "Hbo: the Direct object implementation is pure Ben-Or and \
         requires an edgeless shared-memory graph";
    { rvals = (fun _ _ v -> v); pvals = (fun _ _ v -> v) }
  | Trusted ->
    let shared =
      Array.mapi
        (fun h ps -> List.filter (fun p -> Id.to_int p <> h) ps)
        (nbhd ())
    in
    let table prefix =
      round_table n (fun host round ->
          Mem.alloc store
            ~name:(object_name prefix host round)
            ~owner:(Id.of_int host) ~shared_with:shared.(host) None)
    in
    let r = table "RVals" and p = table "PVals" in
    {
      rvals = (fun host round v -> trusted_propose (r host round) v);
      pvals = (fun host round v -> trusted_propose (p host round) v);
    }
  | Registers ->
    let nbhd = nbhd () in
    let table prefix =
      round_table n (fun host round ->
          Rand_consensus.create store
            ~name:(object_name prefix host round)
            ~owner:(Id.of_int host) ~participants:nbhd.(host))
    in
    let r = table "RVals" and p = table "PVals" in
    {
      rvals = (fun host round v -> Rand_consensus.propose (r host round) v);
      pvals = (fun host round v -> Rand_consensus.propose (p host round) v);
    }

(* Message buffering: one bucket per (phase, round), holding the agreed
   value of each represented process id in a flat n-slot array plus
   running counts, so [await], [majority_value] and [non_question] are
   O(1).  Slots encode [absent], '?' ([question]) or the value (0/1). *)
let absent = -1
let question = -2

type bucket = {
  vals : int array;
  mutable size : int;
  mutable zeros : int;
  mutable ones : int;
}

let hbo_process ~n ~nbhd ~objects ~on_decide ~input () =
  let buckets =
    round_table 2 (fun _ _ ->
        { vals = Array.make n absent; size = 0; zeros = 0; ones = 0 })
  in
  let bucket phase round = buckets (match phase with R -> 0 | P -> 1) round in
  (* Consensus-object agreement guarantees two senders never report
     different values for the same id.  It also makes every non-'?'
     P-value of a round equal: each is a majority of that round's agreed
     R-values, and two majorities of one id -> value map share an id.
     The asserts check both invariants on every ingest; the second is
     what lets [non_question] ignore arrival order. *)
  let ingest () =
    List.iter
      (fun (_src, payload) ->
        match payload with
        | Hbo_msg { phase; round; tuples } ->
          let b = bucket phase round in
          List.iter
            (fun (q, v) ->
              let code = match v with Some x -> x | None -> question in
              let old = b.vals.(q) in
              if old = absent then begin
                b.vals.(q) <- code;
                b.size <- b.size + 1;
                if code = 0 then b.zeros <- b.zeros + 1
                else if code = 1 then b.ones <- b.ones + 1
              end
              else assert (old = code))
            tuples;
          assert (phase = R || b.zeros = 0 || b.ones = 0)
        | _ -> ())
      (Proc.receive ())
  in
  let await phase round =
    let rec go () =
      ingest ();
      let b = bucket phase round in
      if 2 * b.size > n then b
      else begin
        Proc.yield ();
        go ()
      end
    in
    go ()
  in
  let majority_value b =
    if 2 * b.zeros > n then Some 0
    else if 2 * b.ones > n then Some 1
    else None
  in
  let propose_r round v =
    List.map (fun q -> (q, Some (objects.rvals q round v))) nbhd
  in
  let propose_p round v =
    List.map (fun q -> (q, objects.pvals q round v)) nbhd
  in
  let decided = ref false in
  let rec loop round r_tuples =
    Proc.send_all ~n (Hbo_msg { phase = R; round; tuples = r_tuples });
    let rb = await R round in
    let p_tuples = propose_p round (majority_value rb) in
    Proc.send_all ~n (Hbo_msg { phase = P; round; tuples = p_tuples });
    let pb = await P round in
    (match majority_value pb with
    | Some v when not !decided ->
      decided := true;
      on_decide ~round v
    | Some _ | None -> ());
    let non_question =
      if pb.zeros > 0 then Some 0 else if pb.ones > 0 then Some 1 else None
    in
    let next = round + 1 in
    let r_tuples' =
      match non_question with
      | Some v -> propose_r next v
      | None ->
        List.map
          (fun q ->
            let v = if Proc.coin () then 1 else 0 in
            (q, Some (objects.rvals q next v)))
          nbhd
    in
    loop next r_tuples'
  in
  loop 1 (propose_r 1 input)

let run ?(seed = 1) ?(impl = Registers) ?(max_steps = 2_000_000)
    ?(trace_capacity = 0) ?(crashes = []) ?partition ?prepare ?sched ?arena
    ?backend ?(link = Network.Reliable) ?delay ~graph ~inputs () =
  let n = Graph.order graph in
  if Array.length inputs <> n then invalid_arg "Hbo.run: |inputs| <> n";
  Array.iter
    (fun v -> if v <> 0 && v <> 1 then invalid_arg "Hbo.run: binary inputs only")
    inputs;
  let domain = Domain_.uniform_of_graph graph in
  let eng =
    Mm_sim.Arena.engine ?arena ~seed ?sched ?delay ~trace_capacity ?backend
      ~domain ~link ~n ()
  in
  (match partition with
  | None -> ()
  | Some (side_a, side_b) ->
    Network.partition (Engine.network eng)
      [ List.map Id.of_int side_a; List.map Id.of_int side_b ]);
  let store = Engine.store eng in
  let objects = make_objects impl graph store in
  let decisions = Array.make n None in
  let decide_step = Array.make n None in
  let decide_round = Array.make n None in
  let crashed = Array.make n false in
  List.iter
    (fun (pid, step) ->
      crashed.(pid) <- true;
      Engine.crash_at eng (Id.of_int pid) step)
    crashes;
  (* Termination is checked between every engine step, so it must be
     O(1): count the processes whose decision the run waits for (those
     never scheduled to crash) and decrement as each decides.  A process
     decides at most once (guarded in [hbo_process]). *)
  let undecided =
    ref (Array.fold_left (fun a c -> if c then a else a + 1) 0 crashed)
  in
  List.iter
    (fun p ->
      let pi = Id.to_int p in
      let nbhd = Graph.closed_neighborhood graph pi in
      let on_decide ~round v =
        decisions.(pi) <- Some v;
        decide_step.(pi) <- Some (Engine.now eng);
        decide_round.(pi) <- Some round;
        if not crashed.(pi) then decr undecided
      in
      Engine.spawn eng p
        (hbo_process ~n ~nbhd ~objects ~on_decide ~input:inputs.(pi)))
    (Id.all n);
  (match prepare with None -> () | Some f -> f eng);
  let all_decided () = !undecided = 0 in
  let reason = Engine.run eng ~max_steps ~until:all_decided () in
  {
    reason;
    decisions;
    decide_step;
    decide_round;
    crashed;
    total_steps = Engine.now eng;
    net = Network.stats (Engine.network eng);
    mem_total = Mem.total_counters store;
    mem_blocked = Mem.blocked_ops store;
    registers = Mem.reg_count store;
    coin_flips = Engine.coin_flips eng;
    trace =
      (match Engine.trace eng with
      | None -> []
      | Some tr -> Mm_sim.Trace.to_list tr);
  }

let agreement o =
  let vals =
    Array.to_list o.decisions |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  List.length vals <= 1

let validity ~inputs o =
  Array.for_all
    (function
      | None -> true
      | Some v -> Array.exists (Int.equal v) inputs)
    o.decisions

let all_correct_decided o =
  let ok = ref true in
  Array.iteri
    (fun i d -> if (not o.crashed.(i)) && d = None then ok := false)
    o.decisions;
  !ok

let max_round o =
  Array.fold_left
    (fun acc r -> match r with Some k -> max acc k | None -> acc)
    0 o.decide_round
