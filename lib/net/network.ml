module Id = Mm_core.Id
module Rng = Mm_rng.Rng
module Minheap = Mm_core.Minheap

type kind =
  | Reliable
  | Fair_lossy of float

type delay =
  | Immediate
  | Fixed of int
  | Uniform of int * int

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
}

(* One accepted message on its link (the link fixes the destination):
   its sender, payload, due step, and a per-network uid that grows with
   send order and breaks ties between equal dues. *)
type in_flight = {
  src : Id.t;
  payload : Message.payload;
  due : int;
  uid : int;
}

type event =
  | Drop of { src : Id.t; dst : Id.t }
  | Deliver of { src : Id.t; dst : Id.t }

let no_wake = max_int

(* All mutable state of one directed link [src * n + dst]: its in-flight
   queue (ascending in (due, uid)), the key of its earliest live heap
   entry (or [no_wake]), and the degradation knobs.  Everything a link
   needs lives in this one record so the sparse index can materialize a
   link on first use and recycle it once it is idle again. *)
type link = {
  mutable l_idx : int;
  mutable l_queue : in_flight list;
  mutable l_wake : int;
  mutable l_drop : float;
  mutable l_delay : int;
}

(* Sentinel for "no record": reads as an idle link (empty queue, wake
   [no_wake], no degradation) and is never mutated — callers that might
   write first materialize a real record.  It also fills the empty slots
   of the sparse table, so a miss is an ordinary load, not an option or
   an exception. *)
let null_link =
  { l_idx = -1; l_queue = []; l_wake = no_wake; l_drop = 0.0; l_delay = 0 }

(* The sparse index: an int-keyed open-addressing table with linear
   probing, parallel [keys]/[vals] arrays of power-of-two capacity, and
   Fibonacci hashing ([key * golden], top [bits] bits) so the runs of
   consecutive link indices one broadcast touches spread over the table.
   An empty slot holds [empty_key] and [null_link].  Deletion shifts the
   rest of the probe run back, so there are no tombstones and a lookup
   stops at the first empty slot.  Load stays in (1/8, 1/2] above the
   minimum capacity: the table doubles past half full and halves below an
   eighth, so it tracks links in use.  Records of recycled links wait in
   the stack [pool] (a quarter of the capacity) for reuse, so a busy
   table stops allocating them. *)
type sparse = {
  mutable keys : int array;
  mutable vals : link array;
  mutable shift : int;  (* 63 - log2 capacity *)
  mutable count : int;
  mutable pool : link array;
  mutable pool_len : int;
}

(* How link records are found by index:

   - [Dense]: one pre-allocated record per directed pair.  O(n²) words at
     create, O(1) zero-allocation lookup — right for the small-n sweep
     hot path.
   - [Sparse]: links materialize on first use and are recycled once
     idle, so storage is O(links in use), not O(n²) — at n=1000 a dense
     network is ~5M words before a single message moves.  Thm 5.1's
     eventual silence means steady-state "in use" is small.

   A recycled link's stale heap entries are skipped on pop exactly like a
   dense link's superseded wake-ups (missing from the table reads as
   [null_link], which is precisely the recycled state), so delivery order
   is identical between the two indexings. *)
type index =
  | Dense of link array
  | Sparse of sparse

(* Delivery is driven by a global min-heap of (due, link) wake-ups, so a
   tick costs O(messages actually due) instead of O(active links +
   in-flight).  Each entry is packed into one int, [due * n² + link], which
   orders entries by due then by link index — a fixed, deterministic
   tie-break for simultaneous deliveries on different links.  Per link,
   [l_wake] holds the key of its earliest live heap entry (or [no_wake]);
   entries whose due no longer matches are stale and skipped on pop, which
   keeps the heap lazily deduplicated without a decrease-key operation. *)
type t = {
  n : int;
  slots : int;  (* n², the packed-key stride *)
  (* Largest due a heap key can carry before [due * n² + idx] would wrap
     past [max_int] and corrupt delivery order; [arm] rejects anything
     beyond it loudly. *)
  max_safe_due : int;
  mutable net_kind : kind;
  mutable net_delay : delay;
  mutable rng : Rng.t;
  index : index;
  heap : Minheap.t;
  (* Each mailbox is newest first; [drain] reverses it. *)
  mailboxes : (Id.t * Message.payload) list array;
  (* '\001' for a closed mailbox: its owner has crashed or finished, so
     nothing can ever read what is delivered there.  Deliveries to it are
     counted but not stored. *)
  closed : Bytes.t;
  (* Partition epochs: each [partition] call contributes one group-of
     array; a link is held iff some epoch separates its endpoints.  This
     keeps partitions O(n) to impose instead of an O(n²) held-flag
     sweep, and [heal] is dropping the list.  Cumulative across calls,
     like the flag version was. *)
  mutable parts : int array list;
  mutable block_fn : (now:int -> src:Id.t -> dst:Id.t -> bool) option;
  mutable observer : (event -> unit) option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable in_flight_count : int;
  mutable next_uid : int;
}

let validate_delay = function
  | Immediate -> ()
  | Fixed d -> if d < 1 then invalid_arg "Network: delay must be >= 1"
  | Uniform (lo, hi) ->
    if lo < 1 || hi < lo then invalid_arg "Network: bad uniform delay bounds"

let validate_kind = function
  | Reliable -> ()
  | Fair_lossy p ->
    if p < 0.0 || p >= 1.0 then
      invalid_arg "Network.create: drop probability must be in [0, 1)"

let fresh_link idx =
  { l_idx = idx; l_queue = []; l_wake = no_wake; l_drop = 0.0; l_delay = 0 }

(* --- sparse table --- *)

let empty_key = -1
let min_bits = 6
let golden = 0x4F1BBCDCBFA53E0B (* 2^63 / phi, odd; reads as a negative int *)

let home shift k = (k * golden) lsr shift

let sparse_clear s =
  let cap = 1 lsl min_bits in
  s.keys <- Array.make cap empty_key;
  s.vals <- Array.make cap null_link;
  s.shift <- 63 - min_bits;
  s.count <- 0;
  s.pool <- Array.make (cap / 4) null_link;
  s.pool_len <- 0

let sparse_create () =
  let s =
    { keys = [||]; vals = [||]; shift = 0; count = 0; pool = [||]; pool_len = 0 }
  in
  sparse_clear s;
  s

(* The slot holding key [k], or the empty slot that ends its probe run.
   A top-level loop: a local closure over the table would allocate on
   every lookup. *)
let rec probe keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = empty_key then i else probe keys mask k ((i + 1) land mask)

let find_slot s k = probe s.keys (Array.length s.keys - 1) k (home s.shift k)

(* Rehash every entry into a table of [2^bits] slots, with a pool of a
   quarter of the new capacity that keeps as many spare records as fit. *)
let rehash s bits =
  let keys = s.keys and vals = s.vals and pool = s.pool in
  let cap = 1 lsl bits in
  s.keys <- Array.make cap empty_key;
  s.vals <- Array.make cap null_link;
  s.shift <- 63 - bits;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let j = find_slot s k in
        s.keys.(j) <- k;
        s.vals.(j) <- vals.(i)
      end)
    keys;
  s.pool <- Array.make (cap / 4) null_link;
  s.pool_len <- min s.pool_len (cap / 4);
  Array.blit pool 0 s.pool 0 s.pool_len

let bits_of s = 63 - s.shift

(* Materialize key [k] in the empty slot [slot] that [find_slot] just
   returned for it. *)
let sparse_add s slot k =
  let slot =
    if 2 * (s.count + 1) <= Array.length s.keys then slot
    else begin
      rehash s (bits_of s + 1);
      find_slot s k
    end
  in
  let l =
    if s.pool_len = 0 then fresh_link k
    else begin
      let top = s.pool_len - 1 in
      let l = Array.unsafe_get s.pool top in
      Array.unsafe_set s.pool top null_link;
      s.pool_len <- top;
      l.l_idx <- k;
      l
    end
  in
  Array.unsafe_set s.keys slot k;
  Array.unsafe_set s.vals slot l;
  s.count <- s.count + 1;
  l

(* Backward-shift deletion: walk the probe run after the [hole] and move
   back every entry whose home does not lie cyclically in (hole, j], so
   each remaining key stays reachable from its home without tombstones. *)
let rec shift_back keys vals mask shift hole j =
  let k = Array.unsafe_get keys j in
  if k = empty_key then begin
    Array.unsafe_set keys hole empty_key;
    Array.unsafe_set vals hole null_link
  end
  else
    let next = (j + 1) land mask in
    if (j - home shift k) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole k;
      Array.unsafe_set vals hole (Array.unsafe_get vals j);
      shift_back keys vals mask shift j next
    end
    else shift_back keys vals mask shift hole next

let sparse_remove s l =
  let mask = Array.length s.keys - 1 in
  let slot = find_slot s l.l_idx in
  shift_back s.keys s.vals mask s.shift slot ((slot + 1) land mask);
  s.count <- s.count - 1;
  if s.pool_len < Array.length s.pool then begin
    Array.unsafe_set s.pool s.pool_len l;
    s.pool_len <- s.pool_len + 1
  end;
  if bits_of s > min_bits && 8 * s.count < mask + 1 then
    rehash s (bits_of s - 1)

(* --- creation --- *)

(* Dense indexing is the small-n default (sweeps replay the same few
   links millions of times; array indexing beats hashing).  Above the
   cutoff the O(n²) create cost starts to dominate whole scenarios, so
   big instances go sparse.  Tests force a mode via [set_default_index]
   to compare the two head-to-head on the same scenario. *)
let dense_cutoff = 64

let default_index : [ `Dense | `Sparse ] option Atomic.t = Atomic.make None
let set_default_index v = Atomic.set default_index v

let create ~rng ~n ~kind ?(delay = Uniform (1, 4)) ?index () =
  if n < 1 then invalid_arg "Network.create: need n >= 1";
  validate_kind kind;
  validate_delay delay;
  let mode =
    match index with
    | Some m -> m
    | None -> (
      match Atomic.get default_index with
      | Some m -> m
      | None -> if n <= dense_cutoff then `Dense else `Sparse)
  in
  let slots = n * n in
  {
    n;
    slots;
    max_safe_due = (max_int - (slots - 1)) / slots;
    net_kind = kind;
    net_delay = delay;
    rng;
    index =
      (match mode with
      | `Dense -> Dense (Array.init slots fresh_link)
      | `Sparse -> Sparse (sparse_create ()));
    heap = Minheap.create ();
    mailboxes = Array.make n [];
    closed = Bytes.make n '\000';
    parts = [];
    block_fn = None;
    observer = None;
    sent = 0;
    delivered = 0;
    dropped = 0;
    in_flight_count = 0;
    next_uid = 0;
  }

(* Return the network to the state [create ~rng ~n ~kind ?delay ()] would
   produce, reusing every structure: queues, wake-ups, mailboxes and
   adversary state are emptied, stats and uids rewound.  The heap keeps
   its grown capacity (its live length is zeroed), which is the point of
   arena reuse. *)
let reset t ~rng ~kind ?(delay = Uniform (1, 4)) () =
  validate_kind kind;
  validate_delay delay;
  t.net_kind <- kind;
  t.net_delay <- delay;
  t.rng <- rng;
  (match t.index with
  | Dense links ->
    Array.iter
      (fun l ->
        l.l_queue <- [];
        l.l_wake <- no_wake;
        l.l_drop <- 0.0;
        l.l_delay <- 0)
      links
  | Sparse s -> sparse_clear s);
  Minheap.clear t.heap;
  Array.fill t.mailboxes 0 t.n [];
  Bytes.fill t.closed 0 t.n '\000';
  t.parts <- [];
  t.block_fn <- None;
  t.observer <- None;
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.in_flight_count <- 0;
  t.next_uid <- 0

let order t = t.n
let kind t = t.net_kind

(* Events are built only when an observer listens, so an unobserved
   network allocates nothing per send or delivery for them. *)
let notify_deliver t ~src ~dst =
  match t.observer with
  | None -> ()
  | Some f -> f (Deliver { src; dst })

let notify_drop t ~src ~dst =
  match t.observer with
  | None -> ()
  | Some f -> f (Drop { src; dst })

(* --- link index --- *)

(* Where link [idx] lives: its dense index, or the sparse slot holding
   it (or the empty slot it would take). *)
let slot_of t idx =
  match t.index with
  | Dense _ -> idx
  | Sparse s -> find_slot s idx

(* The record in [slot]; [null_link] for an empty sparse slot. *)
let link_at t slot =
  match t.index with
  | Dense links -> Array.unsafe_get links slot
  | Sparse s -> Array.unsafe_get s.vals slot

(* The record of link [idx] in [slot], materializing it in sparse mode. *)
let claim t slot idx =
  match t.index with
  | Dense links -> Array.unsafe_get links slot
  | Sparse s ->
    let l = Array.unsafe_get s.vals slot in
    if l != null_link then l else sparse_add s slot idx

(* An idle link (nothing queued, no wake-up armed, no degradation) holds
   no information: drop it from the sparse table so live storage tracks
   links in use.  Stale heap entries naming it are skipped on pop. *)
let maybe_recycle t l =
  match t.index with
  | Dense _ -> ()
  | Sparse s ->
    if l.l_queue == [] && l.l_wake = no_wake && l.l_drop = 0.0 && l.l_delay = 0
    then sparse_remove s l

(* Arm the wake-up for link [l] at [due] unless an earlier one is
   already pending. *)
let arm t l ~due =
  if due > t.max_safe_due then
    invalid_arg
      (Printf.sprintf
         "Network: step %d overflows the packed heap key (due * n^2 + link, \
          max safe step %d at n = %d)"
         due t.max_safe_due t.n);
  if due < l.l_wake then begin
    Minheap.push t.heap ((due * t.slots) + l.l_idx);
    l.l_wake <- due
  end

let draw_delay t =
  match t.net_delay with
  | Immediate -> 1
  | Fixed d -> d
  | Uniform (lo, hi) -> Rng.int_in_range t.rng ~lo ~hi

(* Ordered insert keeping the queue ascending in (due, uid); uids grow
   with send order, so equal-due entries stay FIFO.  Queues are short
   (messages leave at their due step), so this replaces the old per-tick
   partition + sort with near-O(1) work per send. *)
let rec insert_by_due e = function
  | [] -> [ e ]
  | x :: tl when x.due < e.due || (x.due = e.due && x.uid < e.uid) ->
    x :: insert_by_due e tl
  | rest -> e :: rest

let deliver t ~src ~di payload =
  if Bytes.unsafe_get t.closed di = '\000' then
    t.mailboxes.(di) <- (src, payload) :: t.mailboxes.(di);
  t.delivered <- t.delivered + 1

let send t ~now ~src ~dst payload =
  let si = Id.to_int src and di = Id.to_int dst in
  if si >= t.n || di >= t.n then invalid_arg "Network.send: id out of range";
  t.sent <- t.sent + 1;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  if si = di then begin
    (* Local delivery: a process handing itself a message involves no
       link, hence no loss and no delay. *)
    deliver t ~src ~di payload;
    notify_deliver t ~src ~dst
  end
  else begin
    let idx = (si * t.n) + di in
    (* One lookup; a dropped send must not materialize a sparse link. *)
    let slot = slot_of t idx in
    let existing = link_at t slot in
    let extra_drop = existing.l_drop in
    let drop =
      (match t.net_kind with
      | Reliable -> false
      | Fair_lossy p -> Rng.float t.rng < p)
      || (extra_drop > 0.0 && Rng.float t.rng < extra_drop)
    in
    if drop then begin
      t.dropped <- t.dropped + 1;
      notify_drop t ~src ~dst
    end
    else begin
      let l = claim t slot idx in
      let due = now + draw_delay t + l.l_delay in
      l.l_queue <- insert_by_due { src; payload; due; uid } l.l_queue;
      t.in_flight_count <- t.in_flight_count + 1;
      arm t l ~due
    end
  end

(* Deliver the due prefix of link [l]'s queue into the destination
   mailbox, in (due, uid) order. *)
let rec deliver_due t ~now ~dst ~di = function
  | e :: tl when e.due <= now ->
    deliver t ~src:e.src ~di e.payload;
    t.in_flight_count <- t.in_flight_count - 1;
    notify_deliver t ~src:e.src ~dst;
    deliver_due t ~now ~dst ~di tl
  | rest -> rest

(* A link is held iff some partition epoch separates its endpoints. *)
let rec held parts si di =
  match parts with
  | [] -> false
  | group_of :: rest ->
    (group_of.(si) >= 0 && group_of.(di) >= 0 && group_of.(si) <> group_of.(di))
    || held rest si di

let tick t ~now =
  let slots = t.slots in
  while
    (not (Minheap.is_empty t.heap)) && Minheap.min_key t.heap / slots <= now
  do
    let key = Minheap.pop t.heap in
    let due = key / slots and idx = key mod slots in
    (* Live entry?  Stale duplicates (superseded by an earlier wake-up
       that already serviced the link, or naming a recycled link, whose
       sentinel wake [no_wake] can never equal a packable due) are
       skipped. *)
    let l = link_at t (slot_of t idx) in
    if l.l_wake = due then begin
      l.l_wake <- no_wake;
      let si = idx / t.n and di = idx mod t.n in
      let blocked =
        held t.parts si di
        ||
        match t.block_fn with
        | None -> false
        | Some f -> f ~now ~src:(Id.of_int si) ~dst:(Id.of_int di)
      in
      if blocked then
        (* Held messages stay queued (No-loss); poll again next tick. *)
        arm t l ~due:(now + 1)
      else begin
        l.l_queue <- deliver_due t ~now ~dst:(Id.of_int di) ~di l.l_queue;
        (* Re-arm for the link's next pending message, if any. *)
        match l.l_queue with
        | [] -> maybe_recycle t l
        | e :: _ -> arm t l ~due:e.due
      end
    end
  done

let drain t p =
  let i = Id.to_int p in
  match t.mailboxes.(i) with
  | [] -> []
  | box ->
    t.mailboxes.(i) <- [];
    List.rev box

let peek_count t p = List.length t.mailboxes.(Id.to_int p)

let close_mailbox t p =
  let i = Id.to_int p in
  t.mailboxes.(i) <- [];
  Bytes.set t.closed i '\001'

let reopen_mailbox t p = Bytes.set t.closed (Id.to_int p) '\000'

let set_block_fn t f = t.block_fn <- Some f

(* --- structured adversary: partitions and link degradation --- *)

(* A link is held iff its endpoints appear in two *different* listed
   groups; processes not listed in any group keep all their links.  Held
   links re-enter the normal delivery path on [heal]: tick's poll-and-
   rearm keeps every queued message alive, so No-loss is preserved. *)
let partition t groups =
  let group_of = Array.make t.n (-1) in
  List.iteri
    (fun g members ->
      List.iter
        (fun p ->
          let i = Id.to_int p in
          if i < 0 || i >= t.n then invalid_arg "Network.partition: id out of range";
          if group_of.(i) >= 0 then
            invalid_arg "Network.partition: process in two groups";
          group_of.(i) <- g)
        members)
    groups;
  t.parts <- group_of :: t.parts

let heal t = t.parts <- []

let degrade t ~src ~dst ?(drop = 0.0) ?(extra_delay = 0) () =
  let si = Id.to_int src and di = Id.to_int dst in
  if si < 0 || si >= t.n || di < 0 || di >= t.n then
    invalid_arg "Network.degrade: id out of range";
  if drop < 0.0 || drop >= 1.0 then
    invalid_arg "Network.degrade: drop probability must be in [0, 1)";
  if extra_delay < 0 then invalid_arg "Network.degrade: negative extra delay";
  let idx = (si * t.n) + di in
  let l = claim t (slot_of t idx) idx in
  l.l_drop <- drop;
  l.l_delay <- extra_delay

let restore t =
  match t.index with
  | Dense links ->
    Array.iter
      (fun l ->
        l.l_drop <- 0.0;
        l.l_delay <- 0)
      links
  | Sparse s ->
    (* Clearing a degradation can leave a link idle; recycle those, but
       collect first — removal moves entries within the table. *)
    let idle = ref [] in
    Array.iter
      (fun l ->
        if l != null_link then begin
          l.l_drop <- 0.0;
          l.l_delay <- 0;
          if l.l_queue == [] && l.l_wake = no_wake then idle := l :: !idle
        end)
      s.vals;
    List.iter (fun l -> maybe_recycle t l) !idle

let set_observer t f = t.observer <- Some f

let account t ~sent ~delivered =
  if sent < 0 || delivered < 0 then invalid_arg "Network.account: negative";
  t.sent <- t.sent + sent;
  t.delivered <- t.delivered + delivered

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    in_flight = t.in_flight_count;
  }

let snapshot = stats

let diff_since t (s0 : stats) =
  let s1 = stats t in
  {
    sent = s1.sent - s0.sent;
    delivered = s1.delivered - s0.delivered;
    dropped = s1.dropped - s0.dropped;
    in_flight = s1.in_flight;
  }
