(** A reusable simulator arena.

    Sweeps run thousands of short trials; rebuilding the engine (network
    queues, mailboxes, store, process table) for each one dominates the
    fixed per-trial cost.  An arena caches one engine per worker and
    re-seeds it between trials via {!Engine.reset}, which is observably
    identical to a fresh {!Engine.create} (the reset path {e is} the
    create path).  Arenas are single-owner scratch state: never share
    one across domains. *)

type t

(** An empty arena; the first {!engine} call populates it. *)
val create : unit -> t

(** [engine ?arena ... ~n ()] is [Engine.create] with the same optional
    and labelled arguments, except that when [arena] is given and holds
    an engine of the same order [n], that engine is re-seeded and
    returned instead of building a new one.  Without [arena] (or on a
    size mismatch) it falls back to — and caches — a fresh engine. *)
val engine :
  ?arena:t ->
  ?seed:int ->
  ?delay:Mm_net.Network.delay ->
  ?sched:Sched.t ->
  ?trace_capacity:int ->
  ?backend:Mm_mem.Mem.Backend.t ->
  domain:Mm_core.Domain.t ->
  link:Mm_net.Network.kind ->
  n:int ->
  unit ->
  Engine.t
