type t = { mutable engine : Engine.t option }

let create () = { engine = None }

let engine ?arena ?seed ?delay ?sched ?trace_capacity ?backend ~domain ~link
    ~n () =
  match arena with
  | None ->
    Engine.create ?seed ?delay ?sched ?trace_capacity ?backend ~domain ~link
      ~n ()
  | Some a -> (
    match a.engine with
    | Some e when Engine.n e = n ->
      (* Reset re-initialises the backend state in place (quorum
         counters, transport hook), so trials of different backends can
         share one arena without bleed. *)
      Engine.reset e ?seed ?delay ?sched ?trace_capacity ?backend ~domain
        ~link ();
      e
    | _ ->
      (* First use, or the system size changed: build fresh and cache. *)
      let e =
        Engine.create ?seed ?delay ?sched ?trace_capacity ?backend ~domain
          ~link ~n ()
      in
      a.engine <- Some e;
      e)
