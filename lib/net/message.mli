(** Messages carried by the network.

    Payloads form an open (extensible) variant: each algorithm registers
    its own constructors, so a single simulated network can carry messages
    from several protocols at once while keeping pattern matching typed. *)

type payload = ..
