type _ Effect.t +=
  | Yield : unit Effect.t
  | Self : Mm_core.Id.t Effect.t
  | Send : Mm_core.Id.t * Mm_net.Message.payload -> unit Effect.t
  | Receive : (Mm_core.Id.t * Mm_net.Message.payload) list Effect.t
  | Read_reg : 'a Mm_mem.Mem.reg -> 'a Effect.t
  | Write_reg : 'a Mm_mem.Mem.reg * 'a -> unit Effect.t
  | Coin : bool Effect.t
  | Rand_int : int -> int Effect.t
  | My_steps : int Effect.t
  | Atomic : (unit -> 'b) -> 'b Effect.t

let yield () = Effect.perform Yield
let self () = Effect.perform Self
let send dst payload = Effect.perform (Send (dst, payload))

let send_all ~n payload =
  for q = 0 to n - 1 do
    send (Mm_core.Id.of_int q) payload
  done

let receive () = Effect.perform Receive
let read r = Effect.perform (Read_reg r)
let write r v = Effect.perform (Write_reg (r, v))
let coin () = Effect.perform Coin
let rand_int bound = Effect.perform (Rand_int bound)
let my_steps () = Effect.perform My_steps
let atomic f = Effect.perform (Atomic f)
