(* The Ada intertask communication model, implemented on 432 ports.

   Paper §4: the port mechanism "is more flexible than the Ada intertask
   communication model.  It is used by the Ada compiler to implement the
   Ada model but is also available to the user who wishes the more general
   mechanism."  This module is that compiler mapping: Ada tasks are 432
   processes, an entry is a request port plus per-call reply ports, and a
   rendezvous is a send (entry call) matched by a receive/accept and a
   reply send.

   Paper §5: "Processes themselves are each created from an SRO and have
   their lifetimes constrained just as described for all objects.  This
   corresponds exactly to the Ada task model. ...  A group of tasks
   communicate with each other via ports defined in a scope common to all
   tasks in the group."

   Calls carry one 432 object as the in/out parameter, matching the
   any-access message model of Figure 1; typed views come from wrapping an
   entry with Typed_ports conversions. *)

open I432
module K = I432_kernel

(* A task is its 432 process. *)
type task = Access.t

(* An entry: the request port carries (parameter, reply port) pairs.  The
   pair itself is a 432 object with two access slots, so the whole
   rendezvous is visible to the protection system and the collector. *)
type entry = {
  machine : K.Machine.t;
  request_port : Access.t;
  mutable calls : int;
  mutable accepts : int;
}

(* An accepted call, handed to the accept body. *)
type rendezvous = {
  parameter : Access.t;
  reply_port : Access.t;
  carrier : Access.t;  (* the pair object; reusable for the reply *)
}

let create_task machine ?(priority = 8) ~name body =
  K.Machine.spawn machine ~priority ~name body

(* Declare an entry with a bounded call queue. *)
let create_entry machine ?(queue = 8) () =
  {
    machine;
    request_port =
      K.Machine.create_port machine ~capacity:queue ~discipline:K.Port.Fifo ();
    calls = 0;
    accepts = 0;
  }

let call_count e = e.calls
let accept_count e = e.accepts

(* Entry call: send the parameter and block until the accept body replies —
   Ada's synchronous rendezvous.  Returns the (possibly different) result
   object. *)
let call e ~parameter =
  let m = e.machine in
  e.calls <- e.calls + 1;
  let reply_port = K.Machine.create_port m ~capacity:1 ~discipline:K.Port.Fifo () in
  let carrier =
    K.Machine.allocate m (K.Machine.global_sro m) ~data_length:0
      ~access_length:2 ~otype:Obj_type.Generic
  in
  K.Machine.store_access m carrier ~slot:0 (Some parameter);
  K.Machine.store_access m carrier ~slot:1 (Some reply_port);
  K.Machine.send m ~port:e.request_port ~msg:carrier;
  (* Rendezvous: the caller is suspended until the server replies. *)
  K.Machine.receive m ~port:reply_port

(* Accept one call: receive a request, run the body, send the body's result
   back on the caller's reply port. *)
let accept e ~body =
  let m = e.machine in
  let carrier = K.Machine.receive m ~port:e.request_port in
  e.accepts <- e.accepts + 1;
  let get slot =
    match K.Machine.load_access m carrier ~slot with
    | Some a -> a
    | None -> Fault.raise_fault (Fault.Protocol "malformed entry call carrier")
  in
  let rendezvous =
    { parameter = get 0; reply_port = get 1; carrier }
  in
  let result = body rendezvous.parameter in
  K.Machine.send m ~port:rendezvous.reply_port ~msg:result

(* Conditional accept (Ada's "select ... else"): accept only if a call is
   already queued.  Returns false when no caller was waiting. *)
let try_accept e ~body =
  let m = e.machine in
  match K.Machine.cond_receive m ~port:e.request_port with
  | None -> false
  | Some carrier ->
    e.accepts <- e.accepts + 1;
    let get slot =
      match K.Machine.load_access m carrier ~slot with
      | Some a -> a
      | None -> Fault.raise_fault (Fault.Protocol "malformed entry call carrier")
    in
    let result = body (get 0) in
    K.Machine.send m ~port:(get 1) ~msg:result;
    true

(* Selective wait over several entries (Ada's select): poll for a queued
   call, yielding between sweeps; accept the first available.  [until]
   bounds the wait in virtual time; None means wait forever. *)
let select ?until e_bodies =
  match e_bodies with
  | [] -> invalid_arg "Ada_tasks.select: no alternatives"
  | (first, _) :: _ ->
    let m = first.machine in
    let rec sweep () =
      let accepted =
        List.exists (fun (e, body) -> try_accept e ~body) e_bodies
      in
      if accepted then true
      else
        match until with
        | Some deadline when K.Machine.now m >= deadline -> false
        | Some _ | None ->
          K.Machine.yield m;
          sweep ()
    in
    sweep ()
