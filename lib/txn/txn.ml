(* Transactional multi-object send (DESIGN.md §15).

   A group stages receives, sends, and data writes against any number of
   ports and objects; [commit] hands the whole group to the kernel's
   Txn_try syscall, which validates every leg in deterministic (ascending
   object-index) order and applies all of them at one virtual-time
   instant — or applies none and reports the first conflicting object.
   This layer owns policy: bounded retry with doubling virtual-time
   backoff, a compensation hook on abort (the §8 destruction-filter shape
   reused), loud typed abort events, and the idempotency-key discipline
   that makes cluster retries exactly-once.

   Key discipline: keys are allocated on a stride of [key_stride] because
   the kernel tags the i-th send of group [k] with [k + i] — each logical
   send gets a cluster-unique tag the receiving NIC can dedup on after a
   failover replay.  [key ~origin ~seq] packs an origin id and a local
   sequence number so concurrent allocators never collide. *)

module K = I432_kernel
module Obs = I432_obs

let key_stride = 64
let max_seq = 0x100000

let key ~origin ~seq =
  if origin < 0 then invalid_arg "Txn.key: negative origin";
  if seq < 0 || seq >= max_seq then
    invalid_arg (Printf.sprintf "Txn.key: seq %d out of [0, %d)" seq max_seq);
  ((origin * max_seq) + seq + 1) * key_stride

type group = {
  mutable g_receives : I432.Access.t list;  (* reverse staging order *)
  mutable g_sends : (I432.Access.t * I432.Access.t) list;
  mutable g_writes : (I432.Access.t * int * int) list;
}

let group () = { g_receives = []; g_sends = []; g_writes = [] }
let receive g port = g.g_receives <- port :: g.g_receives
let send g ~port ~msg = g.g_sends <- (port, msg) :: g.g_sends

let write g obj ~offset ~word =
  g.g_writes <- (obj, offset, word) :: g.g_writes

type outcome =
  | Committed of {
      received : I432.Access.t list;
      commit_ns : int;
      fresh : bool;
      attempts : int;
    }
  | Aborted of { port : int; reason : string; attempts : int }

let lazy_incr m name = Obs.Metrics.incr (Obs.Metrics.counter m name)

let commit machine ?(key = 0) ?(retries = 8) ?(backoff_ns = 1_000)
    ?compensate ?history g =
  let receives = List.rev g.g_receives in
  let sends = List.rev g.g_sends in
  let writes = List.rev g.g_writes in
  if key <> 0 && key mod key_stride <> 0 then
    invalid_arg "Txn.commit: keys must come from Txn.key (stride-aligned)";
  if key <> 0 && List.length sends > key_stride then
    invalid_arg
      (Printf.sprintf "Txn.commit: a keyed group is limited to %d sends"
         key_stride);
  let metrics = K.Machine.metrics machine in
  let rec attempt n backoff =
    match K.Machine.txn_try machine ~key ~receives ~sends ~writes () with
    | K.Syscall.Txn_committed { received; commit_ns; fresh } ->
      if fresh then (
        match history with
        | Some h -> History.observe h ~commit_ns ~key ~writes
        | None -> ());
      Committed { received; commit_ns; fresh; attempts = n }
    | K.Syscall.Txn_conflict { port; reason } ->
      if n > retries then begin
        lazy_incr metrics "txn.aborts";
        K.Machine.emit machine Obs.Event.Txn_abort ~name_id:0
          ~detail_id:(K.Machine.string_id machine reason) ~a:key ~b:port;
        (match compensate with Some f -> f () | None -> ());
        Aborted { port; reason; attempts = n }
      end
      else begin
        lazy_incr metrics "txn.retries";
        K.Machine.delay machine ~ns:backoff;
        attempt (n + 1) (backoff * 2)
      end
  in
  attempt 1 backoff_ns
