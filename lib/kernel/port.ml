(* Communication port objects (paper §2, §4).

   A port is "a queueing structure for interprocess communications" with a
   bounded message queue and a queueing discipline.  Send and receive are
   single hardware instructions; a full queue blocks the sender, an empty
   one blocks the receiver.  Messages are arbitrary access descriptors.

   Type rights on a port access: t1 = send right, t2 = receive right.

   Host-cost structures (service order is unchanged bit-for-bit):
   - Fifo discipline: ring buffer for messages (capacity is part of the
     port's semantics) and an O(1) queue for blocked senders — replacing
     O(n) list appends;
   - Priority discipline: pairing heaps keyed by (priority desc, seq asc)
     for messages and blocked senders — replacing O(n) sorted inserts.
   Queue depth is an O(1) counter either way, so the depth statistics no
   longer cost a list traversal per operation. *)

open I432
open I432_util

type discipline = Fifo | Priority

type queued_message = {
  msg : Access.t;
  msg_priority : int;
  seq : int;  (* FIFO tiebreak *)
  enqueued_at : int;  (* virtual ns, for latency statistics *)
  txn : int;  (* idempotency key of the committing transaction, 0 = none *)
}

type waiting_sender = {
  sender : int;  (* process object index *)
  sender_msg : Access.t;
  sender_priority : int;
  sender_seq : int;
}

type messages =
  | M_fifo of queued_message Ring_buffer.t
  | M_prio of queued_message Pqueue.t

type senders =
  | S_fifo of waiting_sender Queue.t
  | S_prio of waiting_sender Pqueue.t

type t = {
  self : int;
  capacity : int;
  discipline : discipline;
  messages : messages;
  senders : senders;  (* blocked senders, service order *)
  receivers : int Queue.t;  (* blocked receiver process indices, FIFO *)
  mutable seq : int;
  (* statistics *)
  mutable sends : int;
  mutable receives : int;
  mutable send_blocks : int;
  mutable receive_blocks : int;
  mutable total_queue_wait_ns : int;
  mutable last_wait_ns : int;  (* queue wait of the last dequeued message *)
  mutable max_depth : int;
}

type Object_table.payload += Port_state of t

let make ~self ~capacity ~discipline =
  if capacity < 1 then invalid_arg "Port.make: capacity";
  {
    self;
    capacity;
    discipline;
    messages =
      (match discipline with
      | Fifo -> M_fifo (Ring_buffer.create capacity)
      | Priority -> M_prio (Pqueue.create ()));
    senders =
      (match discipline with
      | Fifo -> S_fifo (Queue.create ())
      | Priority -> S_prio (Pqueue.create ()));
    receivers = Queue.create ();
    seq = 0;
    sends = 0;
    receives = 0;
    send_blocks = 0;
    receive_blocks = 0;
    total_queue_wait_ns = 0;
    last_wait_ns = 0;
    max_depth = 0;
  }

let state_of table access =
  Segment.check_type table access Obj_type.Port;
  let e = Object_table.entry_of_access table access in
  match e.Object_table.payload with
  | Some (Port_state p) -> p
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "port object has no port state")

let state_of_index table index =
  let e = Object_table.lookup table index in
  match e.Object_table.payload with
  | Some (Port_state p) -> p
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "port object has no port state")

let check_send_right access =
  if not (Rights.has_type_right (Access.rights access) Rights.t1) then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "send (t1)"; held = Access.rights access })

let check_receive_right access =
  if not (Rights.has_type_right (Access.rights access) Rights.t2) then
    Fault.raise_fault
      (Fault.Rights_violation
         { needed = "receive (t2)"; held = Access.rights access })

let queue_length t =
  match t.messages with
  | M_fifo rb -> Ring_buffer.length rb
  | M_prio q -> Pqueue.size q

let is_full t = queue_length t >= t.capacity
let is_empty t = queue_length t = 0
let has_blocked_receiver t = not (Queue.is_empty t.receivers)

let has_blocked_sender t =
  match t.senders with
  | S_fifo q -> not (Queue.is_empty q)
  | S_prio q -> not (Pqueue.is_empty q)

let next_seq t =
  let s = t.seq in
  t.seq <- t.seq + 1;
  s

(* Enqueue in service order: FIFO appends; Priority orders by descending
   message priority, FIFO within a priority. *)
let enqueue ?(txn = 0) t ~msg ~priority ~now =
  if is_full t then invalid_arg "Port.enqueue: full";
  let qm =
    { msg; msg_priority = priority; seq = next_seq t; enqueued_at = now; txn }
  in
  (match t.messages with
  | M_fifo rb -> Ring_buffer.push rb qm
  | M_prio q -> Pqueue.insert q ~priority:qm.msg_priority ~seq:qm.seq qm);
  let d = queue_length t in
  if d > t.max_depth then t.max_depth <- d

(* Like [dequeue], but keeps the queue record: the interconnect layer needs
   the message's priority (preserved across the wire) and its enqueue time
   (the virtual instant the frame departs). *)
let dequeue_entry t ~now =
  let front =
    match t.messages with
    | M_fifo rb -> Ring_buffer.pop rb
    | M_prio q -> Pqueue.pop q
  in
  (match front with
  | None -> ()
  | Some qm ->
    (* Clamp: the receiver's processor clock can trail the sender's. *)
    let wait = max 0 (now - qm.enqueued_at) in
    t.total_queue_wait_ns <- t.total_queue_wait_ns + wait;
    t.last_wait_ns <- wait);
  front

let dequeue t ~now =
  match dequeue_entry t ~now with None -> None | Some qm -> Some qm.msg

(* The first parked receiver's process index, or -1. *)
let pop_receiver t =
  if Queue.is_empty t.receivers then -1 else Queue.take t.receivers
let push_receiver t index = Queue.push index t.receivers

let pop_sender t =
  match t.senders with
  | S_fifo q -> Queue.take_opt q
  | S_prio q -> Pqueue.pop q

let push_sender t ~sender ~msg ~priority =
  let ws =
    { sender; sender_msg = msg; sender_priority = priority; sender_seq = next_seq t }
  in
  match t.senders with
  | S_fifo q -> Queue.push ws q
  | S_prio q -> Pqueue.insert q ~priority:ws.sender_priority ~seq:ws.sender_seq ws

(* Timeout support: surgically remove one parked process from a blocked
   queue, preserving the service order of everyone else.  These rebuild the
   queue (O(n)); they run only when a timeout actually fires, never on the
   send/receive fast path. *)
let remove_receiver t ~index =
  let found = ref false in
  let keep = Queue.create () in
  Queue.iter
    (fun i -> if i = index && not !found then found := true else Queue.push i keep)
    t.receivers;
  if !found then (
    Queue.clear t.receivers;
    Queue.transfer keep t.receivers);
  !found

let remove_sender t ~index =
  let found = ref None in
  (match t.senders with
  | S_fifo q ->
    let keep = Queue.create () in
    Queue.iter
      (fun ws ->
        if ws.sender = index && !found = None then found := Some ws
        else Queue.push ws keep)
      q;
    if !found <> None then (
      Queue.clear q;
      Queue.transfer keep q)
  | S_prio q ->
    (* Drain and reinsert with the original (priority, seq) keys, so the
       survivors keep their exact service order. *)
    let keep = ref [] in
    let rec drain () =
      match Pqueue.pop q with
      | None -> ()
      | Some ws ->
        if ws.sender = index && !found = None then found := Some ws
        else keep := ws :: !keep;
        drain ()
    in
    drain ();
    List.iter
      (fun ws ->
        Pqueue.insert q ~priority:ws.sender_priority ~seq:ws.sender_seq ws)
      !keep);
  !found

(* Root-scan hooks for the collector: visit every queued message / blocked
   sender once, in no particular order (shading is order-insensitive). *)
let iter_messages f t =
  match t.messages with
  | M_fifo rb -> Ring_buffer.iter f rb
  | M_prio q -> Pqueue.iter f q

let iter_senders f t =
  match t.senders with
  | S_fifo q -> Queue.iter f q
  | S_prio q -> Pqueue.iter f q

(* Mean time a message spent queued, in ns. *)
let mean_queue_wait_ns t =
  if t.receives = 0 then 0.0
  else float_of_int t.total_queue_wait_ns /. float_of_int t.receives

let discipline_to_string = function Fifo -> "FIFO" | Priority -> "priority"
