(* Communication port objects (paper §2, §4).

   A port is "a queueing structure for interprocess communications" with a
   bounded message queue and a queueing discipline.  Send and receive are
   single hardware instructions; a full queue blocks the sender, an empty
   one blocks the receiver.  Messages are arbitrary access descriptors.

   Type rights on a port access: t1 = send right, t2 = receive right.

   Host-cost structures (service order is unchanged bit-for-bit):
   - Fifo discipline: a ring over five parallel arrays (message,
     priority, sequence number, enqueue instant, txn key), grown by
     doubling to the queue's high-water depth and never past its
     capacity, so queueing a message allocates nothing;
   - Priority discipline: a pairing heap keyed by (priority desc, seq
     asc) for messages — replacing O(n) sorted inserts;
   - parked processes, either discipline: two {!Proc_queue}s, the queue
     the dispatching port's levels use, so parking allocates nothing and
     a timeout unlinks its process in O(1).  Receivers are FIFO.
     Senders are FIFO on a Fifo port and ordered by the priority they
     parked at (descending, FIFO within one) on a Priority port; a
     parked sender keeps its message and that priority on its process
     ([q_msg], [q_prio]).  The two stay apart: a group commit frees slots
     with its receives before it admits senders, so a receiver pop must
     never meet a sender.
   [pop] leaves the dequeued message's priority, enqueue instant, txn key
   and queue wait in [last_*] fields, where the interconnect reads them.
   Queue depth is an O(1) counter either way, so the depth statistics
   never cost a list traversal. *)

open I432
open I432_util

type discipline = Fifo | Priority

(* A queued message of a Priority port: its pairing-heap payload. *)
type prio_message = {
  msg : Access.t;
  msg_priority : int;
  seq : int;  (* FIFO tiebreak *)
  enqueued_at : int;  (* virtual ns, for latency statistics *)
  txn : int;  (* idempotency key of the committing transaction, 0 = none *)
}

type t = {
  self : int;
  capacity : int;
  discipline : discipline;
  (* Fifo queue: slot [(q_head + i) mod size] holds the i-th message. *)
  mutable q_msg : Access.t array;
  mutable q_priority : int array;
  mutable q_seq : int array;
  mutable q_at : int array;
  mutable q_txn : int array;
  mutable q_head : int;
  mutable q_len : int;  (* queued messages, either discipline *)
  prio_messages : prio_message Pqueue.t;  (* Priority queue; empty for Fifo *)
  receivers : Proc_queue.t;  (* parked receivers, FIFO *)
  senders : Proc_queue.t;  (* parked senders, service order *)
  blocked_receive : Process.status;  (* [Blocked_receive self], built once *)
  blocked_send : Process.status;
  mutable seq : int;
  (* The message [pop] returned last. *)
  mutable last_priority : int;
  mutable last_enqueued_at : int;
  mutable last_txn : int;
  mutable last_wait_ns : int;  (* its queue wait *)
  (* statistics *)
  mutable sends : int;
  mutable receives : int;
  mutable send_blocks : int;
  mutable receive_blocks : int;
  mutable total_queue_wait_ns : int;
  mutable max_depth : int;
}

type Object_table.payload += Port_state of t

let make ~self ~capacity ~discipline =
  if capacity < 1 then invalid_arg "Port.make: capacity";
  {
    self;
    capacity;
    discipline;
    q_msg = [||];
    q_priority = [||];
    q_seq = [||];
    q_at = [||];
    q_txn = [||];
    q_head = 0;
    q_len = 0;
    prio_messages = Pqueue.create ();
    receivers = Proc_queue.create ();
    senders = Proc_queue.create ();
    blocked_receive = Process.Blocked_receive self;
    blocked_send = Process.Blocked_send self;
    seq = 0;
    last_priority = 0;
    last_enqueued_at = 0;
    last_txn = 0;
    last_wait_ns = 0;
    sends = 0;
    receives = 0;
    send_blocks = 0;
    receive_blocks = 0;
    total_queue_wait_ns = 0;
    max_depth = 0;
  }

(* One table lookup: only a port object carries port state, so the type
   check runs only on the way to a fault. *)
let state_of table access =
  match Object_table.payload table (Object_table.lookup_access table access) with
  | Some (Port_state p) -> p
  | Some _ | None ->
    Segment.check_type table access Obj_type.Port;
    Fault.raise_fault (Fault.Protocol "port object has no port state")

let state_of_index table index =
  match Object_table.payload table (Object_table.lookup table index) with
  | Some (Port_state p) -> p
  | Some _ | None ->
    Fault.raise_fault (Fault.Protocol "port object has no port state")

let check_send_right (access : Access.t) =
  if (Access.rights access).Rights.type_rights land Rights.t1 = 0 then
    Fault.raise_fault
      (Fault.Rights_violation { needed = "send (t1)"; held = Access.rights access })

let check_receive_right (access : Access.t) =
  if (Access.rights access).Rights.type_rights land Rights.t2 = 0 then
    Fault.raise_fault
      (Fault.Rights_violation
         { needed = "receive (t2)"; held = Access.rights access })

let queue_length t = t.q_len
let is_full t = t.q_len >= t.capacity
let is_empty t = t.q_len = 0

let next_seq t =
  let s = t.seq in
  t.seq <- t.seq + 1;
  s

(* The Fifo slot of the [i]-th queued message. *)
let[@inline] slot t i =
  let j = t.q_head + i and size = Array.length t.q_msg in
  if j >= size then j - size else j

(* Double the Fifo arrays (at most to [capacity]), unrolling the ring so
   the head lands in slot 0. *)
let grow t ~msg =
  let size = Int.min t.capacity (Int.max 1 (2 * Array.length t.q_msg)) in
  let unroll a fill =
    let b = Array.make size fill in
    for i = 0 to t.q_len - 1 do
      b.(i) <- a.(slot t i)
    done;
    b
  in
  let q_msg = unroll t.q_msg msg
  and q_priority = unroll t.q_priority 0
  and q_seq = unroll t.q_seq 0
  and q_at = unroll t.q_at 0
  and q_txn = unroll t.q_txn 0 in
  t.q_msg <- q_msg;
  t.q_priority <- q_priority;
  t.q_seq <- q_seq;
  t.q_at <- q_at;
  t.q_txn <- q_txn;
  t.q_head <- 0

(* Enqueue in service order: FIFO appends; Priority orders by descending
   message priority, FIFO within a priority. *)
let enqueue ?(txn = 0) t ~msg ~priority ~now =
  if is_full t then invalid_arg "Port.enqueue: full";
  let seq = next_seq t in
  (match t.discipline with
  | Fifo ->
    if t.q_len = Array.length t.q_msg then grow t ~msg;
    let i = slot t t.q_len in
    t.q_msg.(i) <- msg;
    t.q_priority.(i) <- priority;
    t.q_seq.(i) <- seq;
    t.q_at.(i) <- now;
    t.q_txn.(i) <- txn
  | Priority ->
    Pqueue.insert t.prio_messages ~priority ~seq
      { msg; msg_priority = priority; seq; enqueued_at = now; txn });
  t.q_len <- t.q_len + 1;
  if t.q_len > t.max_depth then t.max_depth <- t.q_len

(* Dequeue the head message, leaving its priority, enqueue instant, txn
   key and queue wait in the [last_*] fields. *)
let pop t ~now =
  if t.q_len = 0 then invalid_arg "Port.pop: empty";
  let msg =
    match t.discipline with
    | Fifo ->
      let i = t.q_head in
      t.q_head <- slot t 1;
      t.last_priority <- t.q_priority.(i);
      t.last_enqueued_at <- t.q_at.(i);
      t.last_txn <- t.q_txn.(i);
      t.q_msg.(i)
    | Priority -> (
      match Pqueue.pop t.prio_messages with
      | Some m ->
        t.last_priority <- m.msg_priority;
        t.last_enqueued_at <- m.enqueued_at;
        t.last_txn <- m.txn;
        m.msg
      | None -> assert false (* q_len > 0 *))
  in
  t.q_len <- t.q_len - 1;
  (* Clamp: the receiver's processor clock can trail the sender's. *)
  let wait = Int.max 0 (now - t.last_enqueued_at) in
  t.total_queue_wait_ns <- t.total_queue_wait_ns + wait;
  t.last_wait_ns <- wait;
  msg

let dequeue t ~now = if is_empty t then None else Some (pop t ~now)

(* A parked sender draws a sequence number, as a queued message does,
   so message numbering is the seed's. *)
let park_sender t (proc : Process.t) ~msg =
  ignore (next_seq t);
  proc.Process.q_msg <- msg;
  proc.Process.q_prio <- proc.Process.priority;
  match t.discipline with
  | Fifo -> Proc_queue.push t.senders proc
  | Priority -> Proc_queue.insert_by_priority t.senders proc

(* Root-scan and image hook: visit every queued message once — a Fifo
   queue in service order, a Priority one in heap order. *)
let iter_messages f t =
  match t.discipline with
  | Fifo ->
    for i = 0 to t.q_len - 1 do
      let j = slot t i in
      f ~msg:t.q_msg.(j) ~priority:t.q_priority.(j) ~seq:t.q_seq.(j)
        ~enqueued_at:t.q_at.(j) ~txn:t.q_txn.(j)
    done
  | Priority ->
    Pqueue.iter
      (fun m ->
        f ~msg:m.msg ~priority:m.msg_priority ~seq:m.seq
          ~enqueued_at:m.enqueued_at ~txn:m.txn)
      t.prio_messages

(* Mean time a message spent queued, in ns. *)
let mean_queue_wait_ns t =
  if t.receives = 0 then 0.0
  else float_of_int t.total_queue_wait_ns /. float_of_int t.receives

let discipline_to_string = function Fifo -> "FIFO" | Priority -> "priority"
