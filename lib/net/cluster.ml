(* A deterministic cluster of machines joined by a virtual interconnect.

   Each node is an independent Machine.t — its own object table, memory,
   processors, and virtual clock.  The cluster advances them under one
   global virtual clock with quantum-based horizon stepping: every round,
   each machine runs until its clocks pass the shared horizon, then the
   NIC pump moves frames.  The pump

   - drains exported surrogate ports in service order (window-bounded, so
     local senders feel backpressure by blocking on the surrogate),
   - marshals each message with Object_filing's wire codec (types, seals,
     sharing and cycles preserved; rights intersected with the export
     mask, so a descriptor can never arrive amplified),
   - transmits frames over links (latency + serialization delay; the
     armed link-fault plan drops/duplicates/reorders/partitions them),
   - delivers arrivals by reconstructing the graph on the destination
     node's heap and landing it in the home port, waking blocked
     receivers exactly as a local send would.

   Reliability is NIC-level ARQ: per-channel sequence numbers, an ack on
   first receipt, a per-channel dup filter (re-acked, never
   re-delivered), and bounded retransmission with a doubling RTO — so
   every message is delivered at most once despite drops and duplicates,
   and a partitioned channel eventually counts its frames lost rather
   than hanging the pump.  Loss recovery can deliver a later sequence
   number before an earlier one's retransmission lands; restoring
   application order across a lossy link is the application's business
   (on a clean link, delivery follows send order).  The per-channel ARQ
   state lives in {!Arq}: a ring of unacked frames with a deadline bound,
   so a round with nothing due costs O(1), and a watermark dup filter.

   A run ends quiescent (nothing stepping, in flight, unacked or
   backlogged) or at [max_rounds]; the report's [stop] says which, so a
   caller that did not ask for a bound can refuse a truncated run.

   Everything is keyed on virtual time and explicit sequence numbers:
   same topology + same workload + same fault seed => byte-identical
   event streams on every node.  A machine that never joins a cluster is
   untouched — no counters registered, no events emitted. *)

open I432
module K = I432_kernel
module Obs = I432_obs
module U = I432_util
module Fi = I432_fi.Fi
module Filing = Imax.Object_filing

type node = {
  id : int;
  node_name : string;
  machine : K.Machine.t;
  (* Whole-node failure state.  A dead node's machine stops stepping and
     its inbound frames drop; [n_down_since, n_up_since) is the last
     outage window, used to reject arrivals that fall inside it.  A node
     that never died has n_down_since = max_int. *)
  mutable n_alive : bool;
  mutable n_down_since : int;
  mutable n_up_since : int;
  mutable n_parked : Name_service.entry list;
      (* names withdrawn at kill, republished (bumped epoch) at restart *)
  (* Registered only when the node joins, so non-cluster machines keep a
     byte-identical metrics dump. *)
  m_frames_tx : Obs.Metrics.counter;
  m_frames_rx : Obs.Metrics.counter;
  m_remote_sends : Obs.Metrics.counter;
  m_remote_delivers : Obs.Metrics.counter;
  m_retransmits : Obs.Metrics.counter;
  m_frames_lost : Obs.Metrics.counter;
  m_dead_letters : Obs.Metrics.counter;
  m_restarts : Obs.Metrics.counter;
}

(* One import: a surrogate port on [ch_src] standing for [ch_name], whose
   home is [ch_home] on node [ch_dst], joined by [ch_link]. *)
type channel = {
  ch_id : int;
  ch_name : string;
  ch_src : int;  (* importing node *)
  ch_dst : int;  (* home node *)
  ch_link : Link.t;
  ch_surrogate : Access.t;  (* full-rights AD the NIC drains through *)
  ch_surrogate_ad : Access.t;  (* send-only AD handed to importers *)
  ch_home : Access.t;
  ch_mask : Rights.t;
  mutable ch_next_seq : int;
  ch_unacked : Frame.t Arq.Unacked.t;  (* seq -> retransmission state *)
  ch_seen : Arq.Seen.t;  (* destination-side dup filter *)
  ch_backlog : (Frame.t * Access.t) Queue.t;
      (* arrived (and acked) but home port was full; each msg is rooted on
         the destination machine until delivered *)
  mutable ch_frames_dead : int;  (* gave up after max_retries *)
  mutable ch_dead_letters : int;  (* dead-lettered against a dead node *)
}

type t = {
  ns : Name_service.t;
  window : int;  (* max unacked data frames per channel *)
  max_retries : int;
  default_latency_ns : int;
  default_ns_per_byte : int;
  mutable nodes : node array;
  mutable links : Link.t list;  (* in id order *)
  mutable channels : channel array;  (* indexed by ch_id, in import order *)
  in_flight : Frame.t U.Pqueue.t;  (* keyed (-arrival, uid) *)
  mutable uid : int;
  mutable link_events : Fi.link_event list;  (* pending, sorted by l_at_ns *)
  mutable node_events : Fi.node_event list;  (* pending, sorted by n_at_ns *)
  mutable node_restore : (node:int -> at_ns:int -> K.Machine.t) option;
      (* supplies the replacement machine at restart instants; typically
         a checkpoint replay (Checkpoint.restore_node) *)
  mutable cur_horizon : int;
      (* last horizon reached by [run].  Persisted so a resumed run
         continues the same quantum grid: without it, a kill at a round
         boundary would restart the grid from the max node clock and the
         resumed run's idle-clock advancement would diverge from a
         straight run's. *)
  (* Transaction-level dedup: (dst node, idempotency key) pairs already
     delivered.  Lives on the cluster, not the node record, deliberately:
     a node restart splices in a fresh node record, and the whole point
     is to drop a committed group's re-sent frames after exactly such a
     failover.  A shadow replay rebuilds the same table deterministically. *)
  txn_seen : (int * int, unit) Hashtbl.t;
  mutable txn_dup_drops : int;
  (* cluster-wide statistics *)
  mutable frames_sent : int;  (* data frames, first transmissions *)
  mutable frames_delivered : int;
  mutable frames_lost : int;  (* gave up after max_retries *)
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable dup_drops : int;
  mutable dead_letters : int;  (* frames that could only ever reach a dead node *)
  mutable clocks : int array;  (* node clocks before a round, reused *)
}

let create ?(window = 8) ?(max_retries = 10) ?(default_latency_ns = 250_000)
    ?(default_ns_per_byte = 10) () =
  if window < 1 then invalid_arg "Cluster.create: window";
  if max_retries < 0 then invalid_arg "Cluster.create: max_retries";
  {
    ns = Name_service.create ();
    window;
    max_retries;
    default_latency_ns;
    default_ns_per_byte;
    nodes = [||];
    links = [];
    channels = [||];
    in_flight = U.Pqueue.create ();
    uid = 0;
    link_events = [];
    node_events = [];
    node_restore = None;
    cur_horizon = 0;
    txn_seen = Hashtbl.create 64;
    txn_dup_drops = 0;
    frames_sent = 0;
    frames_delivered = 0;
    frames_lost = 0;
    retransmits = 0;
    acks_sent = 0;
    dup_drops = 0;
    dead_letters = 0;
    clocks = [||];
  }

let node_count t = Array.length t.nodes

let node_of t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster: unknown node %d" id);
  t.nodes.(id)

let machine t id = (node_of t id).machine
let node_name t id = (node_of t id).node_name
let name_service t = t.ns

let mk_node ~id ~name ~alive ~down_since ~up_since machine =
  let metrics = K.Machine.metrics machine in
  let c n = Obs.Metrics.counter metrics n in
  {
    id;
    node_name = name;
    machine;
    n_alive = alive;
    n_down_since = down_since;
    n_up_since = up_since;
    n_parked = [];
    m_frames_tx = c "net.frames_tx";
    m_frames_rx = c "net.frames_rx";
    m_remote_sends = c "net.remote_sends";
    m_remote_delivers = c "net.remote_delivers";
    m_retransmits = c "net.retransmits";
    m_frames_lost = c "net.frames_lost";
    m_dead_letters = c "node.dead_letters";
    m_restarts = c "node.restarts";
  }

let boot_node t ~name ?config () =
  let machine = K.Machine.create ?config () in
  let id = Array.length t.nodes in
  let node =
    mk_node ~id ~name ~alive:true ~down_since:max_int ~up_since:0 machine
  in
  t.nodes <- Array.append t.nodes [| node |];
  t.clocks <- Array.make (Array.length t.nodes) 0;
  (id, machine)

let connect t ?latency_ns ?ns_per_byte a b =
  if a = b then invalid_arg "Cluster.connect: self-link";
  ignore (node_of t a);
  ignore (node_of t b);
  let latency_ns =
    match latency_ns with Some l -> l | None -> t.default_latency_ns
  in
  let ns_per_byte =
    match ns_per_byte with Some c -> c | None -> t.default_ns_per_byte
  in
  let id = List.length t.links in
  let link = Link.make ~id ~node_a:a ~node_b:b ~latency_ns ~ns_per_byte in
  t.links <- t.links @ [ link ];
  link

let links t = t.links

let link_between t a b =
  List.find_opt (fun l -> Link.connects l a b) t.links

let link_by_id t id = List.find_opt (fun (l : Link.t) -> l.Link.id = id) t.links

let arm_links t (plan : Fi.link_plan) =
  t.link_events <-
    List.stable_sort
      (fun (a : Fi.link_event) b -> compare a.Fi.l_at_ns b.Fi.l_at_ns)
      (t.link_events @ plan.Fi.l_events)

(* ------------------------------------------------------------------ *)
(* Export / import                                                     *)
(* ------------------------------------------------------------------ *)

let export t ~node ~name ?(mask = Rights.full) ?capacity port =
  let n = node_of t node in
  K.Port.check_send_right port;
  let state = K.Port.state_of (K.Machine.table n.machine) port in
  let capacity =
    match capacity with Some c -> c | None -> state.K.Port.capacity
  in
  Name_service.publish t.ns
    {
      Name_service.e_name = name;
      e_node = node;
      e_port = port;
      e_mask = mask;
      e_capacity = capacity;
      e_epoch = 0;  (* restamped by publish *)
    }

exception Not_exported of string
exception No_route of string

(* The send-only rights importers get: receiving from a surrogate would
   race the NIC drain, so the t2 right stays behind. *)
let surrogate_rights = Rights.remove_type_right Rights.full Rights.t2

let import t ~node ~name =
  match Name_service.lookup t.ns name with
  | None -> raise (Not_exported name)
  | Some e ->
    if e.Name_service.e_node = node then
      (* Importing on the home node: the name resolves to the home port
         itself, send-only like any surrogate AD. *)
      Access.restrict e.Name_service.e_port surrogate_rights
    else (
      match
        Array.find_opt
          (fun ch -> ch.ch_src = node && String.equal ch.ch_name name)
          t.channels
      with
      | Some ch -> ch.ch_surrogate_ad
      | None ->
        let link =
          match link_between t node e.Name_service.e_node with
          | Some l -> l
          | None ->
            raise
              (No_route
                 (Printf.sprintf "%s: no link node%d <-> node%d" name node
                    e.Name_service.e_node))
        in
        let importer = node_of t node in
        let home = node_of t e.Name_service.e_node in
        let discipline =
          (K.Port.state_of (K.Machine.table home.machine)
             e.Name_service.e_port)
            .K.Port.discipline
        in
        let surrogate =
          K.Machine.create_port importer.machine
            ~capacity:e.Name_service.e_capacity ~discipline ()
        in
        let ch =
          {
            ch_id = Array.length t.channels;
            ch_name = name;
            ch_src = node;
            ch_dst = e.Name_service.e_node;
            ch_link = link;
            ch_surrogate = surrogate;
            ch_surrogate_ad = Access.restrict surrogate surrogate_rights;
            ch_home = e.Name_service.e_port;
            ch_mask = e.Name_service.e_mask;
            ch_next_seq = 0;
            ch_unacked = Arq.Unacked.create ();
            ch_seen = Arq.Seen.create ();
            ch_backlog = Queue.create ();
            ch_frames_dead = 0;
            ch_dead_letters = 0;
          }
        in
        t.channels <- Array.append t.channels [| ch |];
        ch.ch_surrogate_ad)

let channels t = Array.to_list t.channels

let channel_by_id t id =
  if id < 0 || id >= Array.length t.channels then
    invalid_arg (Printf.sprintf "Cluster: unknown channel %d" id);
  t.channels.(id)

(* ------------------------------------------------------------------ *)
(* The NIC pump                                                        *)
(* ------------------------------------------------------------------ *)

(* The pump's events are stamped with the instant they describe, not the
   node's clock, so they go straight to the node's tracer (cpu -1).  A
   frame event names the frame's kind; callers test [traced] before
   looking it up, so an untraced node does not. *)
let[@inline] tracer node = K.Machine.tracer node.machine
let[@inline] traced node = Obs.Tracer.enabled (tracer node)

let fresh_uid t =
  let u = t.uid in
  t.uid <- t.uid + 1;
  u

(* Retransmission timeout: four one-way trips of this frame, doubled per
   retry by the caller. *)
let rto link size_bytes =
  4 * (link.Link.latency_ns + (size_bytes * link.Link.ns_per_byte) + 1)

(* Does [n] accept a frame arriving at [arrival]?  Anything landing in
   the node's last outage window is gone — the dead machine cannot have
   received it, and the restarted machine replays from a checkpoint that
   predates it.  Arrivals before the window were received by the old
   incarnation; arrivals after it land on the new one. *)
let node_accepts n ~arrival =
  if n.n_alive then arrival < n.n_down_since || arrival >= n.n_up_since
  else arrival < n.n_down_since

(* A frame whose only possible destination is dead: surfaced as an event
   on the sender plus counters at every level, never a silent stall. *)
let dead_letter t ch (frame : Frame.t) ~now =
  let src = node_of t ch.ch_src in
  let tr = tracer src in
  Obs.Tracer.emit tr Obs.Event.Dead_letter ~cpu:(-1) ~ts_ns:now
    ~name_id:(Obs.Tracer.string_id tr ch.ch_name) ~detail_id:0 ~a:ch.ch_id
    ~b:frame.Frame.seq;
  Obs.Metrics.incr src.m_dead_letters;
  ch.ch_dead_letters <- ch.ch_dead_letters + 1;
  t.dead_letters <- t.dead_letters + 1

let rec put_in_flight t (frame : Frame.t) = function
  | [] -> ()
  | arrival :: rest ->
    U.Pqueue.insert t.in_flight ~priority:(-arrival) ~seq:frame.Frame.uid frame;
    put_in_flight t frame rest

(* Put a frame on the wire no earlier than [now]; returns the departure
   instant.  Lost copies still cost a Frame_tx (the NIC did transmit). *)
let send_frame t (frame : Frame.t) ~now =
  let src = node_of t frame.Frame.src in
  let ch = channel_by_id t frame.Frame.channel in
  let depart, arrivals =
    Link.transmit ch.ch_link ~now ~src:frame.Frame.src
      ~size_bytes:frame.Frame.size_bytes
  in
  if traced src then begin
    let tr = tracer src in
    Obs.Tracer.emit tr Obs.Event.Frame_tx ~cpu:(-1) ~ts_ns:depart
      ~name_id:(Obs.Tracer.string_id tr frame.Frame.port_name)
      ~detail_id:
        (Obs.Tracer.string_id tr (Frame.kind_to_string frame.Frame.kind))
      ~a:frame.Frame.seq ~b:frame.Frame.dst
  end;
  Obs.Metrics.incr src.m_frames_tx;
  put_in_flight t frame arrivals;
  depart

let send_ack t ch (data : Frame.t) ~now =
  let ack =
    {
      Frame.uid = fresh_uid t;
      kind = Frame.Ack;
      src = ch.ch_dst;
      dst = ch.ch_src;
      channel = ch.ch_id;
      seq = data.Frame.seq;
      port_name = ch.ch_name;
      priority = 0;
      size_bytes = Frame.ack_bytes;
      txn = 0;
    }
  in
  t.acks_sent <- t.acks_sent + 1;
  ignore (send_frame t ack ~now)

(* Drain a surrogate into data frames, at most window - unacked of them.
   Each drained message is marshalled immediately: the frame owns a wire
   image, not a live descriptor, so the source object can be mutated or
   collected afterwards without affecting the bytes in flight. *)
(* A dead source drains nothing (its machine is not running); a dead
   destination does NOT stop the drain — senders keep their ordinary
   window backpressure and each frame either survives to the restarted
   node or dead-letters after bounded retries. *)
let drain_channel t ch =
  let src = node_of t ch.ch_src in
  if src.n_alive then begin
    let budget = ref (t.window - Arq.Unacked.length ch.ch_unacked) in
    let port = K.Port.state_of (K.Machine.table src.machine) ch.ch_surrogate in
    while !budget > 0 do
      match K.Machine.drain_one src.machine port with
      | None -> budget := 0
      | Some msg ->
        decr budget;
        let priority = port.K.Port.last_priority
        and enqueued_at = port.K.Port.last_enqueued_at
        and txn = port.K.Port.last_txn in
        let wire = Filing.capture src.machine ~mask:ch.ch_mask msg in
        let seq = ch.ch_next_seq in
        ch.ch_next_seq <- ch.ch_next_seq + 1;
        let frame =
          {
            Frame.uid = fresh_uid t;
            kind = Frame.Data wire;
            src = ch.ch_src;
            dst = ch.ch_dst;
            channel = ch.ch_id;
            seq;
            port_name = ch.ch_name;
            priority;
            size_bytes = Filing.wire_bytes wire;
            txn;
          }
        in
        let tr = tracer src in
        Obs.Tracer.emit tr Obs.Event.Remote_send ~cpu:(-1) ~ts_ns:enqueued_at
          ~name_id:(Obs.Tracer.string_id tr ch.ch_name) ~detail_id:0
          ~a:ch.ch_id ~b:seq;
        Obs.Metrics.incr src.m_remote_sends;
        t.frames_sent <- t.frames_sent + 1;
        let depart = send_frame t frame ~now:enqueued_at in
        Arq.Unacked.add ch.ch_unacked ~seq frame
          ~deadline:(depart + rto ch.ch_link frame.Frame.size_bytes)
    done
  end

(* One due frame of [ch]: retransmit it, or give up (and count it lost)
   after [max_retries]. *)
let retransmit_one t ch seq (p : Frame.t Arq.Unacked.pending) =
  let src = node_of t ch.ch_src in
  let at = p.Arq.Unacked.deadline in
  let frame = p.Arq.Unacked.payload in
  if p.Arq.Unacked.tries >= t.max_retries then begin
    t.frames_lost <- t.frames_lost + 1;
    Obs.Metrics.incr src.m_frames_lost;
    (* Loud, typed give-up: a Frame_dead always; additionally a
       Dead_letter when the reason is a dead destination. *)
    ch.ch_frames_dead <- ch.ch_frames_dead + 1;
    if traced src then begin
      let tr = tracer src in
      Obs.Tracer.emit tr Obs.Event.Frame_dead ~cpu:(-1) ~ts_ns:at
        ~name_id:(Obs.Tracer.string_id tr ch.ch_name)
        ~detail_id:
          (Obs.Tracer.string_id tr (Frame.kind_to_string frame.Frame.kind))
        ~a:seq ~b:ch.ch_dst
    end;
    if not (node_of t ch.ch_dst).n_alive then dead_letter t ch frame ~now:at;
    false
  end
  else begin
    p.Arq.Unacked.tries <- p.Arq.Unacked.tries + 1;
    t.retransmits <- t.retransmits + 1;
    Obs.Metrics.incr src.m_retransmits;
    let depart = send_frame t frame ~now:at in
    p.Arq.Unacked.deadline <-
      depart + (rto ch.ch_link frame.Frame.size_bytes lsl p.Arq.Unacked.tries);
    true
  end

(* Retransmit every unacked frame whose timer expired, channel by
   channel, each in sequence order.  A channel with nothing due answers
   from its deadline bound, before any closure is built. *)
let retransmit_due t ~horizon =
  for i = 0 to Array.length t.channels - 1 do
    let ch = t.channels.(i) in
    if Arq.Unacked.next_due ch.ch_unacked <= horizon then
      Arq.Unacked.retransmit_due ch.ch_unacked ~horizon (retransmit_one t ch)
  done

let deliver_home t dst ch (frame : Frame.t) msg ~now =
  if
    K.Machine.deliver_external dst.machine ~txn:frame.Frame.txn
      ~port:ch.ch_home ~msg ~priority:frame.Frame.priority ()
  then begin
    let tr = tracer dst in
    Obs.Tracer.emit tr Obs.Event.Remote_deliver ~cpu:(-1) ~ts_ns:now
      ~name_id:(Obs.Tracer.string_id tr ch.ch_name) ~detail_id:0 ~a:ch.ch_id
      ~b:frame.Frame.seq;
    Obs.Metrics.incr dst.m_remote_delivers;
    t.frames_delivered <- t.frames_delivered + 1;
    true
  end
  else false

let handle_arrival t (frame : Frame.t) ~arrival =
  let dst = node_of t frame.Frame.dst in
  let ch = channel_by_id t frame.Frame.channel in
  Link.note_rx ch.ch_link;
  if not (node_accepts dst ~arrival) then ()
    (* Dropped on the floor of a dead node: no rx event, no ack.  A Data
       frame stays unacked on the sender (bounded retries, then
       Frame_dead/Dead_letter); an Ack to a dead sender acks nothing
       because the kill already cleared its unacked table. *)
  else begin
  if traced dst then begin
    let tr = tracer dst in
    Obs.Tracer.emit tr Obs.Event.Frame_rx ~cpu:(-1) ~ts_ns:arrival
      ~name_id:(Obs.Tracer.string_id tr frame.Frame.port_name)
      ~detail_id:
        (Obs.Tracer.string_id tr (Frame.kind_to_string frame.Frame.kind))
      ~a:frame.Frame.seq ~b:frame.Frame.src
  end;
  Obs.Metrics.incr dst.m_frames_rx;
  match frame.Frame.kind with
  | Frame.Ack ->
    (* [false]: already acked (dup ack) or given up on *)
    ignore (Arq.Unacked.ack ch.ch_unacked frame.Frame.seq)
  | Frame.Data wire ->
    if not (Arq.Seen.first_receipt ch.ch_seen frame.Frame.seq) then begin
      (* Duplicate: re-ack (the first ack may have been lost), never
         re-deliver. *)
      t.dup_drops <- t.dup_drops + 1;
      send_ack t ch frame ~now:arrival
    end
    else begin
      send_ack t ch frame ~now:arrival;
      if
        frame.Frame.txn <> 0
        && Hashtbl.mem t.txn_seen (frame.Frame.dst, frame.Frame.txn)
      then begin
        (* The channel dup filter catches a re-sent frame; this one
           catches a re-committed group: after a failover the restarted
           source re-issues a committed group's sends under fresh
           sequence numbers, so only the idempotency key identifies
           them.  Acked (it did arrive), never delivered. *)
        t.txn_dup_drops <- t.txn_dup_drops + 1;
        K.Machine.count_txn_dup_drop dst.machine;
        let tr = tracer dst in
        Obs.Tracer.emit tr Obs.Event.Txn_dup_drop ~cpu:(-1) ~ts_ns:arrival
          ~name_id:(Obs.Tracer.string_id tr ch.ch_name) ~detail_id:0
          ~a:frame.Frame.txn ~b:frame.Frame.src
      end
      else begin
        if frame.Frame.txn <> 0 then
          Hashtbl.replace t.txn_seen (frame.Frame.dst, frame.Frame.txn) ();
        (* Idle clocks catch up to the frame first, so a blocked receiver
           cannot consume a message before it arrived. *)
        K.Machine.advance_idle_clocks dst.machine ~to_ns:arrival;
        let msg = Filing.reconstruct dst.machine wire in
        if not (deliver_home t dst ch frame msg ~now:arrival) then begin
          (* Home port full: the frame is acked (it did arrive); park the
             reconstructed message, rooted so a collection on the
             destination node cannot reclaim it before delivery. *)
          K.Machine.add_root dst.machine msg;
          Queue.push (frame, msg) ch.ch_backlog
        end
      end
    end
  end

(* Land every frame due by [horizon], earliest first ([in_flight] is
   keyed on the negated arrival, so the front priority is the next
   arrival). *)
let deliver_due t ~horizon =
  while U.Pqueue.front_priority t.in_flight ~empty:min_int >= -horizon do
    let arrival = -U.Pqueue.front_priority t.in_flight ~empty:0 in
    match U.Pqueue.pop t.in_flight with
    | Some frame -> handle_arrival t frame ~arrival
    | None -> ()
  done

(* Backlogged messages retry in arrival order once receivers have made
   space; delivery is stamped with the destination's current clock (the
   instant the port actually accepted it). *)
let retry_backlog t ch =
  let dst = node_of t ch.ch_dst in
  let continue_ = ref dst.n_alive in
  while !continue_ && not (Queue.is_empty ch.ch_backlog) do
    let frame, msg = Queue.peek ch.ch_backlog in
    if deliver_home t dst ch frame msg ~now:(K.Machine.now dst.machine)
    then begin
      ignore (Queue.pop ch.ch_backlog);
      K.Machine.remove_root dst.machine msg
    end
    else continue_ := false
  done

let rec activate_link_faults t ~horizon =
  match t.link_events with
  | (e : Fi.link_event) :: rest when e.Fi.l_at_ns <= horizon ->
    (match link_by_id t e.Fi.l_link with
    | Some l -> Link.apply l ~at:e.Fi.l_at_ns e.Fi.l_act
    | None -> ());
    t.link_events <- rest;
    activate_link_faults t ~horizon
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Whole-node failure and rejoin                                       *)
(* ------------------------------------------------------------------ *)

let kill_now t id ~at =
  let n = node_of t id in
  if n.n_alive then begin
    (* The victim executes up to the instant of death, then never again:
       the kill lands mid-quantum exactly at [at]. *)
    K.Machine.advance n.machine ~max_ns:at;
    let tr = tracer n in
    Obs.Tracer.emit tr Obs.Event.Node_kill ~cpu:(-1) ~ts_ns:at
      ~name_id:(Obs.Tracer.string_id tr n.node_name) ~detail_id:0 ~a:id ~b:0;
    n.n_alive <- false;
    n.n_down_since <- at;
    (* Withdraw the dead node's names; the restart republishes them
       under a bumped epoch. *)
    let mine =
      List.filter
        (fun (e : Name_service.entry) -> e.Name_service.e_node = id)
        (Name_service.entries t.ns)
    in
    List.iter
      (fun (e : Name_service.entry) ->
        Name_service.unpublish t.ns e.Name_service.e_name)
      mine;
    n.n_parked <- mine;
    Array.iter
      (fun ch ->
        if ch.ch_dst = id then
          (* Arrived-but-parked messages owed to the dead node die with
             it: they were acked, so no retransmission will resurrect
             them — surface each as a dead letter on its sender. *)
          while not (Queue.is_empty ch.ch_backlog) do
            let frame, _msg = Queue.pop ch.ch_backlog in
            dead_letter t ch frame ~now:at
          done
        else if ch.ch_src = id then begin
          (* The dead node's own unacked sends stop retrying — the
             checkpoint rollback re-issues that work with fresh
             sequence numbers (ch_next_seq stays monotonic so replayed
             sends never collide with the destination's dup filter). *)
          Arq.Unacked.clear ch.ch_unacked
        end)
      t.channels
  end

let restart_now t id ~at ~machine =
  let n = node_of t id in
  if n.n_alive then
    invalid_arg (Printf.sprintf "Cluster.restart_node: node %d is alive" id);
  let fresh =
    mk_node ~id ~name:n.node_name ~alive:true ~down_since:n.n_down_since
      ~up_since:at machine
  in
  t.nodes.(id) <- fresh;
  (* The replacement is a checkpoint replay, so its clocks sit at the
     checkpoint instant; idle processors catch up to the restart instant
     before the node steps again. *)
  K.Machine.advance_idle_clocks machine ~to_ns:at;
  (* Re-home: republish the parked names under a bumped epoch.  The
     survivors' surrogate channels keep their descriptors — a replayed
     machine reproduces the object-table layout byte for byte, so every
     cached home-port AD still names the same object on the new
     incarnation. *)
  List.iter (fun e -> Name_service.publish t.ns e) n.n_parked;
  let tr = tracer fresh in
  Obs.Tracer.emit tr Obs.Event.Node_restart ~cpu:(-1) ~ts_ns:at
    ~name_id:(Obs.Tracer.string_id tr fresh.node_name) ~detail_id:0 ~a:id
    ~b:(Name_service.epoch t.ns);
  Obs.Metrics.incr fresh.m_restarts

let restart_node t ?at_ns ~machine id =
  let at = match at_ns with Some a -> a | None -> t.cur_horizon in
  restart_now t id ~at ~machine

let node_alive t id = (node_of t id).n_alive
let dead_letters t = t.dead_letters
let txn_dup_drops t = t.txn_dup_drops

let arm_nodes t ~restore (plan : Fi.node_plan) =
  t.node_restore <- Some restore;
  t.node_events <-
    List.stable_sort
      (fun (a : Fi.node_event) b -> compare a.Fi.n_at_ns b.Fi.n_at_ns)
      (t.node_events @ plan.Fi.n_events)

let rec activate_node_faults t ~horizon =
  match t.node_events with
  | (e : Fi.node_event) :: rest when e.Fi.n_at_ns <= horizon ->
    (match e.Fi.n_act with
    | Fi.N_kill -> kill_now t e.Fi.n_node ~at:e.Fi.n_at_ns
    | Fi.N_restart ->
      if not (node_of t e.Fi.n_node).n_alive then begin
        let machine =
          match t.node_restore with
          | Some f -> f ~node:e.Fi.n_node ~at_ns:e.Fi.n_at_ns
          | None ->
            invalid_arg "Cluster: node plan armed without a restore hook"
        in
        restart_now t e.Fi.n_node ~at:e.Fi.n_at_ns ~machine
      end);
    t.node_events <- rest;
    activate_node_faults t ~horizon
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type stop = Quiescent | Round_limit

type report = {
  rounds : int;
  horizon_ns : int;
  frames_sent : int;
  frames_delivered : int;
  frames_lost : int;
  retransmits : int;
  acks : int;
  dup_drops : int;
  dead_letters : int;
  stop : stop;
}

let frames_in_flight t = U.Pqueue.size t.in_flight

let total_unacked t =
  Array.fold_left
    (fun acc ch -> acc + Arq.Unacked.length ch.ch_unacked)
    0 t.channels

let total_backlog t =
  Array.fold_left (fun acc ch -> acc + Queue.length ch.ch_backlog) 0 t.channels

(* Every pump counter only ever grows, so one of them moved in a round
   exactly when their sum did. *)
let pump_progress (t : t) =
  t.frames_sent + t.frames_delivered + t.frames_lost + t.retransmits
  + t.acks_sent + t.dup_drops + t.dead_letters

(* Engine selection.  [Seq] is the original in-order loop.  [Par d] steps
   the nodes of each round on a [d]-domain {!Par_exec} pool.

   Why this is bit-identical to [Seq]: within a round slice, machines
   interact with nothing outside themselves — a remote send only enqueues
   on a local surrogate port; draining surrogates, moving frames, and
   delivering arrivals all happen in the pump, which runs on the calling
   domain after the barrier, in the exact order the sequential engine
   uses.  Node stepping order therefore cannot influence any observable,
   so running the steps concurrently produces the same event streams,
   metrics, and snapshots byte for byte. *)
type engine = Seq | Par of int

(* A node's slice: the machine's stepping loop alone.  Nothing reads a
   per-node run report, so none is built. *)
let step_node t ~horizon i =
  let n = t.nodes.(i) in
  if n.n_alive then K.Machine.advance n.machine ~max_ns:horizon

let run_round t pool ~horizon =
  activate_link_faults t ~horizon;
  (* Node faults run on the calling domain before the slice: a kill
     steps its victim to the death instant sequentially, and a restart's
     restore hook may replay a whole shadow cluster. *)
  activate_node_faults t ~horizon;
  (match pool with
  | None ->
    for i = 0 to Array.length t.nodes - 1 do
      step_node t ~horizon i
    done
  | Some pool ->
    Par_exec.run pool ~tasks:(Array.length t.nodes) (step_node t ~horizon));
  (* Receivers just ran: retry parked messages before draining new
     traffic, so a channel's home-port order follows its seq order. *)
  for i = 0 to Array.length t.channels - 1 do
    retry_backlog t t.channels.(i)
  done;
  for i = 0 to Array.length t.channels - 1 do
    drain_channel t t.channels.(i)
  done;
  retransmit_due t ~horizon;
  deliver_due t ~horizon

(* A node still owes virtual time when it has local work
   ({!K.Machine.has_local_work}); port-blocked processes move only if a
   frame arrives, and frames are tracked separately.  Without this,
   one-way traffic can stall the round loop early: the interconnect goes
   silent while a receiver machine still has a backlog to serve, and a
   round whose horizon lands inside a processor's overshoot sees no clock
   movement at all. *)
let local_work t =
  Array.exists (fun n -> n.n_alive && K.Machine.has_local_work n.machine) t.nodes

let pending t =
  frames_in_flight t > 0
  || total_unacked t > 0
  || total_backlog t > 0
  || (match t.node_events with [] -> false | _ :: _ -> true)
  || local_work t

(* Did some node's clock move from [t.clocks], taken before the round? *)
let rec clock_moved t i =
  i < Array.length t.nodes
  && (K.Machine.now t.nodes.(i).machine <> t.clocks.(i) || clock_moved t (i + 1))

let run_engine t ~pool ~quantum_ns ~max_rounds =
  let rounds = ref 0 in
  (* First call: the grid starts at the highest node clock (nodes may
     have been stepped before the cluster ever ran).  Resumed call: the
     grid continues from the persisted horizon — NOT from the clocks,
     which legitimately overshoot a round's horizon when a processor is
     busy straight through it. *)
  let horizon =
    ref
      (if t.cur_horizon > 0 then t.cur_horizon
       else
         Array.fold_left
           (fun acc n -> max acc (K.Machine.now n.machine))
           0 t.nodes)
  in
  let continue_ = ref (Array.length t.nodes > 0) in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    horizon := !horizon + quantum_ns;
    for i = 0 to Array.length t.nodes - 1 do
      t.clocks.(i) <- K.Machine.now t.nodes.(i).machine
    done;
    let progress = pump_progress t in
    run_round t pool ~horizon:!horizon;
    (* The round moved nothing and nothing is left to move. *)
    if not (pump_progress t <> progress || clock_moved t 0 || pending t) then
      continue_ := false
  done;
  t.cur_horizon <- !horizon;
  {
    rounds = !rounds;
    horizon_ns = !horizon;
    frames_sent = t.frames_sent;
    frames_delivered = t.frames_delivered;
    frames_lost = t.frames_lost;
    retransmits = t.retransmits;
    acks = t.acks_sent;
    dup_drops = t.dup_drops;
    dead_letters = t.dead_letters;
    stop = (if !continue_ then Round_limit else Quiescent);
  }

let run t ?(engine = Seq) ?(quantum_ns = 100_000) ?(max_rounds = 100_000) () =
  if quantum_ns < 1 then invalid_arg "Cluster.run: quantum_ns";
  match engine with
  | Seq | Par 1 ->
    (* One domain means no pool: the round loop below already IS the
       sequential engine. *)
    run_engine t ~pool:None ~quantum_ns ~max_rounds
  | Par d ->
    if d < 1 then invalid_arg "Cluster.run: Par domains";
    let pool = Par_exec.create ~domains:d in
    Fun.protect
      ~finally:(fun () -> Par_exec.shutdown pool)
      (fun () -> run_engine t ~pool:(Some pool) ~quantum_ns ~max_rounds)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let topology t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "cluster: %d node(s), %d link(s), %d channel(s)\n"
    (Array.length t.nodes) (List.length t.links) (Array.length t.channels);
  Array.iter
    (fun n ->
      Printf.bprintf buf "  node %d %-12s %d processor(s)%s\n" n.id n.node_name
        (K.Machine.processor_count n.machine)
        (if n.n_alive then
           if n.n_up_since > 0 then
             Printf.sprintf " (rejoined at %dns, epoch %d)" n.n_up_since
               (Name_service.epoch t.ns)
           else ""
         else Printf.sprintf " DOWN since %dns" n.n_down_since))
    t.nodes;
  List.iter (fun l -> Printf.bprintf buf "  %s\n" (Link.to_string l)) t.links;
  Array.iter
    (fun ch ->
      Printf.bprintf buf
        "  channel %d '%s': node%d -> node%d (link %d) next_seq=%d unacked=%d \
         backlog=%d%s\n"
        ch.ch_id ch.ch_name ch.ch_src ch.ch_dst ch.ch_link.Link.id
        ch.ch_next_seq
        (Arq.Unacked.length ch.ch_unacked)
        (Queue.length ch.ch_backlog)
        (if ch.ch_frames_dead = 0 && ch.ch_dead_letters = 0 then ""
         else
           Printf.sprintf " dead=%d dead_letters=%d" ch.ch_frames_dead
             ch.ch_dead_letters))
    t.channels;
  List.iter
    (fun (e : Name_service.entry) ->
      Printf.bprintf buf "  name '%s' exported (epoch %d)\n"
        e.Name_service.e_name e.Name_service.e_epoch)
    (Name_service.entries t.ns);
  Buffer.contents buf

let chrome_trace t =
  Obs.Export.chrome_trace_cluster
    (Array.to_list
       (Array.map
          (fun n ->
            ( n.node_name,
              K.Machine.processor_count n.machine,
              K.Machine.tracer n.machine ))
          t.nodes))

let report_to_string r =
  Printf.sprintf
    "rounds=%d horizon=%dns sent=%d delivered=%d lost=%d retx=%d acks=%d \
     dups=%d dead_letters=%d\n"
    r.rounds r.horizon_ns r.frames_sent r.frames_delivered r.frames_lost
    r.retransmits r.acks r.dup_drops r.dead_letters
