(* Reference kernel: the kernel's rules restated over plain lists, slow
   and obviously correct, for differential tests against [Machine].

   This first slice covers group commit ([Txn_try], DESIGN.md §15): a
   case's FIFO ports and write targets, the groups one process commits
   against them in turn, and what the kernel must leave behind — each
   group's outcome, every port's counters and queue, every target's
   words, and the events the commits emit. *)

(* A port before the groups run: [fill] queued messages, or [rx] parked
   receivers (on an empty queue), or [tx] parked senders (on a full
   one). *)
type port = { cap : int; fill : int; rx : int; tx : int }
type target = { writable : bool; swapped : bool }

type group = {
  key : int;  (* 0 = unkeyed *)
  recv : int list;  (* port numbers, staging order *)
  send : int list;
  write : (int * int * int) list;  (* target number, offset, word *)
}

(* Targets are 8-byte objects allocated before the ports, so every target
   precedes every port, and port i precedes port i + 1, by object
   index. *)
type case = { ports : port list; targets : target list; groups : group list }

(* Message ids, each held in its message object's first word. *)
let fill_msg i k = (100 * (i + 1)) + k
let sender_msg i k = (100 * (i + 1)) + 50 + k
let send_msg g j = (1000 * (g + 1)) + j
let receiver_name i k = Printf.sprintf "r%d.%d" i k
let sender_name i k = Printf.sprintf "s%d.%d" i k

(* What a run leaves, rendered: per group its outcome; per port its
   sends/receives/send blocks/receive blocks/max depth and every message
   a drain yields as id/tag (queued first, then parked senders'); per
   target its two words; and the commits' events as kind:name. *)
type view = {
  outcomes : string list;
  port_lines : string list;
  words : string list;
  events : string list;
}

let port_line i (sends, receives, send_blocks, receive_blocks, depth) drained =
  Printf.sprintf "p%d:%d/%d/%d/%d/%d [%s]" i sends receives send_blocks
    receive_blocks depth
    (String.concat " "
       (List.map (fun (m, tag) -> Printf.sprintf "%d/%d" m tag) drained))

let word_line i t w0 w4 =
  if t.swapped then Printf.sprintf "w%d=out" i
  else Printf.sprintf "w%d=%d,%d" i w0 w4

let committed ~fresh received =
  Printf.sprintf "committed fresh=%b recv=[%s]" fresh
    (String.concat "," (List.map string_of_int received))

type port_state = {
  queue : (int * int) list;  (* (message id, tag), head first *)
  receivers : string list;  (* parked, first served first *)
  senders : (string * int) list;  (* parked, with their message ids *)
  counts : int * int * int * int * int;  (* as [port_line] renders them *)
}

(* The groups of [c], committed one after another by process "g". *)
let group_commit c =
  let caps = Array.of_list (List.map (fun p -> p.cap) c.ports) in
  let ports =
    Array.of_list
      (List.mapi
         (fun i p ->
           {
             queue = List.init p.fill (fun k -> (fill_msg i (k + 1), 0));
             receivers = List.init p.rx (fun k -> receiver_name i (k + 1));
             senders =
               List.init p.tx (fun k ->
                   (sender_name i (k + 1), sender_msg i (k + 1)));
             (* a blocking sender is counted when it parks *)
             counts = (p.fill + p.tx, 0, p.tx, p.rx, p.fill);
           })
         c.ports)
  in
  let targets = Array.of_list c.targets in
  let words = Array.make_matrix (Array.length targets) 2 0 in
  let applied = ref [] and events = ref [] in
  let emit kind name = events := (kind ^ ":" ^ name) :: !events in
  let bump i ~sent ~got =
    let p = ports.(i) in
    let s, r, sb, rb, d = p.counts in
    ports.(i) <- { p with counts = (s + sent, r + got, sb, rb, d) }
  in
  let enqueue i m =
    let p = ports.(i) in
    let queue = p.queue @ [ m ] in
    let s, r, sb, rb, d = p.counts in
    ports.(i) <-
      { p with queue; counts = (s, r, sb, rb, max d (List.length queue)) }
  in
  (* A send goes to the first parked receiver, else into a free slot;
     a full port drops it (only a dup-key replay can meet one). *)
  let offer i m =
    match ports.(i).receivers with
    | r :: receivers ->
      ports.(i) <- { (ports.(i)) with receivers };
      bump i ~sent:1 ~got:1;
      emit "send" "g";
      emit "receive" r;
      emit "ready" r
    | [] when List.length ports.(i).queue = caps.(i) -> ()
    | [] ->
      bump i ~sent:1 ~got:0;
      enqueue i m;
      emit "send" "g"
  in
  let count i l = List.length (List.filter (( = ) i) l) in
  let attempt gi g =
    let tag j = if g.key = 0 then 0 else g.key + j in
    let sends = List.mapi (fun j i -> (i, (send_msg gi j, tag j))) g.send in
    if g.key <> 0 && List.mem g.key !applied then begin
      (* Replay: the sends alone, re-offered with their tags. *)
      List.iter (fun (i, m) -> offer i m) sends;
      emit "txn-dup-drop" "g";
      committed ~fresh:false []
    end
    else
      (* Every distinct port, ascending; then every write, in order. *)
      let distinct = List.sort_uniq compare (g.recv @ g.send) in
      let port_conflict i =
        let p = ports.(i) in
        let wants = count i g.recv and puts = count i g.send in
        let queued = List.length p.queue in
        if wants > queued then Some (Printf.sprintf "p%d" i, "empty")
        else if puts > caps.(i) - queued + wants + List.length p.receivers then
          Some (Printf.sprintf "p%d" i, "full")
        else None
      in
      let write_conflict (t, off, _) =
        let name = Printf.sprintf "w%d" t in
        if not targets.(t).writable then Some (name, "rights")
        else if targets.(t).swapped then Some (name, "swapped")
        else if off < 0 || off + 4 > 8 then Some (name, "bounds")
        else None
      in
      match
        match List.find_map port_conflict distinct with
        | None -> List.find_map write_conflict g.write
        | conflict -> conflict
      with
      | Some (obj, reason) -> Printf.sprintf "conflict %s %s" obj reason
      | None ->
        (* Receives, writes, sends; then parked senders fill what room
           is left, port by port in ascending order. *)
        let received =
          List.map
            (fun i ->
              match ports.(i).queue with
              | (m, _) :: queue ->
                ports.(i) <- { (ports.(i)) with queue };
                bump i ~sent:0 ~got:1;
                emit "receive" "g";
                m
              | [] -> assert false)
            g.recv
        in
        List.iter (fun (t, off, w) -> words.(t).(off / 4) <- w) g.write;
        List.iter (fun (i, m) -> offer i m) sends;
        List.iter
          (fun i ->
            let rec admit () =
              match ports.(i).senders with
              | (s, m) :: senders when List.length ports.(i).queue < caps.(i)
                ->
                ports.(i) <- { (ports.(i)) with senders };
                enqueue i (m, 0);
                emit "ready" s;
                admit ()
              | _ -> ()
            in
            admit ())
          distinct;
        if g.key <> 0 then applied := g.key :: !applied;
        emit "txn-commit" "g";
        committed ~fresh:true received
  in
  let outcomes = List.mapi attempt c.groups in
  {
    outcomes;
    port_lines =
      List.mapi
        (fun i p ->
          port_line i p.counts (p.queue @ List.map (fun (_, m) -> (m, 0)) p.senders))
        (Array.to_list ports);
    words =
      List.mapi
        (fun i t -> word_line i t words.(i).(0) words.(i).(1))
        c.targets;
    events = List.rev !events;
  }
