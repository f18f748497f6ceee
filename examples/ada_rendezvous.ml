(* Ada rendezvous on 432 ports: a bounded-buffer task with two entries
   (put/get) served by a selective wait — the textbook Ada shape, compiled
   to the port mechanism exactly as §4 of the paper describes.

   Producers and consumers make synchronous entry calls; the buffer task
   selects whichever entry can make progress, refusing puts when full and
   gets when empty. *)

open Imax
module K = I432_kernel

let items = 40
let buffer_capacity = 4

let () =
  let sys =
    System.boot ~config:{ System.default_config with processors = 2 } ()
  in
  let m = System.machine sys in

  let put = Ada_tasks.create_entry m () in
  let get = Ada_tasks.create_entry m () in

  (* The buffer task: state lives in 432 objects owned by the task. *)
  ignore
    (Ada_tasks.create_task m ~name:"bounded_buffer" (fun () ->
         let slots = Queue.create () in
         let served = ref 0 in
         while !served < 2 * items do
           let can_put = Queue.length slots < buffer_capacity in
           let can_get = not (Queue.is_empty slots) in
           let alternatives =
             (if can_put then
                [
                  ( put,
                    fun parameter ->
                      Queue.push parameter slots;
                      incr served;
                      parameter );
                ]
              else [])
             @
             if can_get then
               [
                 ( get,
                   fun token ->
                     incr served;
                     ignore token;
                     Queue.pop slots );
               ]
             else []
           in
           if not (Ada_tasks.select alternatives) then ()
         done));

  ignore
    (Ada_tasks.create_task m ~name:"producer" (fun () ->
         for i = 1 to items do
           let item = K.Machine.allocate_generic m ~data_length:8 () in
           K.Machine.write_word m item ~offset:0 i;
           ignore (Ada_tasks.call put ~parameter:item)
         done));

  let sum = ref 0 in
  ignore
    (Ada_tasks.create_task m ~name:"consumer" (fun () ->
         let token = K.Machine.allocate_generic m ~data_length:8 () in
         for _ = 1 to items do
           let item = Ada_tasks.call get ~parameter:token in
           sum := !sum + K.Machine.read_word m item ~offset:0
         done));

  let report = System.run sys in
  Printf.printf "ada_rendezvous: %d items through a %d-slot buffer, sum %d\n"
    items buffer_capacity !sum;
  Printf.printf "entries: put accepted %d, get accepted %d; elapsed %.2f ms\n"
    (Ada_tasks.accept_count put) (Ada_tasks.accept_count get)
    (float_of_int report.K.Machine.elapsed_ns /. 1e6);
  assert (!sum = items * (items + 1) / 2);
  assert (report.K.Machine.deadlocked = []);
  print_endline "ada_rendezvous OK"
