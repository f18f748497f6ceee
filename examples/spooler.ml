(* A print spooler: the kind of OEM embedded system the paper positions the
   432 for, built from the full breadth of the public API.

   Structure:
   - terminals feed jobs to a spool entry (Ada rendezvous, §4);
   - the spooler task owns the printer devices through the device-
     independent interface (§6.3) and round-robins jobs across them;
   - the device driver runs at iMAX level 3 while user sessions run at
     user level, and driver-to-scheduler notifications use the
     asynchronous-only upward channel (§7.3);
   - an operator process can pause and resume the whole spooling subtree
     with one stop/start on its root (§6.1). *)

open Imax
module K = I432_kernel

let jobs_per_user = 6
let users = 3
let printers = 2

let () =
  let sys =
    System.boot ~config:{ System.default_config with processors = 2 } ()
  in
  let m = System.machine sys in
  let pm = System.process_manager sys in

  (* Printers: per-device packages with the common interface. *)
  let printer_devices =
    Array.init printers (fun i ->
        Device_io.make_terminal ~name:(Printf.sprintf "lp%d" i) ())
  in

  let spool = Ada_tasks.create_entry m ~queue:16 () in
  let printed = ref 0 in
  let notify_port = K.Machine.create_port m ~capacity:4 ~discipline:K.Port.Fifo () in

  (* The spooler subtree root: a driver at system level 3. *)
  let spooler_root =
    Process_manager.create_process pm ~name:"spooler" ~system_level:3
      (fun () ->
        let total = users * jobs_per_user in
        for n = 1 to total do
          Ada_tasks.accept spool ~body:(fun job ->
              let owner = K.Machine.read_word m job ~offset:0 in
              let seq = K.Machine.read_word m job ~offset:4 in
              let (module P) = printer_devices.(n mod printers) in
              P.write (Printf.sprintf "user%d job%d" owner seq);
              K.Machine.compute m 25;  (* print time *)
              incr printed;
              job);
          (* Progress notification upward: must never block (§7.3). *)
          let note = K.Machine.allocate_generic m ~data_length:8 () in
          ignore
            (Levels.async_notify m ~src:Levels.Level2 ~port:notify_port
               ~msg:note)
        done)
  in

  (* User sessions submit jobs through the entry. *)
  for u = 1 to users do
    ignore
      (Process_manager.create_process pm ~name:(Printf.sprintf "user%d" u)
         (fun () ->
           for j = 1 to jobs_per_user do
             let job = K.Machine.allocate_generic m ~data_length:16 () in
             K.Machine.write_word m job ~offset:0 u;
             K.Machine.write_word m job ~offset:4 j;
             K.Machine.compute m 10;  (* composing the job *)
             ignore (Ada_tasks.call spool ~parameter:job)
           done))
  done;

  (* The operator pauses the whole spooler subtree mid-run, checks nothing
     prints while paused, then resumes.  Control needs only the root. *)
  Process_manager.stop pm spooler_root;
  let _ = System.run sys ~max_ns:5_000_000 in
  let printed_while_paused = !printed in
  Process_manager.start pm spooler_root;
  let report = System.run sys in

  Printf.printf "spooler: %d jobs printed on %d printers (paused at %d)\n"
    !printed printers printed_while_paused;
  Array.iter
    (fun (module P : Device_io.DEVICE) ->
      Printf.printf "  %s processed its share\n" P.name)
    printer_devices;
  Printf.printf "elapsed %.2f ms, completed %d, deadlocked %d\n"
    (float_of_int report.K.Machine.elapsed_ns /. 1e6)
    report.K.Machine.completed
    (List.length report.K.Machine.deadlocked);
  assert (printed_while_paused = 0);
  assert (!printed = users * jobs_per_user);
  assert (report.K.Machine.deadlocked = []);
  print_endline "spooler OK"
