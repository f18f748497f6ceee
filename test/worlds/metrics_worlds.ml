(* Print the metrics registry of two small machines: a swapping world (a
   RAM envelope a quarter of the working set, a store-backed swap device,
   the store attached) and a store world (graphs filed from processes,
   superseded, deleted, synced and compacted), then the JSON of one
   registry both are merged into.  Each journal lives in the working
   directory and is removed afterwards. *)

module K = I432_kernel
module Obs = I432_obs
module St = I432_store.Store
module System = Imax.System

let section title m =
  Printf.printf "== %s\n" title;
  print_string (Obs.Metrics.render (K.Machine.metrics m))

let swap_world () =
  let journal = "metrics_worlds_swap.journal" in
  let users = List.init 3 (fun u -> (u + 1, List.init 40 (fun _ -> (0, 1, 4)))) in
  let w =
    I432_load.Working_set.boot
      ~config:
        {
          System.default_config with
          System.processors = 2;
          memory_manager = System.Swapping_lru;
        }
      ~journal ~sync_every:4 ~ram_bytes:(128 * 64 / 4) ~objects:128
      ~object_bytes:64 ~seed:5 ~users
  in
  let m = I432_load.Working_set.machine w in
  ignore (K.Machine.run m);
  section "swap" m;
  St.close (I432_load.Working_set.store w);
  St.remove_files journal;
  m

let store_world () =
  let journal = "metrics_worlds_store.journal" in
  St.fresh_path journal;
  let store =
    St.open_ ~sync_every:3 ~compact_interval_ns:50_000 ~min_garbage_bytes:64
      journal
  in
  let sys =
    System.boot ~config:{ System.default_config with System.processors = 2 } ()
  in
  let m = System.machine sys in
  St.attach store m;
  for p = 0 to 2 do
    ignore
      (K.Machine.spawn m ~name:(Printf.sprintf "filer%d" p) (fun () ->
           for i = 0 to 5 do
             let root = K.Machine.allocate_generic m ~data_length:16 () in
             K.Machine.write_word m root ~offset:0 ((p * 10) + i);
             K.Machine.compute m 20;
             ignore
               (St.store_graph store m ~key:(Printf.sprintf "g%d" (i mod 3)) root);
             K.Machine.yield m
           done))
  done;
  ignore (K.Machine.run m);
  St.delete store ~key:"g0";
  ignore (St.compact store);
  St.sync store;
  section "store" m;
  St.close store;
  St.remove_files journal;
  m

let () =
  let merged = Obs.Metrics.create () in
  List.iter
    (fun m -> Obs.Metrics.merge_into ~dst:merged ~src:(K.Machine.metrics m))
    [ swap_world (); store_world () ];
  print_endline "== merged";
  print_endline (Obs.Jout.to_string (Obs.Metrics.to_json merged))
