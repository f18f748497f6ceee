(* Helpers the test modules share: a machine factory, generic
   allocation, throwaway journals, and scenario verifier outcomes as
   failures that name the first divergent line. *)

module K = I432_kernel
module Obs = I432_obs
module Store = I432_store.Store
module Scenario = I432_store.Scenario

let mk ?(processors = 1) ?(trace = false) () =
  K.Machine.create
    ~config:
      {
        K.Machine.default_config with
        processors;
        trace_level = (if trace then Obs.Tracer.Events else Obs.Tracer.Off);
      }
    ()

let alloc m ?(data_length = 16) ?(access_length = 0) () =
  K.Machine.allocate_generic m ~data_length ~access_length ()

(* Canonical graph walk: discovery-order serials, data images, rights and
   types — two graphs are isomorphic iff their walks are equal. *)
let canonical_walk m root =
  let table = K.Machine.table m in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let count = ref 0 in
  let rec go access =
    let idx = I432.Access.index access in
    match Hashtbl.find_opt seen idx with
    | Some serial -> out := `Ref serial :: !out
    | None ->
      let serial = !count in
      incr count;
      Hashtbl.add seen idx serial;
      let e = I432.Object_table.lookup_access table access in
      out :=
        `Node
          ( serial,
            K.Machine.read_bytes m access ~offset:0
              ~len:(I432.Object_table.data_length table e),
            I432.Access.rights access,
            I432.Object_table.otype table e )
        :: !out;
      Array.iter
        (function Some child -> go child | None -> out := `Hole :: !out)
        (I432.Object_table.access_part table e)
  in
  go root;
  List.rev !out

(* Tests run in dune's sandbox cwd; journals land there and are removed
   afterwards, so reruns never see a stale file. *)
let temp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "test_%d_%d.journal" (Unix.getpid ()) !n

let with_path f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> Store.remove_files path) (fun () -> f path)

let with_store ?sync_every ?compact_interval_ns ?min_garbage_bytes f =
  with_path (fun path ->
      let store =
        Store.open_ ?sync_every ?compact_interval_ns ?min_garbage_bytes path
      in
      Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f path store))

let read_file path =
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let ok what = function
  | Ok _ -> ()
  | Error d -> Alcotest.failf "%s: %s" what (Scenario.to_string d)

let holds = function
  | Ok _ -> true
  | Error d -> QCheck2.Test.fail_reportf "%s" (Scenario.to_string d)
