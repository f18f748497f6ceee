(* The iAPX-432 CPI workload mix as a request recipe.

   The 432's published CPI model breaks instruction traffic into five
   categories with per-instruction cycle costs (alu 25, data transfer 35,
   memory 60, control 50, object ops 120 cycles at 8 MHz).  A load
   generator request of class C executes a short burst of category-C work
   through the machine's charged instruction wrappers, so its virtual-time
   service cost lands on the same scale the micro benches use — and so
   object-ops requests really do allocate, stressing the SRO allocator and
   GC exactly like the paper's workloads would.

   Everything here is deterministic: recipes call only charged wrappers,
   and class draws come from an explicit Prng. *)

open I432
module K = I432_kernel

type cls = Alu | Data_transfer | Memory | Control | Object_ops

let all = [| Alu; Data_transfer; Memory; Control; Object_ops |]
let class_count = Array.length all

let code = function
  | Alu -> 0
  | Data_transfer -> 1
  | Memory -> 2
  | Control -> 3
  | Object_ops -> 4

let of_code = function
  | 0 -> Alu
  | 1 -> Data_transfer
  | 2 -> Memory
  | 3 -> Control
  | 4 -> Object_ops
  | n -> invalid_arg (Printf.sprintf "Mix.of_code: %d" n)

let name = function
  | Alu -> "alu"
  | Data_transfer -> "data"
  | Memory -> "memory"
  | Control -> "control"
  | Object_ops -> "object-ops"

let names = Array.map name all

(* Per-instruction cycle cost from the CPI model; a request is
   [insns_per_request] instructions of its category. *)
let cycles = function
  | Alu -> 25
  | Data_transfer -> 35
  | Memory -> 60
  | Control -> 50
  | Object_ops -> 120

let insns_per_request = 16

(* Nominal service cost in virtual ns (8 MHz: 125 ns/cycle), before port
   overheads.  Alu 50 us .. object-ops 240 us. *)
let service_ns cls = cycles cls * insns_per_request * 125

type profile = Typical | Compute | Memory_bound | Control_flow | Mixed

let profiles = [| Typical; Compute; Memory_bound; Control_flow; Mixed |]

let profile_name = function
  | Typical -> "typical"
  | Compute -> "compute"
  | Memory_bound -> "memory"
  | Control_flow -> "control"
  | Mixed -> "mixed"

let profile_of_string = function
  | "typical" -> Some Typical
  | "compute" -> Some Compute
  | "memory" -> Some Memory_bound
  | "control" -> Some Control_flow
  | "mixed" -> Some Mixed
  | _ -> None

(* Percent weight per class, in [all] order; each row sums to 100.  The
   rows are built once, not per call: [pick] runs for every request. *)
let weights =
  let typical = [| 30; 25; 20; 15; 10 |]
  and compute = [| 55; 15; 10; 15; 5 |]
  and memory = [| 15; 25; 45; 10; 5 |]
  and control = [| 20; 15; 10; 45; 10 |]
  and mixed = [| 20; 20; 20; 20; 20 |] in
  function
  | Typical -> typical
  | Compute -> compute
  | Memory_bound -> memory
  | Control_flow -> control
  | Mixed -> mixed

(* Weighted class draw: one uniform int in [0, 100). *)
let pick prng profile =
  let w = weights profile in
  let r = I432_util.Prng.int prng 100 in
  let rec go i acc =
    let acc = acc + w.(i) in
    if r < acc || i = class_count - 1 then all.(i) else go (i + 1) acc
  in
  go 0 0

(* Mean service cost of a profile's mix, virtual ns. *)
let mean_service_ns profile =
  let w = weights profile in
  let total =
    Array.to_list all
    |> List.fold_left (fun acc c -> acc + (w.(code c) * service_ns c)) 0
  in
  total / 100

(* Execute one request's recipe inside a process body.  [scratch] is a
   per-worker data object (>= 64 data bytes) the data/memory classes churn
   through; object-ops allocates and releases for real.  Each recipe's
   charged wrappers plus its [compute] remainder total [service_ns cls]. *)
let service m ~scratch cls =
  let t = K.Machine.timings m in
  let budget = service_ns cls in
  let open Timings in
  match cls with
  | Alu -> K.Machine.charge m budget
  | Data_transfer ->
    (* 8 word reads + 8 word writes, then the cycle remainder. *)
    for i = 0 to 7 do
      let v = K.Machine.read_word m scratch ~offset:(i * 4) in
      K.Machine.write_word m scratch ~offset:(i * 4) (v + 1)
    done;
    K.Machine.charge m (budget - (8 * (t.read_word_ns + t.write_word_ns)))
  | Memory ->
    (* Wider traffic: 16 reads + 16 writes across the scratch segment. *)
    for i = 0 to 15 do
      let v = K.Machine.read_word m scratch ~offset:(i * 4) in
      K.Machine.write_word m scratch ~offset:(i * 4) (v lxor 0x5a5a)
    done;
    K.Machine.charge m (budget - (16 * (t.read_word_ns + t.write_word_ns)))
  | Control ->
    (* Two ordinary activations bracketing the compute. *)
    let inner = budget - (2 * (t.intra_call_ns + t.intra_return_ns)) in
    K.Machine.intra_call m (fun () ->
        K.Machine.intra_call m (fun () -> K.Machine.charge m inner))
  | Object_ops ->
    (* A real create-object + return-to-SRO pair. *)
    let o = K.Machine.allocate_generic m ~data_length:32 () in
    K.Machine.write_word m o ~offset:0 1;
    K.Machine.release m (K.Machine.global_sro m) ~index:(Access.index o);
    K.Machine.charge m
      (budget - (t.allocate_ns + t.write_word_ns + t.destroy_ns))
