(* NUMA topology of the simulated machine.

   The paper's testbed: eight sockets, 224 CPUs, one Optane PM region per
   socket.  CPUs [0, cpus_per_node) are node 0, and so on. *)

type t = { nodes : int; cpus_per_node : int }

let create ~nodes ~cpus_per_node =
  if nodes <= 0 || cpus_per_node <= 0 then invalid_arg "Numa.create";
  { nodes; cpus_per_node }

(* The evaluation machine of the paper (§6.1). *)
let paper_machine = create ~nodes:8 ~cpus_per_node:28

let nodes t = t.nodes
let cpus_per_node t = t.cpus_per_node
let total_cpus t = t.nodes * t.cpus_per_node

let node_of_cpu t cpu =
  if cpu < 0 then invalid_arg "Numa.node_of_cpu";
  cpu / t.cpus_per_node mod t.nodes

(* Distribute [n] benchmark threads over CPUs the way the paper's harness
   pins them: fill sockets breadth-first so a 28-thread run stays on one
   socket while 224 threads cover the machine. *)
let cpu_of_thread t i =
  let total = total_cpus t in
  i mod total

(* The [local]-th CPU of [node].  The one place the cpu-numbering
   convention (CPUs [node*cpus_per_node, ...) belong to [node]) is
   encoded; per-node striping everywhere else goes through this. *)
let cpu_of_node_local t ~node ~local =
  if node < 0 || node >= t.nodes then invalid_arg "Numa.cpu_of_node_local";
  (node * t.cpus_per_node) + (local mod t.cpus_per_node)
