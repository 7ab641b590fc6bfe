(* Per-LibFS allocation front caches (paper §4.5).

   Inode numbers and NVM pages are obtained from the kernel controller
   in batches, so the create/append fast paths stay in userspace.  Pools
   are segregated per NUMA node and per page kind (metadata pages must
   always be materialized; data pages may be cost-only at benchmark
   scale). *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Pmem = Trio_nvm.Pmem
module Perf = Trio_nvm.Perf
module Controller = Trio_core.Controller

type pool = { mutable pages : int list; lock : Sync.Mutex.t }

type t = {
  ctl : Controller.t;
  proc : int;
  (* pools.(node).(kind): kind 0 = Meta, 1 = Data *)
  pools : pool array array;
  mutable ino_pool : int list;
  ino_lock : Sync.Mutex.t;
}

let kind_index = function Pmem.Meta -> 0 | Pmem.Data -> 1

(* Pages and inode numbers fetched per controller round trip. *)
let page_batch = 512
let ino_batch = 256

let create ~ctl ~proc () =
  let nodes = Trio_nvm.Numa.nodes (Pmem.topo (Controller.pmem ctl)) in
  {
    ctl;
    proc;
    pools =
      Array.init nodes (fun _ ->
          Array.init 2 (fun _ -> { pages = []; lock = Sync.Mutex.create () }));
    ino_pool = [];
    ino_lock = Sync.Mutex.create ();
  }

(* Pop [count] pages from the node/kind pool, refilling from the kernel
   when empty.  The refill amortizes the syscall and PTE costs. *)
let rec alloc_pages t ~node ~kind ~count =
  let pool = t.pools.(node).(kind_index kind) in
  Sync.Mutex.lock pool.lock;
  Sched.cpu_work Perf.Cpu.lock_acquire;
  let rec take acc n pages =
    if n = 0 then (List.rev acc, pages)
    else
      match pages with
      | [] -> (List.rev acc, [])
      | pg :: rest -> take (pg :: acc) (n - 1) rest
  in
  let got, rest = take [] count pool.pages in
  pool.pages <- rest;
  Sync.Mutex.unlock pool.lock;
  let missing = count - List.length got in
  if missing = 0 then Ok got
  else begin
    let batch = max page_batch missing in
    match Controller.alloc_pages t.ctl ~proc:t.proc ~node ~count:batch ~kind with
    | Error e ->
      (* Return what we took; the caller sees the failure. *)
      if got <> [] then begin
        Sync.Mutex.lock pool.lock;
        pool.pages <- got @ pool.pages;
        Sync.Mutex.unlock pool.lock
      end;
      Error e
    | Ok fresh ->
      Sync.Mutex.lock pool.lock;
      pool.pages <- fresh @ pool.pages;
      Sync.Mutex.unlock pool.lock;
      (* Retry: the pool now has at least [missing] pages (barring
         concurrent drains, which the recursion handles). *)
      if got = [] then alloc_pages t ~node ~kind ~count
      else
        match alloc_pages t ~node ~kind ~count:missing with
        | Ok more -> Ok (got @ more)
        | Error e -> Error e
  end

let alloc_page t ~node ~kind =
  match alloc_pages t ~node ~kind ~count:1 with
  | Ok [ pg ] -> Ok pg
  | Ok _ -> assert false
  | Error e -> Error e

let alloc_ino t =
  Sync.Mutex.lock t.ino_lock;
  Sched.cpu_work Perf.Cpu.lock_acquire;
  let result =
    match t.ino_pool with
    | ino :: rest ->
      t.ino_pool <- rest;
      ino
    | [] -> (
      match Controller.alloc_inos t.ctl ~proc:t.proc ~count:ino_batch with
      | ino :: rest ->
        t.ino_pool <- rest;
        ino
      | [] -> assert false)
  in
  Sync.Mutex.unlock t.ino_lock;
  result

(* Give a page back to the local pool (e.g. after an aborted create). *)
let recycle_page t ~page ~kind =
  let pmem = Controller.pmem t.ctl in
  let node = page / Pmem.pages_per_node pmem in
  let pool = t.pools.(node).(kind_index kind) in
  Sync.Mutex.lock pool.lock;
  pool.pages <- page :: pool.pages;
  Sync.Mutex.unlock pool.lock
