(* The benchmark's workloads.  Each one builds its files during setup,
   runs one closed loop through [Harness.measure], and ends with an
   audit from a fresh LibFS process that returns how many acknowledged
   ops it found lost.  Operation choices come only from the seed; the
   file system sees nothing but the generated operations. *)

module Rng = Trio_util.Rng
module Controller = Trio_core.Controller
module Fs = Trio_core.Fs_intf
module Db = Minidb.Db
open Trio_core.Fs_types

type t = {
  name : string;
  ops : int * int; (* measured ops: full size, --quick *)
  run : Harness.env -> ops:int -> int; (* setup, measure, audit; returns ops lost *)
}

let ok = function Ok _ -> true | Error _ -> false

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "setup: %s: %s" what (errno_to_string e))

(* Per-client generator: a seed gives the same operations whatever the
   interleaving. *)
let client_rngs (env : Harness.env) n =
  let master = Rng.create (0x7ea5 + env.Harness.seed) in
  Array.init n (fun _ -> Rng.split master)

(* A client draws each op's kind as a card 0..99 from its own shuffled
   deck, so every 100 ops hold the mix's exact proportions and the seed
   only orders them and picks their targets.  Independent draws would
   let the op counts, and with them the results, wander by a few
   percent from seed to seed. *)
type deck = { cards : int array; mutable next : int; rng : Rng.t }

let deck rng = { cards = Array.init 100 Fun.id; next = 100; rng }

let draw d =
  if d.next = 100 then begin
    Rng.shuffle d.rng d.cards;
    d.next <- 0
  end;
  d.next <- d.next + 1;
  d.cards.(d.next - 1)

(* A set of names with O(1) random choice and removal. *)
module Names = struct
  type t = { mutable a : string array; mutable n : int; idx : (string, int) Hashtbl.t }

  let create () = { a = Array.make 64 ""; n = 0; idx = Hashtbl.create 64 }

  let add t s =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) "" in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- s;
    Hashtbl.replace t.idx s t.n;
    t.n <- t.n + 1

  let remove t s =
    match Hashtbl.find_opt t.idx s with
    | None -> ()
    | Some i ->
      Hashtbl.remove t.idx s;
      t.n <- t.n - 1;
      if i < t.n then begin
        t.a.(i) <- t.a.(t.n);
        Hashtbl.replace t.idx t.a.(i) i
      end

  let pick t rng = t.a.(Rng.int rng t.n)
  let size t = t.n
  let to_sorted t = List.sort compare (Array.to_list (Array.sub t.a 0 t.n))
end

(* Names in [dir] as a fresh process sees them, against the model:
   each missing or unexpected entry is one lost op. *)
let readdir_diff fs dir model =
  match fs.Fs.readdir dir with
  | Error _ -> List.length model
  | Ok entries ->
    let seen = List.sort compare (List.map (fun e -> e.d_name) entries) in
    let rec diff a b n =
      match (a, b) with
      | [], l | l, [] -> n + List.length l
      | x :: a', y :: b' ->
        let c = compare x y in
        if c = 0 then diff a' b' n else if c < 0 then diff a' b (n + 1) else diff a b' (n + 1)
    in
    diff seen model 0

let bad_files (env : Harness.env) =
  snd (Controller.audit_all env.Harness.rig.Trio_workloads.Rig.ctl)

(* ------------------------------------------------------------------ *)
(* data_rw: the LibFS data path, Delegation and Pmem bandwidth. *)

let block = 4096

(* A block's content names its client, index and version, so a read
   proves which write it returns. *)
let stamp buf ~client ~blk ~version =
  Bytes.fill buf 0 block (Char.chr (33 + (((client * 7) + (blk * 13) + (version * 29)) land 63)));
  Bytes.set_int32_le buf 0 (Int32.of_int client);
  Bytes.set_int32_le buf 4 (Int32.of_int blk);
  Bytes.set_int32_le buf 8 (Int32.of_int version)

type file = { mutable fd : int; mutable versions : int array; mutable blocks : int }

let data_rw (env : Harness.env) ~ops =
  let clients = 16 in
  let blocks0 = if env.quick then 8 else 1024 (* 4 MiB *) in
  let fs = Harness.mount env () in
  get_ok "mkdir" (fs.Fs.mkdir "/data" 0o755);
  let rngs = client_rngs env clients in
  let decks = Array.map deck rngs in
  let files = Array.init clients (fun _ -> { fd = -1; versions = Array.make 64 0; blocks = 0 }) in
  let path c = Printf.sprintf "/data/c%d" c in
  let bufs = Array.init clients (fun _ -> Bytes.create block) in
  let expect = Array.init clients (fun _ -> Bytes.create block) in
  let append c =
    let f = files.(c) in
    if f.blocks = Array.length f.versions then begin
      let v = Array.make (2 * f.blocks) 0 in
      Array.blit f.versions 0 v 0 f.blocks;
      f.versions <- v
    end;
    stamp bufs.(c) ~client:c ~blk:f.blocks ~version:0;
    match fs.Fs.append f.fd bufs.(c) with
    | Ok n when n = block ->
      f.versions.(f.blocks) <- 0;
      f.blocks <- f.blocks + 1;
      true
    | _ -> false
  in
  Harness.parallel env clients (fun c ->
      files.(c).fd <- get_ok "create" (fs.Fs.create (path c) 0o644);
      for _ = 1 to blocks0 do
        if not (append c) then failwith "setup: append"
      done);
  Harness.measure env ~clients ~ops (fun ~tid:c ->
      let f = files.(c) and rng = rngs.(c) in
      let pct = draw decks.(c) in
      if pct < 60 then begin
        let blk = Rng.int rng f.blocks in
        stamp expect.(c) ~client:c ~blk ~version:f.versions.(blk);
        ( "",
          match fs.Fs.pread f.fd bufs.(c) (blk * block) with
          | Ok n -> n = block && Bytes.equal bufs.(c) expect.(c)
          | Error _ -> false )
      end
      else if pct < 90 then begin
        let blk = Rng.int rng f.blocks in
        let version = f.versions.(blk) + 1 in
        stamp bufs.(c) ~client:c ~blk ~version;
        match fs.Fs.pwrite f.fd bufs.(c) (blk * block) with
        | Ok n when n = block ->
          f.versions.(blk) <- version;
          ("", true)
        | _ -> ("", false)
      end
      else ("", append c));
  Harness.release env;
  let audit = Harness.fresh_process env in
  let buf = Bytes.create block and want = Bytes.create block in
  let lost = ref 0 in
  Array.iteri
    (fun c f ->
      match audit.Fs.open_ (path c) [ O_RDONLY ] with
      | Error _ -> lost := !lost + f.blocks
      | Ok fd ->
        (match audit.Fs.stat (path c) with
        | Ok st when st.st_size = f.blocks * block -> ()
        | _ -> incr lost);
        for blk = 0 to f.blocks - 1 do
          stamp want ~client:c ~blk ~version:f.versions.(blk);
          match audit.Fs.pread fd buf (blk * block) with
          | Ok n when n = block && Bytes.equal buf want -> ()
          | _ -> incr lost
        done;
        ignore (audit.Fs.close fd))
    files;
  !lost

(* ------------------------------------------------------------------ *)
(* meta_private: LibFS metadata, Dirindex, Journal, batch allocation. *)

let meta_private (env : Harness.env) ~ops =
  let clients = 16 in
  let entries = if env.quick then 40 else 1000 in
  let fs = Harness.mount env () in
  let rngs = client_rngs env clients in
  let decks = Array.map deck rngs in
  let names = Array.init clients (fun _ -> Names.create ()) in
  let next = Array.make clients 0 in
  let dir c = Printf.sprintf "/m%d" c in
  let fresh c =
    next.(c) <- next.(c) + 1;
    Printf.sprintf "f%07d" next.(c)
  in
  let create c =
    let name = fresh c in
    match fs.Fs.create (dir c ^ "/" ^ name) 0o644 with
    | Ok fd ->
      Names.add names.(c) name;
      ok (fs.Fs.close fd)
    | Error _ -> false
  in
  Harness.parallel env clients (fun c ->
      get_ok "mkdir" (fs.Fs.mkdir (dir c) 0o755);
      for _ = 1 to entries do
        if not (create c) then failwith "setup: create"
      done);
  Harness.measure env ~clients ~ops (fun ~tid:c ->
      let rng = rngs.(c) and set = names.(c) in
      let pct = draw decks.(c) in
      if pct < 30 || Names.size set = 0 then ("", create c)
      else
        let victim = Names.pick set rng in
        let path = dir c ^ "/" ^ victim in
        if pct < 55 then begin
          match fs.Fs.unlink path with
          | Ok () ->
            Names.remove set victim;
            ("", true)
          | Error _ -> ("", false)
        end
        else if pct < 90 then ("", ok (fs.Fs.stat path))
        else
          let name = fresh c in
          match fs.Fs.rename path (dir c ^ "/" ^ name) with
          | Ok () ->
            Names.remove set victim;
            Names.add set name;
            ("", true)
          | Error _ -> ("", false));
  Harness.release env;
  let audit = Harness.fresh_process env in
  let lost = ref 0 in
  Array.iteri (fun c set -> lost := !lost + readdir_diff audit (dir c) (Names.to_sorted set)) names;
  !lost + bad_files env

(* ------------------------------------------------------------------ *)
(* Verified handoffs: 8 LibFS processes, each its own trust group and
   unmapping after every write, so each create or unlink maps a
   directory, writes it, and hands it back to be verified.  Processes
   0..3 cross into the controller synchronously, 4..7 through a
   32-deep ring.  Process [p] creates and unlinks in [dir p] and stats
   pre-existing entries of [stat_dir p]; every directory in [dirs]
   starts with 64 entries. *)

let pre_name i = Printf.sprintf "pre%02d" i

let handoffs (env : Harness.env) ~ops ~dirs ~dir ~stat_dir =
  let procs = 8 and pre = if env.quick then 8 else 64 in
  let ring p = p >= 4 in
  let fss =
    Array.init procs (fun p ->
        Harness.mount env ?ring:(if ring p then Some 32 else None) ~unmap_after_write:true ())
  in
  List.iter
    (fun d ->
      get_ok "mkdir" (fss.(0).Fs.mkdir d 0o777);
      for i = 0 to pre - 1 do
        let fd = get_ok "create" (fss.(0).Fs.create (d ^ "/" ^ pre_name i) 0o644) in
        get_ok "close" (fss.(0).Fs.close fd)
      done)
    dirs;
  Harness.release env;
  let rngs = client_rngs env procs in
  let decks = Array.map deck rngs in
  let own = Array.init procs (fun _ -> Names.create ()) in
  let next = Array.make procs 0 in
  let create p =
    next.(p) <- next.(p) + 1;
    let name = Printf.sprintf "p%d_%06d" p next.(p) in
    match fss.(p).Fs.create (dir p ^ "/" ^ name) 0o644 with
    | Ok fd ->
      Names.add own.(p) name;
      ok (fss.(p).Fs.close fd)
    | Error _ -> false
  in
  Harness.measure env ~clients:procs ~ops (fun ~tid:p ->
      let rng = rngs.(p) in
      let tag = if ring p then "ring" else "sync" in
      let pct = draw decks.(p) in
      if pct < 40 || (pct < 70 && Names.size own.(p) = 0) then (tag, create p)
      else if pct < 70 then begin
        let victim = Names.pick own.(p) rng in
        match fss.(p).Fs.unlink (dir p ^ "/" ^ victim) with
        | Ok () ->
          Names.remove own.(p) victim;
          (tag, true)
        | Error _ -> (tag, false)
      end
      else (tag, ok (fss.(p).Fs.stat (stat_dir p ^ "/" ^ pre_name (Rng.int rng pre)))));
  Harness.release env;
  let audit = Harness.fresh_process env in
  let lost =
    List.fold_left
      (fun lost d ->
        let writers = List.filter (fun p -> dir p = d) (List.init procs Fun.id) in
        let model =
          List.init pre pre_name @ List.concat_map (fun p -> Names.to_sorted own.(p)) writers
        in
        lost + readdir_diff audit d (List.sort compare model))
      0 dirs
  in
  lost + bad_files env

(* share_dir: two shared directories, each written by 2 sync and 2 ring
   processes -- the path behind Table 3 and Fig. 8. *)
let share_dir (env : Harness.env) ~ops =
  let dir p = Printf.sprintf "/s%d" (p / 2 mod 2) in
  handoffs env ~ops ~dirs:[ "/s0"; "/s1" ] ~dir ~stat_dir:dir

(* handoff: the same processes and mix, but each process writes only
   its own directory and stats entries of one directory no process
   writes, so every handoff is verified and none is contended. *)
let handoff (env : Harness.env) ~ops =
  let dir p = Printf.sprintf "/h%d" p in
  handoffs env ~ops ~dirs:("/shared" :: List.init 8 dir) ~dir ~stat_dir:(fun _ -> "/shared")

(* ------------------------------------------------------------------ *)
(* kv_ycsb: Minidb tenants, YCSB-A, synchronous WAL. *)

let key_of i = Printf.sprintf "%016d" i

(* 100-byte values naming their key and version. *)
let value_of ~key ~version =
  let s = Printf.sprintf "%d:%d:" key version in
  s ^ String.make (100 - String.length s) 'v'

let kv_ycsb (env : Harness.env) ~ops =
  let tenants = 4 in
  let records = if env.quick then 300 else 16_000 in
  let options = { Db.default_options with Db.sync_writes = true } in
  (* One setup process makes each tenant's parent directory, so a
     tenant only ever writes directories of its own: the root is never
     written by two processes (see defect 5 in README.md). *)
  let setup = Harness.mount env () in
  for t = 0 to tenants - 1 do
    get_ok "mkdir" (setup.Fs.mkdir (Printf.sprintf "/kv%d" t) 0o755)
  done;
  Harness.release env;
  let dir t = Printf.sprintf "/kv%d/db" t in
  let dbs =
    Array.init tenants (fun t ->
        get_ok "open_db" (Db.open_db ~options (Harness.mount env ()) ~dir:(dir t)))
  in
  env.Harness.db_stats <-
    (fun () ->
      Array.fold_left
        (fun (f, c) db ->
          let f', c', _, _ = Db.stats db in
          (f + f', c + c'))
        (0, 0) dbs);
  let versions = Array.init tenants (fun _ -> Array.make records 0) in
  Harness.parallel env tenants (fun t ->
      for k = 0 to records - 1 do
        get_ok "preload" (Db.put dbs.(t) ~key:(key_of k) ~value:(value_of ~key:k ~version:0))
      done);
  let rngs = client_rngs env tenants in
  let decks = Array.map deck rngs in
  Harness.measure env ~clients:tenants ~ops (fun ~tid:t ->
      let rng = rngs.(t) in
      let k = Rng.zipf rng ~n:records ~theta:0.9 in
      if draw decks.(t) < 50 then
        ( "get",
          match Harness.span env "minidb.get" (fun () -> Db.get dbs.(t) ~key:(key_of k)) with
          | Ok (Some v) -> String.equal v (value_of ~key:k ~version:versions.(t).(k))
          | Ok None | Error _ -> false )
      else
        let version = versions.(t).(k) + 1 in
        match
          Harness.span env "minidb.put" (fun () ->
              Db.put dbs.(t) ~key:(key_of k) ~value:(value_of ~key:k ~version))
        with
        | Ok () ->
          versions.(t).(k) <- version;
          ("put", true)
        | Error _ -> ("put", false));
  Array.iter (fun db -> ignore (Db.close db)) dbs;
  Harness.release env;
  let audit = Harness.fresh_process env in
  let lost = ref 0 in
  for t = 0 to tenants - 1 do
    match Db.open_db audit ~dir:(dir t) with
    | Error _ -> lost := !lost + records
    | Ok db ->
      for k = 0 to records - 1 do
        match Db.get db ~key:(key_of k) with
        | Ok (Some v) when String.equal v (value_of ~key:k ~version:versions.(t).(k)) -> ()
        | _ -> incr lost
      done;
      ignore (Db.close db)
  done;
  !lost

(* Sizes give each round a few seconds of host time; --quick sizes give
   just over the 1,000 successful ops a 99th percentile needs. *)
let all =
  [
    { name = "data_rw"; ops = (240_000, 1008); run = data_rw };
    { name = "meta_private"; ops = (20_000, 1008); run = meta_private };
    { name = "share_dir"; ops = (1500, 200); run = share_dir };
    { name = "handoff"; ops = (3200, 1008); run = handoff };
    { name = "kv_ycsb"; ops = (120_000, 1008); run = kv_ycsb };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
