(* Tests for the mini-LevelDB running over ArckFS in the simulator. *)

module Rig = Trio_workloads.Rig
module Db = Minidb.Db
module Memtable = Minidb.Memtable
module Sstable = Minidb.Sstable
module Wal = Minidb.Wal
module R = Minidb.Record_format
module Fs = Trio_core.Fs_intf
module Libfs = Arckfs.Libfs

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Trio_core.Fs_types.errno_to_string e)

let with_fs f =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
      f rig (Trio_core.Vfs.ops (Rig.mount_fs rig "arckfs")))

(* ------------------------------------------------------------------ *)
(* Memtable *)

let test_memtable_basic () =
  let m = Memtable.create () in
  Memtable.put m "b" "2";
  Memtable.put m "a" "1";
  Memtable.put m "a" "1'";
  Memtable.delete m "b";
  Alcotest.(check bool) "a" true (Memtable.find m "a" = Some (Memtable.Put "1'"));
  Alcotest.(check bool) "b tombstone" true (Memtable.find m "b" = Some Memtable.Delete);
  Alcotest.(check bool) "c absent" true (Memtable.find m "c" = None);
  let keys = List.map fst (Memtable.to_sorted_list m) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ] keys

(* ------------------------------------------------------------------ *)
(* Record format *)

let test_record_roundtrip () =
  let b = R.encode ~kind:R.t_put ~key:"the-key" ~value:"the-value" in
  match R.decode b 0 with
  | Some (kind, key, value, next) ->
    Alcotest.(check int) "kind" R.t_put kind;
    Alcotest.(check string) "key" "the-key" key;
    Alcotest.(check string) "value" "the-value" value;
    Alcotest.(check int) "next" (Bytes.length b) next
  | None -> Alcotest.fail "decode failed"

let test_record_crc_detects_corruption () =
  let b = R.encode ~kind:R.t_put ~key:"k" ~value:"v" in
  Bytes.set b (Bytes.length b - 1) 'X';
  Alcotest.(check bool) "rejected" true (R.decode b 0 = None)

let test_record_truncation_detected () =
  let b = R.encode ~kind:R.t_put ~key:"key" ~value:"a-long-value" in
  let cut = Bytes.sub b 0 (Bytes.length b - 3) in
  Alcotest.(check bool) "rejected" true (R.decode cut 0 = None)

(* ------------------------------------------------------------------ *)
(* SSTable *)

let test_sstable_roundtrip () =
  with_fs (fun _rig fs ->
      let entries =
        List.init 500 (fun i -> (Printf.sprintf "key%06d" i, Memtable.Put (Printf.sprintf "val%d" i)))
      in
      let table = ok "build" (Sstable.build fs ~path:"/t1.sst" entries) in
      Alcotest.(check int) "count" 500 (Sstable.entry_count table);
      (* point lookups through a fresh open *)
      let reopened = ok "open" (Sstable.open_ fs ~path:"/t1.sst") in
      List.iter
        (fun i ->
          match ok "get" (Sstable.get reopened (Printf.sprintf "key%06d" i)) with
          | Some (Memtable.Put v) ->
            Alcotest.(check string) "value" (Printf.sprintf "val%d" i) v
          | _ -> Alcotest.failf "key%06d missing" i)
        [ 0; 1; 99; 250; 499 ];
      Alcotest.(check bool) "absent key" true (ok "get" (Sstable.get reopened "nope") = None);
      Alcotest.(check bool) "past range" true
        (ok "get" (Sstable.get reopened "zzzz") = None))

let test_sstable_iter_order () =
  with_fs (fun _rig fs ->
      let entries = List.init 100 (fun i -> (Printf.sprintf "k%04d" i, Memtable.Put "v")) in
      let table = ok "build" (Sstable.build fs ~path:"/t2.sst" entries) in
      let seen = ref [] in
      ok "iter" (Sstable.iter_all table (fun k _ -> seen := k :: !seen));
      Alcotest.(check int) "all" 100 (List.length !seen);
      Alcotest.(check (list string)) "order" (List.map fst entries) (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* DB end to end *)

let test_db_put_get () =
  with_fs (fun _rig fs ->
      let db = ok "open" (Db.open_db fs ~dir:"/db") in
      ok "put" (Db.put db ~key:"alpha" ~value:"1");
      ok "put" (Db.put db ~key:"beta" ~value:"2");
      Alcotest.(check (option string)) "alpha" (Some "1") (ok "get" (Db.get db ~key:"alpha"));
      Alcotest.(check (option string)) "beta" (Some "2") (ok "get" (Db.get db ~key:"beta"));
      Alcotest.(check (option string)) "gamma" None (ok "get" (Db.get db ~key:"gamma"));
      ok "overwrite" (Db.put db ~key:"alpha" ~value:"1'");
      Alcotest.(check (option string)) "alpha'" (Some "1'") (ok "get" (Db.get db ~key:"alpha"));
      ok "close" (Db.close db))

let test_db_delete () =
  with_fs (fun _rig fs ->
      let db = ok "open" (Db.open_db fs ~dir:"/db") in
      ok "put" (Db.put db ~key:"k" ~value:"v");
      ok "delete" (Db.delete db ~key:"k");
      Alcotest.(check (option string)) "deleted" None (ok "get" (Db.get db ~key:"k"));
      ok "close" (Db.close db))

let test_db_flush_and_compaction () =
  with_fs (fun _rig fs ->
      let options = { Db.default_options with write_buffer_bytes = 4096; l0_compaction_trigger = 3 } in
      let db = ok "open" (Db.open_db ~options fs ~dir:"/db") in
      let n = 600 in
      for i = 0 to n - 1 do
        ok "put" (Db.put db ~key:(Printf.sprintf "key%06d" i) ~value:(String.make 50 'v'))
      done;
      let flushes, compactions, _, _ = Db.stats db in
      if flushes = 0 then Alcotest.fail "no memtable flush happened";
      if compactions = 0 then Alcotest.fail "no compaction happened";
      (* every key still readable after flushes + compactions *)
      for i = 0 to n - 1 do
        match ok "get" (Db.get db ~key:(Printf.sprintf "key%06d" i)) with
        | Some _ -> ()
        | None -> Alcotest.failf "key%06d lost" i
      done;
      (* deletes survive compaction *)
      for i = 0 to 99 do
        ok "delete" (Db.delete db ~key:(Printf.sprintf "key%06d" i))
      done;
      for _ = 1 to 200 do
        ok "fill" (Db.put db ~key:"filler" ~value:(String.make 100 'f'))
      done;
      for i = 0 to 99 do
        Alcotest.(check (option string))
          (Printf.sprintf "deleted %d" i)
          None
          (ok "get" (Db.get db ~key:(Printf.sprintf "key%06d" i)))
      done;
      ok "close" (Db.close db))

let test_db_reopen_persistence () =
  with_fs (fun _rig fs ->
      let db = ok "open" (Db.open_db fs ~dir:"/db") in
      for i = 0 to 199 do
        ok "put" (Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(Printf.sprintf "v%d" i))
      done;
      ok "close" (Db.close db);
      let db2 = ok "reopen" (Db.open_db fs ~dir:"/db") in
      for i = 0 to 199 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%04d" i)
          (Some (Printf.sprintf "v%d" i))
          (ok "get" (Db.get db2 ~key:(Printf.sprintf "k%04d" i)))
      done;
      ok "close2" (Db.close db2))

let test_db_wal_recovers_after_crash () =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
      let libfs = Rig.mount_arckfs ~delegated:false rig in
      let fs = Libfs.ops libfs in
      let db = ok "open" (Db.open_db fs ~dir:"/db") in
      (* small writes that stay in the memtable (below flush threshold) *)
      for i = 0 to 49 do
        ok "put" (Db.put db ~key:(Printf.sprintf "k%02d" i) ~value:"payload")
      done;
      (* crash without closing: memtable is lost, WAL survives *)
      Trio_nvm.Pmem.crash rig.Rig.pmem;
      Trio_core.Controller.crash_recover rig.Rig.ctl;
      let libfs2 = Rig.mount_arckfs ~delegated:false rig in
      let fs2 = Libfs.ops libfs2 in
      let db2 = ok "reopen" (Db.open_db fs2 ~dir:"/db") in
      for i = 0 to 49 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%02d" i)
          (Some "payload")
          (ok "get" (Db.get db2 ~key:(Printf.sprintf "k%02d" i)))
      done;
      ok "close" (Db.close db2))

(* Two crashes: the first leaves the records in the WAL only; the
   reopen must make them durable before it truncates the log, or the
   second crash (before any flush) loses them. *)
let test_db_recovery_survives_second_crash () =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
      let options = { Db.default_options with sync_writes = true } in
      let open_db () =
        ok "open" (Db.open_db ~options (Libfs.ops (Rig.mount_arckfs ~delegated:false rig)) ~dir:"/db")
      in
      let crash_and_reopen () =
        Trio_nvm.Pmem.crash rig.Rig.pmem;
        Trio_core.Controller.crash_recover rig.Rig.ctl;
        open_db ()
      in
      let db = open_db () in
      for i = 0 to 49 do
        ok "put" (Db.put db ~key:(Printf.sprintf "k%02d" i) ~value:"payload")
      done;
      let (_ : Db.t) = crash_and_reopen () in
      let db3 = crash_and_reopen () in
      for i = 0 to 49 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%02d" i)
          (Some "payload")
          (ok "get" (Db.get db3 ~key:(Printf.sprintf "k%02d" i)))
      done;
      ok "close" (Db.close db3))

(* A crash at every store of the synchronous put that triggers the
   first flush: until the manifest lists the new table, the WAL is the
   only durable copy of the acknowledged puts, so none may be lost at
   any cut. *)
let test_db_flush_crash_sweep () =
  let options = { Db.default_options with write_buffer_bytes = 4096; sync_writes = true } in
  let key i = Printf.sprintf "k%03d" i in
  let value = String.make 100 'v' in
  let run f = Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:16384 ~store_data:true f in
  let open_db rig =
    ok "open" (Db.open_db ~options (Libfs.ops (Rig.mount_arckfs ~delegated:false rig)) ~dir:"/db")
  in
  (* the index of the put whose memtable insert crosses the threshold *)
  let trigger =
    run (fun rig ->
        let db = open_db rig in
        let rec go i =
          ok "put" (Db.put db ~key:(key i) ~value);
          let flushes, _, _, _ = Db.stats db in
          if flushes > 0 then i else go (i + 1)
        in
        go 0)
  in
  let completed = ref false and cut = ref 0 in
  while (not !completed) && !cut < 400 do
    run (fun rig ->
        let pmem = rig.Rig.pmem in
        let db = open_db rig in
        for i = 0 to trigger - 1 do
          ok "put" (Db.put db ~key:(key i) ~value)
        done;
        Trio_nvm.Pmem.fail_after_writes pmem !cut;
        (match Db.put db ~key:(key trigger) ~value with
        | r ->
          ok "flushing put" r;
          completed := true
        | exception Trio_nvm.Pmem.Crash_point -> ());
        Trio_nvm.Pmem.fail_after_writes pmem (-1);
        Trio_nvm.Pmem.crash pmem;
        Trio_core.Controller.crash_recover rig.Rig.ctl;
        let db2 = open_db rig in
        for i = 0 to trigger - 1 do
          if ok "get" (Db.get db2 ~key:(key i)) <> Some value then
            Alcotest.failf "crash after %d stores of the flushing put: %s lost" !cut (key i)
        done);
    incr cut
  done;
  if not !completed then Alcotest.fail "the flushing put never ran to completion"

(* ------------------------------------------------------------------ *)
(* Descriptor lifetime and range pruning, seen through a pass-through
   [Fs_intf.t] that counts opens and preads, tracks which descriptors
   are open on which path, and can fail renames (the last step of every
   manifest write). *)

type counting = {
  mutable opens : int;
  mutable preads : string list; (* path of each pread, newest first *)
  live : (Fs.fd, string) Hashtbl.t; (* open descriptor -> path *)
  mutable unlinked_open : string list; (* unlinked while a descriptor was open *)
  mutable renames_ok : int; (* renames that succeed before they fail EIO *)
}

let counting (fs : Fs.t) =
  let c =
    { opens = 0; preads = []; live = Hashtbl.create 8; unlinked_open = []; renames_ok = max_int }
  in
  let track path = function
    | Ok fd ->
      Hashtbl.replace c.live fd path;
      Ok fd
    | Error e -> Error e
  in
  let is_open path = Hashtbl.fold (fun _ p acc -> acc || p = path) c.live false in
  ( c,
    {
      fs with
      Fs.create = (fun path mode -> track path (fs.Fs.create path mode));
      open_ =
        (fun path flags ->
          c.opens <- c.opens + 1;
          track path (fs.Fs.open_ path flags));
      close =
        (fun fd ->
          Hashtbl.remove c.live fd;
          fs.Fs.close fd);
      pread =
        (fun fd buf off ->
          c.preads <- Option.value (Hashtbl.find_opt c.live fd) ~default:"?" :: c.preads;
          fs.Fs.pread fd buf off);
      unlink =
        (fun path ->
          if is_open path then c.unlinked_open <- path :: c.unlinked_open;
          fs.Fs.unlink path);
      rename =
        (fun src dst ->
          if c.renames_ok <= 0 then Error Trio_core.Fs_types.EIO
          else begin
            c.renames_ok <- c.renames_ok - 1;
            fs.Fs.rename src dst
          end);
    } )

let reset_counts c =
  c.opens <- 0;
  c.preads <- []

let tables_options = { Db.default_options with write_buffer_bytes = 64 * 1024 }
let b_key i = Printf.sprintf "b%05d" i
let a_key i = Printf.sprintf "a%05d" i
let big_value key = key ^ String.make 1000 'v'

(* The live table paths the manifest lists. *)
let manifest_tables fs =
  ok "manifest" (Fs.read_file fs "/db/MANIFEST")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with [ ("L0" | "L1"); path ] -> Some path | _ -> None)

let check_descriptors_live c fs what =
  let live = "/db/wal.log" :: manifest_tables fs in
  Hashtbl.iter
    (fun _ path ->
      if not (List.mem path live) then Alcotest.failf "%s: descriptor open on dead %s" what path)
    c.live

(* A DB whose L1 holds "b" keys in at least two tables and whose L0
   holds two tables of "a" keys, every other key range excluding the
   "b" ones.  After each flush and compaction, every open descriptor
   must belong to a live table or the WAL (a read after each flush
   keeps the tables open). *)
let build_tables c fs =
  let db = ok "open" (Db.open_db ~options:tables_options fs ~dir:"/db") in
  let last_flushes = ref 0 in
  let put key =
    ok "put" (Db.put db ~key ~value:(big_value key));
    let flushes, compactions, l0, l1 = Db.stats db in
    if flushes <> !last_flushes then begin
      last_flushes := flushes;
      check_descriptors_live c fs (Printf.sprintf "flush %d, compaction %d" flushes compactions);
      ignore (ok "get" (Db.get db ~key:(b_key 0)))
    end;
    (compactions, l0, l1)
  in
  let rec fill_b i =
    let compactions, l0, l1 = put (b_key i) in
    if compactions > 0 && l0 = 0 && l1 >= 2 then i + 1 else fill_b (i + 1)
  in
  let nb = fill_b 0 in
  let rec fill_a i =
    let _, l0, _ = put (a_key i) in
    if l0 = 2 then i + 1 else fill_a (i + 1)
  in
  let na = fill_a 0 in
  Alcotest.(check (list string)) "no table unlinked while open" [] c.unlinked_open;
  (db, nb, na)

let with_tables f =
  with_fs (fun _rig fs ->
      let c, cfs = counting fs in
      let db, nb, na = build_tables c cfs in
      f c cfs db ~nb ~na)

let test_l1_hit_reads_one_table () =
  with_tables (fun c _fs db ~nb ~na:_ ->
      let _, _, l0, l1 = Db.stats db in
      if l0 < 2 || l1 < 2 then Alcotest.failf "fixture: %d L0 and %d L1 tables" l0 l1;
      List.iter
        (fun i ->
          reset_counts c;
          Alcotest.(check (option string)) (b_key i) (Some (big_value (b_key i)))
            (ok "get" (Db.get db ~key:(b_key i)));
          Alcotest.(check int) (b_key i ^ ": preads") 1 (List.length c.preads))
        [ 0; nb / 2; nb - 1 ];
      ok "close" (Db.close db))

let test_descriptors_closed () =
  with_tables (fun c _fs db ~nb:_ ~na:_ ->
      ok "close" (Db.close db);
      Alcotest.(check int) "descriptors open after close" 0 (Hashtbl.length c.live))

(* A close whose final flush fails still closes every table and the
   WAL. *)
let test_close_after_failed_flush () =
  with_tables (fun c _fs db ~nb:_ ~na:_ ->
      ok "put" (Db.put db ~key:"c" ~value:"v");
      c.renames_ok <- 0;
      Alcotest.(check bool) "close reports the failed flush" true (Result.is_error (Db.close db));
      Alcotest.(check int) "descriptors open after close" 0 (Hashtbl.length c.live))

(* A compaction whose manifest write fails drops the superseded tables
   from the DB, so it closes their descriptors (it keeps their files:
   the manifest on disk still names them). *)
let test_failed_compaction_closes_old_tables () =
  with_tables (fun c _fs db ~nb:_ ~na ->
      (* two more flushes fill L0 to the trigger: their manifest writes
         succeed, the compaction's fails *)
      c.renames_ok <- 2;
      let rec fill i =
        if i > na + 10_000 then Alcotest.fail "no compaction ran"
        else
          match Db.put db ~key:(a_key i) ~value:(big_value (a_key i)) with
          | Ok () -> fill (i + 1)
          | Error _ -> ()
      in
      fill na;
      c.renames_ok <- max_int;
      ok "close" (Db.close db);
      Alcotest.(check int) "descriptors open after close" 0 (Hashtbl.length c.live))

(* An open whose recovery flush fails closes the WAL it opened. *)
let test_failed_open_closes_wal () =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
      let options = { Db.default_options with sync_writes = true } in
      let mount () = Libfs.ops (Rig.mount_arckfs ~delegated:false rig) in
      let db = ok "open" (Db.open_db ~options (mount ()) ~dir:"/db") in
      for i = 0 to 9 do
        ok "put" (Db.put db ~key:(Printf.sprintf "k%02d" i) ~value:"payload")
      done;
      Trio_nvm.Pmem.crash rig.Rig.pmem;
      Trio_core.Controller.crash_recover rig.Rig.ctl;
      let c, cfs = counting (mount ()) in
      c.renames_ok <- 0;
      Alcotest.(check bool) "open reports the failed flush" true
        (Result.is_error (Db.open_db ~options cfs ~dir:"/db"));
      Alcotest.(check int) "descriptors open after the failed open" 0 (Hashtbl.length c.live))

(* Reopened, the DB loads every table (learning each range at open):
   gets return the same values with no open, and a key above every
   range reads nothing. *)
let test_reopened_tables () =
  with_tables (fun _ fs db ~nb ~na ->
      ok "close" (Db.close db);
      let c, cfs = counting fs in
      let db = ok "reopen" (Db.open_db ~options:tables_options cfs ~dir:"/db") in
      reset_counts c;
      for i = 0 to nb - 1 do
        Alcotest.(check (option string)) (b_key i) (Some (big_value (b_key i)))
          (ok "get" (Db.get db ~key:(b_key i)))
      done;
      for i = 0 to na - 1 do
        Alcotest.(check (option string)) (a_key i) (Some (big_value (a_key i)))
          (ok "get" (Db.get db ~key:(a_key i)))
      done;
      Alcotest.(check int) "opens by gets" 0 c.opens;
      reset_counts c;
      Alcotest.(check (option string)) "above every table" None (ok "get" (Db.get db ~key:"z"));
      Alcotest.(check (option string)) "below every table" None (ok "get" (Db.get db ~key:"0"));
      Alcotest.(check int) "preads outside every range" 0 (List.length c.preads);
      ok "close" (Db.close db);
      Alcotest.(check int) "descriptors open after close" 0 (Hashtbl.length c.live))

let test_db_runs_on_every_fs () =
  List.iter
    (fun name ->
      Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:65536 ~store_data:true (fun rig ->
          let fs = Trio_core.Vfs.ops (Rig.mount_fs rig name) in
          let db = ok "open" (Db.open_db fs ~dir:"/db") in
          for i = 0 to 99 do
            ok "put" (Db.put db ~key:(Printf.sprintf "k%03d" i) ~value:"v")
          done;
          for i = 0 to 99 do
            if ok "get" (Db.get db ~key:(Printf.sprintf "k%03d" i)) <> Some "v" then
              Alcotest.failf "%s: k%03d lost" name i
          done;
          ok "close" (Db.close db)))
    Rig.fs_names

let () =
  Alcotest.run "minidb"
    [
      ("memtable", [ Alcotest.test_case "basic" `Quick test_memtable_basic ]);
      ( "records",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "crc detects corruption" `Quick test_record_crc_detects_corruption;
          Alcotest.test_case "truncation detected" `Quick test_record_truncation_detected;
        ] );
      ( "sstable",
        [
          Alcotest.test_case "roundtrip" `Quick test_sstable_roundtrip;
          Alcotest.test_case "iter order" `Quick test_sstable_iter_order;
        ] );
      ( "tables",
        [
          Alcotest.test_case "L1 hit reads one table" `Quick test_l1_hit_reads_one_table;
          Alcotest.test_case "descriptors closed" `Quick test_descriptors_closed;
          Alcotest.test_case "reopened tables" `Quick test_reopened_tables;
          Alcotest.test_case "close after a failed flush" `Quick test_close_after_failed_flush;
          Alcotest.test_case "failed compaction closes old tables" `Quick
            test_failed_compaction_closes_old_tables;
          Alcotest.test_case "failed open closes the WAL" `Quick test_failed_open_closes_wal;
        ] );
      ( "db",
        [
          Alcotest.test_case "put/get" `Quick test_db_put_get;
          Alcotest.test_case "delete" `Quick test_db_delete;
          Alcotest.test_case "flush & compaction" `Quick test_db_flush_and_compaction;
          Alcotest.test_case "reopen persistence" `Quick test_db_reopen_persistence;
          Alcotest.test_case "WAL crash recovery" `Quick test_db_wal_recovers_after_crash;
          Alcotest.test_case "recovery survives a second crash" `Quick
            test_db_recovery_survives_second_crash;
          Alcotest.test_case "crash during the flushing put" `Quick test_db_flush_crash_sweep;
          Alcotest.test_case "runs on every fs" `Slow test_db_runs_on_every_fs;
        ] );
    ]
