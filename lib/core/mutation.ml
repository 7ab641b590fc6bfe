type t =
  | Reorder_commit
  | Drop_writes
  | Skip_gc
  | Qos_bypass
  | Torn_commit
  | Skip_index
  | Keep_handed_back
  | Keep_faulted_ptes

let all =
  [
    Reorder_commit;
    Drop_writes;
    Skip_gc;
    Qos_bypass;
    Torn_commit;
    Skip_index;
    Keep_handed_back;
    Keep_faulted_ptes;
  ]

let to_string = function
  | Reorder_commit -> "reorder-commit"
  | Drop_writes -> "drop-writes"
  | Skip_gc -> "skip-gc"
  | Qos_bypass -> "qos-bypass"
  | Torn_commit -> "torn-commit"
  | Skip_index -> "skip-index"
  | Keep_handed_back -> "keep-handed-back"
  | Keep_faulted_ptes -> "keep-faulted-ptes"

let armed : t option ref = ref None

let[@inline] active m = match !armed with None -> false | Some a -> a == m

let with_mutation m f =
  let prev = !armed in
  armed := Some m;
  Fun.protect ~finally:(fun () -> armed := prev) f
