(** CRC-32 (IEEE, reflected) sealing every checksummed structure on the
    simulated media: Dirindex nodes, snapshot root slots and payload
    streams, controller checkpoints, and WAL and SSTable records.  The
    kernel is slicing-by-8 (8 bytes per step) because the CRC is a
    large host cost of the simulator; it charges no virtual time. *)

(** CRC of [len] bytes of [b] from [pos] ([pos] defaults to 0, [len]
    to the rest of [b]).  Raises [Invalid_argument "Crc32.of_bytes"] unless
    [0 <= pos], [0 <= len] and [pos + len <= Bytes.length b]. *)
val of_bytes : ?pos:int -> ?len:int -> Bytes.t -> int

val of_string : ?pos:int -> ?len:int -> string -> int
