(* Check that a file holds a migration write-ahead log, as written by
   [harmlessctl migrate --wal FILE]:

     dune exec test/wal_check.exe -- FILE

   Parses FILE with [Mgmt.Txn.load] (the strict [Mgmt.Txn.of_string]
   reader recovery replays), prints its record count and exits 0; exits
   1 naming the error when the file is missing or does not parse. *)

let () =
  match Sys.argv with
  | [| _; path |] -> (
      match Mgmt.Txn.load ~path with
      | Ok wal -> Printf.printf "%s: %d WAL records\n" path (Mgmt.Txn.length wal)
      | Error msg ->
          Printf.eprintf "%s: not a WAL: %s\n" path msg;
          exit 1)
  | _ ->
      prerr_endline "usage: wal_check FILE";
      exit 2
