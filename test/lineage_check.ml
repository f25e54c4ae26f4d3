(* lineage_check ARTIFACT [VERSIONS]

   Checks the provenance chain that `unroll-ml train --follow` appends to
   ARTIFACT.lineage, one line per emitted version:

     v<k> parent <digest|-> digest <digest> dataset <digest>

   Versions count up from v1, the first parent is "-", each later parent
   is the previous line's digest, and the last digest is the MD5 of the
   ARTIFACT file itself.  With VERSIONS, the chain must also have exactly
   that many lines.  Exits 1 with a message on the first violation. *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("lineage: " ^ msg); exit 1) fmt

let () =
  let artifact, versions =
    match Sys.argv with
    | [| _; a |] -> (a, None)
    | [| _; a; n |] -> (a, Some (int_of_string n))
    | _ -> fail "usage: lineage_check ARTIFACT [VERSIONS]"
  in
  let path = artifact ^ ".lineage" in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let last =
    List.fold_left
      (fun (k, prev) line ->
        match String.split_on_char ' ' line with
        | [ v; "parent"; parent; "digest"; digest; "dataset"; _ ] ->
          if v <> Printf.sprintf "v%d" k then fail "line %d: version %s" k v;
          if parent <> prev then fail "line %d: parent %s, expected %s" k parent prev;
          (k + 1, digest)
        | _ -> fail "line %d: malformed %S" k line)
      (1, "-") lines
  in
  let count = fst last - 1 in
  if count = 0 then fail "%s is empty" path;
  (match versions with
  | Some n when n <> count -> fail "%d versions, expected %d" count n
  | _ -> ());
  let md5 = Digest.to_hex (Digest.file artifact) in
  if snd last <> md5 then fail "last digest %s, but %s has MD5 %s" (snd last) artifact md5
