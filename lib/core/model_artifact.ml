type provenance = {
  dataset_digest : string;
  machine_name : string;
  machine_digest : string;
  code_version : string;
}

type label_space = Factor | Joint

type t = {
  provenance : provenance;
  label_space : label_space;
  features : int array;
  feature_names : string array;
  mean : float array;
  std : float array;
  model : Learner.trained;
}

(* v2 added the MLP payload and the label-space line.  This build writes
   v2 and still reads v1 (which is v2 minus those — a v1 artifact is
   always a factor-space NN or SVM). *)
let version = 2
let oldest_readable_version = 1
let code_version = "unrollml-features38-v1"

let kind t = Learner.name (Learner.learner t.model)
let label_space_name = function Factor -> "factor" | Joint -> "joint"
let n_classes = function Factor -> Unroll.max_factor | Joint -> Labeling.Joint.classes

let to_string t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "unrollml-artifact v%d" version;
  line "kind %s" (kind t);
  line "label-space %s" (label_space_name t.label_space);
  line "code-version %s" t.provenance.code_version;
  line "dataset-digest %s" t.provenance.dataset_digest;
  line "machine %s %s" t.provenance.machine_name t.provenance.machine_digest;
  line "features %s" (Learner.ints t.features);
  line "feature-names %s" (String.concat " " (Array.to_list t.feature_names));
  line "mean %s" (Learner.floats t.mean);
  line "std %s" (Learner.floats t.std);
  List.iter (line "%s") (Learner.write t.model);
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "checksum %s\n" (Digest.to_hex (Digest.string body))

(* --- parsing ------------------------------------------------------------ *)

let failf = Learner.malformed
let split_words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let of_string text =
  try
    (* The checksum line covers every byte before it; verify before
       interpreting anything else so corruption fails fast and loudly. *)
    let content_end =
      let e = ref (String.length text) in
      while !e > 0 && (text.[!e - 1] = '\n' || text.[!e - 1] = '\r' || text.[!e - 1] = ' ') do
        decr e
      done;
      !e
    in
    if content_end = 0 then failf "empty artifact";
    let check_start =
      match String.rindex_from_opt text (content_end - 1) '\n' with
      | Some i -> i + 1
      | None -> failf "truncated artifact (no checksum line)"
    in
    let last_line = String.trim (String.sub text check_start (content_end - check_start)) in
    (match split_words last_line with
    | [ "checksum"; hex ] ->
      let body = String.sub text 0 check_start in
      if Digest.to_hex (Digest.string body) <> hex then
        failf "checksum mismatch: artifact corrupt"
    | _ -> failf "missing checksum line");
    let lines =
      String.split_on_char '\n' (String.sub text 0 check_start)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let header, rest =
      match lines with
      | first :: rest -> (first, rest)
      | [] -> failf "empty artifact"
    in
    (match split_words header with
    | [ "unrollml-artifact"; v ] ->
      let readable =
        List.init (version - oldest_readable_version + 1) (fun i ->
            Printf.sprintf "v%d" (oldest_readable_version + i))
      in
      if not (List.mem v readable) then
        failf "unsupported artifact version %s (this build reads v%d..v%d)" v
          oldest_readable_version version
    | _ -> failf "not a model artifact (bad header %S)" header);
    let kind = ref "" and code_version = ref "" and dataset_digest = ref "" in
    let machine_name = ref "" and machine_dig = ref "" in
    let features = ref [||] and feature_names = ref [||] in
    let mean = ref [||] and std = ref [||] in
    (* v1 artifacts predate the label-space line; they are always factor. *)
    let label_space = ref Factor in
    let payload = ref [] in
    List.iter
      (fun l ->
        match split_words l with
        | "kind" :: [ k ] -> kind := k
        | "label-space" :: [ s ] -> (
          match s with
          | "factor" -> label_space := Factor
          | "joint" -> label_space := Joint
          | s -> failf "label-space: unknown space %S" s)
        | "code-version" :: [ v ] -> code_version := v
        | "dataset-digest" :: [ d ] -> dataset_digest := d
        | "machine" :: [ name; d ] ->
          machine_name := name;
          machine_dig := d
        | "features" :: rest -> features := Learner.int_fields ~ctx:"features" rest
        | "feature-names" :: rest -> feature_names := Array.of_list rest
        | "mean" :: rest -> mean := Learner.float_fields ~ctx:"mean" rest
        | "std" :: rest -> std := Learner.float_fields ~ctx:"std" rest
        | [] -> ()
        | words -> payload := words :: !payload)
      rest;
    let d = Array.length !features in
    if Array.length !feature_names <> d then failf "feature-names/features length mismatch";
    if Array.length !mean <> d || Array.length !std <> d then
      failf "scale parameters do not match the feature subset";
    let model =
      match Learner.find !kind with
      | Some l -> Learner.read l ~d ~n_classes:(n_classes !label_space) (List.rev !payload)
      | None -> failf "unknown artifact kind %S" !kind
    in
    Ok
      {
        provenance =
          {
            dataset_digest = !dataset_digest;
            machine_name = !machine_name;
            machine_digest = !machine_dig;
            code_version = !code_version;
          };
        label_space = !label_space;
        features = !features;
        feature_names = !feature_names;
        mean = !mean;
        std = !std;
        model;
      }
  with Learner.Malformed msg -> Error ("Model_artifact: " ^ msg)

(* Write a sibling temp file, then rename it over [path]: a concurrent
   reader (a server's hot reload) sees the old artifact or the new one,
   never a torn file. *)
let save t path =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (to_string t));
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load ?(telemetry = Telemetry.global) path =
  let t0 = Unix.gettimeofday () in
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error ("Model_artifact: " ^ e)
  | text ->
    let result = of_string text in
    if Result.is_ok result then
      Telemetry.record telemetry ~pass:"artifact" ~seconds:(Unix.gettimeofday () -. t0)
        ~metrics:[ ("loads", 1); ("bytes", String.length text) ]
        ();
    result

let verify_machine t (m : Machine.t) =
  let d = Digest.to_hex (Machine.digest m) in
  if d = t.provenance.machine_digest then Ok ()
  else
    Error
      (Printf.sprintf
         "Model_artifact: machine mismatch — trained for %s (digest %s), serving %s (digest %s)"
         t.provenance.machine_name t.provenance.machine_digest m.Machine.mach_name d)

let verify_dataset t ~digest =
  if digest = t.provenance.dataset_digest then Ok ()
  else
    Error
      (Printf.sprintf "Model_artifact: dataset mismatch — trained on %s, given %s"
         t.provenance.dataset_digest digest)
