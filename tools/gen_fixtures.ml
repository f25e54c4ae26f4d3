(* Regenerates the checked-in golden fixtures under test/fixtures/.

   Run from the repo root:

     dune exec tools/gen_fixtures.exe

   The configuration here must stay in lockstep with the CI train-predict
   job (`train --fast --scale 0.05`): CI retrains from scratch and diffs
   its predictions against golden_predictions.txt, so any drift between
   the two configs shows up as a red diff, not a silent mismatch.  Every
   output is a pure function of the config — no timestamps, no
   machine-dependent state — so regeneration on any host is a no-op unless
   the pipeline's behaviour actually changed. *)

let fixture_config = { Config.fast with Config.scale = 0.05; jobs = 2 }

let kernel_loops () = List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all

let write_predictions config artifact path =
  let service =
    match Predict_service.create config artifact with
    | Ok s -> s
    | Error e -> failwith ("predict service: " ^ e)
  in
  let loops = kernel_loops () in
  let factors = Predict_service.predict_batch service loops in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iteri
        (fun i (l : Loop.t) -> Printf.fprintf oc "%s %d\n" l.Loop.name factors.(i))
        loops)

let () =
  let dir = "test/fixtures" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let config = fixture_config in
  let journal_path = Filename.concat dir "golden.journal" in
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let journal =
    match Label_store.open_ journal_path with Ok j -> j | Error e -> failwith e
  in
  (* One training per [--model] choice, one sweep: the first run fills the
     journal, the rest resume from it entirely.  Each learner ships an
     artifact and its predictions; "best" ships the headline predictions. *)
  let trained =
    List.map
      (fun (name, model) -> (name, Train.run ~progress:true ~journal config ~swp:false ~model))
      Train.model_choices
  in
  let journal_records = Label_store.size journal in
  Label_store.close journal;
  let fixture name = Filename.concat dir name in
  List.iter
    (fun (name, (artifact, _)) ->
      if name = "best" then write_predictions config artifact (fixture "golden_predictions.txt")
      else begin
        Model_artifact.save artifact (fixture ("golden_" ^ name ^ ".artifact"));
        write_predictions config artifact (fixture ("golden_" ^ name ^ "_predictions.txt"))
      end)
    trained;
  let report = snd (List.assoc "best" trained) in
  Printf.printf "fixtures written to %s (best = %s, journal %d records, digest %s)\n" dir
    report.Train.chosen journal_records report.Train.dataset_digest
