(* Outputs pinned at the default seed.  A change that alters any of them
   changed what the system computes, not only how fast: the benchmark
   then fails until the pin is re-derived and the reason recorded. *)

let default_seed = 2005

(* MD5 of the label arrays (Workload.labels_digest), one per SWP setting,
   joined with '/'. *)
let sweep_off_labels = "af57f3995ea2b8f4373512d368e79ef5"
let sweep_joint_labels = "b2550f9e2256cca5e3012c6a7bb63289/77943af28a4cb455e7c10b580e745913"

(* MD5 of the model artifact bytes trained by the train workload, which
   trains on the golden journal at every seed (the LS-SVM wins there, so
   these are the bytes of test/fixtures/golden_svm.artifact). *)
let train_artifact = "d4ab876a935ef50e9e026863f573ed5a"

(* SWP-off sweeps of each sweep workload whose keys the golden journal
   holds at the default seed. *)
let sweep_off_golden = 168
let sweep_joint_golden = 43
