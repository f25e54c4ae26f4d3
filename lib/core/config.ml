type t = {
  seed : int;
  noise_seed : int;
  scale : float;
  machine : Machine.t;
  noise : float;
  runs : int;
  max_sim_iters : int;
  jobs : int;
  knn_radius : float;
  svm_kernel : Kernel.t;
  svm_gamma : float;
  greedy_k : int;
  mis_k : int;
  fig4_svm_cap : int;
  loocv_svm_cap : int;
  mlp_seed : int;
  mlp_hyper : Mlp.hyper;
}

let default =
  {
    seed = 2005;
    noise_seed = 42;
    scale = 1.0;
    machine = Machine.itanium2;
    noise = 0.015;
    runs = 30;
    max_sim_iters = 400;
    jobs = 1;
    knn_radius = 0.5;
    svm_kernel = Kernel.Rbf 0.03;
    svm_gamma = 16.0;
    greedy_k = 5;
    mis_k = 5;
    fig4_svm_cap = 2000;
    loocv_svm_cap = 2600;
    mlp_seed = 7;
    mlp_hyper = Mlp.default_hyper;
  }

let fast =
  {
    default with
    scale = 0.15;
    runs = 9;
    max_sim_iters = 200;
    fig4_svm_cap = 400;
  }
