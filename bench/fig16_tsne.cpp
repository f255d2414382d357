// fig16_tsne — regenerates Figure 16: a t-SNE projection of the flow
// embeddings FlowGNN learns on SWAN, color-coded by whether the path is
// "busy" in LP-all's optimal allocation (i.e. carries the largest split
// ratio among its demand's paths).
//
// The paper's reading: busy paths form a visible cluster — the embeddings
// encode path congestion — with a few outliers caused by the TE problem
// having multiple near-optimal solutions. We quantify the cluster with a
// separation score (mean distance to the busy centroid vs the non-busy
// centroid) and write the 2-D coordinates for plotting.
#include <cstdio>

#include "analysis/tsne.h"
#include "bench/common.h"
#include "util/rng.h"

using namespace teal;

int main() {
  bench::print_header("Figure 16", "t-SNE of FlowGNN flow embeddings on SWAN");
  auto inst = bench::make_instance("SWAN");
  const auto& tm = inst->split.test.at(0);

  // Trained Teal model (reuses the fig06 cache when present).
  core::TealSchemeConfig cfg;
  core::TealTrainOptions opts;
  opts.coma.epochs = bench::fast_mode() ? 1 : 4;
  opts.coma.lr = 3e-3;
  opts.cache_path = bench::model_cache_path(inst->name, te::Objective::kTotalFlow);
  core::TealModel model(cfg.model, inst->pb.k_paths());
  core::train_or_load_model(model, inst->pb, inst->split.train,
                            te::Objective::kTotalFlow, opts);
  auto fwd = model.forward(inst->pb, tm);

  // Busy labels from LP-all's (near-)optimal allocation.
  auto lp_alloc = lp::solve_flow_lp(inst->pb, tm);
  std::vector<char> busy(static_cast<std::size_t>(inst->pb.total_paths()), 0);
  for (int d = 0; d < inst->pb.num_demands(); ++d) {
    int best = inst->pb.path_begin(d);
    for (int p = inst->pb.path_begin(d); p < inst->pb.path_end(d); ++p) {
      if (lp_alloc.split[static_cast<std::size_t>(p)] >
          lp_alloc.split[static_cast<std::size_t>(best)]) {
        best = p;
      }
    }
    busy[static_cast<std::size_t>(best)] = 1;
  }

  // Subsample paths to keep exact t-SNE tractable.
  const int n_points = bench::fast_mode() ? 300 : 1200;
  util::Rng rng(3);
  auto pick = rng.sample_without_replacement(
      static_cast<std::size_t>(inst->pb.total_paths()),
      std::min<std::size_t>(static_cast<std::size_t>(n_points),
                            static_cast<std::size_t>(inst->pb.total_paths())));
  std::vector<std::vector<double>> points;
  std::vector<char> labels;
  const int dim = fwd.gnn.final_paths.cols();
  for (std::size_t idx : pick) {
    const double* row = fwd.gnn.final_paths.row_ptr(static_cast<int>(idx));
    points.emplace_back(row, row + dim);
    labels.push_back(busy[idx]);
  }

  analysis::TsneConfig tcfg;
  tcfg.n_iterations = bench::fast_mode() ? 150 : 400;
  auto y = analysis::tsne_2d(points, tcfg);

  // Separation score: for busy points, distance to busy centroid should be
  // smaller than to the non-busy centroid (and vice versa).
  double cb[2] = {0, 0}, cn[2] = {0, 0};
  int nb = 0, nn = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (labels[i]) {
      cb[0] += y[i][0];
      cb[1] += y[i][1];
      ++nb;
    } else {
      cn[0] += y[i][0];
      cn[1] += y[i][1];
      ++nn;
    }
  }
  for (double& v : cb) v /= std::max(1, nb);
  for (double& v : cn) v /= std::max(1, nn);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    double db = std::hypot(y[i][0] - cb[0], y[i][1] - cb[1]);
    double dn = std::hypot(y[i][0] - cn[0], y[i][1] - cn[1]);
    if ((labels[i] && db < dn) || (!labels[i] && dn < db)) ++correct;
  }
  double purity = 100.0 * correct / std::max<std::size_t>(1, y.size());

  util::Table table({"x", "y", "busy"});
  for (std::size_t i = 0; i < y.size(); ++i) {
    table.add_row({util::fmt(y[i][0], 4), util::fmt(y[i][1], 4),
                   labels[i] ? "1" : "0"});
  }
  bench::report(table, "fig16_tsne");

  std::printf("  %zu paths projected (%d busy, %d other)\n", y.size(), nb, nn);
  std::printf("  nearest-centroid label purity: %.1f%% (50%% = no structure)\n", purity);
  std::printf("\nExpected shape: purity well above chance — the embeddings separate\n"
              "busy from non-busy paths, with a minority of outliers (multiple\n"
              "near-optimal solutions). Coordinates in bench_out/fig16_tsne.csv.\n");
  return 0;
}
