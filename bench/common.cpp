#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/thread_pool.h"

namespace teal::bench {

bool fast_mode() {
  const char* env = std::getenv("TEAL_BENCH_FAST");
  return env != nullptr && std::string(env) == "1";
}

TopoScale default_scale(const std::string& topo) {
  // target_sp_sat: shortest-path routing satisfies ~72% of the mean matrix,
  // putting the TE optimum in the high 80s like the paper's figures.
  if (topo == "B4") return {1 << 20, 60, 72.0};
  if (topo == "SWAN") return {4000, 50, 72.0};
  if (topo == "UsCarrier") return {3000, 50, 72.0};
  if (topo == "Kdl") return {3000, 40, 72.0};
  if (topo == "ASN") return {6000, 40, 72.0};
  // Scales are tuned per bundled topology; inventing one for an unknown (or
  // generated) name would silently mis-cost every downstream knob. Generated
  // topologies go through src/scenario/ (bench_scenario_matrix), which sizes
  // its own instances.
  throw std::invalid_argument(
      "default_scale: unknown topology '" + topo +
      "' (bundled: B4, SWAN, UsCarrier, Kdl, ASN; generated topologies are "
      "driven by bench_scenario_matrix, not the figure benches)");
}

std::unique_ptr<Instance> make_instance(const std::string& topo, std::uint64_t seed) {
  TopoScale scale = default_scale(topo);
  if (fast_mode()) {
    scale.n_demands = std::min(scale.n_demands, 300);
    scale.n_intervals = 20;
  }
  auto g = topo::make_topology(topo, seed);
  auto demands = traffic::sample_demands(g, scale.n_demands, seed + 1);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig tcfg;
  tcfg.n_intervals = scale.n_intervals;
  tcfg.seed = seed + 2;
  auto trace = traffic::generate_trace(pb, tcfg);
  traffic::calibrate_capacities_to_satisfied(pb, trace, scale.target_sp_sat);
  auto split = traffic::split_trace(trace);
  return std::make_unique<Instance>(topo, std::move(pb), std::move(split), scale);
}

std::string out_dir() {
  auto dir = std::filesystem::path("bench_out");
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string model_cache_path(const std::string& topo, te::Objective obj) {
  auto dir = std::filesystem::path("models");
  std::filesystem::create_directories(dir);
  // FlowGNN/policy weights are topology-size independent (shared layers), so
  // a cached model would load for *any* scale — key the cache by the bench
  // scale to keep fast-mode and full-run models apart.
  const std::string scale_tag = fast_mode() ? "fast" : "full";
  // Training-semantics version: bump whenever the trained bits change for
  // the same seed/config (t2 = the PR 5 deterministic noise streams +
  // rollout batching; t3 = counter-based noise RNG + the Rng spare-caching
  // fix, which shift both the traces and the exploration noise), so stale
  // caches re-train instead of silently loading old-semantics weights —
  // load_params checks only shapes, not provenance.
  const std::string train_tag = "t3";
  return (dir / (topo + "_" + te::to_string(obj) + "_" + scale_tag + "_" + train_tag + ".bin"))
      .string();
}

std::unique_ptr<core::TealScheme> make_teal(Instance& inst, te::Objective obj,
                                            bool use_admm) {
  core::TealSchemeConfig cfg;
  cfg.objective = obj;
  cfg.use_admm = use_admm && obj == te::Objective::kTotalFlow;  // §5.5 omits ADMM
  core::TealTrainOptions opts;
  opts.trainer = core::Trainer::kComaStar;
  opts.coma.epochs = fast_mode() ? 2 : 10;
  opts.coma.lr = 3e-3;
  opts.coma.mc_samples = 4;
  opts.coma.validation = &inst.split.val;  // epoch snapshot selection
  // Workspace-batched training (core::TrainContext). The rollout batch is a
  // fixed constant, NOT sized to the machine: batch size changes
  // optimizer-step granularity and therefore the trained bits, and cached
  // models must be identical on every host (the determinism contract). Only
  // the worker count — pure throughput, bit-identical for every value — may
  // vary per machine (TEAL_TRAIN_WORKERS; 0/garbage = auto).
  opts.coma.rollout_batch = 4;
  opts.coma.workers =
      static_cast<int>(util::pool_threads_from_env(std::getenv("TEAL_TRAIN_WORKERS")));
  opts.cache_path = model_cache_path(inst.name, obj);
  return core::make_teal_scheme(inst.pb, inst.split.train, cfg, opts);
}

std::unique_ptr<te::Scheme> make_baseline(const std::string& name, Instance& inst,
                                          te::Objective obj) {
  baselines::LpSchemeConfig lcfg;
  lcfg.objective = obj;
  if (name == "LP-all") return std::make_unique<baselines::LpAllScheme>(lcfg);
  if (name == "LP-top") return std::make_unique<baselines::LpTopScheme>(0.10, lcfg);
  if (name == "NCFlow") return std::make_unique<baselines::NcFlowScheme>(inst.pb);
  if (name == "POP") {
    baselines::PopConfig pcfg;
    pcfg.k = baselines::default_pop_replicas(inst.pb.graph().num_nodes());
    return std::make_unique<baselines::PopScheme>(pcfg);
  }
  if (name == "TEAVAR*") return std::make_unique<baselines::TeavarStarScheme>();
  throw std::invalid_argument("make_baseline: unknown scheme " + name);
}

double OfflineSeries::mean_satisfied() const { return util::mean(satisfied_pct); }
double OfflineSeries::mean_seconds() const { return util::mean(solve_seconds); }

OfflineSeries run_offline(te::Scheme& scheme, const Instance& inst,
                          const traffic::Trace& trace) {
  OfflineSeries out;
  if (scheme.has_warm_state() && trace.size() > 0) {
    // Untimed warmup: one-time workspace construction is excluded from the
    // computation-time metric (§5.1), matching fig06/fig07.
    te::Allocation scratch;
    scheme.solve_into(inst.pb, trace.at(0), scratch);
  }
  te::BatchSolve batch =
      te::solve_batch_sequential(scheme, inst.pb, std::span(trace.matrices));
  out.solve_seconds = std::move(batch.solve_seconds);
  out.allocs = std::move(batch.allocs);
  out.satisfied_pct.reserve(out.allocs.size());
  for (int t = 0; t < trace.size(); ++t) {
    out.satisfied_pct.push_back(
        te::satisfied_demand_pct(inst.pb, trace.at(t), out.allocs[static_cast<std::size_t>(t)]));
  }
  return out;
}

double paper_seconds(const std::string& scheme, const std::string& topo) {
  // Figure 6a/7a readings and quoted numbers. §5.3 gives ASN: LP-top 191 s,
  // POP 382 s, NCFlow 606 s, Teal < 1 s; §5.2 gives Kdl multipliers relative
  // to Teal's 0.95 s and LP-all's 5.5 h on ASN.
  struct Entry {
    const char* scheme;
    const char* topo;
    double seconds;
  };
  static const Entry kTable[] = {
      {"LP-all", "B4", 0.05},     {"LP-top", "B4", 0.1},    {"NCFlow", "B4", 0.2},
      {"POP", "B4", 0.05},        {"Teal", "B4", 0.005},    {"TEAVAR*", "B4", 60.0},
      {"LP-all", "SWAN", 0.8},    {"LP-top", "SWAN", 1.0},  {"NCFlow", "SWAN", 2.0},
      {"POP", "SWAN", 0.8},       {"Teal", "SWAN", 0.01},
      {"LP-all", "UsCarrier", 2.0}, {"LP-top", "UsCarrier", 2.5},
      {"NCFlow", "UsCarrier", 5.0}, {"POP", "UsCarrier", 3.0},
      {"Teal", "UsCarrier", 0.02},
      {"LP-all", "Kdl", 585.0},   {"LP-top", "Kdl", 26.0},  {"NCFlow", "Kdl", 6.7},
      {"POP", "Kdl", 12.0},       {"Teal", "Kdl", 0.95},
      {"LP-all", "ASN", 19800.0}, {"LP-top", "ASN", 191.0}, {"NCFlow", "ASN", 606.0},
      {"POP", "ASN", 382.0},      {"Teal", "ASN", 0.97},
  };
  for (const auto& e : kTable) {
    if (scheme == e.scheme && topo == e.topo) return e.seconds;
  }
  return 0.0;
}

double scheme_time_scale(const std::string& scheme, const std::string& topo,
                         double measured_median) {
  double paper = paper_seconds(scheme, topo);
  if (paper <= 0.0 || measured_median <= 0.0) return 1.0;
  return paper / measured_median;
}

namespace {

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "ERROR: %s\n", why.c_str());
  std::exit(EXIT_FAILURE);
}

std::string run_stamp() {
  char stamp[64] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm* tm = std::localtime(&now)) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%d %H:%M", tm);
  }
  return stamp;
}

}  // namespace

void report(const util::Table& table, const std::string& stem) {
  const std::string csv = out_dir() + "/" + stem + ".csv";
  constexpr std::size_t kMaxPrinted = 100, kHead = 20;
  if (table.n_rows() <= kMaxPrinted) {
    std::printf("%s", table.to_string().c_str());
  } else {
    util::Table head(table.header());
    for (std::size_t i = 0; i < kHead; ++i) head.add_row(table.rows()[i]);
    std::printf("%s  ... %zu more rows in %s\n", head.to_string().c_str(),
                table.n_rows() - kHead, csv.c_str());
  }
  table.write_csv(csv);
}

void record(const util::Table& table, const std::string& name, const std::string& context,
            const std::string& label) {
  const std::string heading =
      "### Run " + run_stamp() + " — " + context + (fast_mode() ? " (fast mode)" : "");
  std::printf("\n%s\n\n", heading.c_str());
  report(table, label.empty() ? name : name + "_" + label);

  if (!std::filesystem::exists("EXPERIMENTS.md")) {
    std::printf("  (EXPERIMENTS.md not in cwd; ledger entry skipped — run from the repo root)\n");
    return;
  }
  const std::string marker = "<!-- bench_" + name + " inserts " +
                             (label.empty() ? "" : label + " ") + "runs below this line -->";
  std::ifstream in("EXPERIMENTS.md");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const std::size_t pos = text.find(marker);
  if (pos == std::string::npos) {
    fail("EXPERIMENTS.md has no ledger marker '" + marker + "'");
  }
  std::string entry = "\n\n" + heading + "\n\n" + table.to_string();
  entry.pop_back();  // the next entry (or section) supplies the separating newlines
  text.insert(pos + marker.size(), entry);
  std::ofstream out("EXPERIMENTS.md", std::ios::trunc);
  out << text;
  out.close();
  if (!out) fail("could not rewrite EXPERIMENTS.md");
}

void print_header(const std::string& figure, const std::string& caption) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // live progress when redirected
  std::printf("\n==================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("==================================================================\n");
}

}  // namespace teal::bench
