// teal_scenario — scenario-factory front door.
//
// Builds any named scenario (src/scenario/) at a chosen node scale, and
// either exports the generated topology to the topo_io edge-list format
// (offline repro: the export survives save -> load -> save byte-identically)
// or replays it through the serving layer with a cold scheme.
//
//   ./build/teal_scenario --list
//   ./build/teal_scenario --scenario diurnal --nodes 200 --export diurnal.topo
//   ./build/teal_scenario --scenario rolling-failure --nodes 120 --run \
//       --scheme Teal --replicas 2
//
// Every output is a pure function of (--scenario, --nodes, --seed): rerunning
// the same command line regenerates the same topology, trace and failure
// schedule bit-for-bit on any host.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/scenario.h"
#include "topo/topo_io.h"
#include "util/stats.h"

using namespace teal;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: teal_scenario --list\n"
               "       teal_scenario --scenario NAME [--nodes N] [--seed S]\n"
               "                     [--export PATH] [--run] [--scheme NAME]\n"
               "                     [--replicas N]\n"
               "\n"
               "  --list            print the named scenarios and exit\n"
               "  --scenario NAME   scenario preset (see --list)\n"
               "  --nodes N         topology size (default 200)\n"
               "  --seed S          master seed (default 1)\n"
               "  --export PATH     write the generated topology (topo_io format)\n"
               "  --run             replay through the serving layer\n"
               "  --scheme NAME     Teal | LP-all | LP-top (default Teal)\n"
               "  --replicas N      serving replicas for --run (default 2)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name, export_path, scheme_name = "Teal";
  int nodes = 200;
  std::uint64_t seed = 1;
  std::size_t replicas = 2;
  bool do_run = false;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "teal_scenario: %s needs a value\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const auto& n : scenario::scenario_names()) std::printf("%s\n", n.c_str());
      return 0;
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      scenario_name = need("--scenario");
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = std::atoi(need("--nodes"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--export") == 0) {
      export_path = need("--export");
    } else if (std::strcmp(argv[i], "--run") == 0) {
      do_run = true;
    } else if (std::strcmp(argv[i], "--scheme") == 0) {
      scheme_name = need("--scheme");
    } else if (std::strcmp(argv[i], "--replicas") == 0) {
      replicas = static_cast<std::size_t>(std::atoi(need("--replicas")));
    } else {
      std::fprintf(stderr, "teal_scenario: unknown flag %s\n", argv[i]);
      usage();
    }
  }
  if (scenario_name.empty()) usage();
  if (nodes < 3 || replicas < 1) {
    std::fprintf(stderr, "teal_scenario: --nodes must be >= 3, --replicas >= 1\n");
    return 2;
  }

  try {
    scenario::ScenarioSpec spec = scenario::named_scenario(scenario_name, nodes, seed);
    scenario::Scenario sc = scenario::build_scenario(spec);
    std::printf("scenario %s: %d nodes, %d links, %d demands, %d intervals, "
                "%zu failure events (seed %llu)\n",
                sc.name.c_str(), sc.pb.graph().num_nodes(),
                sc.pb.graph().num_edges() / 2, sc.pb.num_demands(),
                sc.trace.size(), sc.failures.size(),
                static_cast<unsigned long long>(seed));

    if (!export_path.empty()) {
      topo::save_topology_file(sc.pb.graph(), export_path);
      std::printf("wrote topology to %s\n", export_path.c_str());
    }

    if (do_run) {
      auto scheme = scenario::make_cold_scheme(scheme_name, sc.pb);
      sim::ServedFleetConfig cfg;
      cfg.total_replicas = replicas;
      cfg.serve.queue_capacity = static_cast<std::size_t>(sc.trace.size());
      auto res = scenario::run_scenario(
          *scheme, sc, cfg, scenario::cold_scheme_factory(scheme_name, sc.pb));
      std::printf("%s x %s: %d epochs, satisfied %s%%, offered %llu, shed %llu, "
                  "p50 %s ms, p99 %s ms\n",
                  scheme_name.c_str(), sc.name.c_str(), res.n_epochs,
                  util::fmt(res.mean_satisfied_pct, 1).c_str(),
                  static_cast<unsigned long long>(res.stats.offered),
                  static_cast<unsigned long long>(res.stats.shed),
                  util::fmt(res.stats.response.percentile(50.0) * 1e3, 3).c_str(),
                  util::fmt(res.stats.response.percentile(99.0) * 1e3, 3).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "teal_scenario: %s\n", e.what());
    return 1;
  }
  return 0;
}
