// table1_topologies — regenerates Table 1 (nodes/edges), Table 3 (hop-based
// average shortest-path length and network diameter) and the Figure 17
// summary (distribution of the share of demands routable on each edge).
#include <cstdio>

#include "bench/common.h"
#include "topo/topo_stats.h"

using namespace teal;

int main() {
  bench::print_header("Table 1 / Table 3 / Figure 17", "topology inventory and statistics");
  util::Table table({"topology", "nodes", "edges", "avg shortest path", "diameter",
                     "routable-demand share per edge (p25/p50/p75, %)"});

  const std::vector<std::string> topos = {"B4", "SWAN", "UsCarrier", "Kdl", "ASN"};
  for (const auto& name : topos) {
    auto g = topo::make_topology(name);
    auto stats = topo::compute_stats(g);

    // Figure 17: share of demands routable on each edge, using the same
    // demand universe as the benches (all pairs for B4, sampled otherwise).
    int n_demands = bench::fast_mode() ? 200 : 2000;
    if (name == "B4") n_demands = 1 << 20;
    auto demands = traffic::sample_demands(g, n_demands, 1);
    te::Problem pb(g, demands, 4);
    std::vector<std::vector<topo::Path>> paths;
    for (int d = 0; d < pb.num_demands(); ++d) {
      std::vector<topo::Path> ps;
      for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
        ps.emplace_back(pb.path_edges(p).begin(), pb.path_edges(p).end());
      }
      paths.push_back(std::move(ps));
    }
    auto share = topo::routable_demand_share(pb.graph(), paths);

    table.add_row({name, std::to_string(stats.n_nodes), std::to_string(stats.n_edges),
                   util::fmt(stats.avg_shortest_path, 1), std::to_string(stats.diameter),
                   util::fmt(util::percentile(share, 25), 1) + " / " +
                       util::fmt(util::percentile(share, 50), 1) + " / " +
                       util::fmt(util::percentile(share, 75), 1)});
  }
  bench::report(table, "table1_topologies");
  std::printf("\nPaper reference (Table 3): B4 2.3/5, UsCarrier 12.1/35, Kdl 22.7/58, "
              "ASN 3.2/8.\nASN's low per-edge routable share (Fig 17) comes from its "
              "star-cluster structure.\n");
  return 0;
}
