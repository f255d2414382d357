// Unit tests for the topology substrate: graph, shortest paths, Yen's KSP,
// generators (Table 1 counts), statistics (Table 3 / Fig 17).
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "topo/graph.h"
#include "topo/shortest_path.h"
#include "topo/topo_stats.h"
#include "topo/topology.h"

namespace teal {
namespace {

topo::Graph diamond() {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3, plus a direct long edge 0 -> 3.
  topo::Graph g("diamond");
  g.add_nodes(4);
  g.add_edge(0, 1, 10, 1.0);
  g.add_edge(1, 3, 10, 1.0);
  g.add_edge(0, 2, 10, 1.5);
  g.add_edge(2, 3, 10, 1.5);
  g.add_edge(0, 3, 10, 10.0);
  return g;
}

TEST(Graph, AddAndQuery) {
  topo::Graph g;
  g.add_nodes(3);
  auto e = g.add_edge(0, 1, 5.0, 2.0);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge(e).src, 0);
  EXPECT_EQ(g.edge(e).dst, 1);
  EXPECT_DOUBLE_EQ(g.edge(e).capacity, 5.0);
  EXPECT_EQ(g.find_edge(0, 1), e);
  EXPECT_EQ(g.find_edge(1, 0), topo::kInvalidEdge);
}

TEST(Graph, AddLinkCreatesBothDirections) {
  topo::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 7.0, 3.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_NE(g.find_edge(0, 1), topo::kInvalidEdge);
  EXPECT_NE(g.find_edge(1, 0), topo::kInvalidEdge);
}

TEST(Graph, RejectsInvalidEdges) {
  topo::Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
  // NaN slips past a bare `< 0` test; infinities are no capacity a solve can use.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(g.add_edge(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, inf), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, nan), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 1.0, -1.0), std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 0);
  const topo::EdgeId e = g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.set_capacity(e, nan), std::invalid_argument);
  EXPECT_THROW(g.set_capacity(e, inf), std::invalid_argument);
  EXPECT_THROW(g.set_capacity(e, -1.0), std::invalid_argument);
  EXPECT_EQ(g.capacity(e), 1.0);
}

TEST(Graph, ScaleCapacities) {
  topo::Graph g = diamond();
  g.scale_capacities(0.5);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.capacity, 5.0);
  EXPECT_THROW(g.scale_capacities(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(g.scale_capacities(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.scale_capacities(-1.0), std::invalid_argument);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.capacity, 5.0);
}

TEST(Graph, StrongConnectivity) {
  topo::Graph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(g.is_strongly_connected());
  g.add_edge(1, 0, 1.0);
  EXPECT_TRUE(g.is_strongly_connected());
}

TEST(ShortestPath, PicksMinLatency) {
  auto g = diamond();
  auto p = topo::shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), 2u);  // 0->1->3, total 2.0
  EXPECT_DOUBLE_EQ(topo::path_latency(g, *p), 2.0);
  topo::validate_path(g, *p, 0, 3);
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  topo::Graph g;
  g.add_nodes(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(topo::shortest_path(g, 1, 0).has_value());
  EXPECT_FALSE(topo::shortest_path(g, 0, 2).has_value());
}

TEST(Yen, FindsKDistinctPathsInOrder) {
  auto g = diamond();
  auto paths = topo::yen_ksp(g, 0, 3, 4);
  ASSERT_EQ(paths.size(), 3u);  // only 3 simple paths exist
  double prev = 0.0;
  std::set<topo::Path> distinct;
  for (const auto& p : paths) {
    topo::validate_path(g, p, 0, 3);
    double lat = topo::path_latency(g, p);
    EXPECT_GE(lat, prev);
    prev = lat;
    distinct.insert(p);
  }
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST(Yen, RespectsKLimit) {
  auto g = diamond();
  auto paths = topo::yen_ksp(g, 0, 3, 2);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(topo::path_latency(g, paths[0]), 2.0);
  EXPECT_DOUBLE_EQ(topo::path_latency(g, paths[1]), 3.0);
}

TEST(Yen, MatchesBruteForceOnGrid) {
  // 3x3 grid, unit latencies; compare Yen's k=6 against brute-force DFS
  // enumeration of simple paths sorted by latency.
  topo::Graph g;
  g.add_nodes(9);
  auto id = [](int r, int c) { return r * 3 + c; };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) g.add_link(id(r, c), id(r, c + 1), 1.0, 1.0);
      if (r + 1 < 3) g.add_link(id(r, c), id(r + 1, c), 1.0, 1.0);
    }
  }
  auto yen = topo::yen_ksp(g, 0, 8, 6);
  ASSERT_EQ(yen.size(), 6u);

  // Brute force.
  std::vector<double> all_costs;
  std::vector<char> visited(9, 0);
  std::function<void(int, double)> dfs = [&](int v, double cost) {
    if (v == 8) {
      all_costs.push_back(cost);
      return;
    }
    visited[v] = 1;
    for (topo::EdgeId e : g.out_edges(v)) {
      int u = g.edge(e).dst;
      if (!visited[u]) dfs(u, cost + g.edge(e).latency);
    }
    visited[v] = 0;
  };
  dfs(0, 0.0);
  std::sort(all_costs.begin(), all_costs.end());
  for (std::size_t i = 0; i < yen.size(); ++i) {
    EXPECT_DOUBLE_EQ(topo::path_latency(g, yen[i]), all_costs[i]);
  }
}

TEST(Yen, PathsAreSimple) {
  auto g = topo::make_swan_like(1);
  auto paths = topo::yen_ksp(g, 0, g.num_nodes() - 1, 4);
  for (const auto& p : paths) {
    EXPECT_NO_THROW(topo::validate_path(g, p, 0, g.num_nodes() - 1));
  }
}

TEST(Topologies, Table1Counts) {
  EXPECT_EQ(topo::make_b4().num_nodes(), 12);
  EXPECT_EQ(topo::make_b4().num_edges(), 38);
  auto swan = topo::make_swan_like(1);
  EXPECT_EQ(swan.num_nodes(), 110);
  EXPECT_EQ(swan.num_edges(), 390);
  auto usc = topo::make_uscarrier_like(2);
  EXPECT_EQ(usc.num_nodes(), 158);
  EXPECT_EQ(usc.num_edges(), 378);
  auto kdl = topo::make_kdl_like(3);
  EXPECT_EQ(kdl.num_nodes(), 754);
  EXPECT_EQ(kdl.num_edges(), 1790);
  auto asn = topo::make_asn_like(4);
  EXPECT_EQ(asn.num_nodes(), 1739);
  EXPECT_EQ(asn.num_edges(), 8558);
}

TEST(Topologies, AllStronglyConnected) {
  EXPECT_TRUE(topo::make_b4().is_strongly_connected());
  EXPECT_TRUE(topo::make_swan_like(1).is_strongly_connected());
  EXPECT_TRUE(topo::make_uscarrier_like(2).is_strongly_connected());
  EXPECT_TRUE(topo::make_kdl_like(3).is_strongly_connected());
  EXPECT_TRUE(topo::make_asn_like(4).is_strongly_connected());
}

TEST(Topologies, DispatchByName) {
  EXPECT_EQ(topo::make_topology("B4").name(), "B4");
  EXPECT_EQ(topo::make_topology("ASN").num_nodes(), 1739);
  EXPECT_THROW(topo::make_topology("nope"), std::invalid_argument);
}

TEST(TopoStats, Table3Shapes) {
  // Hop statistics should land in the neighborhoods the paper reports
  // (Table 3); these are structure-matched synthetics, so assert ranges.
  auto b4 = topo::compute_stats(topo::make_b4());
  EXPECT_GT(b4.avg_shortest_path, 1.2);
  EXPECT_LT(b4.avg_shortest_path, 3.5);
  EXPECT_LE(b4.diameter, 6);

  auto usc = topo::compute_stats(topo::make_uscarrier_like(2));
  EXPECT_GT(usc.avg_shortest_path, 7.0);
  EXPECT_GT(usc.diameter, 18);

  auto asn = topo::compute_stats(topo::make_asn_like(4));
  EXPECT_LT(asn.avg_shortest_path, 5.0);  // star clusters => short paths
  EXPECT_LE(asn.diameter, 10);
}

TEST(TopoStats, RoutableDemandShare) {
  auto g = diamond();
  // One demand 0->3 with paths over edges {0,1} and {2,3}.
  std::vector<std::vector<topo::Path>> paths = {{{0, 1}, {2, 3}}};
  auto share = topo::routable_demand_share(g, paths);
  EXPECT_DOUBLE_EQ(share[0], 100.0);
  EXPECT_DOUBLE_EQ(share[2], 100.0);
  EXPECT_DOUBLE_EQ(share[4], 0.0);  // the direct 0->3 edge is unused
}

TEST(TopoStats, EmptyPathsGiveZeroShare) {
  auto g = diamond();
  auto share = topo::routable_demand_share(g, {});
  for (double s : share) EXPECT_DOUBLE_EQ(s, 0.0);
}

}  // namespace
}  // namespace teal
