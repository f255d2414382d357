// Unit tests for the topology substrate: graph, shortest paths, Yen's KSP
// (against the plain oracle in reference_yen.h), generators (Table 1
// counts), statistics (Table 3 / Fig 17).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>

#include "reference_yen.h"
#include "te/problem.h"
#include "topo/graph.h"
#include "topo/shortest_path.h"
#include "topo/topo_stats.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

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

// Yen's paths must equal the oracle's, edge for edge and in order, for every
// pair in `pairs`, or for every ordered node pair (src == dst included) when
// it is empty: from a fresh yen_ksp call, and from one YenSearch reused
// across all pairs, grouped by destination the way te::Problem runs them.
// Returns the reused search's counts.
topo::YenSearch::Counts expect_matches_oracle(const topo::Graph& g, int k,
                                              const std::string& what,
                                              std::vector<te::Demand> pairs = {}) {
  if (pairs.empty()) {
    for (topo::NodeId d = 0; d < g.num_nodes(); ++d) {
      for (topo::NodeId s = 0; s < g.num_nodes(); ++s) pairs.push_back({s, d});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const te::Demand& a, const te::Demand& b) { return a.dst < b.dst; });
  topo::YenSearch search(g);
  for (const auto& [s, d] : pairs) {
    const auto expected = reference::reference_yen_ksp(g, s, d, k);
    EXPECT_EQ(topo::yen_ksp(g, s, d, k), expected)
        << what << ": " << s << " -> " << d << ", k = " << k;
    EXPECT_EQ(search.yen_ksp(s, d, k), expected)
        << what << " (reused search): " << s << " -> " << d << ", k = " << k;
  }
  return search.counts();
}

// Ties (or unreachable pairs) must send searches down the Dijkstra fallback.
void expect_fallback(const topo::YenSearch::Counts& c, const std::string& what) {
  EXPECT_GT(c.dijkstra, 0) << what;
}

// n x n grid of unit-latency links: every pair has many equal-latency paths.
topo::Graph unit_grid(int n) {
  topo::Graph g("grid");
  g.add_nodes(n * n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (c + 1 < n) g.add_link(r * n + c, r * n + c + 1, 1.0, 1.0);
      if (r + 1 < n) g.add_link(r * n + c, (r + 1) * n + c, 1.0, 1.0);
    }
  }
  return g;
}

// Random directed graph: a bidirectional ring (so it is strongly connected)
// plus `extra` random directed edges whose latencies are drawn from
// `latencies`. Repeated endpoints give parallel edges.
topo::Graph random_tie_graph(int n, int extra, const std::vector<double>& latencies,
                             std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](std::size_t m) { return static_cast<std::size_t>(rng() % m); };
  topo::Graph g("random");
  g.add_nodes(n);
  for (int v = 0; v < n; ++v) g.add_link(v, (v + 1) % n, 1.0, latencies[pick(latencies.size())]);
  for (int i = 0; i < extra; ++i) {
    const auto a = static_cast<topo::NodeId>(pick(static_cast<std::size_t>(n)));
    const auto b = static_cast<topo::NodeId>(pick(static_cast<std::size_t>(n)));
    if (a != b) g.add_edge(a, b, 1.0, latencies[pick(latencies.size())]);
  }
  return g;
}

TEST(YenOracle, UnitGridTies) {
  const auto g = unit_grid(5);
  expect_fallback(expect_matches_oracle(g, 4, "5x5 grid"), "5x5 grid");
  EXPECT_EQ(topo::yen_ksp(g, 0, 24, 8), reference::reference_yen_ksp(g, 0, 24, 8));
}

TEST(YenOracle, B4AllPairs) {
  // B4's hand-set latencies have exact ties.
  const auto g = topo::make_b4();
  expect_fallback(expect_matches_oracle(g, 4, "B4"), "B4");
  expect_matches_oracle(g, 7, "B4");
}

TEST(YenOracle, SmallIntegerLatenciesWithParallelEdges) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    const auto g = random_tie_graph(30, 60, {1.0, 2.0, 3.0}, seed);
    const std::string what = "random {1,2,3} seed " + std::to_string(seed);
    expect_fallback(expect_matches_oracle(g, 5, what), what);
  }
}

TEST(YenOracle, ZeroLatencyEdges) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    const auto g = random_tie_graph(20, 40, {0.0, 0.0, 1.0, 2.5}, seed);
    const std::string what = "zero-latency seed " + std::to_string(seed);
    expect_fallback(expect_matches_oracle(g, 5, what), what);
  }
  // All-zero latencies: every path ties with every other.
  expect_fallback(expect_matches_oracle(random_tie_graph(12, 20, {0.0}, 9), 4, "all-zero"),
                  "all-zero");
}

TEST(YenOracle, UnreachablePairs) {
  // Two one-way chains joined by a single edge, plus an isolated node.
  topo::Graph g("oneway");
  g.add_nodes(9);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(0, 2, 1.0, 2.0);
  g.add_edge(2, 3, 1.0, 0.5);
  g.add_edge(4, 5, 1.0, 1.0);
  g.add_edge(5, 6, 1.0, 1.0);
  g.add_edge(4, 6, 1.0, 2.5);
  g.add_edge(3, 4, 1.0, 1.0);
  g.add_edge(6, 7, 1.0, 1.0);
  expect_fallback(expect_matches_oracle(g, 4, "one-way chains"), "one-way chains");
  EXPECT_TRUE(topo::yen_ksp(g, 7, 0, 4).empty());
  EXPECT_TRUE(topo::yen_ksp(g, 0, 8, 4).empty());
}

TEST(YenOracle, KBeyondSimplePathCount) {
  const auto g = diamond();
  EXPECT_EQ(topo::yen_ksp(g, 0, 3, 10).size(), 3u);
  expect_matches_oracle(g, 10, "diamond");
  expect_matches_oracle(unit_grid(3), 40, "3x3 grid");
}

TEST(YenOracle, RoundingNearTie) {
  // 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 forward but to 0.6 in the
  // reverse tree's order, so the tree sees the 3-hop path as shorter by one
  // ulp while forward Dijkstra ties it with the direct edge and keeps the
  // direct edge it relaxed first. Only the margin stops the tree's answer.
  topo::Graph g("near-tie");
  g.add_nodes(4);
  g.add_edge(0, 1, 1.0, 0.1);
  g.add_edge(1, 2, 1.0, 0.2);
  g.add_edge(2, 3, 1.0, 0.3);
  g.add_edge(0, 3, 1.0, 0.1 + 0.2 + 0.3);
  expect_fallback(expect_matches_oracle(g, 2, "near-tie"), "near-tie");
}

TEST(YenOracle, DistinctLatenciesTakeTheTreeShortcut) {
  // Continuous latencies leave no ties, so most searches resolve from the
  // reverse tree; the paths must still be the oracle's.
  const auto g = topo::make_topology("SWAN");
  topo::YenSearch search(g);
  for (topo::NodeId d = 0; d < g.num_nodes(); d += 7) {
    for (topo::NodeId s = 0; s < g.num_nodes(); s += 3) {
      EXPECT_EQ(search.yen_ksp(s, d, 4), reference::reference_yen_ksp(g, s, d, 4))
          << "SWAN: " << s << " -> " << d;
    }
  }
  const auto c = search.counts();
  EXPECT_GT(c.tree, c.dijkstra);
  expect_fallback(c, "SWAN");
}

// The reverse reachability search must end dead-end spur searches, and only
// those. Hub-and-stub: five meshed hubs with four single-link stubs each.
// Once a root path passes a stub destination's hub, the stub is cut off, and
// only the reverse side sees it before the forward side pops the whole mesh.
TEST(YenOracle, HubAndStubDeadEnds) {
  topo::Graph g("hub-stub");
  const int hubs = 5, stubs = 4;
  g.add_nodes(hubs * (stubs + 1));
  for (int a = 0; a < hubs; ++a) {
    for (int b = a + 1; b < hubs; ++b) g.add_link(a, b, 1.0, 1.0 + 0.13 * a + 0.07 * b);
    for (int s = 0; s < stubs; ++s) g.add_link(a, hubs + a * stubs + s, 1.0, 0.5 + 0.11 * s);
  }
  for (int k : {4, 7}) {
    const std::string what = "hub-and-stub k = " + std::to_string(k);
    const auto c = expect_matches_oracle(g, k, what);
    EXPECT_GT(c.dead_end, 0) << what;
  }
}

// Pockets: triangles hung between neighbouring ring nodes. A spur inside a
// pocket whose exits are banned runs out of nodes on the forward side while
// the reverse side is still walking the ring.
TEST(YenOracle, SpurInASmallPocket) {
  topo::Graph g("pockets");
  const int ring = 16;
  g.add_nodes(ring);
  for (int v = 0; v < ring; ++v) g.add_link(v, (v + 1) % ring, 1.0, 1.0 + 0.1 * (v % 3));
  for (int r = 0; r < ring; r += 4) {
    const topo::NodeId a = g.num_nodes();
    g.add_nodes(3);
    g.add_link(r, a, 1.0, 0.4);
    g.add_link(a, a + 1, 1.0, 0.3);
    g.add_link(a + 1, a + 2, 1.0, 0.35);
    g.add_link(a + 2, a, 1.0, 0.45);
    g.add_link(a + 2, r + 1, 1.0, 0.5);
  }
  expect_fallback(expect_matches_oracle(g, 7, "pockets"), "pockets");
}

// One-way edges: what reaches dst (the reverse side) is not what dst reaches,
// so a reverse search that walked out-edges would prove wrong dead ends.
TEST(YenOracle, DirectedOneWayEdges) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> latency(0.5, 3.0);
    const int n = 24;
    topo::Graph g("one-way");
    g.add_nodes(n);
    for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, 1.0, latency(rng));
    for (int i = 0; i < 40; ++i) {
      const auto a = static_cast<topo::NodeId>(rng() % n);
      const auto b = static_cast<topo::NodeId>(rng() % n);
      if (a != b) g.add_edge(a, b, 1.0, latency(rng));
    }
    const std::string what = "one-way seed " + std::to_string(seed);
    expect_fallback(expect_matches_oracle(g, 5, what), what);
  }
}

// The spur's only route to dst starts with an edge Yen banned: the second
// path's spur at 1 may not take 1 -> 2 again, and its other out-edge leads
// into a loop back to the spur. The reverse side ends the search from 2:
// 1 -> 2 is banned and 3 is reached only from the banned root node 0.
TEST(YenOracle, OnlyRouteStartsWithABannedEdge) {
  topo::Graph g("banned-route");
  g.add_nodes(8);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(0, 3, 1.0, 1.0);
  g.add_edge(3, 2, 1.0, 2.5);
  g.add_edge(1, 4, 1.0, 0.1);
  g.add_edge(4, 5, 1.0, 0.1);
  g.add_edge(5, 6, 1.0, 0.1);
  g.add_edge(6, 7, 1.0, 0.1);
  g.add_edge(7, 1, 1.0, 0.1);
  topo::YenSearch search(g);
  const auto paths = search.yen_ksp(0, 2, 3);
  EXPECT_EQ(paths, reference::reference_yen_ksp(g, 0, 2, 3));
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_EQ(search.counts().dead_end, 1);
  expect_matches_oracle(g, 4, "banned route");
}

TEST(YenOracle, AsnDemands) {
  const auto g = topo::make_topology("ASN");
  const auto c = expect_matches_oracle(g, 4, "ASN", traffic::sample_demands(g, 300, /*seed=*/5));
  EXPECT_GT(c.dead_end, 0);
}

TEST(YenOracle, DegenerateArguments) {
  const auto g = diamond();
  EXPECT_TRUE(topo::yen_ksp(g, 0, 3, 0).empty());
  EXPECT_TRUE(topo::yen_ksp(g, 0, 3, -1).empty());
  EXPECT_TRUE(topo::yen_ksp(g, 2, 2, 4).empty());
  EXPECT_TRUE(reference::reference_yen_ksp(g, 0, 3, 0).empty());
  EXPECT_TRUE(reference::reference_yen_ksp(g, 2, 2, 4).empty());
  EXPECT_THROW(topo::yen_ksp(g, 0, 4, 4), std::out_of_range);
  EXPECT_THROW(topo::yen_ksp(g, -1, 3, 4), std::out_of_range);
  EXPECT_THROW(topo::shortest_path(g, 0, 4), std::out_of_range);
  // te::Problem surfaces the bad endpoint from its pooled precompute.
  EXPECT_THROW(te::Problem(g, {{0, 3}, {0, 4}}, 4), std::out_of_range);
}

// te::Problem precomputes on the pool (run with TEAL_POOL_THREADS=4 to force
// the fan-out on any host); its paths must equal per-demand sequential
// yen_ksp calls in demand order.
TEST(YenOracle, ProblemPathsMatchSequentialYen) {
  auto g = topo::make_topology("SWAN");
  auto demands = traffic::sample_demands(g, 2000, /*seed=*/3);
  const topo::Graph copy = g;
  const auto expected_demands = demands;
  const te::Problem pb(std::move(g), std::move(demands), 4);
  ASSERT_EQ(pb.num_demands(), static_cast<int>(expected_demands.size()));
  for (int d = 0; d < pb.num_demands(); ++d) {
    const auto& dm = expected_demands[static_cast<std::size_t>(d)];
    const auto paths = topo::yen_ksp(copy, dm.src, dm.dst, 4);
    ASSERT_EQ(pb.num_paths(d), static_cast<int>(paths.size())) << "demand " << d;
    for (int i = 0; i < pb.num_paths(d); ++i) {
      const auto edges = pb.path_edges(pb.path_begin(d) + i);
      EXPECT_EQ(topo::Path(edges.begin(), edges.end()), paths[static_cast<std::size_t>(i)])
          << "demand " << d << " path " << i;
    }
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
