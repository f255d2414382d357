// Tests for the Fleischer approximation solver and topology serialization.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "lp/fleischer.h"
#include "lp/path_lp.h"
#include "te/objective.h"
#include "topo/topo_io.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup(double sp_target = 72.0) {
  auto g = topo::make_b4();
  te::Problem pb(g, te::all_pairs_demands(g), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 6;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities_to_satisfied(pb, trace, sp_target);
  return Setup{std::move(pb), std::move(trace)};
}

TEST(Fleischer, FeasibleAllocation) {
  auto s = b4_setup();
  const auto& tm = s.trace.at(0);
  lp::FleischerResult res;
  auto a = lp::fleischer_max_flow(s.pb, tm, {}, &res);
  EXPECT_NO_THROW(s.pb.validate_allocation(a, 1e-6));
  auto load = te::edge_loads(s.pb, tm, a);
  auto caps = s.pb.capacities();
  for (std::size_t e = 0; e < load.size(); ++e) {
    EXPECT_LE(load[e], caps[e] * (1.0 + 1e-9));
  }
  EXPECT_GT(res.objective, 0.0);
  EXPECT_GT(res.iterations, 0);
}

TEST(Fleischer, ApproachesLpOptimum) {
  auto s = b4_setup();
  const auto& tm = s.trace.at(0);
  lp::FlowLpInfo lp_info;
  lp::solve_flow_lp(s.pb, tm, {}, {}, &lp_info);
  lp::FleischerOptions opt;
  opt.eps = 0.05;
  lp::FleischerResult res;
  lp::fleischer_max_flow(s.pb, tm, opt, &res);
  // (1 - O(eps)) guarantee plus repair slack: expect within 20% here.
  EXPECT_GT(res.objective, 0.8 * lp_info.objective);
  EXPECT_LE(res.objective, lp_info.objective * 1.01);
}

TEST(Fleischer, SmallerEpsMoreIterationsBetterQuality) {
  // The §2.1 tradeoff: tightening eps inflates the iteration count.
  auto s = b4_setup();
  const auto& tm = s.trace.at(0);
  lp::FleischerOptions loose;
  loose.eps = 0.4;
  lp::FleischerOptions tight;
  tight.eps = 0.05;
  lp::FleischerResult r_loose, r_tight;
  lp::fleischer_max_flow(s.pb, tm, loose, &r_loose);
  lp::fleischer_max_flow(s.pb, tm, tight, &r_tight);
  EXPECT_GT(r_tight.iterations, r_loose.iterations);
  EXPECT_GE(r_tight.objective, r_loose.objective * 0.95);
}

TEST(Fleischer, ZeroDemandsGiveEmptyAllocation) {
  auto s = b4_setup();
  te::TrafficMatrix tm;
  tm.volume.assign(static_cast<std::size_t>(s.pb.num_demands()), 0.0);
  lp::FleischerResult res;
  auto a = lp::fleischer_max_flow(s.pb, tm, {}, &res);
  EXPECT_DOUBLE_EQ(res.objective, 0.0);
  for (double sp : a.split) EXPECT_DOUBLE_EQ(sp, 0.0);
}

TEST(TopoIo, RoundTripExact) {
  auto g = topo::make_swan_like(3);
  std::stringstream ss;
  topo::save_topology(g, ss);
  auto g2 = topo::load_topology(ss, "SWAN");
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (topo::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g2.edge(e).src, g.edge(e).src);
    EXPECT_EQ(g2.edge(e).dst, g.edge(e).dst);
    EXPECT_DOUBLE_EQ(g2.edge(e).capacity, g.edge(e).capacity);
    EXPECT_DOUBLE_EQ(g2.edge(e).latency, g.edge(e).latency);
  }
}

TEST(TopoIo, FileRoundTrip) {
  auto g = topo::make_b4();
  auto path = (std::filesystem::temp_directory_path() / "teal_topo_test.txt").string();
  topo::save_topology_file(g, path);
  auto g2 = topo::load_topology_file(path);
  EXPECT_EQ(g2.num_nodes(), 12);
  EXPECT_EQ(g2.num_edges(), 38);
  EXPECT_TRUE(g2.is_strongly_connected());
  std::filesystem::remove(path);
}

TEST(TopoIo, RejectsMalformedInput) {
  {
    std::stringstream ss("edge 0 1 1.0 1.0\n");  // edge before nodes
    EXPECT_THROW(topo::load_topology(ss), std::runtime_error);
  }
  {
    std::stringstream ss("nodes 2\nedge 0\n");  // truncated edge
    EXPECT_THROW(topo::load_topology(ss), std::runtime_error);
  }
  {
    std::stringstream ss("nodes 2\nfrobnicate\n");  // unknown directive
    EXPECT_THROW(topo::load_topology(ss), std::runtime_error);
  }
  // Non-finite capacity or latency tokens do not parse as a double, so the
  // edge is malformed before it can reach Graph::add_edge.
  for (const char* edge : {"edge 0 1 nan 1.0", "edge 0 1 inf 1.0", "edge 0 1 1.0 nan",
                           "edge 0 1 1.0 -inf"}) {
    std::stringstream ss(std::string("nodes 2\n") + edge + "\n");
    EXPECT_THROW(topo::load_topology(ss), std::runtime_error) << edge;
  }
  EXPECT_THROW(topo::load_topology_file("/nonexistent/t.txt"), std::runtime_error);
}

TEST(TopoIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss("# hello\n\nnodes 2\n# mid comment\nedge 0 1 5.0 2.0\n");
  auto g = topo::load_topology(ss, "t");
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 5.0);
}

}  // namespace
}  // namespace teal
