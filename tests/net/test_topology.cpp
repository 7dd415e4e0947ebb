#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/check.hpp"

namespace pcf::net {
namespace {

// Every generated topology must be an undirected simple graph: symmetric
// adjacency, no self loops, no duplicates.
void expect_valid_graph(const Topology& t) {
  for (NodeId i = 0; i < t.size(); ++i) {
    std::set<NodeId> seen;
    for (NodeId j : t.neighbors(i)) {
      EXPECT_NE(i, j) << "self loop at " << i;
      EXPECT_TRUE(seen.insert(j).second) << "duplicate edge " << i << "-" << j;
      EXPECT_TRUE(t.has_edge(j, i)) << "asymmetric edge " << i << "-" << j;
    }
  }
}

TEST(Topology, BusStructure) {
  const auto t = Topology::bus(5);
  expect_valid_graph(t);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.edge_count(), 4u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(2), 2u);
  EXPECT_EQ(t.degree(4), 1u);
  EXPECT_TRUE(t.has_edge(1, 2));
  EXPECT_FALSE(t.has_edge(0, 2));
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(Topology, EdgeIndexNumbersDirectedEdgesInOrder) {
  Rng rng(5);
  const auto t = Topology::random_regular(20, 4, rng);
  std::size_t expected = 0;
  for (NodeId i = 0; i < t.size(); ++i) {
    for (NodeId j = 0; j < t.size(); ++j) {
      const auto index = t.edge_index(i, j);
      EXPECT_EQ(index.has_value(), t.has_edge(i, j)) << i << "->" << j;
      if (index) {
        EXPECT_EQ(*index, expected++) << i << "->" << j;
      }
    }
  }
  EXPECT_EQ(expected, 2 * t.edge_count());
  EXPECT_FALSE(t.edge_index(20, 0).has_value());
  EXPECT_FALSE(t.edge_index(0, 20).has_value());
}

TEST(Topology, RingStructure) {
  const auto t = Topology::ring(6);
  expect_valid_graph(t);
  EXPECT_EQ(t.edge_count(), 6u);
  for (NodeId i = 0; i < 6; ++i) EXPECT_EQ(t.degree(i), 2u);
  EXPECT_EQ(t.diameter(), 3u);
}

TEST(Topology, RingRejectsTooSmall) { EXPECT_THROW(Topology::ring(2), ContractViolation); }

TEST(Topology, Grid2dStructure) {
  const auto t = Topology::grid2d(3, 4);
  expect_valid_graph(t);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.edge_count(), 3u * 3u + 2u * 4u);  // horizontal + vertical
  EXPECT_EQ(t.degree(0), 2u);                    // corner
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(Topology, Torus2dIsRegular) {
  const auto t = Topology::grid2d(4, 4, /*wrap=*/true);
  expect_valid_graph(t);
  for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(t.degree(i), 4u);
}

TEST(Topology, Torus3dIsSixRegular) {
  const auto t = Topology::torus3d(4, 4, 4);
  expect_valid_graph(t);
  EXPECT_EQ(t.size(), 64u);
  for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(t.degree(i), 6u);
  EXPECT_EQ(t.edge_count(), 64u * 6u / 2u);
  EXPECT_EQ(t.diameter(), 6u);  // 3 dims × wraparound distance 2
}

TEST(Topology, Torus3dSideTwoHasNoDuplicateWrapEdges) {
  const auto t = Topology::torus3d(2, 2, 2);
  expect_valid_graph(t);
  // Side length 2: wrap edge would duplicate the mesh edge — degree must be 3.
  for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(t.degree(i), 3u);
}

TEST(Topology, HypercubeStructure) {
  const auto t = Topology::hypercube(4);
  expect_valid_graph(t);
  EXPECT_EQ(t.size(), 16u);
  for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(t.degree(i), 4u);
  EXPECT_EQ(t.diameter(), 4u);
  // Neighbors differ in exactly one bit.
  for (NodeId i = 0; i < t.size(); ++i) {
    for (NodeId j : t.neighbors(i)) EXPECT_EQ(__builtin_popcount(i ^ j), 1);
  }
}

TEST(Topology, CompleteGraph) {
  const auto t = Topology::complete(5);
  expect_valid_graph(t);
  EXPECT_EQ(t.edge_count(), 10u);
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(Topology, StarStructure) {
  const auto t = Topology::star(7);
  expect_valid_graph(t);
  EXPECT_EQ(t.degree(0), 6u);
  for (NodeId i = 1; i < 7; ++i) EXPECT_EQ(t.degree(i), 1u);
  EXPECT_EQ(t.diameter(), 2u);
}

TEST(Topology, BinaryTreeStructure) {
  const auto t = Topology::binary_tree(7);
  expect_valid_graph(t);
  EXPECT_EQ(t.edge_count(), 6u);
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 3u);  // parent 0, children 3,4
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, RandomRegularHasExactDegree) {
  Rng rng(5);
  const auto t = Topology::random_regular(20, 4, rng);
  expect_valid_graph(t);
  for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(t.degree(i), 4u);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, RandomRegularScalesViaEdgeSwapRepair) {
  // At this size a shuffled stub pairing contains a collision with
  // near-certainty, so the generator must take the edge-swap repair path
  // (wholesale rejection would exhaust every attempt). The result still has
  // to be a simple connected graph with the exact degree everywhere.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed);
    const auto t = Topology::random_regular(5000, 6, rng);
    expect_valid_graph(t);
    for (NodeId i = 0; i < t.size(); ++i) ASSERT_EQ(t.degree(i), 6u) << "seed " << seed;
    EXPECT_TRUE(t.is_connected()) << "seed " << seed;
    EXPECT_EQ(t.edge_count(), 5000u * 6u / 2u);
  }
}

TEST(Topology, RandomRegularRejectsOddProduct) {
  Rng rng(5);
  EXPECT_THROW(Topology::random_regular(5, 3, rng), ContractViolation);
}

TEST(Topology, ErdosRenyiIsAlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const auto t = Topology::erdos_renyi(30, 0.02, rng);
    expect_valid_graph(t);
    EXPECT_TRUE(t.is_connected()) << "seed " << seed;
  }
}

TEST(Topology, WattsStrogatzStaysConnectedAndSimple) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const auto t = Topology::watts_strogatz(30, 4, 0.3, rng);
    expect_valid_graph(t);
    EXPECT_EQ(t.size(), 30u);
    EXPECT_TRUE(t.is_connected()) << "seed " << seed;
    // Edge count is preserved by rewiring: n*k/2.
    EXPECT_EQ(t.edge_count(), 60u);
  }
}

TEST(Topology, WattsStrogatzZeroBetaIsRingLattice) {
  Rng rng(1);
  const auto t = Topology::watts_strogatz(12, 4, 0.0, rng);
  for (NodeId i = 0; i < 12; ++i) EXPECT_EQ(t.degree(i), 4u);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(0, 2));
  EXPECT_FALSE(t.has_edge(0, 3));
}

TEST(Topology, WattsStrogatzRewiringShortensDiameter) {
  Rng rng(5);
  const auto lattice = Topology::watts_strogatz(64, 4, 0.0, rng);
  const auto small_world = Topology::watts_strogatz(64, 4, 0.3, rng);
  EXPECT_LT(small_world.diameter(), lattice.diameter());
}

TEST(Topology, WattsStrogatzRejectsOddDegree) {
  Rng rng(1);
  EXPECT_THROW(Topology::watts_strogatz(10, 3, 0.1, rng), ContractViolation);
}

TEST(Topology, BarabasiAlbertIsConnectedScaleFree) {
  Rng rng(7);
  const auto t = Topology::barabasi_albert(100, 2, rng);
  expect_valid_graph(t);
  EXPECT_TRUE(t.is_connected());
  // Every non-seed node attaches with m = 2 edges; hubs accumulate degree.
  std::size_t max_degree = 0;
  for (NodeId i = 0; i < t.size(); ++i) max_degree = std::max(max_degree, t.degree(i));
  EXPECT_GE(max_degree, 8u);  // scale-free: hubs well above the minimum of 2
  EXPECT_EQ(t.edge_count(), 3u + 97u * 2u);  // seed clique + m per new node
}

TEST(Topology, BarabasiAlbertRejectsTinyN) {
  Rng rng(1);
  EXPECT_THROW(Topology::barabasi_albert(3, 3, rng), ContractViolation);
}

TEST(Topology, FromEdgesNormalizesDuplicates) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 0}, {1, 2}};
  const auto t = Topology::from_edges(3, edges);
  expect_valid_graph(t);
  EXPECT_EQ(t.edge_count(), 2u);
}

TEST(Topology, FromEdgesRejectsSelfLoop) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 0}};
  EXPECT_THROW(Topology::from_edges(2, edges), ContractViolation);
}

TEST(Topology, FromEdgesRejectsOutOfRange) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 5}};
  EXPECT_THROW(Topology::from_edges(3, edges), ContractViolation);
}

TEST(Topology, BfsDistancesOnBus) {
  const auto t = Topology::bus(5);
  const auto d = t.bfs_distances(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Topology, EdgesListMatchesCount) {
  const auto t = Topology::hypercube(3);
  const auto edges = t.edges();
  EXPECT_EQ(edges.size(), t.edge_count());
  for (const auto& [a, b] : edges) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(t.has_edge(a, b));
  }
}

TEST(Topology, ParseRoundTrip) {
  Rng rng(1);
  EXPECT_EQ(Topology::parse("bus:8", rng).size(), 8u);
  EXPECT_EQ(Topology::parse("ring:9", rng).size(), 9u);
  EXPECT_EQ(Topology::parse("hypercube:5", rng).size(), 32u);
  EXPECT_EQ(Topology::parse("torus3d:2", rng).size(), 8u);
  EXPECT_EQ(Topology::parse("torus3d:2x3x4", rng).size(), 24u);
  EXPECT_EQ(Topology::parse("grid:3x5", rng).size(), 15u);
  EXPECT_EQ(Topology::parse("complete:6", rng).size(), 6u);
  EXPECT_EQ(Topology::parse("star:4", rng).size(), 4u);
  EXPECT_EQ(Topology::parse("tree:10", rng).size(), 10u);
  EXPECT_EQ(Topology::parse("regular:10:3", rng).size(), 10u);
  EXPECT_EQ(Topology::parse("er:12:0.3", rng).size(), 12u);
  EXPECT_EQ(Topology::parse("smallworld:20:4:0.2", rng).size(), 20u);
  EXPECT_EQ(Topology::parse("ba:15:2", rng).size(), 15u);
}

TEST(Topology, ParseRejectsGarbage) {
  Rng rng(1);
  EXPECT_THROW(Topology::parse("nope:3", rng), ContractViolation);
  EXPECT_THROW(Topology::parse("bus", rng), ContractViolation);
  EXPECT_THROW(Topology::parse("grid:3", rng), ContractViolation);
  EXPECT_THROW(Topology::parse("bus:x", rng), ContractViolation);
}

TEST(Topology, NamesAreDescriptive) {
  EXPECT_EQ(Topology::bus(4).name(), "bus:4");
  EXPECT_EQ(Topology::hypercube(3).name(), "hypercube:3");
  EXPECT_EQ(Topology::torus3d(2, 2, 2).name(), "torus3d:2x2x2");
}

TEST(Topology, DotExportContainsEveryEdge) {
  const auto t = Topology::ring(4);
  const std::string dot = t.to_dot();
  EXPECT_NE(dot.find("graph \"ring:4\""), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
  EXPECT_NE(dot.find("2 -- 3;"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 3;"), std::string::npos);
  // Undirected: no reversed duplicates.
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);
}

TEST(Topology, DiameterThrowsOnDisconnected) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}};
  const auto t = Topology::from_edges(3, edges);
  EXPECT_FALSE(t.is_connected());
  EXPECT_THROW((void)t.diameter(), ContractViolation);
}

}  // namespace
}  // namespace pcf::net
