// CSR round-trip property test: for any Topology::parse spec, the
// ArenaFleet's flat adjacency must reproduce the topology exactly — same
// degree sums, symmetric (j appears in i's row iff i appears in j's row, and
// the reverse-slot back-lookup agrees), no self-edges, neighbor rows sorted
// ascending, and every slot initially alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "net/topology.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

ArenaFleet make_fleet(const net::Topology& topology, Algorithm algorithm = Algorithm::kPushSum) {
  const auto values = test::random_values(topology.size(), 7);
  std::vector<Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(Mass::scalar(values[i], 1.0));
  }
  return ArenaFleet(algorithm, ReducerConfig{}, topology, masses);
}

class ArenaCsr : public ::testing::TestWithParam<const char*> {};

TEST_P(ArenaCsr, RoundTripsTheTopology) {
  Rng rng(2024);
  const auto topology = net::Topology::parse(GetParam(), rng);
  const ArenaFleet fleet = make_fleet(topology);
  ASSERT_EQ(fleet.size(), topology.size());

  std::size_t degree_sum = 0;
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    const auto& nbrs = topology.neighbors(i);
    ASSERT_EQ(fleet.degree(i), nbrs.size()) << "node " << i;
    EXPECT_EQ(fleet.live_degree(i), nbrs.size()) << "node " << i;
    degree_sum += fleet.degree(i);
    net::NodeId prev = 0;
    for (std::size_t s = 0; s < fleet.degree(i); ++s) {
      const net::NodeId j = fleet.neighbor(i, s);
      // No self-edges, sorted strictly ascending (implies no duplicates).
      EXPECT_NE(j, i);
      if (s > 0) {
        EXPECT_LT(prev, j) << "node " << i << " slot " << s;
      }
      prev = j;
      EXPECT_TRUE(fleet.alive_at(i, s)) << "node " << i << " slot " << s;
      // Symmetry: the back-edge exists and slot_of inverts neighbor().
      const auto back = fleet.slot_of(j, i);
      ASSERT_TRUE(back.has_value()) << "edge " << i << "->" << j << " has no reverse";
      EXPECT_EQ(fleet.neighbor(j, *back), i);
      const auto fwd = fleet.slot_of(i, j);
      ASSERT_TRUE(fwd.has_value());
      EXPECT_EQ(*fwd, s);
    }
    // The CSR row is exactly the topology's (sorted) neighbor list.
    std::vector<net::NodeId> row;
    for (std::size_t s = 0; s < fleet.degree(i); ++s) row.push_back(fleet.neighbor(i, s));
    std::vector<net::NodeId> expected(nbrs.begin(), nbrs.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(row, expected);
  }
  // Handshake: sum of degrees = 2 * edge count.
  EXPECT_EQ(degree_sum % 2, 0u);
  EXPECT_EQ(degree_sum, 2 * topology.edge_count());

  // Non-neighbors (including self) have no slot.
  EXPECT_FALSE(fleet.slot_of(0, 0).has_value());
}

INSTANTIATE_TEST_SUITE_P(Specs, ArenaCsr,
                         ::testing::Values("bus:7", "ring:12", "grid:3x5", "torus2d:4x6",
                                           "torus3d:3", "hypercube:4", "complete:9", "star:10",
                                           "tree:13", "regular:20:4", "er:24:0.3",
                                           "smallworld:20:4:0.2", "ba:25:2"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// Liveness bookkeeping round-trip through the fleet's link events: link
// down compacts the live prefix, link up restores it, and degree() (the
// static CSR) never changes.
TEST(ArenaCsrLiveness, LinkDownUpRestoresLiveSlots) {
  const auto topology = net::Topology::grid2d(3, 3, /*wrap=*/true);
  ArenaFleet fleet = make_fleet(topology, Algorithm::kPushCancelFlow);
  const net::NodeId i = 4;
  fleet.reset(i, Mass::scalar(1.0, 1.0));
  const std::size_t degree = fleet.degree(i);
  const net::NodeId j = fleet.neighbor(i, 1);
  fleet.link_down(i, j);
  EXPECT_EQ(fleet.degree(i), degree);
  EXPECT_EQ(fleet.live_degree(i), degree - 1);
  EXPECT_FALSE(fleet.alive_at(i, 1));
  fleet.link_up(i, j);
  EXPECT_EQ(fleet.live_degree(i), degree);
  EXPECT_TRUE(fleet.alive_at(i, 1));
}

// The async engine's FIFO clamp table is indexed by the fleet's
// directed-edge index and checkpointed in the topology's edge order, so the
// two orders must agree on every slot.
TEST(ArenaFleet, EdgeIndexMatchesTopologyEdgeIndex) {
  Rng rng(7);
  for (const char* spec : {"torus2d:4x6", "torus3d:3", "regular:30:6", "hypercube:5"}) {
    const auto topology = net::Topology::parse(spec, rng);
    const ArenaFleet fleet = make_fleet(topology);
    for (net::NodeId i = 0; i < topology.size(); ++i) {
      for (std::size_t s = 0; s < fleet.degree(i); ++s) {
        const auto expected = topology.edge_index(i, fleet.neighbor(i, s));
        ASSERT_TRUE(expected.has_value()) << spec << " node " << i << " slot " << s;
        EXPECT_EQ(fleet.edge_index(i, s), *expected) << spec << " node " << i << " slot " << s;
      }
    }
  }
}

}  // namespace
}  // namespace pcf::core
