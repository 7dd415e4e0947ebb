#include "net/tree_schedule.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::net {
namespace {

// The load-bearing schedule invariants: every tree edge is a topology edge,
// the depth map strictly decreases toward the root, and the parent is the
// (depth, id)-minimal neighbor of strictly smaller depth — the same rule the
// correction reducer re-applies over its live neighbors.
void expect_valid_schedule(const Topology& t, const TreeSchedule& s) {
  ASSERT_EQ(s.parent.size(), t.size());
  ASSERT_EQ(s.depth.size(), t.size());
  EXPECT_NE(s.kind, TreeKind::kAuto) << "kind must be resolved";
  EXPECT_EQ(s.parent[s.root], s.root);
  for (NodeId i = 0; i < t.size(); ++i) {
    if (i == s.root) continue;
    const NodeId p = s.parent[i];
    EXPECT_TRUE(t.has_edge(i, p)) << "tree edge " << i << "-" << p << " not in topology";
    EXPECT_LT(s.depth[p], s.depth[i]) << "depth must strictly decrease toward root";
    // Parent must be the (depth, id)-minimal upward neighbor.
    for (const NodeId j : t.neighbors(i)) {
      if (s.depth[j] < s.depth[p]) {
        ADD_FAILURE() << "node " << i << " has a shallower neighbor " << j;
      } else if (s.depth[j] == s.depth[p] && j < p) {
        ADD_FAILURE() << "node " << i << " has a lower-id neighbor " << j << " at parent depth";
      }
    }
  }
}

TEST(TreeSchedule, AutoPicksStarOnStarTopology) {
  const auto t = Topology::star(9);
  const auto s = build_tree_schedule(t);
  EXPECT_EQ(s.kind, TreeKind::kStar);
  expect_valid_schedule(t, s);
  for (NodeId i = 0; i < t.size(); ++i) {
    EXPECT_EQ(s.depth[i], i == s.root ? 0u : 1u);
  }
}

TEST(TreeSchedule, AutoPicksStarOnCompleteGraph) {
  // Complete graphs have a hub (every node); the smallest id wins.
  const auto t = Topology::complete(6);
  const auto s = build_tree_schedule(t);
  EXPECT_EQ(s.kind, TreeKind::kStar);
  EXPECT_EQ(s.root, 0u);
  expect_valid_schedule(t, s);
}

TEST(TreeSchedule, AutoPicksChainOnBus) {
  const auto t = Topology::bus(12);
  const auto s = build_tree_schedule(t);
  EXPECT_EQ(s.kind, TreeKind::kChain);
  expect_valid_schedule(t, s);
  for (NodeId i = 1; i < t.size(); ++i) EXPECT_EQ(s.parent[i], i - 1);
}

TEST(TreeSchedule, AutoPicksChainOnRing) {
  // A ring contains the id-order path 0-1-...-(n-1); the wrap edge is a chord.
  const auto t = Topology::ring(8);
  const auto s = build_tree_schedule(t);
  EXPECT_EQ(s.kind, TreeKind::kChain);
  expect_valid_schedule(t, s);
}

TEST(TreeSchedule, AutoPicksBinaryOnHeapTree) {
  const auto t = Topology::binary_tree(15);
  const auto s = build_tree_schedule(t);
  EXPECT_EQ(s.kind, TreeKind::kBinary);
  expect_valid_schedule(t, s);
  for (NodeId i = 1; i < t.size(); ++i) EXPECT_EQ(s.parent[i], (i - 1) / 2);
}

TEST(TreeSchedule, AutoFallsBackToBfsOnTorus) {
  const auto t = Topology::grid2d(5, 5, /*wrap=*/true);
  const auto s = build_tree_schedule(t);
  EXPECT_EQ(s.kind, TreeKind::kBfs);
  expect_valid_schedule(t, s);
}

TEST(TreeSchedule, BfsDepthIsGraphDistanceFromRoot) {
  const auto t = Topology::hypercube(4);
  const auto s = build_tree_schedule(t, TreeKind::kBfs);
  expect_valid_schedule(t, s);
  // On a hypercube, BFS depth from node 0 is the popcount of the id.
  for (NodeId i = 0; i < t.size(); ++i) {
    EXPECT_EQ(s.depth[i], static_cast<std::uint32_t>(__builtin_popcountll(i)));
  }
}

TEST(TreeSchedule, ExplicitShapeUnsupportedByTopologyIsRejected) {
  const auto ring = Topology::ring(6);
  EXPECT_THROW(build_tree_schedule(ring, TreeKind::kStar), ContractViolation);
  EXPECT_THROW(build_tree_schedule(ring, TreeKind::kBinary), ContractViolation);
  const auto cube = Topology::hypercube(3);
  EXPECT_THROW(build_tree_schedule(cube, TreeKind::kChain), ContractViolation);
}

TEST(TreeSchedule, BfsWorksOnEveryGeneratedTopology) {
  Rng rng(99);
  const Topology topologies[] = {
      Topology::bus(7),    Topology::ring(9),          Topology::grid2d(3, 5),
      Topology::star(6),   Topology::hypercube(3),     Topology::binary_tree(10),
      Topology::complete(5), Topology::random_regular(16, 4, rng),
  };
  for (const auto& t : topologies) {
    const auto s = build_tree_schedule(t, TreeKind::kBfs);
    expect_valid_schedule(t, s);
  }
}

TEST(TreeSchedule, ParseRoundTrips) {
  for (const auto kind : {TreeKind::kAuto, TreeKind::kChain, TreeKind::kBinary, TreeKind::kStar,
                          TreeKind::kBfs}) {
    EXPECT_EQ(parse_tree_kind(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_tree_kind("dag"), ContractViolation);
}

}  // namespace
}  // namespace pcf::net
