// Scale smoke (ctest label: scale_smoke) — exercises the arena engine at
// ~10^5 nodes under whatever sanitizers the build enables. Not a perf test
// (that is `pcflow bench --profile=scale` + the CI gate); this catches
// out-of-bounds indexing, uninitialized reads, and overflow in the flat
// arena paths that small graphs cannot reach.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Algorithm;

std::vector<core::Mass> scalar_masses(std::size_t n, std::uint64_t seed) {
  const auto values = test::random_values(n, seed);
  std::vector<core::Mass> masses;
  masses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    masses.push_back(core::Mass::scalar(values[i], 1.0));
  }
  return masses;
}

// 47^3 = 103,823 nodes, degree 6. One full round per algorithm touches every
// arena row, every CSR slot, and every wire path once.
TEST(ScaleSmoke, TorusHundredThousandNodesOneRoundPerAlgorithm) {
  const auto topology = net::Topology::torus3d(47, 47, 47);
  const auto masses = scalar_masses(topology.size(), 17);
  for (const Algorithm algorithm :
       {Algorithm::kPushSum, Algorithm::kPushFlow, Algorithm::kPushCancelFlow,
        Algorithm::kFlowUpdating}) {
    SyncEngineConfig cfg;
    cfg.algorithm = algorithm;
    cfg.seed = 5;
    cfg.mode = EngineMode::kArena;
    // Invariant scans are O(n·deg) per round — fine once, and exactly the
    // broad memory sweep a sanitizer build wants.
    cfg.invariants.enabled = true;
    SyncEngine engine(topology, masses, cfg);
    engine.step();
    EXPECT_EQ(engine.stats().messages_sent, topology.size());
    EXPECT_TRUE(std::isfinite(engine.max_error()));
  }
}

// Crossing rounds at 10^4 nodes: the round's wire buffers 10k packets, then
// drains them.
TEST(ScaleSmoke, CrossingRoundsAtTenThousandNodes) {
  const auto topology = net::Topology::grid2d(100, 100, /*wrap=*/true);
  const auto masses = scalar_masses(topology.size(), 23);
  SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushCancelFlow;
  cfg.seed = 6;
  cfg.delivery = Delivery::kCrossing;
  cfg.mode = EngineMode::kArena;
  cfg.invariants.enabled = true;
  SyncEngine engine(topology, masses, cfg);
  engine.run(5);
  EXPECT_EQ(engine.stats().messages_sent, 5 * topology.size());
  EXPECT_TRUE(std::isfinite(engine.max_error()));
}

// Fault machinery at scale: crash + rejoin on the 100k torus keeps the arena
// indices consistent (rejoin reuses the node's rows; no growth, no stray
// writes for the sanitizers to find).
TEST(ScaleSmoke, CrashAndRejoinOnHundredThousandNodes) {
  const auto topology = net::Topology::torus3d(47, 47, 47);
  const auto masses = scalar_masses(topology.size(), 29);
  SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kFlowUpdating;
  cfg.seed = 8;
  cfg.mode = EngineMode::kArena;
  cfg.faults.node_crashes.push_back({1.0, 50000});
  cfg.faults.node_rejoins.push_back({3.0, 50000});
  SyncEngine engine(topology, masses, cfg);
  const std::size_t fleet_size = engine.fleet().size();
  engine.run(4);
  EXPECT_TRUE(engine.node_alive(50000));
  EXPECT_EQ(engine.fleet().size(), fleet_size);
  EXPECT_TRUE(std::isfinite(engine.fleet().estimate(50000, 0)));
}

}  // namespace
}  // namespace pcf::sim
