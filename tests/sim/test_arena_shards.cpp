// Thread-count determinism: the sharded arena round loop must be
// BYTE-identical to the serial one at every shard count. Sharded sends merge
// per-shard wires in contiguous-node-block order (= serial wire order);
// sharded drains counting-sort the wire by receiver (stable, = serial
// delivery order per receiver). Anything observable — node state bits, run
// counters, oracle error — must not depend on `shards`.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Algorithm;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<std::uint64_t> fingerprint(const SyncEngine& engine, const net::Topology& t) {
  std::vector<std::uint64_t> fp;
  for (NodeId i = 0; i < t.size(); ++i) {
    fp.push_back(engine.node_alive(i) ? 1u : 0u);
    if (!engine.node_alive(i)) continue;
    const core::Reducer& n = engine.node(i);
    const core::Mass m = n.local_mass();
    for (std::size_t k = 0; k < m.dim(); ++k) fp.push_back(bits_of(m.s[k]));
    fp.push_back(bits_of(m.w));
    fp.push_back(bits_of(n.estimate(0)));
    fp.push_back(n.live_degree());
    fp.push_back(bits_of(n.max_abs_flow_component()));
    std::array<core::Mass, 2> flows{};
    for (const NodeId j : t.neighbors(i)) {
      const std::size_t count = n.flows_toward(j, flows);
      fp.push_back(count);
      for (std::size_t q = 0; q < count; ++q) {
        for (std::size_t k = 0; k < flows[q].dim(); ++k) fp.push_back(bits_of(flows[q].s[k]));
        fp.push_back(bits_of(flows[q].w));
      }
    }
  }
  return fp;
}

SyncEngine make_arena_engine(const net::Topology& topology, Algorithm algorithm,
                             std::size_t shards, const FaultPlan& plan, Delivery delivery) {
  const auto values = test::random_values(topology.size(), 1234);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], 1.0));
  }
  SyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = plan;
  cfg.seed = 99;
  cfg.delivery = delivery;
  cfg.mode = EngineMode::kArena;
  cfg.shards = shards;
  cfg.invariants.enabled = true;
  return SyncEngine(topology, masses, cfg);
}

class ArenaShards : public ::testing::TestWithParam<Algorithm> {};

// Crossing delivery routes every packet through the wire, which is the path
// the sharded send/drain phases actually parallelize.
TEST_P(ArenaShards, CrossingRunIsIdenticalAtEveryShardCount) {
  const auto topology = net::Topology::grid2d(6, 6, /*wrap=*/true);
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, {}, Delivery::kCrossing);
  serial.run(30);
  const auto expected = fingerprint(serial, topology);
  const auto expected_stats = serial.stats();

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SyncEngine sharded = make_arena_engine(topology, GetParam(), shards, {}, Delivery::kCrossing);
    // Explicit shard counts are honored even above the core count
    // (oversubscription is deterministic by construction).
    EXPECT_GE(sharded.shards(), 1u);
    sharded.run(30);
    EXPECT_EQ(fingerprint(sharded, topology), expected) << "shards=" << shards;
    EXPECT_EQ(sharded.stats().messages_sent, expected_stats.messages_sent);
    EXPECT_EQ(sharded.stats().doubles_sent, expected_stats.doubles_sent);
    EXPECT_EQ(bits_of(sharded.max_error()), bits_of(serial.max_error()));
  }
}

// Fault events force the engine in and out of the shardable fast path
// (per-packet loss draws disable send sharding; the scheduled events run
// serially between rounds). The merge must stay byte-faithful across the
// transitions.
TEST_P(ArenaShards, LifecycleFaultsStayIdenticalAcrossShardCounts) {
  const auto topology = net::Topology::grid2d(6, 6, /*wrap=*/true);
  FaultPlan plan;
  plan.detection_delay = 1.0;
  plan.link_failures.push_back({5.0, 0, 1});
  plan.node_crashes.push_back({9.0, 7});
  plan.link_heals.push_back({15.0, 0, 1});
  plan.node_rejoins.push_back({20.0, 7});
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, plan, Delivery::kCrossing);
  serial.run(35);
  const auto expected = fingerprint(serial, topology);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SyncEngine sharded = make_arena_engine(topology, GetParam(), shards, plan, Delivery::kCrossing);
    sharded.run(35);
    EXPECT_EQ(fingerprint(sharded, topology), expected) << "shards=" << shards;
    EXPECT_EQ(sharded.stats().messages_dropped, serial.stats().messages_dropped);
  }
}

// Duplicates and reordering disable the sharded drain (their RNG draws are
// inherently order-dependent); loss disables the sharded send. The dispatch
// must fall back to the serial phases and still match shards=1 exactly.
TEST_P(ArenaShards, AdversarialKnobsFallBackToSerialPhasesIdentically) {
  const auto topology = net::Topology::grid2d(5, 5, /*wrap=*/true);
  FaultPlan plan;
  plan.message_loss_prob = 0.05;
  plan.duplicate_prob = 0.1;
  plan.reorder_prob = 0.1;
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, plan, Delivery::kCrossing);
  serial.run(25);
  const auto expected = fingerprint(serial, topology);

  for (const std::size_t shards : {2u, 8u}) {
    SyncEngine sharded = make_arena_engine(topology, GetParam(), shards, plan, Delivery::kCrossing);
    sharded.run(25);
    EXPECT_EQ(fingerprint(sharded, topology), expected) << "shards=" << shards;
    EXPECT_EQ(sharded.stats().messages_duplicated, serial.stats().messages_duplicated);
    EXPECT_EQ(sharded.stats().messages_dropped, serial.stats().messages_dropped);
  }
}

// Sequential delivery never uses the wire, so sharding must be a no-op there
// too (the dispatcher routes it through the serial send phase).
TEST_P(ArenaShards, SequentialDeliveryUnaffectedByShards) {
  const auto topology = net::Topology::grid2d(5, 5, /*wrap=*/true);
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, {}, Delivery::kSequential);
  SyncEngine sharded = make_arena_engine(topology, GetParam(), 8, {}, Delivery::kSequential);
  serial.run(30);
  sharded.run(30);
  EXPECT_EQ(fingerprint(sharded, topology), fingerprint(serial, topology));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ArenaShards,
                         ::testing::Values(Algorithm::kPushSum, Algorithm::kPushFlow,
                                           Algorithm::kPushCancelFlow,
                                           Algorithm::kFlowUpdating,
                                           Algorithm::kCorrectionAllreduce,
                                           Algorithm::kFuMassHybrid),
                         [](const ::testing::TestParamInfo<Algorithm>& param) {
                           switch (param.param) {
                             case Algorithm::kPushSum: return "ps";
                             case Algorithm::kPushFlow: return "pf";
                             case Algorithm::kPushCancelFlow: return "pcf";
                             case Algorithm::kFlowUpdating: return "fu";
                             case Algorithm::kCorrectionAllreduce: return "corr";
                             case Algorithm::kFuMassHybrid: return "fumd";
                           }
                           return "unknown";
                         });

TEST(ArenaShardsConfig, ZeroMeansHardwareConcurrency) {
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  SyncEngine engine = make_arena_engine(topology, Algorithm::kPushSum, 0, {}, Delivery::kCrossing);
  EXPECT_GE(engine.shards(), 1u);
}

}  // namespace
}  // namespace pcf::sim
