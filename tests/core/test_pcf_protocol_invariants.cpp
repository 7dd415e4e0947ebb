// Cross-node protocol invariants of the re-derived PCF handshake, checked
// live during engine runs on both delivery models. These are the properties
// the PCF design note in core/protocol.hpp claims; violating any of them would
// reopen a mass-leak window. Every run repeats in both sync engine modes.
#include <gtest/gtest.h>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::edge_state;
using test::kEngineModes;

struct EdgeEnds {
  PcfEdgeView initiator;  // lower node id's view
  PcfEdgeView completer;
};

EdgeEnds edge_ends(const sim::SyncEngine& engine, NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return {edge_state(engine.fleet(), lo, hi), edge_state(engine.fleet(), hi, lo)};
}

class PcfProtocolInvariants : public ::testing::TestWithParam<sim::Delivery> {};

INSTANTIATE_TEST_SUITE_P(DeliveryModels, PcfProtocolInvariants,
                         ::testing::Values(sim::Delivery::kSequential,
                                           sim::Delivery::kCrossing),
                         [](const auto& param_info) {
                           return param_info.param == sim::Delivery::kSequential ? "sequential"
                                                                                 : "crossing";
                         });

TEST_P(PcfProtocolInvariants, BilateralStateStaysCoherent) {
  for (const auto mode : kEngineModes) {
    SCOPED_TRACE(test::mode_name(mode));
    const auto t = net::Topology::hypercube(4);
    const auto values = test::random_values(t.size(), 23);
    const auto masses = sim::masses_from_values(values, Aggregate::kAverage);
    sim::SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kPushCancelFlow;
    cfg.seed = 23;
    cfg.delivery = GetParam();
    cfg.mode = mode;
    sim::SyncEngine engine(t, masses, cfg);

    const auto edges = t.edges();
    for (int round = 0; round < 400; ++round) {
      engine.step();
      for (const auto& [a, b] : edges) {
        const auto ends = edge_ends(engine, a, b);
        // I1: the completer never runs ahead of the initiator, and the
        // initiator leads by at most one phase (in the sequential model; the
        // crossing model additionally has one round of in-flight slack).
        ASSERT_GE(ends.initiator.role_count + 1, ends.completer.role_count)
            << "edge " << a << "-" << b << " round " << round;
        ASSERT_LE(ends.initiator.role_count, ends.completer.role_count + 2)
            << "edge " << a << "-" << b << " round " << round;
        // I2: in an even (steady) phase with both endpoints synchronized, the
        // active slots agree.
        if (ends.initiator.role_count == ends.completer.role_count &&
            ends.initiator.role_count % 2 == 0) {
          ASSERT_EQ(ends.initiator.active_slot, ends.completer.active_slot)
              << "edge " << a << "-" << b << " round " << round;
        }
        // I3: right after the initiator's cancellation (odd phase, completer
        // not yet caught up), the initiator's passive slot is exactly zero.
        if (ends.initiator.role_count % 2 == 1 &&
            ends.initiator.role_count == ends.completer.role_count + 1) {
          const Mass& passive =
              ends.initiator.active_slot == 1 ? ends.initiator.flow2 : ends.initiator.flow1;
          ASSERT_TRUE(passive.is_zero()) << "edge " << a << "-" << b << " round " << round;
        }
      }
    }
    // And the run actually converges while all of that held.
    EXPECT_LT(engine.max_error(), 1e-12);
  }
}

TEST_P(PcfProtocolInvariants, CyclesAdvanceOnEveryEdge) {
  for (const auto mode : kEngineModes) {
    SCOPED_TRACE(test::mode_name(mode));
    const auto t = net::Topology::ring(10);
    const auto values = test::random_values(t.size(), 29);
    const auto masses = sim::masses_from_values(values, Aggregate::kAverage);
    sim::SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kPushCancelFlow;
    cfg.seed = 29;
    cfg.delivery = GetParam();
    cfg.mode = mode;
    sim::SyncEngine engine(t, masses, cfg);
    engine.run(600);
    for (const auto& [a, b] : t.edges()) {
      const auto ends = edge_ends(engine, a, b);
      EXPECT_GT(ends.initiator.role_count, 20u) << "edge " << a << "-" << b << " stalled";
    }
  }
}

TEST_P(PcfProtocolInvariants, InvariantsHoldUnderLossAndFailures) {
  for (const auto mode : kEngineModes) {
    SCOPED_TRACE(test::mode_name(mode));
    const auto t = net::Topology::hypercube(4);
    const auto values = test::random_values(t.size(), 31);
    const auto masses = sim::masses_from_values(values, Aggregate::kAverage);
    sim::SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kPushCancelFlow;
    cfg.seed = 31;
    cfg.delivery = GetParam();
    cfg.mode = mode;
    cfg.faults.message_loss_prob = 0.2;
    cfg.faults.link_failures.push_back({120.0, 2, 3});
    sim::SyncEngine engine(t, masses, cfg);
    const auto edges = t.edges();
    for (int round = 0; round < 400; ++round) {
      engine.step();
      for (const auto& [a, b] : edges) {
        if (a == 2 && b == 3 && round >= 120) continue;  // excluded edge
        const auto ends = edge_ends(engine, a, b);
        ASSERT_GE(ends.initiator.role_count + 1, ends.completer.role_count)
            << "edge " << a << "-" << b << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace pcf::core
