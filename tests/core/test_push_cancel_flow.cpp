#include <gtest/gtest.h>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::bus_case_study_masses;
using test::edge_state;
using test::kEngineModes;
using test::make_engine;
using test::pair_fleet;
using test::total_mass;

ReducerConfig fast_config() {
  ReducerConfig rc;
  rc.pcf_variant = PcfVariant::kFast;
  return rc;
}

ReducerConfig robust_config() {
  ReducerConfig rc;
  rc.pcf_variant = PcfVariant::kRobust;
  return rc;
}

class PcfBothVariants : public ::testing::TestWithParam<PcfVariant> {
 protected:
  ReducerConfig config() const {
    ReducerConfig rc;
    rc.pcf_variant = GetParam();
    return rc;
  }
};

INSTANTIATE_TEST_SUITE_P(Variants, PcfBothVariants,
                         ::testing::Values(PcfVariant::kFast, PcfVariant::kRobust),
                         [](const auto& param_info) {
                           return param_info.param == PcfVariant::kFast ? "fast" : "robust";
                         });

TEST_P(PcfBothVariants, ConvergesOnHypercubeAvgAndSum) {
  for (const auto agg : {Aggregate::kAverage, Aggregate::kSum}) {
    const auto t = net::Topology::hypercube(5);
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, agg, 7, {}, config());
    engine.run(500);
    EXPECT_LT(engine.max_error(), 1e-13) << to_string(agg);
  }
}

TEST_P(PcfBothVariants, ConvergesOnTorusRingTreeStar) {
  // Note: on strongly irregular topologies (star, tree) push-based gossip
  // exhibits weight starvation — a leaf that is not picked by the hub for k
  // rounds halves its weight k times, so its relative error fluctuates even
  // after global convergence. The meaningful claim is that the target
  // accuracy is *reached*, not that it holds at one fixed round.
  for (const auto& t :
       {net::Topology::torus3d(2, 2, 2), net::Topology::ring(12), net::Topology::binary_tree(15),
        net::Topology::star(9)}) {
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 3, {}, config());
    const auto stats = engine.run_until_error(1e-12, 4000);
    EXPECT_TRUE(stats.reached_target) << t.name() << " err=" << engine.max_error();
  }
}

TEST_P(PcfBothVariants, RolesKeepSwapping) {
  // The cancellation handshake must cycle forever: active/passive roles swap
  // unboundedly often on every edge class we ship.
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5, {}, config());
  engine.run(200);
  std::uint64_t swaps_early = 0;
  for (NodeId i = 0; i < t.size(); ++i) swaps_early += engine.fleet().role_swaps(i);
  EXPECT_GT(swaps_early, 100u);
  engine.run(200);
  std::uint64_t swaps_late = 0;
  for (NodeId i = 0; i < t.size(); ++i) swaps_late += engine.fleet().role_swaps(i);
  EXPECT_GT(swaps_late, swaps_early + 100);  // still swapping after convergence
}

TEST_P(PcfBothVariants, FlowsStayBoundedOnBus) {
  // The paper's central claim (Section III): unlike PF, whose flows grow
  // linearly with n on the bus case study, PCF flow magnitudes stay at the
  // scale of the data because converged flows keep being cancelled.
  for (const std::size_t n : {8u, 16u, 32u}) {
    const auto t = net::Topology::bus(n);
    const auto masses = bus_case_study_masses(n);
    sim::SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kPushCancelFlow;
    cfg.reducer = config();
    cfg.seed = 2;
    sim::SyncEngine engine(t, masses, cfg);
    engine.run(static_cast<std::size_t>(n) * n * 8);
    EXPECT_LT(engine.max_error(), 1e-12) << "n=" << n;
    // PF reaches max |flow| ≈ n-1 here (see test_push_flow); PCF stays at
    // the scale of the initial data (v_0 = n+1 is pushed around in the first
    // rounds, so the bound is O(initial data), not O(1); the point is that it
    // does not *accumulate* transport like PF).
    EXPECT_LT(engine.max_abs_flow(), 2.0 * static_cast<double>(n)) << "n=" << n;
  }
}

TEST_P(PcfBothVariants, LinkFailureCausesNoFallback) {
  // Fig. 7: after a permanent link failure, PCF keeps its accuracy.
  const auto t = net::Topology::hypercube(6);
  sim::FaultPlan faults;
  const auto edges = t.edges();
  faults.link_failures.push_back({75.0, edges[17].first, edges[17].second});
  auto engine =
      make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 4, faults, config());
  engine.run(74);
  const double before = engine.max_error();
  engine.run(6);
  const double after = engine.max_error();
  // Zeroing the edge perturbs masses whose value ratios match the aggregate
  // only up to the current error level, so a bump of a couple of orders of
  // magnitude is possible — in contrast to PF, which falls back by >1e6x to
  // O(1) error (see test_push_flow). No absolute fallback:
  EXPECT_LT(after, 2e3 * before + 1e-15);
  EXPECT_LT(after, 1e-4);
  engine.run(120);
  EXPECT_LT(engine.max_error(), 1e-13);
}

TEST_P(PcfBothVariants, SurvivesHeavyMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine =
      make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5, faults, config());
  engine.run(2500);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST_P(PcfBothVariants, NodeCrashExcludesAndReconverges) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.node_crashes.push_back({40.0, 11});
  auto engine =
      make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 9, faults, config());
  engine.run(1500);
  // After the crash the oracle retargets to the survivors' conserved mass;
  // the survivors must reach consensus on it.
  EXPECT_LT(engine.max_error(), 1e-12);
  EXPECT_FALSE(engine.node_alive(11));
}

TEST(PushCancelFlow, RobustVariantHealsBitFlips) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.bit_flip_prob = 0.005;
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5, faults,
                            robust_config());
  engine.run(3000);
  EXPECT_LT(engine.median_error(), 1e-2);
}

TEST(PushCancelFlow, EquivalentToPushFlowUntilFirstFailure) {
  // Section III-B: "the PF algorithm and PCF algorithm behave identically for
  // the same communication schedules and initial data (if no failures
  // occur)". Theoretical identity; in floating point the trajectories agree
  // to rounding error until they converge.
  const auto t = net::Topology::hypercube(4);
  auto pf = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 77);
  auto pcf = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 77, {},
                         robust_config());
  for (int round = 0; round < 60; ++round) {
    pf.step();
    pcf.step();
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(pf.fleet().estimate(i), pcf.fleet().estimate(i), 1e-9)
          << "round " << round << " node " << i;
    }
  }
}

TEST(PushCancelFlow, CancellationZeroesPassiveFlowPair) {
  // Drive a two-node system by hand through the handshake. A handshake can be
  // observed mid-flight (one side swapped, the other not yet), so we look for
  // the settled state — agreeing roles with both passive slots exactly zero —
  // which must recur within a few exchanges.
  auto fleet = pair_fleet(Algorithm::kPushCancelFlow, Mass::scalar(6.0, 1.0),
                          Mass::scalar(2.0, 1.0), robust_config());
  bool settled_state_seen = false;
  auto check_settled = [&] {
    const auto ea = edge_state(fleet, 0, 1);
    const auto eb = edge_state(fleet, 1, 0);
    if (ea.active_slot != eb.active_slot) return;
    const Mass& a_passive = ea.active_slot == 1 ? ea.flow2 : ea.flow1;
    const Mass& b_passive = eb.active_slot == 1 ? eb.flow2 : eb.flow1;
    if (a_passive.is_zero() && b_passive.is_zero() && ea.role_count >= 2) {
      settled_state_seen = true;
    }
  };
  for (int i = 0; i < 30; ++i) {
    fleet.receive(1, 0, fleet.make_message_to(0, 1)->packet);
    check_settled();  // the handshake settles between half-steps, so sample both
    fleet.receive(0, 1, fleet.make_message_to(1, 0)->packet);
    check_settled();
  }
  EXPECT_TRUE(settled_state_seen);
  EXPECT_GT(fleet.role_swaps(0) + fleet.role_swaps(1), 0u);
  // Two-node average is 4; both sides converge.
  EXPECT_NEAR(fleet.estimate(0), 4.0, 1e-12);
  EXPECT_NEAR(fleet.estimate(1), 4.0, 1e-12);
}

TEST(PushCancelFlow, RoleCountersAreMonotoneAndAdvance) {
  for (const auto mode : kEngineModes) {
    SCOPED_TRACE(test::mode_name(mode));
    const auto t = net::Topology::ring(6);
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 13, {},
                              fast_config(), mode);
    std::vector<std::uint64_t> last(6, 0);
    for (int round = 0; round < 200; ++round) {
      engine.step();
      for (NodeId i = 0; i < 6; ++i) {
        const NodeId left = (i + 5) % 6;
        const auto view = edge_state(engine.fleet(), i, left);
        EXPECT_GE(view.role_count, last[i]) << "node " << i;
        last[i] = view.role_count;
      }
    }
    // Cycles must actually advance — the cancellation machinery never stalls.
    for (std::uint64_t r : last) EXPECT_GT(r, 10u);
  }
}

TEST(PushCancelFlow, MassConservationWithPhiAccounting) {
  // ϕ bookkeeping must keep Σ_i (v_i − ϕ_i − Σ flows) ≡ Σ_i v_i (fast) and
  // likewise for the robust variant, across many cancellations.
  for (const auto variant : {PcfVariant::kFast, PcfVariant::kRobust}) {
    ReducerConfig rc;
    rc.pcf_variant = variant;
    const auto t = net::Topology::hypercube(3);
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 17, {}, rc);
    const auto before = total_mass(engine);
    engine.run(500);
    const auto after = total_mass(engine);
    EXPECT_NEAR(after.s[0], before.s[0], 1e-10) << to_string(variant);
    EXPECT_NEAR(after.w, before.w, 1e-10) << to_string(variant);
  }
}

TEST(PushCancelFlow, ConvergedFlowRatioApproachesAggregate) {
  // "All flow variables converge to the target aggregate": the value/weight
  // ratio of every nonzero flow approaches the aggregate — which is exactly
  // why zeroing them on failure does not perturb estimates.
  for (const auto mode : kEngineModes) {
    SCOPED_TRACE(test::mode_name(mode));
    const auto t = net::Topology::hypercube(4);
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 21, {},
                              robust_config(), mode);
    engine.run(600);
    ASSERT_LT(engine.max_error(), 1e-13);
    const double target = engine.oracle().target();
    for (NodeId i = 0; i < t.size(); ++i) {
      for (const NodeId j : t.neighbors(i)) {
        const auto view = edge_state(engine.fleet(), i, j);
        for (const Mass* f : {&view.flow1, &view.flow2}) {
          if (std::abs(f->w) > 1e-6) {
            EXPECT_NEAR(f->s[0] / f->w, target, 1e-9) << "edge " << i << "-" << j;
          }
        }
      }
    }
  }
}

TEST(PushCancelFlow, StalePacketAfterExclusionIsIgnored) {
  const auto a = make_reducer(Algorithm::kPushCancelFlow, robust_config());
  const std::vector<NodeId> na{1, 2};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  auto out = a->make_message_to(1);
  ASSERT_TRUE(out.has_value());
  a->on_link_down(1);
  const Mass before = a->local_mass();
  Packet stale;
  stale.a = Mass::scalar(123.0, 4.0);
  stale.b = Mass::scalar(-5.0, 1.0);
  stale.active_slot = 1;
  stale.role_count = 1;
  a->on_receive(1, stale);
  EXPECT_EQ(a->local_mass(), before);
}

TEST(PushCancelFlow, CorruptHeaderIsIgnored) {
  const auto a = make_reducer(Algorithm::kPushCancelFlow, fast_config());
  const std::vector<NodeId> na{1};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  const Mass before = a->local_mass();
  Packet bad;
  bad.a = Mass::scalar(1.0, 1.0);
  bad.b = Mass::scalar(1.0, 1.0);
  bad.active_slot = 77;  // corrupted
  bad.role_count = 1;
  a->on_receive(1, bad);
  EXPECT_EQ(a->local_mass(), before);
}

TEST(PushCancelFlow, SimultaneousCancellationRaceResolves) {
  // Force the mutual-cancel race: both endpoints observe conservation in the
  // same round (packets cross), both start cancellation, r counters stay in
  // lockstep. The protocol must still converge and keep cancelling.
  for (const auto mode : kEngineModes) {
    SCOPED_TRACE(test::mode_name(mode));
    const auto t = net::Topology::bus(2);
    const std::vector<Mass> masses{Mass::scalar(4.0, 1.0), Mass::scalar(0.0, 1.0)};
    sim::SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kPushCancelFlow;
    cfg.seed = 3;
    cfg.delivery = sim::Delivery::kCrossing;
    cfg.mode = mode;
    sim::SyncEngine engine(t, masses, cfg);
    // In a 2-node bus every round is a mutual exchange with crossing packets —
    // the worst case for the handshake.
    engine.run(200);
    EXPECT_LT(engine.max_error(), 1e-12);
    EXPECT_GE(edge_state(engine.fleet(), 0, 1).role_count, 2u);
  }
}

TEST(PushCancelFlow, CrossingDeliveryStillConverges) {
  // The stress delivery model: every round all packets cross. Transient
  // conservation violations must self-heal.
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 5);
  auto masses = sim::masses_from_values(values, Aggregate::kAverage);
  sim::SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushCancelFlow;
  cfg.seed = 5;
  cfg.delivery = sim::Delivery::kCrossing;
  sim::SyncEngine engine(t, masses, cfg);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-12);
}

}  // namespace
}  // namespace pcf::core
