#include "sim/engine_async.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;

AsyncEngine make_async(const net::Topology& t, Algorithm alg, Aggregate agg,
                       std::uint64_t seed = 1, FaultPlan faults = {}) {
  const auto values = test::random_values(t.size(), seed ^ 0xabcdef);
  auto masses = masses_from_values(values, agg);
  AsyncEngineConfig cfg;
  cfg.algorithm = alg;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  return AsyncEngine(t, masses, cfg);
}

TEST(AsyncEngine, ScansRejectAnOutOfRangeComponent) {
  // Regression: estimates(k) with k >= dim returned garbage in NDEBUG builds.
  const auto t = net::Topology::ring(8);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 3);
  engine.run_until(5.0);
  EXPECT_EQ(engine.estimates(0).size(), t.size());
  EXPECT_THROW((void)engine.estimates(1), ContractViolation);
  EXPECT_THROW((void)engine.estimates(3), ContractViolation);
  EXPECT_THROW((void)engine.max_error(1), ContractViolation);
}

TEST(AsyncEngine, PushSumConvergesWithoutSynchrony) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_async(t, Algorithm::kPushSum, Aggregate::kAverage, 3);
  EXPECT_TRUE(engine.run_until_error(1e-10, 500.0));
}

TEST(AsyncEngine, PushFlowConvergesWithoutSynchrony) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_async(t, Algorithm::kPushFlow, Aggregate::kAverage, 3);
  EXPECT_TRUE(engine.run_until_error(1e-10, 500.0));
}

TEST(AsyncEngine, PcfConvergesWithoutSynchrony) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 3);
  EXPECT_TRUE(engine.run_until_error(1e-12, 800.0));
}

TEST(AsyncEngine, PcfSurvivesMessageLossAsync) {
  const auto t = net::Topology::hypercube(4);
  FaultPlan faults;
  faults.message_loss_prob = 0.25;
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5, faults);
  EXPECT_TRUE(engine.run_until_error(1e-11, 2500.0));
}

TEST(AsyncEngine, PcfEarlyLinkFailureGivesConsensusWithBoundedBias) {
  // A cable cut with traffic in flight destroys the in-transit mass — for an
  // EARLY failure (estimates far from converged) this leaves a small bias
  // relative to the original aggregate; the survivors still reach consensus.
  const auto t = net::Topology::hypercube(4);
  FaultPlan faults;
  faults.link_failures.push_back({30.0, 0, 1});
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7, faults);
  engine.run_until(2000.0);
  const auto est = engine.estimates();
  double spread = 0.0;
  for (double v : est) spread = std::max(spread, std::abs(v - est[0]));
  EXPECT_LT(spread, 1e-10);
  EXPECT_LT(engine.max_error(), 0.1);
}

TEST(AsyncEngine, PcfLateLinkFailureKeepsFullAccuracy) {
  // After convergence every flow's value ratio equals the aggregate, so the
  // mass destroyed by the cut is ratio-aligned: estimates are unaffected.
  const auto t = net::Topology::hypercube(4);
  FaultPlan faults;
  faults.link_failures.push_back({400.0, 0, 1});
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7, faults);
  engine.run_until(410.0);
  EXPECT_TRUE(engine.run_until_error(1e-11, 2500.0));
}

TEST(AsyncEngine, NodeCrashRetargetsOracleApproximately) {
  // The async network always has packets in flight, so a crash loses some
  // in-transit mass and the oracle retarget is a snapshot approximation (see
  // the note on AsyncEngine). Contract: survivors reach consensus, and the
  // consensus is within the in-flight mass bound of the retargeted oracle.
  const auto t = net::Topology::hypercube(3);
  FaultPlan faults;
  faults.node_crashes.push_back({20.0, 2});
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7, faults);
  const double before = engine.oracle().target();
  engine.run_until(25.0);
  EXPECT_FALSE(engine.node_alive(2));
  EXPECT_NE(engine.oracle().target(), before);
  engine.run_until(2000.0);
  const auto est = engine.estimates();
  double spread = 0.0;
  for (double v : est) spread = std::max(spread, std::abs(v - est[0]));
  EXPECT_LT(spread, 1e-10);           // consensus
  EXPECT_LT(engine.max_error(), 0.05);  // bounded bias vs the snapshot target
}

TEST(AsyncEngine, CrashRetargetIncludesInFlightMass) {
  // Regression test for the in-flight-mass retarget bug: the old kDetect
  // handler snapshotted only the survivors' local masses, missing the mass
  // carried by kDelivery events still queued on live links. For push-sum
  // (additive payloads) and push-flow (absolute last-writer-wins mirrors)
  // the corrected snapshot is EXACT — once the queued packets land, the
  // survivors conserve precisely the retargeted total — so consensus must
  // match the oracle to near machine precision, not just the coarse
  // in-flight-bias bound the PCF test above allows.
  for (const auto algorithm : {Algorithm::kPushSum, Algorithm::kPushFlow}) {
    // Dense graph + crash mid-gossip = plenty of packets in flight at the
    // moment of the crash (seed 11 has in-flight mass on live links at t=5).
    const auto t = net::Topology::complete(8);
    FaultPlan faults;
    faults.node_crashes.push_back({5.0, 3});
    auto engine = make_async(t, algorithm, Aggregate::kAverage, 11, faults);
    engine.run_until(6.0);
    ASSERT_FALSE(engine.node_alive(3));
    engine.run_until(2000.0);
    const auto est = engine.estimates();
    double spread = 0.0;
    for (double v : est) spread = std::max(spread, std::abs(v - est[0]));
    EXPECT_LT(spread, 1e-10) << core::to_string(algorithm);
    EXPECT_LT(engine.max_error(), 1e-9) << core::to_string(algorithm);
  }
}

TEST(AsyncEngine, DeterministicGivenSeed) {
  const auto t = net::Topology::ring(8);
  auto a = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 17);
  auto b = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 17);
  a.run_until(50.0);
  b.run_until(50.0);
  EXPECT_EQ(a.estimates(), b.estimates());
  EXPECT_EQ(a.messages_delivered(), b.messages_delivered());
}

TEST(AsyncEngine, TimeAdvancesMonotonically) {
  const auto t = net::Topology::ring(4);
  auto engine = make_async(t, Algorithm::kPushSum, Aggregate::kAverage, 1);
  engine.run_until(5.0);
  EXPECT_GE(engine.now(), 5.0);
  engine.run_until(10.0);
  EXPECT_GE(engine.now(), 10.0);
  // run_until into the past is a no-op, not a rewind
  engine.run_until(3.0);
  EXPECT_GE(engine.now(), 10.0);
}

TEST(AsyncEngine, MessageRateMatchesTickRate) {
  const auto t = net::Topology::complete(8);
  const auto values = test::random_values(8, 3);
  auto masses = masses_from_values(values, Aggregate::kAverage);
  AsyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushSum;
  cfg.seed = 3;
  cfg.tick_rate = 2.0;
  AsyncEngine engine(t, masses, cfg);
  engine.run_until(200.0);
  // 8 nodes × rate 2 × 200 time units ≈ 3200 messages (Poisson, ±10%).
  EXPECT_NEAR(static_cast<double>(engine.messages_delivered()), 3200.0, 320.0);
}

TEST(AsyncEngine, RejectsNonFiniteRatesLatenciesAndFaultTimes) {
  // Every event time is computed from these; a NaN or an infinity has no
  // place in the event queue's order.
  const auto t = net::Topology::ring(4);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf}) {
    AsyncEngineConfig cfg;
    cfg.tick_rate = bad;
    EXPECT_THROW(AsyncEngine(t, masses, cfg), ContractViolation) << "tick_rate " << bad;
    cfg = {};
    cfg.latency_min = bad;
    EXPECT_THROW(AsyncEngine(t, masses, cfg), ContractViolation) << "latency_min " << bad;
    cfg = {};
    cfg.latency_max = bad;
    EXPECT_THROW(AsyncEngine(t, masses, cfg), ContractViolation) << "latency_max " << bad;
  }
  const auto plans = test::non_finite_fault_plans();
  ASSERT_FALSE(plans.empty());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    AsyncEngineConfig cfg;
    cfg.faults = plans[i];
    EXPECT_THROW(AsyncEngine(t, masses, cfg), ContractViolation) << "plan " << i;
  }
}

TEST(AsyncEngine, StarHubCrashWithZeroDetectionDelayFinishes) {
  // A hub crash queues two detector notices per edge, all due at the crash
  // instant when the detection delay is 0: the worst case for one bucket of
  // the event queue. Every spoke must be notified, and the oracle must
  // retarget to exactly the survivors' mass (no packet between two spokes
  // can be in flight: every edge touches the hub).
  const auto t = net::Topology::star(1000);
  FaultPlan faults;
  faults.node_crashes.push_back({6.0, 0});  // node 0 is the hub
  faults.detection_delay = 0.0;
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 13, faults);
  engine.run_until(7.0);
  ASSERT_FALSE(engine.node_alive(0));
  EXPECT_EQ(engine.fault_exposure().crashes, 1u);
  double survivor_mass = 0.0;
  double survivor_weight = 0.0;
  for (net::NodeId i = 1; i < t.size(); ++i) {
    EXPECT_EQ(engine.fleet().live_degree(i), 0u) << "spoke " << i << " missed its notice";
    const auto m = engine.fleet().local_mass(i);
    survivor_mass += m.s[0];
    survivor_weight += m.w;
  }
  EXPECT_NEAR(engine.oracle().target(), survivor_mass / survivor_weight, 1e-12);
  engine.run_until(10.0);  // the spokes tick on, isolated
  EXPECT_FALSE(engine.node_alive(0));
}

TEST(AsyncEngine, RejectsBadLatencyRange) {
  const auto t = net::Topology::ring(4);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  AsyncEngineConfig cfg;
  cfg.latency_min = 0.5;
  cfg.latency_max = 0.1;
  EXPECT_THROW(AsyncEngine(t, masses, cfg), ContractViolation);
}

}  // namespace
}  // namespace pcf::sim
