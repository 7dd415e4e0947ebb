#include "sim/engine_sync.hpp"

#include <gtest/gtest.h>

#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;
using test::make_engine;

TEST(SyncEngine, RejectsMismatchedInitialMasses) {
  const auto t = net::Topology::ring(4);
  const std::vector<core::Mass> masses(3, core::Mass::scalar(1.0, 1.0));
  SyncEngineConfig cfg;
  EXPECT_THROW(SyncEngine(t, masses, cfg), ContractViolation);
}

TEST(SyncEngine, RejectsDisconnectedTopology) {
  const std::vector<std::pair<net::NodeId, net::NodeId>> edges{{0, 1}, {2, 3}};
  const auto t = net::Topology::from_edges(4, edges);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  SyncEngineConfig cfg;
  EXPECT_THROW(SyncEngine(t, masses, cfg), ContractViolation);
}

TEST(SyncEngine, RejectsUnknownLinkInFaultPlan) {
  const auto t = net::Topology::ring(4);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  SyncEngineConfig cfg;
  cfg.faults.link_failures.push_back({1.0, 0, 2});  // ring(4): no edge 0-2
  EXPECT_THROW(SyncEngine(t, masses, cfg), ContractViolation);
}

TEST(SyncEngine, RejectsNonFiniteFaultTimes) {
  // The engine sorts the scheduled events by time, and a NaN breaks the
  // sort's comparator.
  const auto t = net::Topology::ring(4);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  const auto plans = test::non_finite_fault_plans();
  ASSERT_FALSE(plans.empty());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SyncEngineConfig cfg;
    cfg.faults = plans[i];
    EXPECT_THROW(SyncEngine(t, masses, cfg), ContractViolation) << "plan " << i;
  }
}

TEST(SyncEngine, RejectsAnyShardCountButOne) {
  // The round loop is serial; a config that asks for threads (or for the
  // hardware count, 0) must not construct an engine that silently ignores it.
  const auto t = net::Topology::ring(4);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  SyncEngineConfig cfg;
  for (const std::size_t shards : {0u, 2u, 4u}) {
    cfg.shards = shards;
    EXPECT_THROW(SyncEngine(t, masses, cfg), ContractViolation) << "shards=" << shards;
  }
  cfg.shards = 1;
  EXPECT_NO_THROW(SyncEngine(t, masses, cfg));
}

TEST(SyncEngine, DeterministicAcrossRuns) {
  const auto t = net::Topology::hypercube(4);
  auto a = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 33);
  auto b = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 33);
  a.run(100);
  b.run(100);
  const auto ea = a.estimates();
  const auto eb = b.estimates();
  for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);  // bit-identical
}

TEST(SyncEngine, ScansRejectAnOutOfRangeComponent) {
  // Regression: estimates(k) with k >= dim read past the node's rows in
  // NDEBUG builds (the estimate kernel only asserts k < dim) and returned
  // garbage; max_error(k) threw only after that read.
  const auto t = net::Topology::ring(8);
  for (const auto mode : test::kEngineModes) {
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 3, {}, {}, mode);
    engine.run(5);
    EXPECT_EQ(engine.estimates(0).size(), t.size());
    EXPECT_THROW((void)engine.estimates(1), ContractViolation);
    EXPECT_THROW((void)engine.estimates(3), ContractViolation);
    EXPECT_THROW((void)engine.max_error(1), ContractViolation);
    EXPECT_THROW((void)engine.median_error(1), ContractViolation);
    EXPECT_THROW((void)engine.error_quantile(0.9, 1), ContractViolation);
    EXPECT_THROW((void)engine.sample(1), ContractViolation);
  }
}

TEST(SyncEngine, DifferentSeedsGiveDifferentSchedules) {
  const auto t = net::Topology::hypercube(4);
  auto a = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 1);
  auto b = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 2);
  a.run(10);
  b.run(10);
  EXPECT_NE(a.estimates(), b.estimates());
}

TEST(SyncEngine, SameSeedSameScheduleAcrossAlgorithms) {
  // The property behind Figs. 4 vs 7: PF and PCF runs with the same seed use
  // identical communication schedules, so their trajectories agree (to
  // rounding) until a failure is handled.
  const auto t = net::Topology::hypercube(5);
  auto pf = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 99);
  auto pcf = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 99);
  pf.run(40);
  pcf.run(40);
  const auto epf = pf.estimates();
  const auto epcf = pcf.estimates();
  for (std::size_t i = 0; i < epf.size(); ++i) EXPECT_NEAR(epf[i], epcf[i], 1e-10);
}

TEST(SyncEngine, MessageCountersAreConsistent) {
  const auto t = net::Topology::ring(6);
  FaultPlan faults;
  faults.message_loss_prob = 0.5;
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5, faults);
  engine.run(100);
  const auto& s = engine.stats();
  EXPECT_EQ(s.messages_sent, 600u);  // 6 nodes × 100 rounds
  EXPECT_GT(s.messages_dropped, 200u);
  EXPECT_LT(s.messages_dropped, 400u);
  EXPECT_EQ(s.messages_flipped, 0u);
}

TEST(SyncEngine, RunUntilErrorStopsEarly) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5);
  const auto stats = engine.run_until_error(1e-6, 10000);
  EXPECT_TRUE(stats.reached_target);
  EXPECT_LT(stats.rounds, 1000u);
  EXPECT_LE(engine.max_error(), 1e-6);
}

TEST(SyncEngine, RunUntilErrorHonorsCap) {
  const auto t = net::Topology::ring(16);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 5);
  const auto stats = engine.run_until_error(1e-30, 50);  // unreachable target
  EXPECT_FALSE(stats.reached_target);
  EXPECT_EQ(engine.round(), 50u);
}

TEST(SyncEngine, LinkFailureCutsTransportBeforeDetection) {
  // With a detection delay, packets die on the failed link while senders
  // still select it — messages_dropped grows without any loss probability.
  const auto t = net::Topology::bus(2);
  FaultPlan faults;
  faults.detection_delay = 50.0;
  faults.link_failures.push_back({10.0, 0, 1});
  const std::vector<core::Mass> masses{core::Mass::scalar(1.0, 1.0),
                                       core::Mass::scalar(3.0, 1.0)};
  SyncEngineConfig cfg;
  cfg.algorithm = core::Algorithm::kPushFlow;
  cfg.faults = faults;
  cfg.seed = 1;
  SyncEngine engine(t, masses, cfg);
  engine.run(30);
  EXPECT_GT(engine.stats().messages_dropped, 10u);
  // Detection has not fired yet: nodes still think the link is alive.
  EXPECT_EQ(engine.fleet().live_degree(0), 1u);
  engine.run(40);  // past round 60 = failure(10) + delay(50)
  EXPECT_EQ(engine.fleet().live_degree(0), 0u);
}

TEST(SyncEngine, NodeCrashRemovesNodeFromEstimates) {
  const auto t = net::Topology::hypercube(3);
  FaultPlan faults;
  faults.node_crashes.push_back({5.0, 3});
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5, faults);
  engine.run(20);
  EXPECT_FALSE(engine.node_alive(3));
  EXPECT_EQ(engine.estimates().size(), 7u);
}

TEST(SyncEngine, OracleRetargetsAfterCrash) {
  const auto t = net::Topology::hypercube(3);
  FaultPlan faults;
  faults.node_crashes.push_back({5.0, 0});
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 5, faults);
  const double before = engine.oracle().target();
  engine.run(600);
  const double after = engine.oracle().target();
  EXPECT_NE(before, after);
  // Survivors agree on the retargeted aggregate.
  EXPECT_LT(engine.max_error(), 1e-11);
}

TEST(SyncEngine, SampleReportsConsistentStatistics) {
  const auto t = net::Topology::ring(8);
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5);
  engine.run(10);
  const auto p = engine.sample();
  EXPECT_EQ(p.time, 10.0);
  EXPECT_GE(p.max_error, p.median_error);
  EXPECT_GE(p.max_error, p.mean_error);
  EXPECT_DOUBLE_EQ(p.max_error, engine.max_error());
  EXPECT_DOUBLE_EQ(p.median_error, engine.median_error());
  EXPECT_DOUBLE_EQ(p.max_abs_flow, engine.max_abs_flow());
}

TEST(SyncEngine, MutableFaultsChangeProbabilitiesMidRun) {
  const auto t = net::Topology::ring(6);
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5);
  engine.run(50);
  EXPECT_EQ(engine.stats().messages_dropped, 0u);
  engine.mutable_faults().message_loss_prob = 1.0;  // blackout
  engine.run(50);
  EXPECT_EQ(engine.stats().messages_dropped, 300u);  // 6 nodes x 50 rounds
  engine.mutable_faults().message_loss_prob = 0.0;
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-10);  // fully recovered after the blackout
}

TEST(SyncEngine, CrossingModeStillConvergesForPushFlow) {
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 5);
  auto masses = masses_from_values(values, Aggregate::kAverage);
  SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;
  cfg.seed = 5;
  cfg.delivery = Delivery::kCrossing;
  SyncEngine engine(t, masses, cfg);
  engine.run(1000);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(SyncEngine, StarHubCrashFloodsNoticesAndRetargetsExactly) {
  // A hub crash produces one exclusion notice per incident edge — 2(n−1)
  // notices all due the same round, the worst case for the notification
  // queue (its compaction used to be quadratic). All spokes must be
  // notified, and the oracle must retarget to exactly the survivors' mass.
  const auto t = net::Topology::star(24);
  FaultPlan faults;
  faults.node_crashes.push_back({6.0, 0});  // node 0 is the hub
  faults.detection_delay = 2.0;
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 13, faults);
  engine.run(6);
  EXPECT_TRUE(engine.node_alive(0));
  engine.run(1);  // round 7 fires the crash; notices due at round 8
  EXPECT_FALSE(engine.node_alive(0));
  EXPECT_EQ(engine.fleet().live_degree(1), 1u);  // not yet notified
  engine.run(2);
  double survivor_mass = 0.0, survivor_weight = 0.0;
  for (net::NodeId i = 1; i < t.size(); ++i) {
    EXPECT_EQ(engine.fleet().live_degree(i), 0u) << "spoke " << i << " missed its notice";
    const auto m = engine.fleet().local_mass(i);
    survivor_mass += m.s[0];
    survivor_weight += m.w;
  }
  EXPECT_NEAR(engine.oracle().target(), survivor_mass / survivor_weight, 1e-12);
}

TEST(SyncEngine, CrossingModeCrashRetargetsAfterWireDrains) {
  // In crossing mode a round's packets are all in flight together and mirror
  // stale flows, so the survivors' mass sum at the round boundary right
  // after a crash is transiently off. The retarget is deferred until the
  // current round's wire has drained; survivors then reach consensus near
  // the retargeted value.
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 21 ^ 0xabcdef);
  auto masses = masses_from_values(values, Aggregate::kAverage);
  SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;
  cfg.seed = 21;
  cfg.delivery = Delivery::kCrossing;
  cfg.faults.node_crashes.push_back({25.0, 5});
  SyncEngine engine(t, masses, cfg);
  const double before = engine.oracle().target();
  engine.run(2000);
  EXPECT_FALSE(engine.node_alive(5));
  EXPECT_NE(engine.oracle().target(), before);
  const auto est = engine.estimates();
  double spread = 0.0;
  for (double v : est) spread = std::max(spread, std::abs(v - est[0]));
  EXPECT_LT(spread, 1e-10);  // consensus among survivors
  // Any crossing-mode crash snapshot is an approximation: the crossing
  // exchanges break exact pairwise flow antisymmetry mid-convergence, and
  // absorbing the flows toward the dead node (when the delayed notices fire)
  // shifts the survivors' conserved total slightly. Seed 21 lands at ~1.7e-3
  // with the post-drain snapshot; the bound pins that the deferred retarget
  // stays in that regime instead of diverging.
  EXPECT_LT(engine.max_error(), 5e-3);
}

TEST(SyncEngine, DetectionDelayZeroMatchesPaperSetup) {
  // With zero delay the failure is handled in the round it occurs, which is
  // the paper's "failure handling takes place after N iterations".
  const auto t = net::Topology::hypercube(3);
  FaultPlan faults;
  faults.link_failures.push_back({10.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5, faults);
  engine.run(10);
  EXPECT_EQ(engine.fleet().live_degree(0), 3u);
  engine.run(1);  // round 11 processes the failure due at t=10
  EXPECT_EQ(engine.fleet().live_degree(0), 2u);
  EXPECT_EQ(engine.fleet().live_degree(1), 2u);
}

}  // namespace
}  // namespace pcf::sim
