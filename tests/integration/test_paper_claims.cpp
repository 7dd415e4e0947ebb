// Shape-level reproductions of the paper's experimental claims, small enough
// to run in the test suite (the full sweeps live in bench/).
#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/metrics.hpp"
#include "sim/reduce.hpp"
#include "sim/schedule.hpp"
#include "test_util.hpp"

namespace pcf {
namespace {

using core::Aggregate;
using core::Algorithm;
using test::make_engine;

/// Best (minimum over rounds) max local error seen during a run — the
/// "globally achievable accuracy" of Figs. 3/6.
double best_accuracy(sim::SyncEngine& engine, std::size_t rounds) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < rounds; ++r) {
    engine.step();
    best = std::min(best, engine.max_error());
  }
  return best;
}

TEST(PaperClaims, Fig3PfAccuracyDegradesWithScale) {
  // Fig. 3: PF's achievable accuracy gets worse with increasing n.
  const auto small = net::Topology::hypercube(3);
  const auto large = net::Topology::hypercube(9);
  auto e_small = make_engine(small, Algorithm::kPushFlow, Aggregate::kAverage, 7);
  auto e_large = make_engine(large, Algorithm::kPushFlow, Aggregate::kAverage, 7);
  const double acc_small = best_accuracy(e_small, 2000);
  const double acc_large = best_accuracy(e_large, 2000);
  EXPECT_GT(acc_large, 5.0 * acc_small);
}

TEST(PaperClaims, Fig6PcfAccuracyStaysNearMachinePrecision) {
  // Fig. 6: PCF reaches ~1e-15 across scales.
  for (const std::size_t dims : {3u, 6u, 9u}) {
    const auto t = net::Topology::hypercube(dims);
    auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7);
    EXPECT_LT(best_accuracy(engine, 2000), 2e-14) << "dims " << dims;
  }
}

TEST(PaperClaims, Fig6WorstCaseGrowthIsAGossipScheduleEffect) {
  // Fig. 6's worst-case PCF error grows mildly with n under random gossip
  // because a node's weight transiently starves (it pushes halves without
  // being picked). A synchronized matching schedule, where every node sends
  // and receives every round, reaches a lower best max error on the same
  // inputs: the growth is the schedule's, not PCF's.
  constexpr std::size_t kDims = 9;
  constexpr std::uint64_t kSeed = 7;
  const auto t = net::Topology::hypercube(kDims);
  const auto values = test::random_values(t.size(), kSeed);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], core::initial_weight(Aggregate::kAverage, i)));
  }

  sim::SyncEngineConfig config;
  config.algorithm = Algorithm::kPushCancelFlow;
  config.seed = kSeed;
  config.invariants.enabled = true;
  sim::SyncEngine gossip(t, masses, config);
  const double gossip_best = best_accuracy(gossip, 2000);

  sim::MatchingScheduleRunner matching(t, masses, Algorithm::kPushCancelFlow,
                                       sim::hypercube_matchings(kDims));
  const sim::Oracle oracle(masses);
  double matching_best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 2000; ++round) {
    matching.run(1);
    double worst = 0.0;
    for (const double e : matching.estimates()) worst = std::max(worst, oracle.error_of(e));
    matching_best = std::min(matching_best, worst);
  }
  EXPECT_LT(matching_best, gossip_best);
}

TEST(PaperClaims, Fig4VsFig7FailureRecovery) {
  // Figs. 4/7 joint setup: 6D hypercube, single permanent link failure
  // handled at iteration 75, 200 iterations, same seed for both algorithms.
  const auto t = net::Topology::hypercube(6);
  const auto edges = t.edges();
  sim::FaultPlan faults;
  faults.link_failures.push_back({75.0, edges[42].first, edges[42].second});

  auto pf = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 12, faults);
  auto pcf = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 12, faults);

  std::vector<double> pf_err, pcf_err;
  for (int round = 0; round < 200; ++round) {
    pf.step();
    pcf.step();
    pf_err.push_back(pf.max_error());
    pcf_err.push_back(pcf.max_error());
  }
  // Identical trajectories before the failure (same schedule).
  for (int round = 0; round < 74; ++round) {
    EXPECT_NEAR(pf_err[static_cast<std::size_t>(round)],
                pcf_err[static_cast<std::size_t>(round)],
                1e-6 + 0.02 * pf_err[static_cast<std::size_t>(round)]);
  }
  // PF falls back by orders of magnitude right after the failure handling…
  EXPECT_GT(pf_err[80], 1e3 * pf_err[73]);
  // …PCF stays within a small factor of its pre-failure error and never
  // falls back to O(1).
  EXPECT_LT(pcf_err[80], 1e4 * pcf_err[73] + 1e-15);
  EXPECT_LT(pcf_err[80], 1e-3);
  // And 200 iterations are not enough for PF to recover to PCF's accuracy.
  EXPECT_GT(pf_err[199], 10.0 * pcf_err[199]);
}

TEST(PaperClaims, SectionIIIFlowMagnitudesExplainAccuracy) {
  // The mechanism: PF flow magnitudes outgrow PCF's by a large factor on the
  // same workload — cancellation keeps PCF flows at the data scale.
  const auto t = net::Topology::hypercube(8);
  auto pf = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 3);
  auto pcf = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 3);
  pf.run(2000);
  pcf.run(2000);
  EXPECT_GT(pf.max_abs_flow(), 4.0 * pcf.max_abs_flow());
}

TEST(PaperClaims, PushSumDivergesUnderLossWhereFlowsRecover) {
  // Section II-A: mass conservation is global for push-sum (one lost message
  // destroys the result) but local for flow algorithms.
  const auto t = net::Topology::hypercube(5);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.05;
  auto ps = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 31, faults);
  auto pcf = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 31, faults);
  ps.run(1500);
  pcf.run(1500);
  EXPECT_GT(ps.max_error(), 1e-6);
  EXPECT_LT(pcf.max_error(), 1e-11);
}

}  // namespace
}  // namespace pcf
