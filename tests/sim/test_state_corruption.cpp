// Memory soft errors: bits flip in STORED flow variables (as opposed to the
// in-transit packet corruption elsewhere in the suite). Contracts:
//  * push-flow and flow-updating heal completely — the corrupted variable is
//    overwritten by the next mirror, and no bookkeeping accumulates it;
//  * PCF/robust heals most flips: a flip is only baked in when it lands in
//    the completer's passive copy inside the window between alignment and
//    absorption (heavy-tailed but less frequent);
//  * PCF/fast bakes EVERY flip into its incremental ϕ (the delta enters at
//    the next mirror and never leaves) — the paper's Section III-A caveat
//    and the reason the robust variant exists;
//  * push-sum has no flow state to corrupt (hook returns false).
#include <gtest/gtest.h>

#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;

/// Runs a state-flip burst, then a clean recovery phase; returns the final
/// max error.
double error_after_memory_flips(Algorithm algorithm, core::PcfVariant variant,
                                std::uint64_t seed) {
  const auto t = net::Topology::hypercube(5);
  FaultPlan faults;
  faults.state_flip_prob = 0.01;
  core::ReducerConfig rc;
  rc.pcf_variant = variant;
  auto engine = test::make_engine(t, algorithm, Aggregate::kAverage, seed, faults, rc);
  engine.run(1500);
  EXPECT_GT(engine.stats().state_flips, 100u);
  engine.mutable_faults().state_flip_prob = 0.0;
  engine.run(2000);
  return engine.max_error();
}

TEST(StateCorruption, PushFlowHealsCompletely) {
  EXPECT_LT(error_after_memory_flips(Algorithm::kPushFlow, core::PcfVariant::kRobust, 3), 1e-10);
}

TEST(StateCorruption, FlowUpdatingHealsCompletely) {
  EXPECT_LT(error_after_memory_flips(Algorithm::kFlowUpdating, core::PcfVariant::kRobust, 3),
            1e-10);
}

TEST(StateCorruption, PcfFastBakesCorruptionIn) {
  // The per-seed residual bias is heavy-tailed (one sign-bit flip of a large
  // component dominates a run), so the contract is statistical over a fixed,
  // deterministic seed set: the fast variant's mean bias is well above the
  // robust variant's, and it is always permanently damaged in aggregate.
  double fast_total = 0.0;
  double robust_total = 0.0;
  for (const std::uint64_t seed : {1u, 4u, 5u, 6u, 7u, 8u}) {
    fast_total += error_after_memory_flips(Algorithm::kPushCancelFlow,
                                           core::PcfVariant::kFast, seed);
    robust_total += error_after_memory_flips(Algorithm::kPushCancelFlow,
                                             core::PcfVariant::kRobust, seed);
  }
  EXPECT_GT(fast_total, 1e-3);
  EXPECT_GT(fast_total, 2.0 * robust_total);
}

TEST(StateCorruption, SurvivorsStillReachConsensus) {
  // Even with baked-in bias, the network must agree on SOME value.
  const auto t = net::Topology::hypercube(4);
  FaultPlan faults;
  faults.state_flip_prob = 0.02;
  core::ReducerConfig rc;
  rc.pcf_variant = core::PcfVariant::kFast;
  auto engine = test::make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7, faults,
                                  rc);
  engine.run(800);
  engine.mutable_faults().state_flip_prob = 0.0;
  engine.run(2000);
  const auto est = engine.estimates();
  double spread = 0.0;
  for (double e : est) spread = std::max(spread, std::abs(e - est[0]));
  EXPECT_LT(spread, 1e-9 * std::max(1.0, std::abs(est[0])));
}

TEST(StateCorruption, PushSumHasNoFlowStateToCorrupt) {
  const auto one = core::Mass::scalar(1.0, 1.0);
  auto fleet = test::pair_fleet(Algorithm::kPushSum, one, one);
  Rng rng(1);
  const Rng before = rng;
  EXPECT_FALSE(fleet.corrupt_stored_flow(0, rng));
  EXPECT_EQ(rng(), Rng(before)());  // no draw either
}

TEST(StateCorruption, HookActuallyMutatesState) {
  const auto one = core::Mass::scalar(1.0, 1.0);
  auto fleet = test::pair_fleet(Algorithm::kPushFlow, one, one);
  Rng send_rng(1);
  (void)fleet.make_message(0, send_rng);  // put a nonzero value in the flow
  const double before = fleet.max_abs_flow_component(0);
  Rng rng(2);
  bool changed = false;
  for (int i = 0; i < 16 && !changed; ++i) {
    ASSERT_TRUE(fleet.corrupt_stored_flow(0, rng));
    changed = fleet.max_abs_flow_component(0) != before;
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace pcf::sim
