// Seeded golden-trace regression: the first rounds of PCF on the paper's
// bus-network case study (Section II-B: v_1 = n+1, v_i = 1, unit weights),
// pinned bit for bit. The whole simulation is a pure function of the seed —
// any change to the gossip schedule, the PCF handshake, or the floating-point
// evaluation order shows up here as an exact mismatch long before it is big
// enough to move a convergence sweep.
//
// When a change to the engine or the reducer is INTENDED to alter the
// numerics, regenerate the table below by printing (estimate(0) of node 0,
// estimate(0) of node 7, oracle max error) for the first 12 rounds with this
// exact configuration.
#include <gtest/gtest.h>

#include <array>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf {
namespace {

struct GoldenRow {
  double node0_estimate;
  double node7_estimate;
  double max_error;
};

// PCF (robust variant), bus(8), seed 1, sequential delivery, average.
constexpr std::array<GoldenRow, 12> kGolden{{
    {9, 1, 3.5},
    {4.7894736842105265, 1, 1.3947368421052633},
    {4.0891089108910892, 1, 1.0445544554455446},
    {3.965034965034965, 1, 0.9825174825174825},
    {3.9362435381964387, 1.0084656084656085, 0.96812176909821934},
    {3.9362435381964387, 1.0084656084656085, 0.96812176909821934},
    {3.9362435381964387, 1.0084656084656085, 0.96812176909821934},
    {3.358466812090994, 1.0110902313545485, 0.67923340604549698},
    {3.3153489842446064, 1.0110902313545485, 0.65767449212230322},
    {3.3063958924452179, 1.0121336846550524, 0.65319794622260896},
    {3.3063958924452179, 1.0122534664004381, 0.65319794622260896},
    {3.3063958924452179, 1.0122794696241839, 0.65319794622260896},
}};

TEST(GoldenTrace, PcfOnTheBusCaseStudyIsBitStable) {
  const auto masses = test::bus_case_study_masses(8);
  sim::SyncEngineConfig config;
  config.algorithm = core::Algorithm::kPushCancelFlow;
  config.seed = 1;
  config.invariants.enabled = true;
  sim::SyncEngine engine(net::Topology::bus(8), masses, config);

  ASSERT_DOUBLE_EQ(engine.oracle().target(), 2.0);  // (n+1 + 7·1) / 8
  for (std::size_t round = 0; round < kGolden.size(); ++round) {
    engine.step();
    // Exact binary equality, not near: the trace is deterministic.
    EXPECT_EQ(engine.fleet().estimate(0), kGolden[round].node0_estimate) << "round " << round + 1;
    EXPECT_EQ(engine.fleet().estimate(7), kGolden[round].node7_estimate) << "round " << round + 1;
    EXPECT_EQ(engine.max_error(), kGolden[round].max_error) << "round " << round + 1;
  }
}

// Correction allreduce, bus(8) (chain tree rooted at node 0), seed 1,
// sequential delivery, average. The early rows show the protocol's transient
// honestly: the root's FIRST published global view is its own input (9), and
// that stale view reaches the far leaf before the corrected one does — the
// periodic absolute resends then overwrite it (error is relative to the
// target 2, hence 3.5 = |9-2|/2 while the leaf still holds the stale view).
constexpr std::array<GoldenRow, 12> kGoldenCorrection{{
    {9, 1, 3.5},
    {3.6666666666666665, 1, 3.5},
    {3.6666666666666665, 1, 3.5},
    {3.6666666666666665, 1, 3.5},
    {3.6666666666666665, 9, 3.5},
    {3.6666666666666665, 9, 3.5},
    {3.6666666666666665, 9, 3.5},
    {2, 9, 3.5},
    {2, 9, 3.5},
    {2, 9, 3.5},
    {2, 9, 3.5},
    {2, 9, 3.5},
}};

TEST(GoldenTrace, CorrectionAllreduceOnTheBusCaseStudyIsBitStable) {
  const auto masses = test::bus_case_study_masses(8);
  sim::SyncEngineConfig config;
  config.algorithm = core::Algorithm::kCorrectionAllreduce;
  config.seed = 1;
  config.invariants.enabled = true;
  sim::SyncEngine engine(net::Topology::bus(8), masses, config);

  for (std::size_t round = 0; round < kGoldenCorrection.size(); ++round) {
    engine.step();
    EXPECT_EQ(engine.fleet().estimate(0), kGoldenCorrection[round].node0_estimate)
        << "round " << round + 1;
    EXPECT_EQ(engine.fleet().estimate(7), kGoldenCorrection[round].node7_estimate)
        << "round " << round + 1;
    EXPECT_EQ(engine.max_error(), kGoldenCorrection[round].max_error) << "round " << round + 1;
  }
}

// FU/MD hybrid, bus(8), seed 1, sequential delivery, average. The pairwise
// halving is visible immediately: node 0 jumps 9 → 5 the first time it halves
// against a neighbor's reported mass of 1.
constexpr std::array<GoldenRow, 12> kGoldenHybrid{{
    {9, 1, 3.5},
    {5, 1, 1.5},
    {5, 1, 1.5},
    {5, 1, 1.5},
    {5, 1, 1.5},
    {5, 1, 1.5},
    {5, 1, 1.5},
    {3.75, 1, 0.875},
    {3.75, 1, 0.875},
    {3.75, 1, 0.875},
    {3.75, 1, 0.875},
    {3.75, 1, 0.875},
}};

TEST(GoldenTrace, FuMassHybridOnTheBusCaseStudyIsBitStable) {
  const auto masses = test::bus_case_study_masses(8);
  sim::SyncEngineConfig config;
  config.algorithm = core::Algorithm::kFuMassHybrid;
  config.seed = 1;
  config.invariants.enabled = true;
  sim::SyncEngine engine(net::Topology::bus(8), masses, config);

  for (std::size_t round = 0; round < kGoldenHybrid.size(); ++round) {
    engine.step();
    EXPECT_EQ(engine.fleet().estimate(0), kGoldenHybrid[round].node0_estimate)
        << "round " << round + 1;
    EXPECT_EQ(engine.fleet().estimate(7), kGoldenHybrid[round].node7_estimate)
        << "round " << round + 1;
    EXPECT_EQ(engine.max_error(), kGoldenHybrid[round].max_error) << "round " << round + 1;
  }
}

// The same schedule must be drawn for a different algorithm with the same
// seed (the paper's "exactly the same random seed" comparability device) —
// pin push-flow's first round too, which shares the round-1 schedule.
TEST(GoldenTrace, SameSeedSameFirstRoundScheduleAcrossAlgorithms) {
  const auto masses = test::bus_case_study_masses(8);
  sim::SyncEngineConfig config;
  config.seed = 1;
  config.invariants.enabled = true;

  config.algorithm = core::Algorithm::kPushCancelFlow;
  sim::SyncEngine pcf_engine(net::Topology::bus(8), masses, config);
  config.algorithm = core::Algorithm::kPushFlow;
  sim::SyncEngine pf_engine(net::Topology::bus(8), masses, config);

  pcf_engine.step();
  pf_engine.step();
  // Round 1 of PF on the same schedule is numerically identical to PCF: every
  // edge is still in its first steady phase, where PCF degenerates to PF.
  for (net::NodeId i = 0; i < 8; ++i) {
    EXPECT_EQ(pf_engine.fleet().estimate(i), pcf_engine.fleet().estimate(i)) << "node " << i;
  }
}

}  // namespace
}  // namespace pcf
