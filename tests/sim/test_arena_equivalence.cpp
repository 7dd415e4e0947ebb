// Differential suite: the sync engine's EngineMode chooses only the
// checkpoint row codec (kLegacy: dim-prefixed rows, kArena: raw rows) — both
// modes run the same ArenaFleet state. So the choice must leave every state
// bit alone for every algorithm, both delivery models, and every fault class:
// same flows, same masses, same estimates, same convergence rounds, same
// message counters. Any divergence, even in the last ulp, is a bug.
// make_reducer's lone node and a topology fleet's node are compared in
// tests/core/test_storage_policies.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Algorithm;
using core::PcfVariant;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Exact engine-state fingerprint: per live node, the bit patterns of its
/// conserved mass, estimate, every per-neighbor flow, and the protocol
/// counters the fleet exposes.
std::vector<std::uint64_t> fingerprint(const SyncEngine& engine, const net::Topology& t) {
  const core::ArenaFleet& fleet = engine.fleet();
  std::vector<std::uint64_t> fp;
  for (NodeId i = 0; i < t.size(); ++i) {
    fp.push_back(engine.node_alive(i) ? 1u : 0u);
    if (!engine.node_alive(i)) continue;
    const core::Mass m = fleet.local_mass(i);
    for (std::size_t k = 0; k < m.dim(); ++k) fp.push_back(bits_of(m.s[k]));
    fp.push_back(bits_of(m.w));
    fp.push_back(bits_of(fleet.estimate(i, 0)));
    fp.push_back(fleet.live_degree(i));
    fp.push_back(bits_of(fleet.max_abs_flow_component(i)));
    fp.push_back(fleet.role_swaps(i));
    std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> flows{};
    for (const NodeId j : t.neighbors(i)) {
      const std::size_t count = fleet.flows_toward(i, j, flows);
      fp.push_back(count);
      for (std::size_t q = 0; q < count; ++q) {
        for (std::size_t k = 0; k < flows[q].dim(); ++k) fp.push_back(bits_of(flows[q].s[k]));
        fp.push_back(bits_of(flows[q].w));
      }
    }
  }
  return fp;
}

void expect_stats_equal(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_flipped, b.messages_flipped);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.doubles_sent, b.doubles_sent);
  EXPECT_EQ(a.state_flips, b.state_flips);
  EXPECT_EQ(a.reached_target, b.reached_target);
}

struct EquivCase {
  Algorithm algorithm;
  PcfVariant pcf_variant = PcfVariant::kRobust;
  bool pf_cached = false;
  const char* label = "";
};

std::vector<EquivCase> equiv_cases() {
  return {
      {Algorithm::kPushSum, PcfVariant::kRobust, false, "ps"},
      {Algorithm::kPushFlow, PcfVariant::kRobust, false, "pf"},
      {Algorithm::kPushFlow, PcfVariant::kRobust, true, "pf_cached"},
      {Algorithm::kPushCancelFlow, PcfVariant::kRobust, false, "pcf_robust"},
      {Algorithm::kPushCancelFlow, PcfVariant::kFast, false, "pcf_fast"},
      {Algorithm::kFlowUpdating, PcfVariant::kRobust, false, "fu"},
      {Algorithm::kCorrectionAllreduce, PcfVariant::kRobust, false, "corr"},
      {Algorithm::kFuMassHybrid, PcfVariant::kRobust, false, "fumd"},
  };
}

std::string case_name(const ::testing::TestParamInfo<EquivCase>& info) {
  return info.param.label;
}

/// The fault classes of the differential contract. "lifecycle" schedules a
/// crash, a rejoin, a link failure, a heal, a false detection, and a live
/// data update on a 4x4 torus; "noise" turns on every probabilistic knob at
/// once (loss, flips, stored-state flips, duplicates, reordering, churn).
FaultPlan lifecycle_plan() {
  FaultPlan plan;
  plan.detection_delay = 1.0;
  plan.link_failures.push_back({4.0, 0, 1});
  plan.node_crashes.push_back({8.0, 5});
  plan.false_detects.push_back({11.0, 2, 3, 4.0});
  plan.data_updates.push_back({14.0, 9, core::Mass::scalar(0.25, 0.0)});
  plan.link_heals.push_back({18.0, 0, 1});
  plan.node_rejoins.push_back({24.0, 5});
  return plan;
}

FaultPlan noise_plan() {
  FaultPlan plan;
  plan.message_loss_prob = 0.05;
  plan.bit_flip_prob = 0.02;
  plan.state_flip_prob = 0.01;
  plan.duplicate_prob = 0.05;
  plan.reorder_prob = 0.05;
  plan.churn_fail_prob = 0.01;
  plan.churn_heal_rate = 0.2;
  plan.detection_delay = 1.0;
  return plan;
}

class ArenaEquivalence : public ::testing::TestWithParam<EquivCase> {
 protected:
  void run_differential(const net::Topology& topology, FaultPlan plan, Delivery delivery,
                        std::size_t rounds, std::uint64_t seed) {
    const EquivCase& c = GetParam();
    core::ReducerConfig reducer;
    reducer.pcf_variant = c.pcf_variant;
    reducer.pf_cached_flow_sum = c.pf_cached;

    const auto values = test::random_values(topology.size(), seed ^ 0xabcdef);
    std::vector<core::Mass> masses;
    for (std::size_t i = 0; i < values.size(); ++i) {
      masses.push_back(core::Mass::scalar(values[i], 1.0));
    }

    SyncEngineConfig cfg;
    cfg.algorithm = c.algorithm;
    cfg.reducer = reducer;
    cfg.faults = plan;
    cfg.seed = seed;
    cfg.delivery = delivery;
    cfg.invariants.enabled = true;

    SyncEngineConfig arena_cfg = cfg;
    arena_cfg.mode = EngineMode::kArena;

    SyncEngine legacy(topology, masses, cfg);
    SyncEngine arena(topology, masses, arena_cfg);
    // The mode reached each engine: it is the header's engine_mode byte.
    ASSERT_EQ(peek_checkpoint(legacy.save_checkpoint()).engine_mode, 0);
    ASSERT_EQ(peek_checkpoint(arena.save_checkpoint()).engine_mode, 1);

    for (std::size_t r = 0; r < rounds; ++r) {
      legacy.step();
      arena.step();
      ASSERT_EQ(fingerprint(legacy, topology), fingerprint(arena, topology))
          << "state diverged after round " << r + 1;
    }
    expect_stats_equal(legacy.stats(), arena.stats());
    EXPECT_EQ(legacy.perf().deliveries, arena.perf().deliveries);
    EXPECT_EQ(bits_of(legacy.max_error()), bits_of(arena.max_error()));
  }
};

TEST_P(ArenaEquivalence, CleanSequential) {
  run_differential(net::Topology::grid2d(4, 4, /*wrap=*/true), {}, Delivery::kSequential, 40, 11);
}

TEST_P(ArenaEquivalence, CleanCrossing) {
  run_differential(net::Topology::grid2d(4, 4, /*wrap=*/true), {}, Delivery::kCrossing, 40, 12);
}

TEST_P(ArenaEquivalence, LifecycleSequential) {
  run_differential(net::Topology::grid2d(4, 4, /*wrap=*/true), lifecycle_plan(), Delivery::kSequential, 40,
                   13);
}

TEST_P(ArenaEquivalence, LifecycleCrossing) {
  run_differential(net::Topology::grid2d(4, 4, /*wrap=*/true), lifecycle_plan(), Delivery::kCrossing, 40, 14);
}

TEST_P(ArenaEquivalence, NoiseSequential) {
  run_differential(net::Topology::grid2d(4, 4, /*wrap=*/true), noise_plan(), Delivery::kSequential, 40, 15);
}

TEST_P(ArenaEquivalence, NoiseCrossing) {
  run_differential(net::Topology::grid2d(4, 4, /*wrap=*/true), noise_plan(), Delivery::kCrossing, 40, 16);
}

TEST_P(ArenaEquivalence, IrregularTopologyConvergesIdentically) {
  // Same convergence round, not just same state: run-until-error on both.
  const EquivCase& c = GetParam();
  Rng topo_rng(77);
  const auto topology = net::Topology::parse("regular:24:4", topo_rng);
  core::ReducerConfig reducer;
  reducer.pcf_variant = c.pcf_variant;
  reducer.pf_cached_flow_sum = c.pf_cached;
  const auto values = test::random_values(topology.size(), 5);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], 1.0));
  }
  SyncEngineConfig cfg;
  cfg.algorithm = c.algorithm;
  cfg.reducer = reducer;
  cfg.seed = 21;
  cfg.invariants.enabled = true;
  SyncEngineConfig arena_cfg = cfg;
  arena_cfg.mode = EngineMode::kArena;
  SyncEngine legacy(topology, masses, cfg);
  SyncEngine arena(topology, masses, arena_cfg);
  const auto ls = legacy.run_until_error(1e-9, 2000);
  const auto as = arena.run_until_error(1e-9, 2000);
  EXPECT_TRUE(ls.reached_target);
  expect_stats_equal(ls, as);
  EXPECT_EQ(legacy.round(), arena.round());
  EXPECT_EQ(fingerprint(legacy, topology), fingerprint(arena, topology));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ArenaEquivalence, ::testing::ValuesIn(equiv_cases()),
                         case_name);

// ---- rejoin slot reuse (regression: rejoin must never grow the arena) ----

TEST(ArenaRejoin, RejoinedNodeReusesItsArenaRows) {
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  const auto values = test::random_values(topology.size(), 3);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], 1.0));
  }
  SyncEngineConfig cfg;
  cfg.algorithm = core::Algorithm::kPushCancelFlow;
  cfg.seed = 9;
  cfg.mode = EngineMode::kArena;
  cfg.invariants.enabled = true;
  cfg.faults.node_crashes.push_back({5.0, 6});
  cfg.faults.node_rejoins.push_back({15.0, 6});
  SyncEngine engine(topology, masses, cfg);

  const core::ArenaFleet* fleet_before = &engine.fleet();
  const std::size_t size_before = fleet_before->size();

  engine.run(12);
  ASSERT_FALSE(engine.node_alive(6));
  engine.run(8);
  ASSERT_TRUE(engine.node_alive(6));

  // Same fleet object, same node count — the node was reset in place.
  EXPECT_EQ(&engine.fleet(), fleet_before);
  EXPECT_EQ(engine.fleet().size(), size_before);
  // The node is live again and gossips from its initial mass.
  EXPECT_EQ(engine.fleet().live_degree(6), topology.neighbors(6).size());
  EXPECT_TRUE(std::isfinite(engine.fleet().estimate(6, 0)));
  engine.run(40);
  EXPECT_LT(engine.max_error(), 1e-6);
}

// Repeated churn/rejoin cycles: the arena never grows; state stays exactly
// equal between the two modes through every cycle (rejoin slot reuse is not
// just safe, it is bit-faithful).
TEST(ArenaRejoin, ChurnAndRepeatedRejoinsStayIdenticalToLegacy) {
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  const auto values = test::random_values(topology.size(), 8);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], 1.0));
  }
  FaultPlan plan;
  plan.churn_fail_prob = 0.02;
  plan.churn_heal_rate = 0.25;
  for (double t = 6.0; t < 60.0; t += 12.0) {
    plan.node_crashes.push_back({t, 10});
    plan.node_rejoins.push_back({t + 6.0, 10});
  }
  SyncEngineConfig cfg;
  cfg.algorithm = core::Algorithm::kFlowUpdating;
  cfg.faults = plan;
  cfg.seed = 31;
  cfg.invariants.enabled = true;
  SyncEngineConfig arena_cfg = cfg;
  arena_cfg.mode = EngineMode::kArena;
  SyncEngine legacy(topology, masses, cfg);
  SyncEngine arena(topology, masses, arena_cfg);
  for (std::size_t r = 0; r < 70; ++r) {
    legacy.step();
    arena.step();
    ASSERT_EQ(fingerprint(legacy, topology), fingerprint(arena, topology))
        << "diverged after round " << r + 1;
  }
  expect_stats_equal(legacy.stats(), arena.stats());
}

}  // namespace
}  // namespace pcf::sim
