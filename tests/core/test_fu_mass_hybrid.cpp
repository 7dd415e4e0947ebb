#include <gtest/gtest.h>

#include <vector>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(FuMassHybrid, ConvergesToAverageOnHypercube) {
  const auto t = net::Topology::hypercube(5);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 7);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FuMassHybrid, ConvergesToSumViaRatioOfAverages) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kSum, 3);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FuMassHybrid, ConvergesOnRing) {
  const auto t = net::Topology::ring(10);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 5);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FuMassHybrid, ConservedMassIsInvariant) {
  const auto t = net::Topology::ring(8);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 11);
  const auto before = total_mass(engine);
  engine.run(100);
  const auto after = total_mass(engine);
  EXPECT_NEAR(after.s[0], before.s[0], 1e-10);
  EXPECT_NEAR(after.w, before.w, 1e-10);
}

TEST(FuMassHybrid, SurvivesMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 5, faults);
  engine.run(3000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(FuMassHybrid, SurvivesLinkFailure) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({50.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 7, faults);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(FuMassHybrid, PairwiseStepHalvesTheReportedGap) {
  // MD's two-node step through FU's flow bookkeeping: once a knows b's mass,
  // a single exchange equalizes both at the pairwise average.
  const auto a = make_reducer(Algorithm::kFuMassHybrid);
  const auto b = make_reducer(Algorithm::kFuMassHybrid);
  const std::vector<NodeId> na{1}, nb{0};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  b->init(1, nb, Mass::scalar(0.0, 1.0));
  // b reports first (no halving yet: no report of a's mass held).
  const auto hello = b->make_message_to(0);
  ASSERT_TRUE(hello.has_value());
  a->on_receive(1, hello->packet);
  EXPECT_DOUBLE_EQ(a->local_mass().s[0], 6.0);
  // a now halves the gap: Δ = (6 − 0) / 2 = 3 moves through the edge flow.
  const auto step = a->make_message_to(1);
  ASSERT_TRUE(step.has_value());
  EXPECT_DOUBLE_EQ(a->local_mass().s[0], 3.0);
  b->on_receive(0, step->packet);
  EXPECT_DOUBLE_EQ(b->local_mass().s[0], 3.0);
  // No mass was created or destroyed on the way.
  EXPECT_DOUBLE_EQ(a->local_mass().s[0] + b->local_mass().s[0], 6.0);
}

TEST(FuMassHybrid, RetransmissionIsIdempotent) {
  const auto a = make_reducer(Algorithm::kFuMassHybrid);
  const auto b1 = make_reducer(Algorithm::kFuMassHybrid);
  const auto b2 = make_reducer(Algorithm::kFuMassHybrid);
  const std::vector<NodeId> na{1}, nb{0};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  b1->init(1, nb, Mass::scalar(0.0, 1.0));
  b2->init(1, nb, Mass::scalar(0.0, 1.0));
  const auto first = a->make_message_to(1);
  const auto second = a->make_message_to(1);
  ASSERT_TRUE(first.has_value() && second.has_value());
  b1->on_receive(0, first->packet);
  b1->on_receive(0, second->packet);
  b2->on_receive(0, second->packet);
  // Absolute flows: the duplicate delivery changes nothing.
  EXPECT_EQ(b1->local_mass(), b2->local_mass());
  EXPECT_DOUBLE_EQ(b1->estimate(), b2->estimate());
}

TEST(FuMassHybrid, LinkDownRestoresMovedMass) {
  const auto a = make_reducer(Algorithm::kFuMassHybrid);
  const std::vector<NodeId> na{1, 2};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  Packet p;
  p.a = Mass::zero(1);
  p.b = Mass::scalar(0.0, 1.0);  // neighbor 1 reports zero mass
  a->on_receive(1, p);
  const auto step = a->make_message_to(1);
  ASSERT_TRUE(step.has_value());
  EXPECT_DOUBLE_EQ(a->local_mass().s[0], 3.0);  // half the gap moved out
  a->on_link_down(1);
  // The excluded edge's flow is forgotten: the moved mass folds back.
  EXPECT_DOUBLE_EQ(a->local_mass().s[0], 6.0);
  EXPECT_DOUBLE_EQ(a->estimate(), 6.0);
}

TEST(FuMassHybrid, StaleReportStillConservesMass) {
  // The paper's point: halving against a stale report is a worse step but a
  // SAFE one — the flow discipline conserves Σ m regardless.
  const auto a = make_reducer(Algorithm::kFuMassHybrid);
  const auto b = make_reducer(Algorithm::kFuMassHybrid);
  const std::vector<NodeId> na{1}, nb{0};
  a->init(0, na, Mass::scalar(8.0, 1.0));
  b->init(1, nb, Mass::scalar(2.0, 1.0));
  const auto hello = b->make_message_to(0);
  ASSERT_TRUE(hello.has_value());
  a->on_receive(1, hello->packet);
  // Two sends from a against the SAME report of b (b never answers): the
  // second halving uses stale data, yet a + b stays 10 after each delivery.
  for (int i = 0; i < 2; ++i) {
    const auto step = a->make_message_to(1);
    ASSERT_TRUE(step.has_value());
    b->on_receive(0, step->packet);
    EXPECT_NEAR(a->local_mass().s[0] + b->local_mass().s[0], 10.0, 1e-12);
  }
}

}  // namespace
}  // namespace pcf::core
