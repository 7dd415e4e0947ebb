#include <gtest/gtest.h>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(FlowUpdating, ConvergesToAverageOnHypercube) {
  const auto t = net::Topology::hypercube(5);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 7);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FlowUpdating, ConvergesToSumViaRatioOfAverages) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kSum, 3);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FlowUpdating, ConvergesOnRing) {
  const auto t = net::Topology::ring(10);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 5);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FlowUpdating, ConservedMassIsInvariant) {
  const auto t = net::Topology::ring(8);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 11);
  const auto before = total_mass(engine);
  engine.run(100);
  const auto after = total_mass(engine);
  EXPECT_NEAR(after.s[0], before.s[0], 1e-10);
  EXPECT_NEAR(after.w, before.w, 1e-10);
}

TEST(FlowUpdating, SurvivesMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 5, faults);
  engine.run(3000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(FlowUpdating, SurvivesLinkFailure) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({50.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 7, faults);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(FlowUpdating, RetransmissionIsIdempotent) {
  const auto a = make_reducer(Algorithm::kFlowUpdating);
  const auto b1 = make_reducer(Algorithm::kFlowUpdating);
  const auto b2 = make_reducer(Algorithm::kFlowUpdating);
  const std::vector<NodeId> na{1}, nb{0};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  b1->init(1, nb, Mass::scalar(0.0, 1.0));
  b2->init(1, nb, Mass::scalar(0.0, 1.0));
  const auto first = a->make_message_to(1);
  const auto second = a->make_message_to(1);
  b1->on_receive(0, first->packet);
  b1->on_receive(0, second->packet);
  b2->on_receive(0, second->packet);
  EXPECT_EQ(b1->local_mass(), b2->local_mass());
  EXPECT_DOUBLE_EQ(b1->estimate(), b2->estimate());
}

TEST(FlowUpdating, FusedEstimateUsesNeighborReports) {
  const auto a = make_reducer(Algorithm::kFlowUpdating);
  const std::vector<NodeId> na{1};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  EXPECT_DOUBLE_EQ(a->estimate(), 6.0);  // no reports yet: own mass only
  Packet p;
  p.a = Mass::zero(1);               // no flow
  p.b = Mass::scalar(2.0, 1.0);      // neighbor reports estimate 2
  a->on_receive(1, p);
  EXPECT_DOUBLE_EQ(a->estimate(), 4.0);  // (6 + 2) / 2
}

TEST(FlowUpdating, LinkDownDiscardsNeighborState) {
  const auto a = make_reducer(Algorithm::kFlowUpdating);
  const std::vector<NodeId> na{1, 2};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  Packet p;
  p.a = Mass::scalar(1.0, 0.0);
  p.b = Mass::scalar(2.0, 1.0);
  a->on_receive(1, p);
  a->on_link_down(1);
  // Flow and estimate from node 1 are gone: mass back to the initial value.
  EXPECT_DOUBLE_EQ(a->local_mass().s[0], 6.0);
  EXPECT_DOUBLE_EQ(a->estimate(), 6.0);
}

}  // namespace
}  // namespace pcf::core
