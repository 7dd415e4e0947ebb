#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(PushSum, InitRejectsDoubleInit) {
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1};
  node->init(0, nb, Mass::scalar(1.0, 1.0));
  EXPECT_THROW(node->init(0, nb, Mass::scalar(1.0, 1.0)), ContractViolation);
}

TEST(PushSum, InitRejectsEmptyNeighborhood) {
  const auto node = make_reducer(Algorithm::kPushSum);
  EXPECT_THROW(node->init(0, {}, Mass::scalar(1.0, 1.0)), ContractViolation);
}

TEST(PushSum, SendPushesHalfTheMass) {
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1};
  node->init(0, nb, Mass::scalar(8.0, 2.0));
  Rng rng(1);
  const auto out = node->make_message(rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->to, 1u);
  EXPECT_DOUBLE_EQ(out->packet.a.s[0], 4.0);
  EXPECT_DOUBLE_EQ(out->packet.a.w, 1.0);
  EXPECT_DOUBLE_EQ(node->local_mass().s[0], 4.0);
}

TEST(PushSum, ReceiveAddsMass) {
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1};
  node->init(0, nb, Mass::scalar(1.0, 1.0));
  Packet p;
  p.a = Mass::scalar(3.0, 1.0);
  node->on_receive(1, p);
  EXPECT_DOUBLE_EQ(node->local_mass().s[0], 4.0);
  EXPECT_DOUBLE_EQ(node->estimate(), 2.0);
}

TEST(PushSum, IgnoresPacketsFromStrangers) {
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1};
  node->init(0, nb, Mass::scalar(1.0, 1.0));
  Packet p;
  p.a = Mass::scalar(100.0, 1.0);
  node->on_receive(42, p);
  EXPECT_DOUBLE_EQ(node->local_mass().s[0], 1.0);
}

TEST(PushSum, RejectsPacketOfAnotherDimension) {
  // A dim-2 share cannot join a dim-1 mass: receive uses the acceptance test
  // of unreceived_mass, which already reported such a packet as carrying
  // nothing.
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1};
  node->init(0, nb, Mass::scalar(4.0, 1.0));
  Packet p;
  p.a = Mass(Values{10.0, 10.0}, 1.0);
  EXPECT_EQ(node->unreceived_mass(1, p), Mass::zero(1));
  node->on_receive(1, p);
  EXPECT_EQ(node->local_mass(), Mass::scalar(4.0, 1.0));
}

TEST(PushSum, ArenaRejectsPacketOfAnotherDimension) {
  // Same rule on a topology fleet, through its per-node operation and the
  // engines' devirtualized delivery alike.
  auto fleet = test::pair_fleet(Algorithm::kPushSum, Mass::scalar(4.0, 1.0),
                                Mass::scalar(0.0, 1.0));
  Packet p;
  p.a = Mass(Values{10.0, 10.0}, 1.0);
  EXPECT_EQ(fleet.unreceived_mass(0, 1, p), Mass::zero(1));
  fleet.receive(0, 1, p);
  fleet.receive<Algorithm::kPushSum>(0, 1, 0, p);
  EXPECT_EQ(fleet.local_mass(0), Mass::scalar(4.0, 1.0));
}

TEST(PushSum, ConvergesToAverageOnHypercube) {
  const auto t = net::Topology::hypercube(5);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 7);
  engine.run(300);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(PushSum, ConvergesToSumOnCompleteGraph) {
  const auto t = net::Topology::complete(16);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kSum, 3);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(PushSum, MassIsConservedWithoutFailures) {
  const auto t = net::Topology::ring(10);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 11);
  const auto before = total_mass(engine);
  engine.run(50);
  const auto after = total_mass(engine);
  EXPECT_NEAR(after.s[0], before.s[0], 1e-12 * std::abs(before.s[0]));
  EXPECT_NEAR(after.w, before.w, 1e-12 * before.w);
}

TEST(PushSum, MessageLossDestroysTheResult) {
  // The defining weakness: with lossy links push-sum converges to a WRONG
  // value (mass leaks), while flow-based algorithms still converge correctly.
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.2;
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 5, faults);
  engine.run(2000);
  // Estimates agree with each other (consensus)…
  const auto est = engine.estimates();
  double spread = 0.0;
  for (double e : est) spread = std::max(spread, std::abs(e - est[0]));
  EXPECT_LT(spread, 1e-6);
  // …but on the wrong value.
  EXPECT_GT(engine.max_error(), 1e-4);
}

TEST(PushSum, NoLiveNeighborMeansNoMessage) {
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1};
  node->init(0, nb, Mass::scalar(1.0, 1.0));
  node->on_link_down(1);
  Rng rng(1);
  EXPECT_FALSE(node->make_message(rng).has_value());
  EXPECT_EQ(node->live_degree(), 0u);
}

TEST(PushSum, DuplicateLinkDownIsBenign) {
  const auto node = make_reducer(Algorithm::kPushSum);
  const std::vector<NodeId> nb{1, 2};
  node->init(0, nb, Mass::scalar(1.0, 1.0));
  node->on_link_down(1);
  node->on_link_down(1);
  EXPECT_EQ(node->live_degree(), 1u);
}

}  // namespace
}  // namespace pcf::core
