#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "net/tree_schedule.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::current_parent;
using test::make_engine;

ReducerConfig config_for(const net::Topology& t,
                         net::TreeKind kind = net::TreeKind::kAuto) {
  ReducerConfig c;
  c.tree = std::make_shared<const net::TreeSchedule>(net::build_tree_schedule(t, kind));
  return c;
}

core::ReducerConfig with_tree_kind(net::TreeKind kind) {
  ReducerConfig c;
  c.tree_kind = kind;
  return c;
}

TEST(CorrectionAllreduce, ConvergesOnBusChain) {
  const auto t = net::Topology::bus(8);
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 7);
  engine.run(200);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ConvergesOnTorusBfs) {
  const auto t = net::Topology::grid2d(4, 4, /*wrap=*/true);
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 3);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ConvergesToSum) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kSum, 5);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ExplicitTreeKindIsHonored) {
  const auto t = net::Topology::ring(10);  // carries both chain and BFS trees
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 9, {},
                            with_tree_kind(net::TreeKind::kBfs));
  engine.run(200);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, SurvivesMessageLoss) {
  // The correction property: absolute idempotent reports, so loss only
  // delays convergence until the next periodic resend.
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 5, faults);
  engine.run(1500);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, SurvivesDuplicationAndReordering) {
  const auto t = net::Topology::grid2d(3, 4);
  sim::FaultPlan faults;
  faults.duplicate_prob = 0.2;
  faults.reorder_prob = 0.2;
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 8, faults);
  engine.run(1000);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, MassNeverMoves) {
  const auto cfg = config_for(net::Topology::bus(3));
  const auto a = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const auto b = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const std::vector<NodeId> na{1}, nb{0, 2};
  a->init(0, na, Mass::scalar(6.0, 1.0));
  b->init(1, nb, Mass::scalar(3.0, 1.0));
  const auto msg = b->make_message_to(0);
  ASSERT_TRUE(msg.has_value());
  a->on_receive(1, msg->packet);
  EXPECT_EQ(a->local_mass(), Mass::scalar(6.0, 1.0));
  EXPECT_EQ(b->local_mass(), Mass::scalar(3.0, 1.0));
  // Crashed senders therefore strand no in-flight mass.
  EXPECT_EQ(a->unreceived_mass(1, msg->packet), Mass::zero(1));
}

TEST(CorrectionAllreduce, ChildClaimsDriveSubtreeSums) {
  // Explicit chain 0 <- 1 <- 2 (auto would pick the star rooted at the hub 1).
  const auto cfg = config_for(net::Topology::bus(3), net::TreeKind::kChain);
  const auto root = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const auto mid = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const auto leaf = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  root->init(0, std::vector<NodeId>{1}, Mass::scalar(6.0, 1.0));
  mid->init(1, std::vector<NodeId>{0, 2}, Mass::scalar(3.0, 1.0));
  leaf->init(2, std::vector<NodeId>{1}, Mass::scalar(9.0, 1.0));

  // Leaf reports its subtree (itself) upward; mid folds it in.
  const auto up1 = leaf->make_message_to(1);
  ASSERT_TRUE(up1.has_value());
  EXPECT_EQ(up1->packet.role_count, 2u);  // claims parent id 1
  mid->on_receive(2, up1->packet);
  const auto up2 = mid->make_message_to(0);
  ASSERT_TRUE(up2.has_value());
  EXPECT_EQ(up2->packet.a, Mass::scalar(12.0, 2.0));  // 3+9, both weights

  // Root folds mid's report: its subtree sum IS the global aggregate.
  root->on_receive(1, up2->packet);
  EXPECT_DOUBLE_EQ(root->estimate(), 18.0 / 3.0);

  // The root's packet publishes the global view (active_slot == 2)...
  const auto down = root->make_message_to(1);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->packet.active_slot, 2);
  EXPECT_EQ(down->packet.role_count, 0u);  // the root claims no parent
  // ...which the child adopts as its estimate.
  mid->on_receive(0, down->packet);
  EXPECT_DOUBLE_EQ(mid->estimate(), 18.0 / 3.0);
}

TEST(CorrectionAllreduce, RetransmissionIsIdempotent) {
  const auto cfg = config_for(net::Topology::bus(3));
  const auto mid1 = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const auto mid2 = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const auto leaf = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const std::vector<NodeId> nm{0, 2};
  mid1->init(1, nm, Mass::scalar(3.0, 1.0));
  mid2->init(1, nm, Mass::scalar(3.0, 1.0));
  leaf->init(2, std::vector<NodeId>{1}, Mass::scalar(9.0, 1.0));
  const auto report = leaf->make_message_to(1);
  ASSERT_TRUE(report.has_value());
  mid1->on_receive(2, report->packet);
  mid1->on_receive(2, report->packet);  // duplicate
  mid2->on_receive(2, report->packet);
  const auto m1 = mid1->make_message_to(0);
  const auto m2 = mid2->make_message_to(0);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  EXPECT_EQ(m1->packet.a, m2->packet.a);  // absolute reports: duplicates are no-ops
}

TEST(CorrectionAllreduce, ReattachesToNextUpwardNeighborOnParentLoss) {
  // ring(6) resolves to the chain schedule (depth[i] == i). Node 5 has the
  // upward neighbors 0 (depth 0) and 4 (depth 4); the (depth, id)-minimal
  // rule picks 0 first, then 4 after the 5-0 link is excluded.
  const auto t = net::Topology::ring(6);
  const auto cfg = config_for(t);
  ASSERT_EQ(cfg.tree->kind, net::TreeKind::kChain);
  const auto n5 = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  n5->init(5, t.neighbors(5), Mass::scalar(1.0, 1.0));
  ASSERT_TRUE(current_parent(*n5, t.neighbors(5)).has_value());
  EXPECT_EQ(*current_parent(*n5, t.neighbors(5)), 0u);

  n5->on_link_down(0);
  ASSERT_TRUE(current_parent(*n5, t.neighbors(5)).has_value());
  EXPECT_EQ(*current_parent(*n5, t.neighbors(5)), 4u);  // correction round: re-attach upward

  // With no upward neighbor left the node becomes a fragment root and
  // honestly reports its fragment's aggregate — here just itself.
  n5->on_link_down(4);
  EXPECT_FALSE(current_parent(*n5, t.neighbors(5)).has_value());
  EXPECT_DOUBLE_EQ(n5->estimate(), 1.0);

  // Healing restores the static attachment.
  n5->on_link_up(0);
  ASSERT_TRUE(current_parent(*n5, t.neighbors(5)).has_value());
  EXPECT_EQ(*current_parent(*n5, t.neighbors(5)), 0u);
}

TEST(CorrectionAllreduce, LinkDownDiscardsChildReportAndGlobalView) {
  const auto cfg = config_for(net::Topology::bus(3), net::TreeKind::kChain);
  const auto mid = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  const auto leaf = make_reducer(Algorithm::kCorrectionAllreduce, cfg);
  mid->init(1, std::vector<NodeId>{0, 2}, Mass::scalar(3.0, 1.0));
  leaf->init(2, std::vector<NodeId>{1}, Mass::scalar(9.0, 1.0));
  const auto report = leaf->make_message_to(1);
  ASSERT_TRUE(report.has_value());
  mid->on_receive(2, report->packet);
  {
    const auto up = mid->make_message_to(0);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->packet.a, Mass::scalar(12.0, 2.0));
  }
  mid->on_link_down(2);
  {
    const auto up = mid->make_message_to(0);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->packet.a, Mass::scalar(3.0, 1.0));  // stale report dropped
  }
  // Losing the parent also invalidates the inherited global view: the node
  // falls back to its own subtree sum until a new parent publishes one.
  Packet global;
  global.a = Mass::scalar(3.0, 1.0);
  global.b = Mass::scalar(18.0, 3.0);
  global.active_slot = 2;
  global.role_count = 0;
  mid->on_receive(0, global);
  EXPECT_DOUBLE_EQ(mid->estimate(), 6.0);
  mid->on_link_down(0);
  EXPECT_DOUBLE_EQ(mid->estimate(), 3.0);
}

TEST(CorrectionAllreduce, SurvivesLeafCrashInEngine) {
  const auto t = net::Topology::grid2d(4, 4);
  sim::FaultPlan faults;
  faults.node_crashes.push_back({40.0, 15});  // the deepest BFS leaf
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 11, faults);
  engine.run(600);
  // The leaf's parent drops its report; the intact remainder of the tree
  // reconverges on the survivors' aggregate (the oracle retargets on crash).
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ReattachesAfterParentLinkFailureInEngine) {
  // In the 4x4 grid's BFS tree, node 6 attaches to node 2 but also borders
  // node 5 at the same depth as 2 — losing the 2-6 link triggers the
  // correction round (re-attach to 5) and the tree stays global.
  const auto t = net::Topology::grid2d(4, 4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({30.0, 2, 6});
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 13, faults);
  engine.run(600);
  EXPECT_LT(engine.max_error(), 1e-12);
}

}  // namespace
}  // namespace pcf::core
