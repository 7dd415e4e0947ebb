// Storage wall: make_reducer's lone node (a one-node ArenaFleet of its own,
// laid out by init()) and the same node inside a topology fleet
// (make_arena_reducer) are one layout reached two ways. Driven through one
// seeded random schedule — sends, out-of-order receives, link down/up, data
// updates, stored-flow corruption and rejoins — they must stay
// bitwise-identical for every algorithm, checkpoint bytes included: both
// write protocol::PrefixedRows, the bytes of every engine but the kArena sync
// engine. The lone node sits at fleet index 0, so the wall also shows that
// its facade hands the kernels the node's real id (PCF's roles and CORR's
// tree read it).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/state_io.hpp"
#include "net/tree_schedule.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::core {
namespace {

using net::NodeId;

struct PolicyCase {
  Algorithm algorithm;
  PcfVariant pcf_variant = PcfVariant::kRobust;
  bool pf_cached = false;
  const char* label = "";
};

std::vector<PolicyCase> policy_cases() {
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

std::string packet_bytes(const Packet& p) {
  BinaryWriter w;
  transfer_packet(w, p);
  return std::move(w).take();
}

/// Bitwise node state through the Reducer interface: conserved mass, every
/// component's estimate, liveness, counters, flows toward every neighbor,
/// and the checkpoint bytes.
std::string fingerprint(const Reducer& node, const net::Topology& t, NodeId i) {
  BinaryWriter w;
  const Mass m = node.local_mass();
  for (const double s : m.s) w.f64(s);
  w.f64(m.w);
  for (std::size_t k = 0; k < m.dim(); ++k) w.f64(node.estimate(k));
  w.u64(node.live_degree());
  w.u64(node.role_swaps());
  w.f64(node.max_abs_flow_component());
  Mass flows[2];
  for (const NodeId j : t.neighbors(i)) {
    const std::size_t count = node.flows_toward(j, flows);
    w.u64(count);
    for (std::size_t q = 0; q < count; ++q) {
      for (const double s : flows[q].s) w.f64(s);
      w.f64(flows[q].w);
    }
  }
  node.transfer_state(w);
  return std::move(w).take();
}

class StoragePolicies : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(StoragePolicies, OneRandomScheduleKeepsEveryBitEqual) {
  const PolicyCase& c = GetParam();
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  const std::size_t n = topology.size();
  ReducerConfig config;
  config.pcf_variant = c.pcf_variant;
  config.pf_cached_flow_sum = c.pf_cached;
  if (needs_tree_schedule(c.algorithm)) {
    config.tree = std::make_shared<const net::TreeSchedule>(
        net::build_tree_schedule(topology, config.tree_kind));
  }

  Rng sched(0x5107a6e ^ static_cast<std::uint64_t>(c.algorithm));
  std::vector<Mass> initial;
  for (std::size_t i = 0; i < n; ++i) {
    initial.push_back(Mass(Values{sched.uniform(), sched.uniform() - 0.5}, 1.0));
  }

  // Lone nodes, and facades over one fleet. The facades are live at once:
  // the fleet's constructor already reset every node.
  std::vector<std::unique_ptr<Reducer>> lone;
  ArenaFleet fleet(c.algorithm, config, topology, initial);
  std::vector<std::unique_ptr<Reducer>> arena;
  std::vector<Rng> lone_rngs;
  std::vector<Rng> arena_rngs;
  for (NodeId i = 0; i < n; ++i) {
    lone.push_back(make_reducer(c.algorithm, config));
    lone.back()->init(i, topology.neighbors(i), initial[i]);
    arena.push_back(make_arena_reducer<protocol::PrefixedRows>(fleet, i));
    lone_rngs.push_back(Rng(7).fork(i));
    arena_rngs.push_back(Rng(7).fork(i));
  }

  struct InFlight {
    NodeId from;
    NodeId to;
    Packet packet;
  };
  std::vector<InFlight> wire;
  const auto drop_wire = [&](auto pred) {
    std::erase_if(wire, [&](const InFlight& m) { return pred(m.from, m.to); });
  };
  const auto edges = topology.edges();
  std::vector<bool> down(edges.size(), false);
  Rng corrupt_rng(99);

  for (std::size_t op = 0; op < 1500; ++op) {
    const auto kind = sched.below(20);
    const auto i = static_cast<NodeId>(sched.below(n));
    if (kind < 8) {  // send
      const auto a = lone[i]->make_message(lone_rngs[i]);
      const auto b = arena[i]->make_message(arena_rngs[i]);
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      if (a) {
        ASSERT_EQ(a->to, b->to) << "op " << op;
        ASSERT_EQ(packet_bytes(a->packet), packet_bytes(b->packet)) << "op " << op;
        wire.push_back({i, a->to, a->packet});
      }
    } else if (kind < 15) {  // receive any in-flight packet (reordering)
      if (wire.empty()) continue;
      const auto idx = static_cast<std::size_t>(sched.below(wire.size()));
      const InFlight m = wire[idx];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(idx));
      lone[m.to]->on_receive(m.from, m.packet);
      arena[m.to]->on_receive(m.from, m.packet);
    } else if (kind < 17) {  // link down or up at both ends
      const auto e = static_cast<std::size_t>(sched.below(edges.size()));
      const auto [u, v] = edges[e];
      if (down[e]) {
        for (auto* side : {&lone, &arena}) {
          (*side)[u]->on_link_up(v);
          (*side)[v]->on_link_up(u);
        }
      } else {
        drop_wire([&](NodeId f, NodeId t) { return (f == u && t == v) || (f == v && t == u); });
        for (auto* side : {&lone, &arena}) {
          (*side)[u]->on_link_down(v);
          (*side)[v]->on_link_down(u);
        }
      }
      down[e] = !down[e];
    } else if (kind == 17) {  // live data update
      const Mass delta(Values{sched.uniform() - 0.5, sched.uniform()}, 0.0);
      lone[i]->update_data(delta);
      arena[i]->update_data(delta);
    } else if (kind == 18) {  // stored-flow soft error
      Rng ca = corrupt_rng;
      Rng cb = corrupt_rng;
      ASSERT_EQ(lone[i]->corrupt_stored_flow(ca), arena[i]->corrupt_stored_flow(cb))
          << "op " << op;
      ASSERT_EQ(ca(), cb()) << "op " << op;
      corrupt_rng = ca;
    } else {  // rejoin: a fresh lone node vs the facade's in-place re-init
      drop_wire([&](NodeId f, NodeId t) { return f == i || t == i; });
      lone[i] = make_reducer(c.algorithm, config);
      lone[i]->init(i, topology.neighbors(i), initial[i]);
      arena[i]->init(i, topology.neighbors(i), initial[i]);
      // The node comes back with every link live; its peers revive theirs.
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (down[e] && (edges[e].first == i || edges[e].second == i)) {
          const NodeId peer = edges[e].first == i ? edges[e].second : edges[e].first;
          lone[peer]->on_link_up(i);
          arena[peer]->on_link_up(i);
          down[e] = false;
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(fingerprint(*lone[v], topology, v), fingerprint(*arena[v], topology, v))
          << "node " << v << " diverged at op " << op << " (kind " << kind << ")";
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<PolicyCase>& info) {
  return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, StoragePolicies, ::testing::ValuesIn(policy_cases()),
                         case_name);

TEST(StoragePolicies, FacadeIsLiveWithoutInitAndReinitResetsInPlace) {
  const auto topology = net::Topology::ring(6);
  std::vector<Mass> initial;
  for (std::size_t i = 0; i < topology.size(); ++i) {
    initial.push_back(Mass::scalar(static_cast<double>(i), 1.0));
  }
  ArenaFleet fleet(Algorithm::kPushFlow, {}, topology, initial);
  const auto node = make_arena_reducer(fleet, 2);
  EXPECT_EQ(node->local_mass(), initial[2]);
  ASSERT_TRUE(node->make_message_to(1).has_value());
  EXPECT_NE(node->local_mass(), initial[2]);
  node->on_link_down(3);
  EXPECT_EQ(node->live_degree(), 1U);
  node->init(2, topology.neighbors(2), initial[2]);
  EXPECT_EQ(node->local_mass(), initial[2]);
  EXPECT_EQ(node->live_degree(), 2U);
}

// make_reducer's input contract, on the node and on the one-node fleet.

std::unique_ptr<Reducer> lone_node(Algorithm algorithm, std::vector<NodeId> neighbors) {
  auto node = make_reducer(algorithm);
  node->init(100, neighbors, Mass::scalar(1.0, 1.0));
  return node;
}

TEST(MakeReducer, InitRunsExactlyOnce) {
  const auto node = make_reducer(Algorithm::kPushFlow);
  EXPECT_THROW((void)node->estimate(), ContractViolation);
  const std::array<NodeId, 2> ids{1, 3};
  node->init(2, ids, Mass::scalar(1.0, 1.0));
  EXPECT_THROW(node->init(2, ids, Mass::scalar(1.0, 1.0)), ContractViolation);
}

TEST(MakeReducer, WireMassesAndNameWorkBeforeInit) {
  const auto node = make_reducer(Algorithm::kPushCancelFlow);
  EXPECT_EQ(node->wire_masses(), 2U);
  EXPECT_EQ(node->name(), "push-cancel-flow/robust");
}

TEST(MakeReducer, InitSortsTheIds) {
  ArenaFleet fleet(Algorithm::kPushFlow, {});
  const std::array<NodeId, 3> ids{9, 2, 5};
  fleet.hold(ids, 1);
  ASSERT_EQ(fleet.size(), 1U);
  ASSERT_EQ(fleet.degree(0), 3U);
  EXPECT_EQ(fleet.neighbor(0, 0), 2U);
  EXPECT_EQ(fleet.neighbor(0, 1), 5U);
  EXPECT_EQ(fleet.neighbor(0, 2), 9U);
  EXPECT_EQ(fleet.live_degree(0), 3U);
  // Unsorted and sorted input give the same node, draw for draw.
  const auto a = lone_node(Algorithm::kPushFlow, {9, 2, 5});
  const auto b = lone_node(Algorithm::kPushFlow, {2, 5, 9});
  Rng ra(3);
  Rng rb(3);
  for (int k = 0; k < 20; ++k) {
    const auto x = a->make_message(ra);
    const auto y = b->make_message(rb);
    ASSERT_TRUE(x && y);
    EXPECT_EQ(x->to, y->to);
    EXPECT_EQ(x->packet.a, y->packet.a);
  }
}

TEST(MakeReducer, InitRejectsDuplicateIds) {
  const auto node = make_reducer(Algorithm::kPushFlow);
  const std::array<NodeId, 3> ids{4, 7, 4};
  EXPECT_THROW(node->init(0, ids, Mass::scalar(1.0, 1.0)), ContractViolation);
  EXPECT_THROW(node->init(0, {}, Mass::scalar(1.0, 1.0)), ContractViolation);
  ArenaFleet fleet(Algorithm::kPushFlow, {});
  EXPECT_THROW(fleet.hold(ids, 1), ContractViolation);
}

TEST(MakeReducer, SlotOfIsTheSortedPosition) {
  ArenaFleet fleet(Algorithm::kPushFlow, {});
  const std::array<NodeId, 3> ids{9, 2, 5};
  fleet.hold(ids, 1);
  EXPECT_EQ(fleet.slot_of(0, 2), std::optional<std::size_t>{0});
  EXPECT_EQ(fleet.slot_of(0, 5), std::optional<std::size_t>{1});
  EXPECT_EQ(fleet.slot_of(0, 9), std::optional<std::size_t>{2});
  EXPECT_FALSE(fleet.slot_of(0, 3).has_value());
  EXPECT_FALSE(fleet.slot_of(0, 10).has_value());
  EXPECT_THROW(fleet.hold(ids, 1), ContractViolation);  // the fleet holds one node
}

TEST(MakeReducer, LinkDownExcludesTheNeighborExactlyOnce) {
  const auto node = lone_node(Algorithm::kPushFlow, {1, 3, 8});
  node->on_link_down(3);
  EXPECT_EQ(node->live_degree(), 2U);
  EXPECT_FALSE(node->make_message_to(3).has_value());
  // Duplicate failure notifications and unknown peers are benign no-ops.
  node->on_link_down(3);
  node->on_link_down(99);
  EXPECT_EQ(node->live_degree(), 2U);
}

TEST(MakeReducer, MakeMessageNeverPicksADeadNeighbor) {
  const auto node = lone_node(Algorithm::kPushSum, {0, 1, 2, 3});
  node->on_link_down(1);
  node->on_link_down(3);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto out = node->make_message(rng);
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->to == 0 || out->to == 2) << out->to;
  }
}

TEST(MakeReducer, MakeMessagePicksUniformly) {
  const auto node = lone_node(Algorithm::kPushSum, {10, 20, 30});
  Rng rng(42);
  std::map<NodeId, int> counts;
  constexpr int kDraws = 3000;
  for (int i = 0; i < kDraws; ++i) {
    const auto out = node->make_message(rng);
    ASSERT_TRUE(out.has_value());
    ++counts[out->to];
  }
  ASSERT_EQ(counts.size(), 3U);
  for (const auto& [id, count] : counts) {
    // Each neighbor expects kDraws/3 = 1000 hits; 6 sigma ≈ ±155.
    EXPECT_GT(count, 800) << "neighbor " << id;
    EXPECT_LT(count, 1200) << "neighbor " << id;
  }
}

TEST(MakeReducer, MakeMessageIsExhaustedWhenAllNeighborsDied) {
  const auto node = lone_node(Algorithm::kPushSum, {5, 6});
  node->on_link_down(5);
  node->on_link_down(6);
  EXPECT_EQ(node->live_degree(), 0U);
  Rng rng(1);
  const Rng before = rng;
  EXPECT_FALSE(node->make_message(rng).has_value());
  EXPECT_EQ(rng(), Rng(before)());  // no draw when no neighbor is live
}

}  // namespace
}  // namespace pcf::core
