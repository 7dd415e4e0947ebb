// Storage-policy wall: the per-object layout (make_reducer, OwnedRows) and
// the arena facades (make_arena_reducer, ArenaRows over one ArenaFleet) are
// two ways to store the same protocol rows. Driven through one seeded random
// schedule — sends, out-of-order receives, link down/up, data updates, stored
// flow corruption and rejoins — they must stay bitwise-identical for
// every algorithm, and a facade that checkpoints through PrefixedRows must
// write exactly the per-object layout's bytes (the sync engine's kLegacy
// checkpoints depend on it). The async engine and the runtimes still run
// OwnedRows; the sync engine runs ArenaRows in both modes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/state_io.hpp"
#include "net/tree_schedule.hpp"
#include "support/binio.hpp"
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

  // Per-object reducers, and facades over one fleet. The facades are live
  // at once: the fleet's constructor already reset every node.
  std::vector<std::unique_ptr<Reducer>> owned;
  ArenaFleet fleet(c.algorithm, config, topology, initial);
  std::vector<std::unique_ptr<Reducer>> arena;
  std::vector<Rng> owned_rngs;
  std::vector<Rng> arena_rngs;
  for (NodeId i = 0; i < n; ++i) {
    owned.push_back(make_reducer(c.algorithm, config));
    owned.back()->init(i, topology.neighbors(i), initial[i]);
    arena.push_back(make_arena_reducer<protocol::PrefixedRows>(fleet, i));
    owned_rngs.push_back(Rng(7).fork(i));
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
      const auto a = owned[i]->make_message(owned_rngs[i]);
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
      owned[m.to]->on_receive(m.from, m.packet);
      arena[m.to]->on_receive(m.from, m.packet);
    } else if (kind < 17) {  // link down or up at both ends
      const auto e = static_cast<std::size_t>(sched.below(edges.size()));
      const auto [u, v] = edges[e];
      if (down[e]) {
        for (auto* side : {&owned, &arena}) {
          (*side)[u]->on_link_up(v);
          (*side)[v]->on_link_up(u);
        }
      } else {
        drop_wire([&](NodeId f, NodeId t) { return (f == u && t == v) || (f == v && t == u); });
        for (auto* side : {&owned, &arena}) {
          (*side)[u]->on_link_down(v);
          (*side)[v]->on_link_down(u);
        }
      }
      down[e] = !down[e];
    } else if (kind == 17) {  // live data update
      const Mass delta(Values{sched.uniform() - 0.5, sched.uniform()}, 0.0);
      owned[i]->update_data(delta);
      arena[i]->update_data(delta);
    } else if (kind == 18) {  // stored-flow soft error
      Rng ca = corrupt_rng;
      Rng cb = corrupt_rng;
      ASSERT_EQ(owned[i]->corrupt_stored_flow(ca), arena[i]->corrupt_stored_flow(cb))
          << "op " << op;
      ASSERT_EQ(ca(), cb()) << "op " << op;
      corrupt_rng = ca;
    } else {  // rejoin: a fresh object vs the facade's in-place re-init
      drop_wire([&](NodeId f, NodeId t) { return f == i || t == i; });
      owned[i] = make_reducer(c.algorithm, config);
      owned[i]->init(i, topology.neighbors(i), initial[i]);
      arena[i]->init(i, topology.neighbors(i), initial[i]);
      // The node comes back with every link live; its peers revive theirs.
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (down[e] && (edges[e].first == i || edges[e].second == i)) {
          const NodeId peer = edges[e].first == i ? edges[e].second : edges[e].first;
          owned[peer]->on_link_up(i);
          arena[peer]->on_link_up(i);
          down[e] = false;
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(fingerprint(*owned[v], topology, v), fingerprint(*arena[v], topology, v))
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
  // The per-object layout keeps its exactly-once init contract.
  const auto object = make_reducer(Algorithm::kPushFlow);
  object->init(2, topology.neighbors(2), initial[2]);
  EXPECT_THROW(object->init(2, topology.neighbors(2), initial[2]), ContractViolation);
}

}  // namespace
}  // namespace pcf::core
