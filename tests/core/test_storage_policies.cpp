// Storage wall: a one-node fleet (ArenaFleet::hold, make_reducer's lone
// node) and the same node inside a topology fleet are one layout reached two
// ways. Driven through one seeded random schedule — sends, out-of-order
// receives, link down/up, data updates, stored-flow corruption and rejoins —
// they must stay bitwise-identical for every algorithm, checkpoint bytes
// included (protocol::PrefixedRows, the bytes of every engine but the kArena
// sync engine). The lone node sits at fleet index 0, so the wall also shows
// that the fleet hands the kernels the node's real id (PCF's roles and
// CORR's tree read it).
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

/// Bitwise state of fleet node `index`, which is node i of topology t:
/// conserved mass, every component's estimate, liveness, counters, flows
/// toward every neighbor, and the checkpoint bytes.
std::string fingerprint(const ArenaFleet& fleet, NodeId index, const net::Topology& t, NodeId i) {
  BinaryWriter w;
  const Mass m = fleet.local_mass(index);
  for (const double s : m.s) w.f64(s);
  w.f64(m.w);
  for (std::size_t k = 0; k < m.dim(); ++k) w.f64(fleet.estimate(index, k));
  w.u64(fleet.live_degree(index));
  w.u64(fleet.role_swaps(index));
  w.f64(fleet.max_abs_flow_component(index));
  Mass flows[ArenaFleet::kMaxFlowSlots];
  for (const NodeId j : t.neighbors(i)) {
    const std::size_t count = fleet.flows_toward(index, j, flows);
    w.u64(count);
    for (std::size_t q = 0; q < count; ++q) {
      for (const double s : flows[q].s) w.f64(s);
      w.f64(flows[q].w);
    }
  }
  fleet.transfer<protocol::PrefixedRows>(index, w);
  return std::move(w).take();
}

/// Node i of `topology` alone in a one-node fleet, reset to `initial`.
ArenaFleet lone_fleet(Algorithm algorithm, const ReducerConfig& config,
                      const net::Topology& topology, NodeId i, const Mass& initial) {
  ArenaFleet lone(algorithm, config);
  lone.hold(i, topology.neighbors(i), initial.dim());
  lone.reset(0, initial);
  return lone;
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

  // One-node fleets, and one topology fleet, live at once: its constructor
  // already reset every node.
  std::vector<ArenaFleet> lone;
  ArenaFleet fleet(c.algorithm, config, topology, initial);
  std::vector<Rng> lone_rngs;
  std::vector<Rng> fleet_rngs;
  for (NodeId i = 0; i < n; ++i) {
    lone.push_back(lone_fleet(c.algorithm, config, topology, i, initial[i]));
    lone_rngs.push_back(Rng(7).fork(i));
    fleet_rngs.push_back(Rng(7).fork(i));
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
      const auto a = lone[i].make_message(0, lone_rngs[i]);
      const auto b = fleet.make_message(i, fleet_rngs[i]);
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
      lone[m.to].receive(0, m.from, m.packet);
      fleet.receive(m.to, m.from, m.packet);
    } else if (kind < 17) {  // link down or up at both ends
      const auto e = static_cast<std::size_t>(sched.below(edges.size()));
      const auto [u, v] = edges[e];
      if (down[e]) {
        lone[u].link_up(0, v);
        lone[v].link_up(0, u);
        fleet.link_up(u, v);
        fleet.link_up(v, u);
      } else {
        drop_wire([&](NodeId f, NodeId t) { return (f == u && t == v) || (f == v && t == u); });
        lone[u].link_down(0, v);
        lone[v].link_down(0, u);
        fleet.link_down(u, v);
        fleet.link_down(v, u);
      }
      down[e] = !down[e];
    } else if (kind == 17) {  // live data update
      const Mass delta(Values{sched.uniform() - 0.5, sched.uniform()}, 0.0);
      lone[i].update_data(0, delta);
      fleet.update_data(i, delta);
    } else if (kind == 18) {  // stored-flow soft error
      Rng ca = corrupt_rng;
      Rng cb = corrupt_rng;
      ASSERT_EQ(lone[i].corrupt_stored_flow(0, ca), fleet.corrupt_stored_flow(i, cb))
          << "op " << op;
      ASSERT_EQ(ca(), cb()) << "op " << op;
      corrupt_rng = ca;
    } else {  // rejoin: a fresh one-node fleet vs the topology fleet's in-place reset
      drop_wire([&](NodeId f, NodeId t) { return f == i || t == i; });
      lone[i] = lone_fleet(c.algorithm, config, topology, i, initial[i]);
      fleet.reset(i, initial[i]);
      // The node comes back with every link live; its peers revive theirs.
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (down[e] && (edges[e].first == i || edges[e].second == i)) {
          const NodeId peer = edges[e].first == i ? edges[e].second : edges[e].first;
          lone[peer].link_up(0, i);
          fleet.link_up(peer, i);
          down[e] = false;
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(fingerprint(lone[v], 0, topology, v), fingerprint(fleet, v, topology, v))
          << "node " << v << " diverged at op " << op << " (kind " << kind << ")";
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<PolicyCase>& info) {
  return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, StoragePolicies, ::testing::ValuesIn(policy_cases()),
                         case_name);

TEST(StoragePolicies, FleetNodeIsLiveAtOnceAndResetsInPlace) {
  const auto topology = net::Topology::ring(6);
  std::vector<Mass> initial;
  for (std::size_t i = 0; i < topology.size(); ++i) {
    initial.push_back(Mass::scalar(static_cast<double>(i), 1.0));
  }
  ArenaFleet fleet(Algorithm::kPushFlow, {}, topology, initial);
  EXPECT_EQ(fleet.local_mass(2), initial[2]);
  ASSERT_TRUE(fleet.make_message_to(2, 1).has_value());
  EXPECT_NE(fleet.local_mass(2), initial[2]);
  fleet.link_down(2, 3);
  EXPECT_EQ(fleet.live_degree(2), 1U);
  fleet.reset(2, initial[2]);
  EXPECT_EQ(fleet.local_mass(2), initial[2]);
  EXPECT_EQ(fleet.live_degree(2), 2U);
}

// make_reducer's input contract, on the node and on the one-node fleet; the
// link contracts also on a topology fleet's node, the path the engines take.

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
  fleet.hold(0, ids, 1);
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
  EXPECT_THROW(fleet.hold(0, ids, 1), ContractViolation);
}

TEST(MakeReducer, SlotOfIsTheSortedPosition) {
  ArenaFleet fleet(Algorithm::kPushFlow, {});
  const std::array<NodeId, 3> ids{9, 2, 5};
  fleet.hold(0, ids, 1);
  EXPECT_EQ(fleet.slot_of(0, 2), std::optional<std::size_t>{0});
  EXPECT_EQ(fleet.slot_of(0, 5), std::optional<std::size_t>{1});
  EXPECT_EQ(fleet.slot_of(0, 9), std::optional<std::size_t>{2});
  EXPECT_FALSE(fleet.slot_of(0, 3).has_value());
  EXPECT_FALSE(fleet.slot_of(0, 10).has_value());
  EXPECT_THROW(fleet.hold(0, ids, 1), ContractViolation);  // the fleet holds one node
}

/// A topology fleet whose node 0 has neighbors {1, 2, 3} (a star's hub).
ArenaFleet hub_fleet(Algorithm algorithm) {
  const std::vector<Mass> masses(4, Mass::scalar(1.0, 1.0));
  return {algorithm, {}, net::Topology::star(4), masses};
}

TEST(MakeReducer, LinkDownExcludesTheNeighborExactlyOnce) {
  // A flow toward neighbor 1 first, so that a stray reset of it would show in
  // the mass.
  const auto node = lone_node(Algorithm::kPushFlow, {1, 3, 8});
  ASSERT_TRUE(node->make_message_to(1).has_value());
  node->on_link_down(3);
  EXPECT_EQ(node->live_degree(), 2U);
  EXPECT_FALSE(node->make_message_to(3).has_value());
  EXPECT_FALSE(node->make_message_to(99).has_value());
  // Duplicate failure notifications, unknown peers and a link-up on a link
  // never excluded are benign no-ops.
  const Mass mass = node->local_mass();
  node->on_link_down(3);
  node->on_link_down(99);
  node->on_link_up(1);
  EXPECT_EQ(node->live_degree(), 2U);
  EXPECT_EQ(node->local_mass(), mass);

  ArenaFleet fleet = hub_fleet(Algorithm::kPushFlow);
  ASSERT_TRUE(fleet.make_message_to(0, 1).has_value());
  fleet.link_down(0, 3);
  EXPECT_EQ(fleet.live_degree(0), 2U);
  EXPECT_FALSE(fleet.make_message_to(0, 3).has_value());
  EXPECT_FALSE(fleet.make_message_to(0, 99).has_value());
  const Mass fleet_mass = fleet.local_mass(0);
  fleet.link_down(0, 3);
  fleet.link_down(0, 99);
  fleet.link_up(0, 1);
  EXPECT_EQ(fleet.live_degree(0), 2U);
  EXPECT_EQ(fleet.local_mass(0), fleet_mass);
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
  EXPECT_FALSE(node->make_message_to(5).has_value());

  ArenaFleet fleet = hub_fleet(Algorithm::kPushSum);
  for (NodeId j = 1; j <= 3; ++j) fleet.link_down(0, j);
  EXPECT_EQ(fleet.live_degree(0), 0U);
  Rng fleet_rng(1);
  EXPECT_FALSE(fleet.make_message(0, fleet_rng).has_value());
  EXPECT_EQ(fleet_rng(), Rng(before)());
  EXPECT_FALSE(fleet.make_message_to(0, 2).has_value());
}

}  // namespace
}  // namespace pcf::core
