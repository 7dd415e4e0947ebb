// Shared helpers for the pcflow test suite.
#pragma once

#include <array>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "core/mass.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "support/rng.hpp"

namespace pcf::test {

/// Scalar initial values drawn uniformly from [0, 1) with a fixed seed.
inline std::vector<double> random_values(std::size_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform();
  return v;
}

/// Initial masses for the paper's bus-network case study (Section II-B):
/// v_1 = n+1, v_i = 1 otherwise; unit weights (synchronous averaging).
inline std::vector<core::Mass> bus_case_study_masses(std::size_t n) {
  std::vector<core::Mass> masses;
  masses.reserve(n);
  masses.push_back(core::Mass::scalar(static_cast<double>(n) + 1.0, 1.0));
  for (std::size_t i = 1; i < n; ++i) masses.push_back(core::Mass::scalar(1.0, 1.0));
  return masses;
}

/// Both engine modes (checkpoint row codecs), for tests that must hold on each.
inline constexpr std::array<sim::EngineMode, 2> kEngineModes = {sim::EngineMode::kLegacy,
                                                                 sim::EngineMode::kArena};

inline const char* mode_name(sim::EngineMode mode) {
  return mode == sim::EngineMode::kArena ? "arena" : "legacy";
}

/// Fault plans on ring(4) that each carry one NaN or infinite time: every
/// scheduled event kind's time, a false detect's clear delay, the detection
/// delay and the reorder jitter. Both engines must refuse each of them.
inline std::vector<sim::FaultPlan> non_finite_fault_plans() {
  std::vector<sim::FaultPlan> plans;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const auto add = [&](auto&& edit) {
      sim::FaultPlan plan;
      edit(plan);
      plans.push_back(std::move(plan));
    };
    add([&](sim::FaultPlan& p) { p.link_failures.push_back({bad, 0, 1}); });
    add([&](sim::FaultPlan& p) { p.node_crashes.push_back({bad, 2}); });
    add([&](sim::FaultPlan& p) {
      p.data_updates.push_back({bad, 2, core::Mass::scalar(0.5, 0.0)});
    });
    add([&](sim::FaultPlan& p) { p.link_heals.push_back({bad, 0, 1}); });
    add([&](sim::FaultPlan& p) { p.node_rejoins.push_back({bad, 2}); });
    add([&](sim::FaultPlan& p) { p.false_detects.push_back({bad, 0, 1, 1.0}); });
    add([&](sim::FaultPlan& p) { p.false_detects.push_back({1.0, 0, 1, bad}); });
    add([&](sim::FaultPlan& p) { p.detection_delay = bad; });
    add([&](sim::FaultPlan& p) { p.reorder_jitter = bad; });
  }
  return plans;
}

/// Builds an engine over random scalar values.
inline sim::SyncEngine make_engine(const net::Topology& topology, core::Algorithm algorithm,
                                   core::Aggregate aggregate, std::uint64_t seed = 1,
                                   sim::FaultPlan faults = {},
                                   core::ReducerConfig reducer = {},
                                   sim::EngineMode mode = sim::EngineMode::kLegacy) {
  const auto values = random_values(topology.size(), seed ^ 0xabcdef);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], core::initial_weight(aggregate, i)));
  }
  sim::SyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.reducer = reducer;
  cfg.mode = mode;
  // The runtime invariant checkers double every engine-based test as an
  // invariant test (ctest also sets PCF_CHECK_INVARIANTS=1; this makes the
  // suite safe to run bare too).
  cfg.invariants.enabled = true;
  return sim::SyncEngine(topology, masses, cfg);
}

/// Sum of local masses over all live nodes — the conserved quantity.
inline core::Mass total_mass(const sim::SyncEngine& engine) {
  core::Mass total;
  bool first = true;
  for (net::NodeId i = 0; i < engine.size(); ++i) {
    if (!engine.node_alive(i)) continue;
    if (first) {
      total = engine.fleet().local_mass(i);
      first = false;
    } else {
      total += engine.fleet().local_mass(i);
    }
  }
  return total;
}

/// Two nodes joined by one link (a two-node bus) with initial masses a, b.
inline core::ArenaFleet pair_fleet(core::Algorithm algorithm, const core::Mass& a,
                                   const core::Mass& b, const core::ReducerConfig& config = {}) {
  const std::vector<core::Mass> masses{a, b};
  return {algorithm, config, net::Topology::bus(2), masses};
}

/// The (first-slot) flow node i of `fleet` stores toward live neighbor j.
inline core::Mass flow_to(const core::ArenaFleet& fleet, net::NodeId i, net::NodeId j) {
  std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> flows;
  PCF_CHECK_MSG(fleet.flows_toward(i, j, flows) > 0, "no flow from node " << i << " to " << j);
  return flows[0];
}

/// PCF handshake state of node i of `fleet` toward neighbor j (throws if
/// there is none).
inline core::PcfEdgeView edge_state(const core::ArenaFleet& fleet, net::NodeId i,
                                    net::NodeId j) {
  const auto view = fleet.pcf_edge_view(i, j);
  PCF_CHECK_MSG(view.has_value(), "no PCF edge from node " << i << " to " << j);
  return *view;
}

/// Correction allreduce's current parent as the node publishes it: every
/// packet carries parent id + 1 (0 = fragment root), and building one
/// changes no state. No live neighbor means no parent.
inline std::optional<net::NodeId> current_parent(core::Reducer& node,
                                                 std::span<const net::NodeId> neighbors) {
  for (const net::NodeId j : neighbors) {
    const auto out = node.make_message_to(j);
    if (!out) continue;
    if (out->packet.role_count == 0) return std::nullopt;
    return static_cast<net::NodeId>(out->packet.role_count - 1);
  }
  return std::nullopt;
}

}  // namespace pcf::test
