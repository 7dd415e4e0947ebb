// High-level one-call reduction API.
//
// This is the library's front door: give it a topology, one value (or value
// vector) per node and options, and it runs a fault-tolerant gossip reduction
// to the requested accuracy, returning every node's estimate. Examples and
// the distributed QR are built on it.
#pragma once

#include <string>
#include <vector>

#include "core/mass.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"

namespace pcf::sim {

/// Builds per-node masses from scalar values under the aggregate's weight
/// convention (AVG: w_i = 1; SUM: w_0 = 1, others 0).
[[nodiscard]] std::vector<core::Mass> masses_from_values(std::span<const double> values,
                                                         core::Aggregate aggregate);

/// Vector-payload version: `values[i]` is node i's d-dimensional input.
[[nodiscard]] std::vector<core::Mass> masses_from_vectors(
    std::span<const core::Values> values, core::Aggregate aggregate);

/// A seeded scenario's inputs: the topology and one initial mass per node.
struct SeededInputs {
  net::Topology topology;
  std::vector<core::Mass> masses;
};

/// The seed layout every seeded run shares (the pcflow CLI, bench, chaos,
/// differential and net-trial runs), so a printed repro command replays
/// bit-for-bit: the topology is parsed from `topology_spec` with an Rng
/// seeded `seed ^ 0x7070`, each node draws one uniform value from an Rng
/// seeded `seed ^ 0xda7a`, and masses_from_values turns the values into
/// masses.
[[nodiscard]] SeededInputs seeded_inputs(const std::string& topology_spec, std::uint64_t seed,
                                         core::Aggregate aggregate);

struct ReduceOptions {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::Aggregate aggregate = core::Aggregate::kAverage;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Oracle-checked target accuracy (the paper's per-reduction ε): the run
  /// stops once every node's component 0 is within this relative error. The
  /// other components of a vector reduction are not checked and may still be
  /// outside ε.
  double target_accuracy = 1e-15;
  /// Iteration cap terminating reductions that never reach the target — the
  /// mechanism behind dmGS(PF)'s accuracy loss in Fig. 8.
  std::size_t max_rounds = 100000;
  FaultPlan faults;
  /// Record a TracePoint every `trace_every` rounds (0 = no trace).
  std::size_t trace_every = 0;
};

struct ReduceResult {
  /// Estimate per node and component; NaN rows for crashed nodes.
  std::vector<std::vector<double>> estimates;
  std::size_t rounds = 0;
  bool reached_target = false;
  double max_error = 0.0;     ///< oracle max relative error at the end
  std::vector<double> target; ///< oracle aggregate per component
  RunStats stats;
  Trace trace;

  /// Estimate of component k on node i.
  [[nodiscard]] double estimate(std::size_t node, std::size_t k = 0) const {
    return estimates.at(node).at(k);
  }
};

/// Runs one scalar reduction (see ReduceOptions).
[[nodiscard]] ReduceResult reduce(const net::Topology& topology, std::span<const double> values,
                                  const ReduceOptions& options);

/// Runs one vector-payload reduction (d-dimensional, d ≤ core::kMaxDim).
[[nodiscard]] ReduceResult reduce_vectors(const net::Topology& topology,
                                          std::span<const core::Values> values,
                                          const ReduceOptions& options);

/// Weighted mean: every node's estimate converges to Σ wᵢ·xᵢ / Σ wᵢ. All
/// weights must be positive (the paper: "scalar weights are exchanged which
/// determine the type of aggregation"). `options.aggregate` is ignored.
[[nodiscard]] ReduceResult reduce_weighted(const net::Topology& topology,
                                           std::span<const double> values,
                                           std::span<const double> weights,
                                           const ReduceOptions& options);

}  // namespace pcf::sim
