#include "sim/reduce.hpp"

#include <cmath>

#include "support/check.hpp"

namespace pcf::sim {

std::vector<core::Mass> masses_from_values(std::span<const double> values,
                                           core::Aggregate aggregate) {
  std::vector<core::Mass> masses;
  masses.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], core::initial_weight(aggregate, i)));
  }
  return masses;
}

std::vector<core::Mass> masses_from_vectors(std::span<const core::Values> values,
                                            core::Aggregate aggregate) {
  std::vector<core::Mass> masses;
  masses.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.emplace_back(values[i], core::initial_weight(aggregate, i));
  }
  return masses;
}

SeededInputs seeded_inputs(const std::string& topology_spec, std::uint64_t seed,
                           core::Aggregate aggregate) {
  Rng topo_rng(seed ^ 0x7070ULL);
  net::Topology topology = net::Topology::parse(topology_spec, topo_rng);
  Rng data_rng(seed ^ 0xda7aULL);
  std::vector<double> values(topology.size());
  for (auto& v : values) v = data_rng.uniform();
  auto masses = masses_from_values(values, aggregate);
  return {std::move(topology), std::move(masses)};
}

namespace {

ReduceResult run_engine(const net::Topology& topology, std::span<const core::Mass> masses,
                        const ReduceOptions& options) {
  SyncEngineConfig cfg;
  cfg.algorithm = options.algorithm;
  cfg.reducer = options.reducer;
  cfg.faults = options.faults;
  cfg.seed = options.seed;
  SyncEngine engine(topology, masses, cfg);

  const std::size_t d = masses.empty() ? 1 : masses.front().dim();
  ReduceResult result;

  if (options.trace_every == 0) {
    result.stats = engine.run_until_error(options.target_accuracy, options.max_rounds);
  } else {
    // Traced run: stop condition checked at every sample point.
    bool reached = false;
    while (engine.round() < options.max_rounds && !reached) {
      for (std::size_t r = 0; r < options.trace_every && engine.round() < options.max_rounds;
           ++r) {
        engine.step();
      }
      result.trace.add(engine.sample());
      reached = engine.max_error() <= options.target_accuracy;
    }
    result.stats = engine.stats();
    result.stats.reached_target = reached;
  }

  result.rounds = engine.round();
  result.reached_target = result.stats.reached_target;
  result.max_error = engine.max_error();
  result.target.resize(d);
  for (std::size_t k = 0; k < d; ++k) result.target[k] = engine.oracle().target(k);

  result.estimates.assign(topology.size(),
                          std::vector<double>(d, std::numeric_limits<double>::quiet_NaN()));
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    if (!engine.node_alive(i)) continue;
    for (std::size_t k = 0; k < d; ++k) result.estimates[i][k] = engine.fleet().estimate(i, k);
  }
  return result;
}

}  // namespace

ReduceResult reduce(const net::Topology& topology, std::span<const double> values,
                    const ReduceOptions& options) {
  PCF_CHECK_MSG(values.size() == topology.size(), "one value per node required");
  const auto masses = masses_from_values(values, options.aggregate);
  return run_engine(topology, masses, options);
}

ReduceResult reduce_vectors(const net::Topology& topology, std::span<const core::Values> values,
                            const ReduceOptions& options) {
  PCF_CHECK_MSG(values.size() == topology.size(), "one value vector per node required");
  const auto masses = masses_from_vectors(values, options.aggregate);
  return run_engine(topology, masses, options);
}

ReduceResult reduce_weighted(const net::Topology& topology, std::span<const double> values,
                             std::span<const double> weights, const ReduceOptions& options) {
  PCF_CHECK_MSG(values.size() == topology.size(), "one value per node required");
  PCF_CHECK_MSG(weights.size() == topology.size(), "one weight per node required");
  std::vector<core::Mass> masses;
  masses.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    PCF_CHECK_MSG(weights[i] > 0.0, "weighted reduction needs positive weights (node " << i
                                        << " has " << weights[i] << ")");
    // Mass (wᵢ·xᵢ, wᵢ): the estimate ratio converges to Σwx / Σw.
    masses.push_back(core::Mass::scalar(weights[i] * values[i], weights[i]));
  }
  return run_engine(topology, masses, options);
}

}  // namespace pcf::sim
