// Differential oracle harness.
//
// The strongest correctness argument this codebase can make is agreement:
// replay the SAME seeded scenario (topology × fault plan × communication
// schedule — node i draws its targets from its own forked RNG stream, so the
// schedule is identical across algorithms) through every reduction algorithm
// and cross-check the converged aggregates against each other and against the
// exact reference the oracle computes with compensated summation. Algorithms
// disagree only where the paper says they must (push-sum under faults, both
// PCF variants under memory corruption) — the harness encodes that table and
// treats any OTHER disagreement as a bug, dumping a minimized reproduction
// spec (seed + CLI flags, round-trippable through sim/fault_spec.hpp) so the
// failure can be replayed with the pcflow tool directly.
#pragma once

#include <string>
#include <vector>

#include "core/reducer.hpp"
#include "sim/faults.hpp"

namespace pcf::sim {

/// One replayable scenario. Its inputs come from seeded_inputs, as the
/// pcflow CLI's do, so a dumped repro command reproduces the run bit for bit.
struct DifferentialScenario {
  std::string name;                  ///< label used in reports and repro files
  std::string topology_spec;         ///< net::Topology::parse() grammar
  core::Aggregate aggregate = core::Aggregate::kAverage;
  std::uint64_t seed = 1;
  std::size_t max_rounds = 20000;    ///< convergence cap per algorithm
  FaultPlan faults;
};

struct DifferentialConfig {
  /// Algorithms to replay; empty selects the full roster.
  std::vector<core::Algorithm> algorithms;
  /// A trusted algorithm must converge to within this relative error of the
  /// exact reference…
  double reference_tol = 1e-7;
  /// …and any two trusted algorithms must agree to within this.
  double agreement_tol = 1e-7;
  /// When non-empty, a divergence writes `<dir>/differential_<name>_s<seed>.csv`.
  std::string repro_dir;
};

struct AlgorithmOutcome {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  bool trusted = false;    ///< expected to reach the exact aggregate under this plan
  bool converged = false;  ///< reached reference_tol within max_rounds
  std::size_t rounds = 0;  ///< rounds actually executed
  double max_error = 0.0;  ///< final oracle max relative error
  double consensus = 0.0;  ///< mean estimate over live nodes
  double spread = 0.0;     ///< max pairwise estimate difference (consensus quality)
};

struct DifferentialResult {
  double reference = 0.0;  ///< exact aggregate (component 0)
  std::vector<AlgorithmOutcome> outcomes;
  std::vector<std::string> divergences;  ///< empty == every cross-check passed
  std::string repro_path;                ///< repro CSV written on divergence
  [[nodiscard]] bool diverged() const noexcept { return !divergences.empty(); }
};

/// The expected-agreement table: is `algorithm` supposed to reach the exact
/// aggregate under `plan`? Push-sum tolerates no faults at all; no algorithm
/// is held to exactness under packet or memory corruption (only robust-PCF
/// even aims at the latter, and only for mantissa flips).
[[nodiscard]] bool algorithm_trusted(core::Algorithm algorithm, const FaultPlan& plan);

/// The pcflow invocation reproducing `scenario` for one algorithm.
[[nodiscard]] std::string repro_command(const DifferentialScenario& scenario,
                                        core::Algorithm algorithm);

/// Replays the scenario through every selected algorithm and cross-checks.
[[nodiscard]] DifferentialResult run_differential(const DifferentialScenario& scenario,
                                                  const DifferentialConfig& config = {});

}  // namespace pcf::sim
