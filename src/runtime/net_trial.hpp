// Loopback-UDP trial driver: the socket runtime judged the simulator's way.
//
// A net trial builds the SAME seeded scenario as the pcflow CLI (topology
// from seed ^ 0x7070, node values from seed ^ 0xda7a), runs it over the
// process-per-shard socket runtime (runtime/socket_runtime.hpp) with an
// optional chaos plan, and then closes the loop that makes measured faults
// meaningful:
//
//  1. accuracy — every reporting node's estimate is scored against the exact
//     sim::Oracle reference, exactly like the in-process engines;
//  2. trust reconciliation — the measured fault profile (UDP loss/dup/reorder
//     rates, restarts, stalls) is converted into a sim::FaultPlan and looked
//     up in the differential trust table (sim::algorithm_trusted): a trusted
//     algorithm must land inside the error envelope, an untrusted one is
//     reported but not judged — the fault model is OBSERVED, the verdict
//     comes from the same table the simulator uses;
//  3. warm-session baseline — the same reduction served in-process by a
//     ReductionSession (cold query + warm refresh), the round-cost yardstick
//     the socket deployment is compared against.
//
// The report serializes to the versioned "pcflow-net" JSON schema consumed
// by `pcflow net-trial` / `pcflow serve` and the CI net-smoke job.
#pragma once

#include <string>

#include "runtime/socket_runtime.hpp"
#include "sim/faults.hpp"
#include "support/perf.hpp"

namespace pcf::runtime {

struct NetTrialOptions {
  /// net::Topology::parse() grammar; the node count must satisfy
  /// num_shards <= nodes.
  std::string topology_spec = "torus2d:8x8";
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::Aggregate aggregate = core::Aggregate::kAverage;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Socket-runtime knobs (algorithm/reducer/seed/run_dir are filled in by
  /// the driver; set the rest freely).
  SocketRuntimeConfig runtime;
  ChaosPlan chaos;
  /// Required: directory for checkpoints, result files (and nothing else).
  std::string run_dir;
  /// Error envelope a TRUSTED algorithm must land in. The socket runtime
  /// stops on a local quiet-estimate rule (no oracle mid-run) under whatever loss the
  /// kernel actually produced, so this is much looser than the simulator's
  /// convergence targets.
  double error_tol = 1e-3;
  /// Also run the in-process warm-session baseline (adds a little CPU).
  bool session_baseline = true;
};

struct NetTrialReport {
  SocketTrialReport trial;
  std::size_t nodes = 0;

  // Accuracy vs. the exact oracle, over reporting nodes only.
  double reference = 0.0;
  double max_rel_error = 0.0;
  double mean_estimate = 0.0;
  std::size_t reporting_nodes = 0;

  // Trust reconciliation.
  sim::FaultPlan measured;  ///< the observed fault profile as a plan
  bool trusted = false;     ///< trust-table verdict for the measured plan
  bool within_envelope = false;  ///< max_rel_error <= tol (always true when untrusted)
  bool ok = false;          ///< completed && within_envelope

  // Warm-session baseline (valid when session_baseline was set).
  bool session_compared = false;
  std::size_t session_cold_rounds = 0;
  std::size_t session_warm_rounds = 0;
  double session_max_error = 0.0;

  /// Process-wide transport totals, aggregated from the per-shard reports
  /// (per-link breakdowns stay in trial.shards[].rx_from).
  PerfCounters perf;
};

/// Runs one loopback socket trial end to end (see file comment).
[[nodiscard]] NetTrialReport run_net_trial(const NetTrialOptions& options);

/// Serializes to the versioned "pcflow-net" JSON schema (version 1).
[[nodiscard]] std::string net_trial_report_to_json(const NetTrialOptions& options,
                                                   const NetTrialReport& report);

}  // namespace pcf::runtime
