#include "sim/differential.hpp"

#include <cmath>
#include <sstream>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/fault_spec.hpp"
#include "sim/reduce.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

namespace pcf::sim {

namespace {

const char* cli_name(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::kPushSum: return "ps";
    case core::Algorithm::kPushFlow: return "pf";
    case core::Algorithm::kPushCancelFlow: return "pcf";
    case core::Algorithm::kFlowUpdating: return "fu";
    case core::Algorithm::kCorrectionAllreduce: return "corr";
    case core::Algorithm::kFuMassHybrid: return "fumd";
  }
  return "?";
}

std::string format_prob(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

bool algorithm_trusted(core::Algorithm algorithm, const FaultPlan& plan) {
  if (plan.bit_flip_prob > 0.0 || plan.state_flip_prob > 0.0) return false;
  if (algorithm == core::Algorithm::kPushSum) return plan.empty();
  if (algorithm == core::Algorithm::kCorrectionAllreduce) {
    // The tree algorithm is EXACT whenever the schedule stays intact:
    // absolute idempotent reports self-heal loss, duplication, reorder and
    // data updates. Any exclusion (failure, crash, false detect, churn) can
    // orphan a subtree — re-attachment needs a live neighbor at strictly
    // smaller depth, which general topologies don't guarantee — and fragment
    // roots then honestly report fragment aggregates. That degradation is the
    // paper's trade-off, not an implementation bug, so the oracle only trusts
    // the fault-free (plus message-level noise) cells.
    return plan.link_failures.empty() && plan.node_crashes.empty() &&
           plan.node_rejoins.empty() && plan.false_detects.empty() &&
           plan.churn_fail_prob == 0.0;
  }
  if (algorithm == core::Algorithm::kPushCancelFlow &&
      (!plan.false_detects.empty() || plan.churn_fail_prob > 0.0)) {
    // Repeated (or falsely detected) link exclusions can interrupt PCF
    // cancellation handshakes mid-transition; each interruption biases the
    // conserved mass by up to one in-flight flow (the two-generals window,
    // see core/protocol.hpp), so PCF's consensus legitimately deviates
    // from the exact reference. PF and FU exclusions are exactly symmetric
    // and stay conservative.
    return false;
  }
  return true;  // the flow algorithms self-heal loss, exclusions, and updates
}

std::string repro_command(const DifferentialScenario& scenario, core::Algorithm algorithm) {
  std::ostringstream os;
  os << "pcflow --topology=" << scenario.topology_spec << " --algorithm=" << cli_name(algorithm)
     << " --aggregate=" << (scenario.aggregate == core::Aggregate::kSum ? "sum" : "avg")
     << " --seed=" << scenario.seed << " --epsilon=1e-9 --max-rounds=" << scenario.max_rounds;
  const FaultPlan& plan = scenario.faults;
  if (plan.message_loss_prob > 0.0) os << " --loss=" << format_prob(plan.message_loss_prob);
  if (plan.bit_flip_prob > 0.0) os << " --flip=" << format_prob(plan.bit_flip_prob);
  if (plan.detection_delay > 0.0) os << " --detection-delay=" << format_prob(plan.detection_delay);
  if (plan.duplicate_prob > 0.0) os << " --duplicate=" << format_prob(plan.duplicate_prob);
  if (plan.reorder_prob > 0.0) os << " --reorder=" << format_prob(plan.reorder_prob);
  if (plan.churn_fail_prob > 0.0) os << " --churn-fail=" << format_prob(plan.churn_fail_prob);
  if (plan.churn_heal_rate > 0.0) os << " --churn-heal=" << format_prob(plan.churn_heal_rate);
  if (!plan.link_failures.empty()) os << " --link-fail=" << format_link_failures(plan.link_failures);
  if (!plan.node_crashes.empty()) os << " --crash=" << format_node_crashes(plan.node_crashes);
  if (!plan.data_updates.empty()) os << " --update=" << format_data_updates(plan.data_updates);
  if (!plan.link_heals.empty()) os << " --link-heal=" << format_link_heals(plan.link_heals);
  if (!plan.node_rejoins.empty()) os << " --rejoin=" << format_node_rejoins(plan.node_rejoins);
  if (!plan.false_detects.empty()) {
    os << " --false-detect=" << format_false_detects(plan.false_detects);
  }
  return os.str();
}

DifferentialResult run_differential(const DifferentialScenario& scenario,
                                    const DifferentialConfig& config) {
  std::vector<core::Algorithm> algorithms = config.algorithms;
  if (algorithms.empty()) {
    algorithms = {core::Algorithm::kPushSum,        core::Algorithm::kPushFlow,
                  core::Algorithm::kPushCancelFlow, core::Algorithm::kFlowUpdating,
                  core::Algorithm::kCorrectionAllreduce, core::Algorithm::kFuMassHybrid};
  }

  // The CLI's seed layout, so repro commands replay this exact run.
  const auto [topology, masses] =
      seeded_inputs(scenario.topology_spec, scenario.seed, scenario.aggregate);

  // With a crash (or rejoin — which also retargets), each algorithm's oracle
  // retargets from ITS OWN survivors' masses at detection time — the exact
  // aggregates legitimately differ, so only per-algorithm convergence and
  // consensus are comparable.
  const bool comparable_targets =
      scenario.faults.node_crashes.empty() && scenario.faults.node_rejoins.empty();
  const auto settle =
      static_cast<std::size_t>(scenario.faults.latest_event_time()) + 10;
  PCF_CHECK_MSG(settle < scenario.max_rounds,
                "scenario max_rounds must exceed the last fault event");

  DifferentialResult result;
  std::vector<std::string>& diverged = result.divergences;
  for (const core::Algorithm algorithm : algorithms) {
    SyncEngineConfig engine_config;
    engine_config.algorithm = algorithm;
    engine_config.faults = scenario.faults;
    engine_config.seed = scenario.seed;
    SyncEngine engine(topology, masses, engine_config);
    if (result.outcomes.empty()) result.reference = engine.oracle().target();

    // Run through every scheduled fault first, then demand convergence.
    engine.run(settle);
    const auto stats = engine.run_until_error(config.reference_tol, scenario.max_rounds - settle);

    AlgorithmOutcome outcome;
    outcome.algorithm = algorithm;
    outcome.trusted = algorithm_trusted(algorithm, scenario.faults);
    outcome.converged = stats.reached_target;
    outcome.rounds = engine.round();
    outcome.max_error = engine.max_error();
    const auto estimates = engine.estimates();
    double sum = 0.0;
    for (const double e : estimates) sum += e;
    outcome.consensus = estimates.empty() ? 0.0 : sum / static_cast<double>(estimates.size());
    for (const double e : estimates) {
      outcome.spread = std::max(outcome.spread, std::fabs(e - estimates.front()));
    }

    const double scale = std::max(1.0, std::fabs(result.reference));
    if (outcome.trusted) {
      if (!outcome.converged && comparable_targets) {
        std::ostringstream os;
        os << cli_name(algorithm) << ": expected convergence to " << config.reference_tol
           << " but final max error is " << outcome.max_error << " after " << outcome.rounds
           << " rounds";
        diverged.push_back(os.str());
      }
      if (comparable_targets &&
          std::fabs(outcome.consensus - result.reference) > config.reference_tol * scale) {
        std::ostringstream os;
        os << cli_name(algorithm) << ": consensus " << outcome.consensus
           << " disagrees with the exact reference " << result.reference;
        diverged.push_back(os.str());
      }
      if (!comparable_targets && !outcome.converged) {
        std::ostringstream os;
        os << cli_name(algorithm) << ": expected post-crash convergence but final max error is "
           << outcome.max_error;
        diverged.push_back(os.str());
      }
      for (const AlgorithmOutcome& other : result.outcomes) {
        if (!other.trusted || !comparable_targets) continue;
        if (std::fabs(outcome.consensus - other.consensus) > config.agreement_tol * scale) {
          std::ostringstream os;
          os << cli_name(algorithm) << " and " << cli_name(other.algorithm)
             << " disagree: " << outcome.consensus << " vs " << other.consensus;
          diverged.push_back(os.str());
        }
      }
    }
    result.outcomes.push_back(outcome);
  }

  if (result.diverged() && !config.repro_dir.empty()) {
    Table repro({"field", "value"});
    repro.add_row({"scenario", scenario.name});
    repro.add_row({"topology", scenario.topology_spec});
    repro.add_row({"aggregate", scenario.aggregate == core::Aggregate::kSum ? "sum" : "avg"});
    repro.add_row({"seed", Table::num(static_cast<std::int64_t>(scenario.seed))});
    repro.add_row({"max_rounds", Table::num(static_cast<std::int64_t>(scenario.max_rounds))});
    repro.add_row({"loss", format_prob(scenario.faults.message_loss_prob)});
    repro.add_row({"flip", format_prob(scenario.faults.bit_flip_prob)});
    repro.add_row({"detection_delay", format_prob(scenario.faults.detection_delay)});
    repro.add_row({"duplicate", format_prob(scenario.faults.duplicate_prob)});
    repro.add_row({"reorder", format_prob(scenario.faults.reorder_prob)});
    repro.add_row({"reorder_jitter", format_prob(scenario.faults.reorder_jitter)});
    repro.add_row({"churn_fail", format_prob(scenario.faults.churn_fail_prob)});
    repro.add_row({"churn_heal", format_prob(scenario.faults.churn_heal_rate)});
    repro.add_row({"link_failures", format_link_failures(scenario.faults.link_failures)});
    repro.add_row({"node_crashes", format_node_crashes(scenario.faults.node_crashes)});
    repro.add_row({"data_updates", format_data_updates(scenario.faults.data_updates)});
    repro.add_row({"link_heals", format_link_heals(scenario.faults.link_heals)});
    repro.add_row({"node_rejoins", format_node_rejoins(scenario.faults.node_rejoins)});
    repro.add_row({"false_detects", format_false_detects(scenario.faults.false_detects)});
    repro.add_row({"reference", Table::sci(result.reference, 17)});
    for (const auto& line : result.divergences) repro.add_row({"divergence", line});
    for (const auto& outcome : result.outcomes) {
      repro.add_row({std::string("repro_") + cli_name(outcome.algorithm),
                     repro_command(scenario, outcome.algorithm)});
    }
    result.repro_path = config.repro_dir + "/differential_" + scenario.name + "_s" +
                        std::to_string(scenario.seed) + ".csv";
    if (!repro.write_csv(result.repro_path)) result.repro_path.clear();
  }
  return result;
}

}  // namespace pcf::sim
