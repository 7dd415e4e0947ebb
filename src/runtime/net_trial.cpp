#include "runtime/net_trial.hpp"

#include <algorithm>
#include <cmath>

#include "net/topology.hpp"
#include "sim/differential.hpp"
#include "sim/metrics.hpp"
#include "sim/reduce.hpp"
#include "sim/session.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace pcf::runtime {

namespace {

/// Folds the observed fault profile into a sim::FaultPlan so the verdict can
/// come from the SAME trust table the differential harness uses. Mapping:
///  * datagram loss/duplication/reordering rates map onto the probabilistic
///    knobs directly;
///  * any detector down that later cleared (a restarted or stalled shard
///    reviving) is a false positive from the reducers' point of view — the
///    peer was never permanently gone — so it maps onto false_detects, the
///    category that legitimately un-trusts PCF's cancellation handshakes;
///  * a shard lost for good (restart budget burned, nonzero exit) maps onto
///    node_crashes.
/// The table only inspects emptiness of the event lists, so one
/// representative event per observed category suffices.
[[nodiscard]] sim::FaultPlan reconcile_measured_plan(const SocketTrialReport& trial,
                                                     double loss_rate, double dup_rate,
                                                     double reorder_rate) {
  sim::FaultPlan plan;
  plan.message_loss_prob = loss_rate;
  plan.duplicate_prob = dup_rate;
  plan.reorder_prob = reorder_rate;
  std::uint64_t downs = 0;
  std::uint64_t ups = 0;
  for (const ShardReport& s : trial.shards) {
    downs += s.detector_downs;
    ups += s.detector_ups;
  }
  if (ups > 0) {
    plan.false_detects.push_back({.time = 0.0, .a = 0, .b = 0, .clear_delay = 1.0});
  }
  if (trial.failures > 0 || downs > ups) {
    plan.node_crashes.push_back({.time = 0.0, .node = 0});
  }
  return plan;
}

void aggregate_perf(const SocketTrialReport& trial, PerfCounters& perf) {
  for (const ShardReport& s : trial.shards) {
    const LinkCounters rx = s.rx_total();
    perf.datagrams_sent += s.datagrams_sent;
    perf.datagrams_received += rx.received;
    perf.datagrams_lost += rx.lost;
    perf.datagrams_duplicated += rx.duplicated;
    perf.datagrams_reordered += rx.reordered;
    perf.frames_rejected += s.frames_rejected;
    perf.heartbeats_sent += s.heartbeats_sent;
    perf.detector_downs += s.detector_downs;
    perf.detector_ups += s.detector_ups;
    perf.mailbox_blocked_pushes += s.mailbox_blocked_pushes;
    perf.mailbox_high_watermark =
        std::max(perf.mailbox_high_watermark, s.mailbox_high_watermark);
  }
}

}  // namespace

NetTrialReport run_net_trial(const NetTrialOptions& options) {
  PCF_CHECK_MSG(!options.run_dir.empty(), "net trial needs a run_dir");

  // Same seed derivation as the pcflow CLI: a net trial and a simulator run
  // with equal seeds reduce the identical scenario.
  const auto [topology, masses] =
      sim::seeded_inputs(options.topology_spec, options.seed, options.aggregate);

  SocketRuntimeConfig config = options.runtime;
  config.algorithm = options.algorithm;
  config.reducer = options.reducer;
  config.seed = options.seed;
  config.run_dir = options.run_dir;

  NetTrialReport report;
  report.nodes = topology.size();
  {
    SocketRuntime runtime(topology, masses, config);
    report.trial = runtime.run(options.chaos);
  }

  const sim::Oracle oracle(masses);
  report.reference = oracle.target(0);
  const std::vector<double> estimates = report.trial.estimates_by_node(topology.size());
  double mean = 0.0;
  for (const double e : estimates) {
    if (std::isnan(e)) continue;
    ++report.reporting_nodes;
    mean += e;
    report.max_rel_error = std::max(report.max_rel_error, oracle.error_of(e));
  }
  report.mean_estimate = report.reporting_nodes > 0
                             ? mean / static_cast<double>(report.reporting_nodes)
                             : std::numeric_limits<double>::quiet_NaN();

  report.measured = reconcile_measured_plan(report.trial, report.trial.measured_loss_rate(),
                                            report.trial.measured_duplicate_rate(),
                                            report.trial.measured_reorder_rate());
  report.trusted = sim::algorithm_trusted(options.algorithm, report.measured);
  report.within_envelope = !report.trusted || report.max_rel_error <= options.error_tol;
  report.ok = report.trial.completed && report.within_envelope;
  aggregate_perf(report.trial, report.perf);

  if (options.session_baseline) {
    // The same reduction served warm in process: cold query cost, then a
    // warm refresh — the round-cost yardstick for the socket deployment.
    sim::SessionOptions session_options;
    session_options.algorithm = options.algorithm;
    session_options.aggregate = options.aggregate;
    session_options.reducer = options.reducer;
    session_options.seed = options.seed;
    session_options.target_accuracy = options.error_tol;
    std::vector<core::Values> inputs;  // the node values, as the masses carry them
    for (const core::Mass& m : masses) inputs.push_back(m.s);
    sim::ReductionSession session(topology, inputs, session_options);
    const sim::SessionQueryResult cold = session.query(inputs);
    const sim::SessionQueryResult warm = session.refresh();
    report.session_compared = true;
    report.session_cold_rounds = cold.rounds;
    report.session_warm_rounds = warm.rounds;
    report.session_max_error = cold.max_error;
  }
  return report;
}

std::string net_trial_report_to_json(const NetTrialOptions& options,
                                     const NetTrialReport& report) {
  JsonWriter json;
  json.begin_object();
  json.field("schema", "pcflow-net");
  json.field("schema_version", std::int64_t{1});
  // minor 1: mailbox_overflow_blocks split into mailbox_blocked_pushes +
  // mailbox_rejected_pushes (measured + per-shard objects). Additive readers
  // keyed on schema_version keep working; the overflow key is gone.
  // minor 2: mailbox_rejected_pushes is gone from both places; it was
  // always 0, since the socket RX path only ever blocks.
  json.field("schema_minor", std::int64_t{2});
  json.field("algorithm", core::to_string(options.algorithm));
  json.field("topology", options.topology_spec);
  json.field("aggregate", options.aggregate == core::Aggregate::kSum ? "sum" : "avg");
  json.field("seed", options.seed);
  json.field("nodes", static_cast<std::uint64_t>(report.nodes));
  // "num_shards", not "shards": the per-shard report array below owns that
  // key, and JSON parsers keep only the last duplicate.
  json.field("num_shards", static_cast<std::uint64_t>(options.runtime.num_shards));
  json.field("steps_per_node", static_cast<std::uint64_t>(options.runtime.steps_per_node));
  json.field("mailbox_capacity", static_cast<std::uint64_t>(options.runtime.mailbox_capacity));
  json.field("socket_recv_buffer", std::int64_t{options.runtime.socket_recv_buffer});
  json.field("heartbeat_period_ms", std::int64_t{options.runtime.heartbeat_period_ms});
  json.field("heartbeat_timeout_ms", std::int64_t{options.runtime.heartbeat_timeout_ms});
  json.field("checkpoint_every_steps",
             static_cast<std::uint64_t>(options.runtime.checkpoint_every_steps));

  json.key("chaos");
  json.begin_object();
  json.field("kill_shard", std::int64_t{options.chaos.kill_shard});
  json.field("kill_after_ms", std::int64_t{options.chaos.kill_after_ms});
  json.field("stall_shard", std::int64_t{options.chaos.stall_shard});
  json.field("stall_after_ms", std::int64_t{options.chaos.stall_after_ms});
  json.field("stall_ms", std::int64_t{options.chaos.stall_ms});
  json.end_object();

  const LinkCounters rx = report.trial.rx_total();
  json.key("measured");
  json.begin_object();
  json.field("datagrams_sent", report.trial.datagrams_sent());
  json.field("datagrams_received", rx.received);
  json.field("datagrams_lost", rx.lost);
  json.field("datagrams_duplicated", rx.duplicated);
  json.field("datagrams_reordered", rx.reordered);
  json.field("loss_rate", report.trial.measured_loss_rate());
  json.field("duplicate_rate", report.trial.measured_duplicate_rate());
  json.field("reorder_rate", report.trial.measured_reorder_rate());
  json.field("frames_rejected", report.perf.frames_rejected);
  json.field("heartbeats_sent", report.perf.heartbeats_sent);
  json.field("detector_downs", report.perf.detector_downs);
  json.field("detector_ups", report.perf.detector_ups);
  json.field("mailbox_blocked_pushes", report.perf.mailbox_blocked_pushes);
  json.field("mailbox_high_watermark", report.perf.mailbox_high_watermark);
  json.end_object();

  json.key("supervision");
  json.begin_object();
  json.field("restarts", static_cast<std::uint64_t>(report.trial.restarts));
  json.field("failures", static_cast<std::uint64_t>(report.trial.failures));
  json.field("completed", report.trial.completed);
  std::uint64_t max_epoch = 0;
  for (const ShardReport& s : report.trial.shards) {
    max_epoch = std::max(max_epoch, static_cast<std::uint64_t>(s.epoch));
  }
  json.field("max_epoch", max_epoch);
  json.end_object();

  json.key("accuracy");
  json.begin_object();
  json.field("reference", report.reference);
  json.field("max_rel_error", report.max_rel_error);
  json.field("mean_estimate", report.mean_estimate);
  json.field("reporting_nodes", static_cast<std::uint64_t>(report.reporting_nodes));
  json.field("total_nodes", static_cast<std::uint64_t>(report.nodes));
  json.end_object();

  json.key("trust");
  json.begin_object();
  json.field("trusted", report.trusted);
  json.field("within_envelope", report.within_envelope);
  json.field("error_tol", options.error_tol);
  json.field("ok", report.ok);
  json.end_object();

  json.key("session_baseline");
  if (report.session_compared) {
    json.begin_object();
    json.field("cold_rounds", static_cast<std::uint64_t>(report.session_cold_rounds));
    json.field("warm_rounds", static_cast<std::uint64_t>(report.session_warm_rounds));
    json.field("max_error", report.session_max_error);
    json.end_object();
  } else {
    json.null();
  }

  json.key("shards");
  json.begin_array();
  for (const ShardReport& s : report.trial.shards) {
    json.begin_object();
    json.field("shard", static_cast<std::uint64_t>(s.shard));
    json.field("epoch", static_cast<std::uint64_t>(s.epoch));
    json.field("produced", s.produced);
    json.field("restored_from_step", s.restored_from_step);
    json.field("datagrams_sent", s.datagrams_sent);
    json.field("detector_downs", s.detector_downs);
    json.field("detector_ups", s.detector_ups);
    json.field("mailbox_blocked_pushes", s.mailbox_blocked_pushes);
    json.field("mailbox_high_watermark", s.mailbox_high_watermark);
    json.key("rx_from");
    json.begin_array();
    for (const LinkCounters& link : s.rx_from) {
      json.begin_object();
      json.field("received", link.received);
      json.field("lost", link.lost);
      json.field("duplicated", link.duplicated);
      json.field("reordered", link.reordered);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

}  // namespace pcf::runtime
