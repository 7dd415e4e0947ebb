#include "bench/bench.hpp"

#include <utility>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/perf.hpp"

namespace pcf::bench {

namespace {

/// Raw per-trial outcome; aggregated serially after the parallel phase so
/// that thread count cannot influence summation order.
struct TrialResult {
  bool converged = false;
  std::size_t rounds = 0;
  std::size_t nodes = 0;
  double final_max_error = 0.0;
  std::uint64_t messages_sent = 0;
  std::uint64_t doubles_on_wire = 0;
  std::uint64_t deliveries = 0;
  double wall_seconds = 0.0;
  double faults_seconds = 0.0;
  double gossip_seconds = 0.0;
  double delivery_seconds = 0.0;
};

sim::FaultPlan make_faults(const Scenario& s, const net::Topology& topology) {
  sim::FaultPlan plan;
  const double when = static_cast<double>(s.max_rounds) / 4.0;
  if (s.fault_profile == "none") {
    return plan;
  }
  if (s.fault_profile == "loss") {
    plan.message_loss_prob = 0.1;
    return plan;
  }
  if (s.fault_profile == "crash") {
    plan.node_crashes.push_back({when, static_cast<net::NodeId>(topology.size() / 2)});
    return plan;
  }
  if (s.fault_profile == "linkfail") {
    const auto edges = topology.edges();
    PCF_CHECK_MSG(!edges.empty(), "bench: topology has no edges");
    plan.link_failures.push_back({when, edges.front().first, edges.front().second});
    return plan;
  }
  if (s.fault_profile == "churn") {
    // Continuous fail/heal cycling: each live link fails with p = 0.002 per
    // round and revives after a mean-20-round exponential outage.
    plan.churn_fail_prob = 0.002;
    plan.churn_heal_rate = 0.05;
    return plan;
  }
  PCF_CHECK_MSG(false, "bench: unknown fault profile '" << s.fault_profile << "'");
  return plan;
}

TrialResult run_trial(const Scenario& s, std::uint64_t suite_seed, std::size_t trial_index) {
  const std::uint64_t seed = trial_seed(suite_seed, trial_index);

  // Same stream layout as the pcflow CLI: topology from seed^0x7070, input
  // data from seed^0xda7a, engine streams forked from the seed itself.
  Rng topo_rng(seed ^ 0x7070ULL);
  const auto topology = net::Topology::parse(s.topology, topo_rng);

  Rng data_rng(seed ^ 0xda7aULL);
  std::vector<double> values(topology.size());
  for (auto& v : values) v = data_rng.uniform();
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  sim::SyncEngineConfig config;
  config.algorithm = core::parse_algorithm(s.algorithm);
  config.seed = seed;
  config.faults = make_faults(s, topology);
  PCF_CHECK_MSG(s.engine == "legacy" || s.engine == "arena",
                "bench: unknown engine '" << s.engine << "' (want legacy|arena)");
  config.mode = s.engine == "arena" ? sim::EngineMode::kArena : sim::EngineMode::kLegacy;
  PCF_CHECK_MSG(s.delivery == "sequential" || s.delivery == "crossing",
                "bench: unknown delivery '" << s.delivery << "' (want sequential|crossing)");
  config.delivery =
      s.delivery == "crossing" ? sim::Delivery::kCrossing : sim::Delivery::kSequential;

  sim::SyncEngine engine(topology, masses, config);
  sim::RunStats stats;
  if (s.fixed_rounds > 0) {
    // Scale mode: raw round throughput, no per-round O(n) oracle scan.
    engine.run(s.fixed_rounds);
    stats = engine.stats();
    stats.reached_target = engine.max_error() <= s.tol;
  } else {
    stats = engine.run_until_error(s.tol, s.max_rounds);
  }

  TrialResult r;
  r.converged = stats.reached_target;
  r.rounds = engine.round();
  r.nodes = topology.size();
  r.final_max_error = engine.max_error();
  r.messages_sent = stats.messages_sent;
  r.doubles_on_wire = stats.doubles_sent;
  const PerfCounters& perf = engine.perf();
  r.deliveries = perf.deliveries;
  r.wall_seconds = perf.total_seconds();
  r.faults_seconds = perf.seconds(PerfCounters::Phase::kFaults);
  r.gossip_seconds = perf.seconds(PerfCounters::Phase::kGossip);
  r.delivery_seconds = perf.seconds(PerfCounters::Phase::kDelivery);
  return r;
}

void emit_stats(JsonWriter& json, std::string_view name, const RunningStats& stats) {
  json.key(name);
  json.begin_object();
  json.field("mean", stats.mean());
  json.field("min", stats.count() ? stats.min() : 0.0);
  json.field("max", stats.count() ? stats.max() : 0.0);
  json.end_object();
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t suite_seed, std::size_t index) {
  std::uint64_t state = suite_seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
  return splitmix64(state);
}

std::vector<Scenario> make_suite(const std::string& name) {
  std::vector<Scenario> suite;
  const auto add = [&suite](std::string algorithm, std::string topology,
                            std::string fault_profile, std::size_t trials,
                            std::size_t max_rounds) {
    Scenario s;
    s.name = algorithm + "/" + topology + "/" + fault_profile;
    s.algorithm = std::move(algorithm);
    s.topology = std::move(topology);
    s.fault_profile = std::move(fault_profile);
    s.trials = trials;
    s.max_rounds = max_rounds;
    suite.push_back(std::move(s));
  };
  // Scale cells: arena engine, fixed-round throughput runs. The name encodes
  // engine/delivery so cells stay unique within the suite.
  const auto add_scale = [&suite](std::string algorithm, std::string topology,
                                  std::string engine, std::string delivery,
                                  std::size_t fixed_rounds) {
    Scenario s;
    s.name = algorithm + "/" + topology + "/" + engine + "-" + delivery;
    s.algorithm = std::move(algorithm);
    s.topology = std::move(topology);
    s.trials = 1;
    s.engine = std::move(engine);
    s.delivery = std::move(delivery);
    s.fixed_rounds = fixed_rounds;
    suite.push_back(std::move(s));
  };

  if (name == "fast") {
    // CI smoke suite: every algorithm, every topology family, every fault
    // profile is exercised at least once, on graphs small enough for a
    // sub-second Release run.
    for (const char* topo : {"ring:16", "hypercube:4", "torus2d:4x4", "regular:16:4"}) {
      add("pcf", topo, "none", 2, 1500);
    }
    add("pcf", "ring:16", "loss", 2, 1500);
    add("pcf", "ring:16", "crash", 2, 1500);
    add("pcf", "ring:16", "churn", 2, 1500);
    add("ps", "ring:16", "none", 2, 1500);
    add("pf", "ring:16", "none", 2, 1500);
    add("fu", "ring:16", "none", 2, 1500);
    // Roster additions: the tree allreduce converges in O(diameter) fault-free
    // rounds (and self-heals loss); the FU/MD hybrid matches the gossip cells.
    add("corr", "ring:16", "none", 2, 1500);
    add("corr", "ring:16", "loss", 2, 1500);
    add("fumd", "ring:16", "none", 2, 1500);
    add("fumd", "ring:16", "churn", 2, 1500);
    return suite;
  }

  if (name == "standard") {
    // The full grid. Push-sum has zero fault tolerance, so it only runs the
    // fault-free profile (the others would just report its known failure).
    for (const char* topo : {"ring:32", "torus2d:6x6", "hypercube:5", "regular:32:4"}) {
      add("ps", topo, "none", 4, 4000);
      for (const char* algorithm : {"pf", "pcf", "fu", "fumd"}) {
        for (const char* profile : {"none", "loss", "crash", "linkfail", "churn"}) {
          add(algorithm, topo, profile, 4, 4000);
        }
      }
      // The tree algorithm's grid charts the paper's trade-off: exact and
      // diameter-fast when the schedule holds (none/loss), degrading to
      // fragment consensus under exclusions — converged_trials records it.
      for (const char* profile : {"none", "loss", "crash", "linkfail", "churn"}) {
        add("corr", topo, profile, 4, 4000);
      }
    }
    return suite;
  }

  if (name == "scale") {
    // Million-node throughput suite (the committed BENCH_pcflow.json
    // baseline). Sequential delivery keeps no wire, so the big cells measure
    // pure arena gossip; the crossing cells measure the round's wire (every
    // packet buffered, then drained). PCF/FU carry 2× the per-edge state, so
    // they run at quarter size.
    add_scale("ps", "torus2d:1000x1000", "arena", "sequential", 5);
    add_scale("pf", "torus2d:1000x1000", "arena", "sequential", 5);
    add_scale("pcf", "torus2d:500x500", "arena", "sequential", 5);
    add_scale("fu", "torus2d:500x500", "arena", "sequential", 5);
    add_scale("corr", "torus2d:500x500", "arena", "sequential", 5);
    add_scale("fumd", "torus2d:500x500", "arena", "sequential", 5);
    add_scale("ps", "regular:200000:6", "arena", "sequential", 10);
    add_scale("ps", "torus2d:250x250", "arena", "crossing", 10);
    add_scale("pcf", "torus2d:250x250", "arena", "crossing", 10);
    add_scale("ps", "torus2d:316x316", "arena", "sequential", 5);
    return suite;
  }

  if (name == "scale-fast") {
    // CI-sized cut of "scale": same shape (arena sequential + crossing),
    // graphs small enough for sanitizer runs.
    add_scale("ps", "torus2d:60x60", "arena", "sequential", 20);
    add_scale("pf", "torus2d:60x60", "arena", "sequential", 20);
    add_scale("pcf", "torus2d:40x40", "arena", "sequential", 20);
    add_scale("fu", "torus2d:40x40", "arena", "sequential", 20);
    add_scale("corr", "torus2d:40x40", "arena", "sequential", 20);
    add_scale("fumd", "torus2d:40x40", "arena", "sequential", 20);
    add_scale("ps", "torus2d:40x40", "arena", "crossing", 20);
    add_scale("pcf", "torus2d:40x40", "arena", "crossing", 20);
    return suite;
  }

  PCF_CHECK_MSG(false, "bench: unknown suite '" << name
                                                << "' (want fast|standard|scale|scale-fast)");
  return suite;
}

BenchReport run_bench(const BenchOptions& options) {
  const std::vector<Scenario> suite = make_suite(options.suite);

  // Flatten to (scenario, trial) jobs so small suites still fill the pool.
  struct Job {
    std::size_t scenario;
    std::size_t trial;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < suite.size(); ++s) {
    for (std::size_t t = 0; t < suite[s].trials; ++t) jobs.push_back({s, t});
  }

  std::vector<std::vector<TrialResult>> trials(suite.size());
  for (std::size_t s = 0; s < suite.size(); ++s) trials[s].resize(suite[s].trials);

  // Each job writes only its own slot; aggregation below is serial and in
  // fixed order, so the report is independent of the thread count.
  parallel_for_index(jobs.size(), options.threads, [&](std::size_t j) {
    const Job& job = jobs[j];
    trials[job.scenario][job.trial] = run_trial(suite[job.scenario], options.seed, job.trial);
  });

  BenchReport report;
  report.options = options;
  report.scenarios.reserve(suite.size());
  for (std::size_t s = 0; s < suite.size(); ++s) {
    ScenarioResult agg;
    agg.scenario = suite[s];
    for (const TrialResult& t : trials[s]) {
      agg.nodes = t.nodes;
      if (t.converged) ++agg.converged_trials;
      agg.rounds.add(static_cast<double>(t.rounds));
      agg.final_max_error.add(t.final_max_error);
      agg.messages_sent += t.messages_sent;
      agg.doubles_on_wire += t.doubles_on_wire;
      agg.deliveries += t.deliveries;
      agg.wall_seconds += t.wall_seconds;
      agg.faults_seconds += t.faults_seconds;
      agg.gossip_seconds += t.gossip_seconds;
      agg.delivery_seconds += t.delivery_seconds;
    }
    report.scenarios.push_back(std::move(agg));
  }
  return report;
}

std::string report_to_json(const BenchReport& report) {
  JsonWriter json;
  json.begin_object();
  json.field("schema", "pcflow-bench");
  // v2: + engine / shards / delivery / fixed_rounds per scenario (the scale
  // suites). v3: the algorithm enum grew corr (correction allreduce) and fumd
  // (FU/MD hybrid) cells across every suite. v4: the round loop is serial, so
  // `shards` left every scenario and the ":N" suffix left scale cell names.
  json.field("schema_version", std::int64_t{4});
  json.field("suite", report.options.suite);
  json.field("seed", report.options.seed);
  // Note: the thread count is deliberately NOT in the document — results are
  // identical for any value (the determinism contract CI checks by byte
  // comparison), so recording it would be the one field breaking the compare.
  json.field("scenario_count", static_cast<std::uint64_t>(report.scenarios.size()));
  json.key("scenarios");
  json.begin_array();
  for (const ScenarioResult& r : report.scenarios) {
    json.begin_object();
    json.field("name", r.scenario.name);
    json.field("algorithm", r.scenario.algorithm);
    json.field("topology", r.scenario.topology);
    json.field("fault_profile", r.scenario.fault_profile);
    json.field("engine", r.scenario.engine);
    json.field("delivery", r.scenario.delivery);
    json.field("fixed_rounds", static_cast<std::uint64_t>(r.scenario.fixed_rounds));
    json.field("nodes", static_cast<std::uint64_t>(r.nodes));
    json.field("trials", static_cast<std::uint64_t>(r.scenario.trials));
    json.field("max_rounds", static_cast<std::uint64_t>(r.scenario.max_rounds));
    json.field("tol", r.scenario.tol);
    json.field("converged_trials", static_cast<std::uint64_t>(r.converged_trials));
    emit_stats(json, "rounds", r.rounds);
    emit_stats(json, "final_max_error", r.final_max_error);
    json.field("messages_sent", r.messages_sent);
    json.field("doubles_on_wire", r.doubles_on_wire);
    json.field("deliveries", r.deliveries);
    json.key("timing");
    if (report.options.include_timing) {
      const double total_rounds = r.rounds.mean() * static_cast<double>(r.rounds.count());
      json.begin_object();
      json.field("wall_seconds", r.wall_seconds);
      json.key("phase_seconds");
      json.begin_object();
      json.field("faults", r.faults_seconds);
      json.field("gossip", r.gossip_seconds);
      json.field("delivery", r.delivery_seconds);
      json.end_object();
      json.field("rounds_per_sec", r.wall_seconds > 0.0 ? total_rounds / r.wall_seconds : 0.0);
      json.field("deliveries_per_sec",
                 r.wall_seconds > 0.0 ? static_cast<double>(r.deliveries) / r.wall_seconds : 0.0);
      json.end_object();
    } else {
      json.null();  // determinism mode: no wall-clock in the document
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

}  // namespace pcf::bench
