// pcflow — command-line driver for the gossip reduction simulator.
//
// Run any algorithm on any topology with any fault plan and watch the error
// trace:
//
//   pcflow --topology=hypercube:6 --algorithm=pcf --rounds=200
//          --link-fail=75:0:1 --trace-every=5
//   pcflow --topology=torus3d:8 --algorithm=pf --aggregate=sum
//          --loss=0.1 --epsilon=1e-12
//   pcflow --topology=grid:8x8 --algorithm=pcf --update=100:3:5.0 --rounds=400
//
// The `bench` subcommand runs the standardized benchmark suite instead:
//
//   pcflow bench --suite=fast --out=BENCH_pcflow.json
//   pcflow bench --suite=standard --threads=8
//
// The `chaos` subcommand sweeps ramping churn intensity across
// algorithm × topology cells and reports recovery / survival quantiles:
//
//   pcflow chaos --fast --out=CHAOS_pcflow.json
//
// The `lint` subcommand runs the project's static-analysis rules
// (determinism, RNG-stream and reducer-protocol discipline):
//
//   pcflow lint --root=. --list-rules
// The `net-trial` subcommand runs the scenario over the
// loopback UDP socket runtime — real processes, measured loss, heartbeat
// failure detection, checkpoint-backed restarts (DESIGN.md §10):
//
//   pcflow net-trial --topology=torus2d:8x8 --shards=4 --out=NET_pcflow.json
//   pcflow net-trial --algorithm=fu --kill-shard=1 --kill-after-ms=150
//
// The `checkpoint` subcommand saves, resumes and verifies engine state blobs
// (DESIGN.md §8):
//
//   pcflow checkpoint --action=save --at=100 --file=ck.bin [scenario flags]
//   pcflow checkpoint --action=resume --file=ck.bin --rounds=50 [scenario flags]
//   pcflow checkpoint --action=verify --file=ck.bin --rounds=50 [scenario flags]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench/bench.hpp"
#include "bench/chaos.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "runtime/net_trial.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine_sync.hpp"
#include "sim/fault_spec.hpp"
#include "sim/reduce.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tools/lint/lint.hpp"

namespace pcf {
namespace {

int run_bench_cli(int argc, const char* const* argv) {
  CliFlags flags;
  flags.define("suite", std::string("fast"),
               "scenario suite: fast | standard | scale | scale-fast");
  flags.define("profile", std::string(),
               "alias for --suite (pcflow bench --profile=scale)");
  flags.define("fast", false, "shorthand for --suite=fast");
  flags.define("seed", std::int64_t{1}, "suite RNG seed");
  flags.define("threads", std::int64_t{1},
               "parallel trial workers (0 = hardware concurrency); results are "
               "identical for any value");
  flags.define("out", std::string("BENCH_pcflow.json"), "output path ('-' = stdout only)");
  flags.define("timing", true,
               "include wall-clock fields (disable for byte-deterministic output)");
  if (!flags.parse(argc, argv)) return 0;

  bench::BenchOptions options;
  options.suite = flags.get_bool("fast") ? "fast" : flags.get_string("suite");
  if (!flags.get_string("profile").empty()) options.suite = flags.get_string("profile");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.threads = static_cast<std::size_t>(flags.get_int("threads"));
  options.include_timing = flags.get_bool("timing");

  const bench::BenchReport report = bench::run_bench(options);
  const std::string json = bench::report_to_json(report);

  const std::string& out = flags.get_string("out");
  if (out == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    PCF_CHECK_MSG(file.good(), "bench: cannot open " << out << " for writing");
    file << json;
    PCF_CHECK_MSG(file.good(), "bench: write to " << out << " failed");
    std::size_t converged = 0, trials = 0;
    for (const auto& s : report.scenarios) {
      converged += s.converged_trials;
      trials += s.scenario.trials;
    }
    std::printf("pcflow bench: %zu scenarios (%zu/%zu trials converged) -> %s\n",
                report.scenarios.size(), converged, trials, out.c_str());
  }
  return 0;
}

int run_chaos_cli(int argc, const char* const* argv) {
  CliFlags flags;
  flags.define("fast", false, "CI-sized sweep (fewer cells, shorter runs)");
  flags.define("seed", std::int64_t{1}, "sweep RNG seed");
  flags.define("out", std::string("CHAOS_pcflow.json"), "output path ('-' = stdout only)");
  if (!flags.parse(argc, argv)) return 0;

  bench::ChaosOptions options;
  options.fast = flags.get_bool("fast");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const bench::ChaosReport report = bench::run_chaos(options);
  const std::string json = bench::chaos_report_to_json(report);

  const std::string& out = flags.get_string("out");
  if (out == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    PCF_CHECK_MSG(file.good(), "chaos: cannot open " << out << " for writing");
    file << json;
    PCF_CHECK_MSG(file.good(), "chaos: write to " << out << " failed");
    std::size_t survived = 0;
    for (const auto& c : report.cells) survived += c.survived;
    std::size_t bitwise = 0, restore_trials = 0;
    for (const auto& c : report.restore_cells) {
      bitwise += c.fingerprint_matches;
      restore_trials += c.cell.trials;
    }
    std::printf(
        "pcflow chaos: %zu cells (%zu survived all trials), %zu restore cells "
        "(%zu/%zu bitwise restores) -> %s\n",
        report.cells.size(), survived, report.restore_cells.size(), bitwise, restore_trials,
        out.c_str());
  }
  return 0;
}

/// `pcflow net-trial` — the loopback UDP socket
/// runtime: forks one process per shard, runs the scenario over real
/// datagrams (loss MEASURED, not injected), supervises/restarts SIGKILLed
/// shards from their checkpoints, and emits the versioned "pcflow-net" JSON
/// report. Exit 0 when the run completed within the algorithm's envelope.
int run_net_cli(int argc, const char* const* argv) {
  CliFlags flags;
  flags.define("topology", std::string("torus2d:8x8"), "net::Topology::parse() spec");
  flags.define("algorithm", std::string("pcf"), "ps | pf | pcf | fu | corr | fumd");
  flags.define("aggregate", std::string("avg"), "avg | sum");
  flags.define("variant", std::string("robust"), "PCF bookkeeping: fast | robust");
  flags.define("tree", std::string("auto"),
               "corr schedule shape: auto | chain | binary | star | bfs");
  flags.define("seed", std::int64_t{1}, "RNG seed (same scenario derivation as pcflow)");
  flags.define("shards", std::int64_t{4}, "UDP processes; nodes assigned round-robin");
  flags.define("steps", std::int64_t{600}, "minimum gossip steps per node");
  flags.define("pacing-us", std::int64_t{0}, "sleep between steps (0 = flat out)");
  flags.define("mailbox-capacity", std::int64_t{256},
               "bounded RX mailbox per node (0 = unbounded, no backpressure)");
  flags.define("recv-buffer", std::int64_t{4096},
               "requested SO_RCVBUF; small values turn backpressure into measured loss");
  flags.define("bind-attempts", std::int64_t{5}, "EADDRINUSE retries when binding");
  flags.define("heartbeat-period-ms", std::int64_t{10}, "failure-detector beacon period");
  flags.define("heartbeat-timeout-ms", std::int64_t{100},
               "silence threshold before on_link_down fires");
  flags.define("checkpoint-every", std::int64_t{50},
               "checkpoint cadence in steps (0 = restart from scratch)");
  flags.define("linger-ms", std::int64_t{300}, "receive-only tail after gossip stops");
  flags.define("max-restarts", std::int64_t{3}, "supervisor restart budget per shard");
  flags.define("timeout-ms", std::int64_t{120000}, "hard wall-clock cap on the trial");
  flags.define("kill-shard", std::int64_t{-1}, "chaos: SIGKILL this shard once (-1 = never)");
  flags.define("kill-after-ms", std::int64_t{200}, "chaos: SIGKILL delay after launch");
  flags.define("stall-shard", std::int64_t{-1}, "chaos: SIGSTOP this shard once (-1 = never)");
  flags.define("stall-after-ms", std::int64_t{200}, "chaos: SIGSTOP delay after launch");
  flags.define("stall-ms", std::int64_t{250},
               "chaos: SIGCONT after this long (detector false positive)");
  flags.define("run-dir", std::string("pcflow-net-run"),
               "directory for checkpoints and per-shard results");
  flags.define("tol", 1e-3, "error envelope a trusted algorithm must land in");
  flags.define("session-baseline", true, "also run the warm in-process session baseline");
  flags.define("out", std::string("NET_pcflow.json"), "output path ('-' = stdout only)");
  if (!flags.parse(argc, argv)) return 0;

  runtime::NetTrialOptions options;
  options.topology_spec = flags.get_string("topology");
  options.algorithm = core::parse_algorithm(flags.get_string("algorithm"));
  const std::string& aggregate_name = flags.get_string("aggregate");
  PCF_CHECK_MSG(aggregate_name == "avg" || aggregate_name == "sum", "--aggregate wants avg|sum");
  options.aggregate = aggregate_name == "sum" ? core::Aggregate::kSum : core::Aggregate::kAverage;
  const std::string& variant = flags.get_string("variant");
  PCF_CHECK_MSG(variant == "fast" || variant == "robust", "--variant wants fast|robust");
  options.reducer.pcf_variant =
      variant == "fast" ? core::PcfVariant::kFast : core::PcfVariant::kRobust;
  options.reducer.tree_kind = net::parse_tree_kind(flags.get_string("tree"));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.runtime.num_shards = static_cast<std::size_t>(flags.get_int("shards"));
  options.runtime.steps_per_node = static_cast<std::size_t>(flags.get_int("steps"));
  options.runtime.step_pacing_us = static_cast<int>(flags.get_int("pacing-us"));
  options.runtime.mailbox_capacity =
      static_cast<std::size_t>(flags.get_int("mailbox-capacity"));
  options.runtime.socket_recv_buffer = static_cast<int>(flags.get_int("recv-buffer"));
  options.runtime.bind_attempts = static_cast<int>(flags.get_int("bind-attempts"));
  options.runtime.heartbeat_period_ms = static_cast<int>(flags.get_int("heartbeat-period-ms"));
  options.runtime.heartbeat_timeout_ms =
      static_cast<int>(flags.get_int("heartbeat-timeout-ms"));
  options.runtime.checkpoint_every_steps =
      static_cast<std::size_t>(flags.get_int("checkpoint-every"));
  options.runtime.linger_ms = static_cast<int>(flags.get_int("linger-ms"));
  options.runtime.max_restarts = static_cast<std::size_t>(flags.get_int("max-restarts"));
  options.runtime.trial_timeout_ms = static_cast<int>(flags.get_int("timeout-ms"));
  options.chaos.kill_shard = static_cast<int>(flags.get_int("kill-shard"));
  options.chaos.kill_after_ms = static_cast<int>(flags.get_int("kill-after-ms"));
  options.chaos.stall_shard = static_cast<int>(flags.get_int("stall-shard"));
  options.chaos.stall_after_ms = static_cast<int>(flags.get_int("stall-after-ms"));
  options.chaos.stall_ms = static_cast<int>(flags.get_int("stall-ms"));
  options.run_dir = flags.get_string("run-dir");
  options.error_tol = flags.get_double("tol");
  options.session_baseline = flags.get_bool("session-baseline");

  const runtime::NetTrialReport report = runtime::run_net_trial(options);
  const std::string json = runtime::net_trial_report_to_json(options, report);

  const std::string& out = flags.get_string("out");
  if (out == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    PCF_CHECK_MSG(file.good(), "net-trial: cannot open " << out << " for writing");
    file << json;
    PCF_CHECK_MSG(file.good(), "net-trial: write to " << out << " failed");
    std::printf(
        "pcflow net-trial: %zu/%zu nodes reported, measured loss %.4f "
        "(dup %.4f, reorder %.4f), %zu restart(s), %zu failure(s), max error %.3e "
        "(%s, tol %.1e) -> %s\n",
        report.reporting_nodes, report.nodes, report.trial.measured_loss_rate(),
        report.trial.measured_duplicate_rate(), report.trial.measured_reorder_rate(),
        report.trial.restarts, report.trial.failures, report.max_rel_error,
        report.trusted ? "trusted" : "untrusted", options.error_tol, out.c_str());
  }
  if (!report.ok) {
    std::fprintf(stderr, "pcflow net-trial: run %s\n",
                 report.trial.completed ? "missed the error envelope" : "did not complete");
    return 1;
  }
  return 0;
}

/// Everything `pcflow` and `pcflow checkpoint` need to construct an engine
/// from the shared scenario flags. Construction is a pure function of the
/// flags, so two processes given the same flags build identical engines —
/// that is what lets a checkpoint saved by one invocation restore in another.
struct Scenario {
  net::Topology topology;
  sim::SyncEngineConfig config;
  std::vector<core::Mass> masses;
  core::Aggregate aggregate = core::Aggregate::kAverage;
};

void define_scenario_flags(CliFlags& flags) {
  flags.define("topology", std::string("hypercube:6"),
               "bus:N ring:N grid:RxC torus2d:RxC torus3d:L hypercube:D complete:N star:N "
               "tree:N regular:N:D er:N:P");
  flags.define("algorithm", std::string("pcf"), "ps | pf | pcf | fu | corr | fumd");
  flags.define("aggregate", std::string("avg"), "avg | sum");
  flags.define("variant", std::string("robust"), "PCF bookkeeping: fast | robust");
  flags.define("tree", std::string("auto"),
               "corr schedule shape: auto | chain | binary | star | bfs");
  flags.define("loss", 0.0, "message loss probability");
  flags.define("flip", 0.0, "per-message bit flip probability");
  flags.define("detection-delay", 0.0, "failure detector delay in rounds");
  flags.define("duplicate", 0.0, "per-delivery duplication probability");
  flags.define("reorder", 0.0, "per-delivery reordering probability");
  flags.define("reorder-jitter", 0.5, "extra delay for reordered packets");
  flags.define("churn-fail", 0.0, "per-link per-round churn failure probability");
  flags.define("churn-heal", 0.0, "churn heal rate (Exp outage duration)");
  flags.define("link-fail", std::string{}, "link failures, T:A:B[,T:A:B...]");
  flags.define("crash", std::string{}, "node crashes, T:N[,T:N...]");
  flags.define("update", std::string{}, "live data updates, T:N:DELTA[,...]");
  flags.define("link-heal", std::string{}, "link heals, T:A:B[,T:A:B...]");
  flags.define("rejoin", std::string{}, "node rejoins, T:N[,T:N...]");
  flags.define("false-detect", std::string{},
               "failure-detector false positives, T:A:B:D[,...] (clears after D rounds)");
  flags.define("seed", std::int64_t{1}, "RNG seed");
  flags.define("engine", std::string("legacy"),
               "checkpoint row codec: legacy (dim-prefixed rows) | arena (raw rows); both "
               "run the SoA flow arenas, with identical output");
}

Scenario build_scenario(const CliFlags& flags) {
  Rng topo_rng(static_cast<std::uint64_t>(flags.get_int("seed")) ^ 0x7070ULL);
  Scenario s{.topology = net::Topology::parse(flags.get_string("topology"), topo_rng),
             .config = {},
             .masses = {}};

  s.config.algorithm = core::parse_algorithm(flags.get_string("algorithm"));
  const std::string& variant = flags.get_string("variant");
  PCF_CHECK_MSG(variant == "fast" || variant == "robust", "--variant wants fast|robust");
  s.config.reducer.pcf_variant =
      variant == "fast" ? core::PcfVariant::kFast : core::PcfVariant::kRobust;
  s.config.reducer.tree_kind = net::parse_tree_kind(flags.get_string("tree"));
  s.config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::string& engine_name = flags.get_string("engine");
  PCF_CHECK_MSG(engine_name == "legacy" || engine_name == "arena", "--engine wants legacy|arena");
  s.config.mode = engine_name == "arena" ? sim::EngineMode::kArena : sim::EngineMode::kLegacy;
  sim::FaultSpecInput fault_spec;
  fault_spec.link_failures = flags.get_string("link-fail");
  fault_spec.node_crashes = flags.get_string("crash");
  fault_spec.data_updates = flags.get_string("update");
  fault_spec.link_heals = flags.get_string("link-heal");
  fault_spec.node_rejoins = flags.get_string("rejoin");
  fault_spec.false_detects = flags.get_string("false-detect");
  s.config.faults = sim::parse_fault_spec(fault_spec, s.topology.size());
  s.config.faults.message_loss_prob = flags.get_double("loss");
  s.config.faults.bit_flip_prob = flags.get_double("flip");
  s.config.faults.detection_delay = flags.get_double("detection-delay");
  s.config.faults.duplicate_prob = flags.get_double("duplicate");
  s.config.faults.reorder_prob = flags.get_double("reorder");
  s.config.faults.reorder_jitter = flags.get_double("reorder-jitter");
  s.config.faults.churn_fail_prob = flags.get_double("churn-fail");
  s.config.faults.churn_heal_rate = flags.get_double("churn-heal");

  const std::string& aggregate_name = flags.get_string("aggregate");
  PCF_CHECK_MSG(aggregate_name == "avg" || aggregate_name == "sum", "--aggregate wants avg|sum");
  s.aggregate = aggregate_name == "sum" ? core::Aggregate::kSum : core::Aggregate::kAverage;

  Rng data_rng(s.config.seed ^ 0xda7aULL);
  std::vector<double> values(s.topology.size());
  for (auto& v : values) v = data_rng.uniform();
  s.masses = sim::masses_from_values(values, s.aggregate);
  return s;
}

int run_checkpoint_cli(int argc, const char* const* argv) {
  CliFlags flags;
  flags.define("action", std::string("save"),
               "save (run to --at, write blob) | resume (restore, run --rounds) | "
               "verify (restored continuation must fingerprint-match the uninterrupted run)");
  flags.define("at", std::int64_t{100}, "save: round to checkpoint at");
  flags.define("rounds", std::int64_t{50}, "resume/verify: rounds to continue after restore");
  flags.define("file", std::string("pcflow.ckpt"), "checkpoint blob path");
  flags.define("mode", std::string("full"), "full (wire-inclusive) | light (state-only)");
  define_scenario_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  const std::string& mode_name = flags.get_string("mode");
  PCF_CHECK_MSG(mode_name == "full" || mode_name == "light", "--mode wants full|light");
  const auto mode =
      mode_name == "full" ? sim::CheckpointMode::kFull : sim::CheckpointMode::kLightweight;
  const std::string& path = flags.get_string("file");
  const std::string& action = flags.get_string("action");
  const Scenario s = build_scenario(flags);

  if (action == "save") {
    sim::SyncEngine engine(s.topology, s.masses, s.config);
    engine.run(static_cast<std::size_t>(flags.get_int("at")));
    const std::string blob = engine.save_checkpoint(mode);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    PCF_CHECK_MSG(file.good(), "checkpoint: cannot open " << path << " for writing");
    file.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    PCF_CHECK_MSG(file.good(), "checkpoint: write to " << path << " failed");
    std::printf("pcflow checkpoint: saved round %zu (%s, %zu bytes) -> %s\n", engine.round(),
                std::string(to_string(mode)).c_str(), blob.size(), path.c_str());
    std::printf("fingerprint: %016llx\n",
                static_cast<unsigned long long>(engine.state_fingerprint()));
    return 0;
  }

  std::ifstream file(path, std::ios::binary);
  PCF_CHECK_MSG(file.good(), "checkpoint: cannot open " << path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string blob = buffer.str();
  const sim::CheckpointInfo info = sim::peek_checkpoint(blob);
  const auto resume_rounds = static_cast<std::size_t>(flags.get_int("rounds"));

  if (action == "resume") {
    sim::SyncEngine engine(s.topology, s.masses, s.config);
    engine.restore(blob);
    std::printf("pcflow checkpoint: restored round %zu (%s blob) from %s\n", engine.round(),
                std::string(to_string(info.mode)).c_str(), path.c_str());
    engine.run(resume_rounds);
    std::printf("round %zu: max error %.3e, fingerprint %016llx\n", engine.round(),
                engine.max_error(), static_cast<unsigned long long>(engine.state_fingerprint()));
    return 0;
  }

  PCF_CHECK_MSG(action == "verify", "--action wants save|resume|verify");
  // The uninterrupted reference run covers the checkpoint's own round span
  // plus the continuation; the restored engine only replays the continuation.
  // Fingerprints must agree at the restore point AND after the continuation.
  sim::SyncEngine reference(s.topology, s.masses, s.config);
  reference.run(static_cast<std::size_t>(info.position));
  sim::SyncEngine restored(s.topology, s.masses, s.config);
  restored.restore(blob);
  const bool match_at_restore = reference.state_fingerprint() == restored.state_fingerprint();
  reference.run(resume_rounds);
  restored.run(resume_rounds);
  const bool match_after = reference.state_fingerprint() == restored.state_fingerprint();
  std::printf("restore point (round %zu): %s\n", static_cast<std::size_t>(info.position),
              match_at_restore ? "fingerprints match" : "FINGERPRINT MISMATCH");
  std::printf("after %zu more rounds:     %s\n", resume_rounds,
              match_after ? "fingerprints match" : "FINGERPRINT MISMATCH");
  if (!(match_at_restore && match_after)) {
    std::fprintf(stderr, "pcflow checkpoint: restored run DIVERGED from the uninterrupted run\n");
    return 1;
  }
  std::printf("pcflow checkpoint: restored continuation is bitwise-identical\n");
  return 0;
}

int run_cli(int argc, const char* const* argv) {
  if (argc > 1 && std::strcmp(argv[1], "bench") == 0) {
    return run_bench_cli(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "chaos") == 0) {
    return run_chaos_cli(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "checkpoint") == 0) {
    return run_checkpoint_cli(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "net-trial") == 0) {
    return run_net_cli(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "lint") == 0) {
    return lint::run_cli(argc - 1, argv + 1);
  }
  CliFlags flags;
  flags.define("rounds", std::int64_t{0}, "run exactly this many rounds (0 = run to --epsilon)");
  flags.define("epsilon", 1e-12, "target accuracy when --rounds is 0");
  flags.define("max-rounds", std::int64_t{100000}, "round cap for --epsilon runs");
  flags.define("trace-every", std::int64_t{0}, "print an error trace row every N rounds");
  flags.define("csv", std::string{}, "write the trace as CSV to this path");
  flags.define("estimates", false, "print every node's final estimate");
  define_scenario_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  const Scenario scenario = build_scenario(flags);
  const auto& topology = scenario.topology;
  const auto aggregate = scenario.aggregate;

  sim::SyncEngine engine(topology, scenario.masses, scenario.config);
  std::printf("pcflow: %s on %s (%zu nodes, %zu links), %s aggregate, seed %lld\n",
              std::string(engine.fleet().name()).c_str(), topology.name().c_str(),
              topology.size(), topology.edge_count(), std::string(to_string(aggregate)).c_str(),
              static_cast<long long>(flags.get_int("seed")));
  std::printf("target aggregate: %.17g\n\n", engine.oracle().target());

  const auto cadence = static_cast<std::size_t>(flags.get_int("trace-every"));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  Table trace({"round", "max_error", "median_error", "p99_error", "max_abs_flow", "target"});
  auto sample_row = [&] {
    trace.add_row({Table::num(static_cast<std::int64_t>(engine.round())),
                   Table::sci(engine.max_error()), Table::sci(engine.median_error()),
                   Table::sci(engine.error_quantile(0.99)), Table::sci(engine.max_abs_flow()),
                   Table::fixed(engine.oracle().target(), 9)});
  };

  if (rounds > 0) {
    for (std::size_t r = 0; r < rounds; ++r) {
      engine.step();
      if (cadence > 0 && (engine.round() % cadence == 0 || r + 1 == rounds)) sample_row();
    }
  } else {
    const double epsilon = flags.get_double("epsilon");
    const auto cap = static_cast<std::size_t>(flags.get_int("max-rounds"));
    while (engine.round() < cap && engine.max_error() > epsilon) {
      engine.step();
      if (cadence > 0 && engine.round() % cadence == 0) sample_row();
    }
    sample_row();
  }

  if (cadence > 0 || rounds == 0) {
    trace.print();
    const std::string& csv = flags.get_string("csv");
    if (!csv.empty() && trace.write_csv(csv)) std::printf("trace csv written to %s\n", csv.c_str());
    std::printf("\n");
  }

  const auto& stats = engine.stats();
  std::printf("rounds: %zu   messages: %zu sent, %zu dropped, %zu corrupted\n", engine.round(),
              stats.messages_sent, stats.messages_dropped, stats.messages_flipped);
  std::printf("final:  max error %.3e, median %.3e, target %.17g\n", engine.max_error(),
              engine.median_error(), engine.oracle().target());

  if (flags.get_bool("estimates")) {
    std::printf("\n");
    for (net::NodeId i = 0; i < topology.size(); ++i) {
      if (engine.node_alive(i)) {
        std::printf("node %4u: %.17g\n", i, engine.fleet().estimate(i));
      } else {
        std::printf("node %4u: (crashed)\n", i);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace pcf

int main(int argc, char** argv) {
  try {
    return pcf::run_cli(argc, argv);
  } catch (const pcf::ContractViolation& e) {
    std::fprintf(stderr, "pcflow: %s\n", e.what());
    return 2;
  } catch (const pcf::sim::CheckpointError& e) {
    std::fprintf(stderr, "pcflow: %s\n", e.what());
    return 2;
  }
}
