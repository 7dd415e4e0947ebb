// redbench — time-to-envelope benchmark for the pcflow reduction library.
//
//   redbench --workload calm|loss|qr|async --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//
// One process, one thread, one engine shard. A workload is a closed loop of
// operations; operation i gets its own seed derived from --seed, and from it
// its graph, inputs and message-loss draws, laid out like the pcflow CLI
// (topology from seed^0x7070, data from seed^0xda7a) so a failed operation
// replays through `pcflow` bit for bit. A sync or async operation is one
// push-cancel-flow average run until the oracle's max relative error is at
// most 1e-10; a qr operation is one full dmGS factorization. Only calls into
// the library's public functions are timed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around the
// library calls (every other operation, so the untraced ones give the tracing
// overhead), adds kernel replays on each traced operation's graph, writes the
// spans as Chrome trace-event JSON and prints the per-layer metrics derived
// from them. The last stdout line is the result object; earlier lines carry
// the host/build context, the deterministic counts and one `pcflow` repro per
// failed operation.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/mass.hpp"
#include "core/reducer.hpp"
#include "linalg/dmgs.hpp"
#include "linalg/matrix.hpp"
#include "net/topology.hpp"
#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "spans.hpp"
#include "support/rng.hpp"

namespace redbench {
namespace {

using namespace pcf;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

constexpr core::Algorithm kAlgorithm = core::Algorithm::kPushCancelFlow;
/// Oracle max relative error an operation must reach (its envelope).
constexpr double kEnvelope = 1e-10;
/// The consensus test (live estimates within kEnvelope·|target| of each
/// other) runs only when the max error moved by at most this much since the
/// previous check — two consecutive rounds in consensus move it by about
/// their spread — and, after a miss, waits two rounds per decade the spread
/// is above its threshold (the spread shrinks by about a decade per ten
/// rounds on these graphs). This keeps the estimates() scan off rounds that
/// cannot stop, so the check stays a small share of an operation.
constexpr double kConsensusGate = 1e-9;
/// Per-reduction accuracy of the qr workload, and the factorization and
/// orthogonality errors it must reach: 10x the per-reduction accuracy
/// (correct runs reach 2-5e-13 and 1-3e-13). A reduction can stop at its
/// round cap without a wrong result: the relative error of a dot product
/// that nearly cancels stalls at a few times eps * sum|terms| / |sum|, which
/// can lie above 1e-12.
constexpr double kQrReductionAccuracy = 1e-12;
constexpr double kQrTolerance = 1e-11;

enum class Kind { kSync, kAsync, kQr };

struct Workload {
  const char* name;
  Kind kind;
  const char* topology;
  sim::EngineMode mode;
  /// Per-message loss probability (sync only).
  double loss;
  /// Counts (rounds, bytes, deliveries, failures) are averaged over the first
  /// `count_ops` operations, which every run executes whatever its speed, so
  /// the counts of one seed are identical from run to run.
  std::size_t count_ops;
  /// Sync: round cap. Async: simulated-time cap. Qr: rounds per reduction.
  std::size_t cap;
};

constexpr Workload kWorkloads[] = {
    {"calm", Kind::kSync, "regular:5000:8", sim::EngineMode::kArena, 0.0, 24, 1500},
    {"loss", Kind::kSync, "regular:5000:8", sim::EngineMode::kLegacy, 0.05, 16, 1500},
    {"qr", Kind::kQr, "hypercube:8", sim::EngineMode::kLegacy, 0.0, 24, 1500},
    {"async", Kind::kAsync, "regular:1000:8", sim::EngineMode::kLegacy, 0.0, 32, 2000},
};

// ---------------------------------------------------------------------------
// Operation inputs
// ---------------------------------------------------------------------------

std::uint64_t op_seed(std::uint64_t workload_seed, std::uint64_t index) {
  std::uint64_t state = workload_seed * 0x9e3779b97f4a7c15ULL + index + 1;
  // 48 bits, so the seed round-trips through the CLI's signed --seed flag.
  return splitmix64(state) & 0xffffffffffffULL;
}

net::Topology make_topology(const char* spec, std::uint64_t seed) {
  Rng topo_rng(seed ^ 0x7070ULL);
  return net::Topology::parse(spec, topo_rng);
}

/// Uniform [0,1) per node from seed^0xda7a — the CLI's data stream.
std::vector<core::Mass> scalar_inputs(std::size_t n, std::uint64_t seed) {
  Rng data_rng(seed ^ 0xda7aULL);
  std::vector<double> values(n);
  for (auto& v : values) v = data_rng.uniform();
  return sim::masses_from_values(values, core::Aggregate::kAverage);
}

std::vector<core::Mass> vector_inputs(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<core::Values> values(n, core::Values(dim, 0.0));
  for (auto& row : values) {
    for (std::size_t k = 0; k < dim; ++k) row[k] = rng.uniform();
  }
  return sim::masses_from_vectors(values, core::Aggregate::kAverage);
}

/// One-line `pcflow` command replaying a sync operation (same seed streams,
/// same engine and loss). The CLI stops at the envelope or the cap only.
std::string pcflow_repro(const Workload& w, std::uint64_t seed) {
  std::ostringstream os;
  os << "pcflow --topology=" << w.topology << " --seed=" << seed << " --algorithm=pcf"
     << " --engine=" << (w.mode == sim::EngineMode::kArena ? "arena" : "legacy");
  if (w.loss > 0.0) os << " --loss=" << w.loss;
  os << " --epsilon=" << kEnvelope << " --max-rounds=" << w.cap;
  return os.str();
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

struct OpResult {
  double setup_s = 0.0;
  double tte_s = 0.0;
  double rounds = 0.0;  ///< sync rounds; async simulated time; qr summed rounds
  double wire_bytes_per_node = 0.0;
  double deliveries = 0.0;  ///< sync only
  double dropped = 0.0;
  double events = 0.0;
  double reductions = 0.0;
  double cap_hits = 0.0;
  bool traced = false;
  bool ok = true;
  std::string failure;  ///< one line: why it failed and how to replay it
  std::string note;     ///< qr: reductions that hit the cap in a correct op
  // Traced run only: deliveries made by each kernel replay.
  double replay_arena_deliveries = 0.0;
  double replay_reducer_deliveries = 0.0;
  double replay_reducer_d15_deliveries = 0.0;
};

enum class Stop { kRunning, kEnvelope, kConsensus, kCap };

const char* to_string(Stop s) {
  switch (s) {
    case Stop::kRunning: return "running";
    case Stop::kEnvelope: return "envelope";
    case Stop::kConsensus: return "consensus outside the envelope";
    case Stop::kCap: return "cap";
  }
  return "?";
}

/// The per-round stopping test: envelope reached, or live nodes agreeing
/// without being within it (a biased consensus — a failed operation that
/// stops about as early as a correct one would).
struct StopTest {
  double error = 0.0;  ///< oracle max relative error at the last check
  double prev_error = std::numeric_limits<double>::infinity();
  std::size_t checks = 0;
  std::size_t next_consensus = 0;  ///< first check that may run the consensus test

  template <typename Engine>
  Stop operator()(const Engine& engine, Tracer& tr, std::uint32_t op) {
    const Scoped check(tr, SpanKind::kCheck, op);
    {
      const Scoped span(tr, SpanKind::kMaxError, op);
      error = engine.max_error();
    }
    Stop stop = Stop::kRunning;
    if (error <= kEnvelope) {
      stop = Stop::kEnvelope;
    } else if (std::fabs(error - prev_error) <= kConsensusGate && checks >= next_consensus) {
      const Scoped span(tr, SpanKind::kConsensus, op);
      const std::vector<double> estimates = engine.estimates();
      const auto [lo, hi] = std::minmax_element(estimates.begin(), estimates.end());
      const double ratio = (*hi - *lo) / (kEnvelope * std::fabs(engine.oracle().target()));
      if (ratio <= 1.0) {
        stop = Stop::kConsensus;
      } else {
        next_consensus =
            checks + static_cast<std::size_t>(std::max(1.0, 2.0 * std::floor(std::log10(ratio))));
      }
    }
    prev_error = error;
    ++checks;
    return stop;
  }
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One gossip-target stream per node for the kernel replays.
std::vector<Rng> node_rngs(std::size_t n, std::uint64_t seed) {
  const Rng root(seed ^ 0x1e9acULL);
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(root.fork(i));
  return rngs;
}

/// Replays the arena PCF kernel on a graph for `rounds` sequential rounds of
/// the devirtualized send/receive pair, with no engine around it. Replays run
/// as many rounds as the operation did: the kernel costs more per delivery
/// in the first rounds than later, so a shorter replay would not match the
/// op's mix.
double replay_arena(const net::Topology& topology, std::span<const core::Mass> masses,
                    std::size_t rounds, std::uint64_t seed, Tracer& tr, std::uint32_t op) {
  core::ArenaFleet fleet(kAlgorithm, core::ReducerConfig{}, topology, masses);
  std::vector<Rng> rngs = node_rngs(topology.size(), seed);
  double deliveries = 0.0;
  const Scoped span(tr, SpanKind::kReplayArena, op);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (net::NodeId i = 0; i < topology.size(); ++i) {
      auto out = fleet.make_message<kAlgorithm>(i, rngs[i]);
      if (!out) continue;
      fleet.receive<kAlgorithm>(out->to, i, out->to_slot, out->packet);
      deliveries += 1.0;
    }
  }
  return deliveries;
}

/// Replays the per-object Reducer kernel (the legacy layout) on a graph.
double replay_reducer(const net::Topology& topology, std::span<const core::Mass> masses,
                      std::size_t rounds, std::uint64_t seed, SpanKind kind, Tracer& tr,
                      std::uint32_t op) {
  std::vector<std::unique_ptr<core::Reducer>> nodes;
  nodes.reserve(topology.size());
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    nodes.push_back(core::make_reducer(kAlgorithm));
    nodes.back()->init(i, topology.neighbors(i), masses[i]);
  }
  std::vector<Rng> rngs = node_rngs(topology.size(), seed);
  double deliveries = 0.0;
  const Scoped span(tr, kind, op);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (net::NodeId i = 0; i < topology.size(); ++i) {
      auto out = nodes[i]->make_message(rngs[i]);
      if (!out) continue;
      nodes[out->to]->on_receive(i, out->packet);
      deliveries += 1.0;
    }
  }
  return deliveries;
}

OpResult run_sync_op(const Workload& w, std::uint64_t seed, std::uint32_t op, Tracer& tr) {
  OpResult res;
  res.traced = tr.enabled();
  tr.begin(SpanKind::kOp, op);
  const auto t0 = Clock::now();
  tr.begin(SpanKind::kSetup, op);
  tr.begin(SpanKind::kTopology, op);
  const net::Topology topology = make_topology(w.topology, seed);
  tr.end();
  tr.begin(SpanKind::kInputs, op);
  sim::SyncEngineConfig config;
  config.algorithm = kAlgorithm;
  config.seed = seed;
  config.mode = w.mode;
  config.shards = 1;
  config.invariants.enabled = false;
  config.faults.message_loss_prob = w.loss;
  const std::vector<core::Mass> masses = scalar_inputs(topology.size(), seed);
  tr.end();
  tr.begin(SpanKind::kCtor, op);
  sim::SyncEngine engine(topology, masses, config);
  tr.end();
  tr.end();  // setup
  const auto t1 = Clock::now();

  StopTest check;
  Stop stop = check(engine, tr, op);
  while (stop == Stop::kRunning) {
    if (engine.round() >= w.cap) {
      stop = Stop::kCap;
      break;
    }
    const auto round = static_cast<std::uint32_t>(engine.round());
    const Scoped round_span(tr, SpanKind::kRound, op, round);
    {
      const Scoped step(tr, SpanKind::kStep, op, round);
      engine.step();
    }
    stop = check(engine, tr, op);
  }
  const auto t2 = Clock::now();

  res.setup_s = seconds_between(t0, t1);
  res.tte_s = seconds_between(t1, t2);
  const double n = static_cast<double>(topology.size());
  res.rounds = static_cast<double>(engine.round());
  res.wire_bytes_per_node = 8.0 * static_cast<double>(engine.stats().doubles_sent) / n;
  res.deliveries = static_cast<double>(engine.perf().deliveries);
  res.dropped = static_cast<double>(engine.stats().messages_dropped);
  res.ok = stop == Stop::kEnvelope;
  if (!res.ok) {
    char detail[160];
    std::snprintf(detail, sizeof detail, "stopped at round %zu by %s, max error %.3e", engine.round(),
                  to_string(stop), check.error);
    res.failure = std::string(detail) + ": " + pcflow_repro(w, seed);
  }
  if (tr.enabled()) {
    if (w.mode == sim::EngineMode::kArena) {
      res.replay_arena_deliveries = replay_arena(topology, masses, engine.round(), seed, tr, op);
    } else {
      res.replay_reducer_deliveries = replay_reducer(topology, masses, engine.round(), seed,
                                                     SpanKind::kReplayReducer, tr, op);
    }
  }
  tr.end();  // op
  return res;
}

OpResult run_async_op(const Workload& w, std::uint64_t seed, std::uint32_t op, Tracer& tr) {
  OpResult res;
  res.traced = tr.enabled();
  tr.begin(SpanKind::kOp, op);
  const auto t0 = Clock::now();
  tr.begin(SpanKind::kSetup, op);
  tr.begin(SpanKind::kTopology, op);
  const net::Topology topology = make_topology(w.topology, seed);
  tr.end();
  tr.begin(SpanKind::kInputs, op);
  sim::AsyncEngineConfig config;
  config.algorithm = kAlgorithm;
  config.seed = seed;
  config.invariants.enabled = false;
  const std::vector<core::Mass> masses = scalar_inputs(topology.size(), seed);
  tr.end();
  tr.begin(SpanKind::kCtor, op);
  sim::AsyncEngine engine(topology, masses, config);
  tr.end();
  tr.end();  // setup
  const auto t1 = Clock::now();

  StopTest check;
  Stop stop = check(engine, tr, op);
  std::size_t units = 0;
  while (stop == Stop::kRunning) {
    if (units >= w.cap) {
      stop = Stop::kCap;
      break;
    }
    const Scoped round_span(tr, SpanKind::kRound, op, static_cast<std::uint32_t>(units));
    {
      const Scoped run(tr, SpanKind::kRunUntil, op, static_cast<std::uint32_t>(units));
      engine.run_until(static_cast<double>(++units));
    }
    stop = check(engine, tr, op);
  }
  const auto t2 = Clock::now();

  res.setup_s = seconds_between(t0, t1);
  res.tte_s = seconds_between(t1, t2);
  res.rounds = engine.now();
  res.wire_bytes_per_node = 8.0 * static_cast<double>(engine.perf().doubles_on_wire) /
                            static_cast<double>(topology.size());
  res.events = static_cast<double>(engine.perf().events_processed);
  res.ok = stop == Stop::kEnvelope;
  if (!res.ok) {
    char detail[256];
    std::snprintf(detail, sizeof detail,
                  "stopped at time %.0f by %s, max error %.3e: AsyncEngine pcf on %s, "
                  "topology seed^0x7070 and data seed^0xda7a with seed=%llu",
                  engine.now(), to_string(stop), check.error, w.topology,
                  static_cast<unsigned long long>(seed));
    res.failure = detail;
  }
  if (tr.enabled()) {
    res.replay_reducer_deliveries = replay_reducer(topology, masses, units, seed,
                                                   SpanKind::kReplayReducer, tr, op);
  }
  tr.end();  // op
  return res;
}

/// Payload width of each reduction dmGS runs on an m-column matrix: one
/// norm per column, then the trailing dot products in chunks of kMaxDim.
std::vector<std::size_t> dmgs_widths(std::size_t m) {
  std::vector<std::size_t> widths;
  for (std::size_t j = 0; j < m; ++j) {
    widths.push_back(1);
    for (std::size_t k0 = j + 1; k0 < m; k0 += core::kMaxDim) {
      widths.push_back(std::min(core::kMaxDim, m - k0));
    }
  }
  return widths;
}

OpResult run_qr_op(const Workload& w, std::uint64_t seed, std::uint32_t op, Tracer& tr) {
  constexpr std::size_t kColumns = 16;
  OpResult res;
  res.traced = tr.enabled();
  tr.begin(SpanKind::kOp, op);
  const auto t0 = Clock::now();
  tr.begin(SpanKind::kSetup, op);
  tr.begin(SpanKind::kTopology, op);
  const net::Topology topology = make_topology(w.topology, seed);
  tr.end();
  tr.begin(SpanKind::kInputs, op);
  Rng data_rng(seed ^ 0xda7aULL);
  const linalg::Matrix v = linalg::Matrix::random_uniform(topology.size(), kColumns, data_rng);
  linalg::DmgsOptions options;
  options.algorithm = kAlgorithm;
  options.seed = seed;
  options.reduction_accuracy = kQrReductionAccuracy;
  options.max_rounds_per_reduction = w.cap;
  tr.end();
  tr.end();  // setup
  const auto t1 = Clock::now();
  linalg::DmgsResult result;
  {
    const Scoped span(tr, SpanKind::kDmgs, op);
    result = linalg::dmgs(topology, v, options);
  }
  const auto t2 = Clock::now();

  res.setup_s = seconds_between(t0, t1);
  res.tte_s = seconds_between(t1, t2);
  res.rounds = static_cast<double>(result.total_rounds);
  res.reductions = static_cast<double>(result.reductions);
  res.cap_hits = static_cast<double>(result.reductions_hit_cap);
  // dmGS reports rounds but not traffic. In a fault-free sync run every node
  // sends one packet per round, so the bytes follow from the rounds, the
  // packet size (wire masses x (width + 1) doubles) and the mean payload
  // width of the factorization's reductions.
  const std::vector<std::size_t> widths = dmgs_widths(kColumns);
  double mean_width = 0.0;
  for (std::size_t d : widths) mean_width += static_cast<double>(d);
  mean_width /= static_cast<double>(widths.size());
  const auto wire_masses = static_cast<double>(core::make_reducer(kAlgorithm)->wire_masses());
  res.wire_bytes_per_node = 8.0 * wire_masses * (mean_width + 1.0) * res.rounds;
  const double factorization_error = result.factorization_error(v);
  const double orthogonality_error = result.orthogonality_error();
  res.ok = factorization_error <= kQrTolerance && orthogonality_error <= kQrTolerance &&
           result.reductions == widths.size();
  if (!res.ok || result.reductions_hit_cap > 0) {
    char detail[320];
    std::snprintf(detail, sizeof detail,
                  "%zu of %zu reductions hit the cap, factorization error %.3e, orthogonality "
                  "error %.3e: dmgs pcf on %s, 256x16 uniform matrix from seed^0xda7a, "
                  "accuracy %.0e, seed=%llu",
                  result.reductions_hit_cap, result.reductions, factorization_error,
                  orthogonality_error, w.topology, kQrReductionAccuracy,
                  static_cast<unsigned long long>(seed));
    (res.ok ? res.note : res.failure) = detail;
  }
  if (tr.enabled()) {
    const std::vector<core::Mass> d1 = scalar_inputs(topology.size(), seed);
    const std::vector<core::Mass> d15 = vector_inputs(topology.size(), 15, seed);
    // One reduction's worth of rounds, the op's mean.
    const std::size_t rounds = result.total_rounds / std::max<std::size_t>(1, result.reductions);
    res.replay_reducer_deliveries =
        replay_reducer(topology, d1, rounds, seed, SpanKind::kReplayReducer, tr, op);
    res.replay_reducer_d15_deliveries =
        replay_reducer(topology, d15, rounds, seed, SpanKind::kReplayReducerD15, tr, op);
    {
      sim::SyncEngineConfig config;
      config.algorithm = kAlgorithm;
      config.seed = seed;
      config.invariants.enabled = false;
      tr.begin(SpanKind::kReplayCtorD15, op);
      const sim::SyncEngine engine(topology, d15, config);
      tr.end();
    }
    sim::ReduceOptions ro;
    ro.algorithm = kAlgorithm;
    ro.aggregate = core::Aggregate::kSum;
    ro.seed = seed;
    ro.target_accuracy = kQrReductionAccuracy;
    ro.max_rounds = w.cap;
    for (const std::size_t dim : {std::size_t{1}, std::size_t{15}}) {
      Rng rng(seed ^ 0xf00dULL);
      std::vector<core::Values> values(topology.size(), core::Values(dim, 0.0));
      for (auto& row : values) {
        for (std::size_t k = 0; k < dim; ++k) row[k] = rng.uniform();
      }
      const Scoped span(tr, dim == 1 ? SpanKind::kReduceD1 : SpanKind::kReduceD15, op);
      const sim::ReduceResult rr = sim::reduce_vectors(topology, values, ro);
      if (!rr.reached_target) {
        std::fprintf(stderr, "redbench: front-door d%zu reduction missed %.0e (seed %llu)\n", dim,
                     kQrReductionAccuracy, static_cast<unsigned long long>(seed));
      }
    }
  }
  tr.end();  // op
  return res;
}

OpResult run_op(const Workload& w, std::uint64_t seed, std::uint32_t op, Tracer& tr) {
  switch (w.kind) {
    case Kind::kSync: return run_sync_op(w, seed, op, tr);
    case Kind::kAsync: return run_async_op(w, seed, op, tr);
    case Kind::kQr: return run_qr_op(w, seed, op, tr);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Statistics and derived metrics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Mean of `field` over the first `count` operations.
template <typename F>
double prefix_mean(const std::vector<OpResult>& ops, std::size_t count, F field) {
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += field(ops[i]);
  return sum / static_cast<double>(count);
}

/// Deterministic counts of one seed: identical across runs and across the
/// traced/untraced modes (the self-test compares them).
std::vector<Metric> counts(const Workload& w, const std::vector<OpResult>& ops) {
  const std::size_t k = w.count_ops;
  return {
      {"rounds_per_op", "rounds", prefix_mean(ops, k, [](const OpResult& o) { return o.rounds; })},
      {"wire_bytes_per_node", "B",
       prefix_mean(ops, k, [](const OpResult& o) { return o.wire_bytes_per_node; })},
      {"failed_share", "share", prefix_mean(ops, k, [](const OpResult& o) { return o.ok ? 0.0 : 1.0; })},
      {"sim.engine_sync.deliveries_per_op", "count",
       prefix_mean(ops, k, [](const OpResult& o) { return o.deliveries; })},
      {"sim.engine_sync.dropped_per_op", "count",
       prefix_mean(ops, k, [](const OpResult& o) { return o.dropped; })},
      {"sim.engine_async.events_per_op", "count",
       prefix_mean(ops, k, [](const OpResult& o) { return o.events; })},
      {"linalg.dmgs.reductions_per_op", "count",
       prefix_mean(ops, k, [](const OpResult& o) { return o.reductions; })},
      {"linalg.dmgs.cap_hits_per_op", "count",
       prefix_mean(ops, k, [](const OpResult& o) { return o.cap_hits; })},
  };
}

constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);

/// Per-operation span totals of the traced operations.
struct OpSpans {
  std::array<double, kKinds> total{};  ///< summed duration per span kind
  std::array<double, kKinds> self{};   ///< summed self time per span kind
};

std::vector<OpSpans> gather(const std::vector<Span>& spans, std::size_t num_ops) {
  std::vector<OpSpans> per_op(num_ops);
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) child[s.parent - 1] += s.seconds();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op >= num_ops) continue;
    const auto k = static_cast<std::size_t>(s.kind);
    per_op[s.op].total[k] += s.seconds();
    per_op[s.op].self[k] += s.seconds() - child[i];
  }
  return per_op;
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<OpResult>& ops,
                              const std::vector<Span>& spans,
                              std::vector<Metric>& self_times) {
  const std::vector<OpSpans> per_op = gather(spans, ops.size());
  // Median over traced operations of a per-op value.
  auto med = [&](auto value) {
    std::vector<double> v;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].traced) v.push_back(value(ops[i], per_op[i]));
    }
    return median(v);
  };
  auto total = [](SpanKind k) {
    return [k](const OpResult&, const OpSpans& s) { return s.total[static_cast<std::size_t>(k)]; };
  };
  auto ns_per = [](SpanKind k, double OpResult::*count) {
    return [k, count](const OpResult& o, const OpSpans& s) {
      return o.*count > 0.0 ? 1e9 * s.total[static_cast<std::size_t>(k)] / (o.*count) : 0.0;
    };
  };
  const bool sync = w.kind == Kind::kSync;
  const bool async = w.kind == Kind::kAsync;
  const bool qr = w.kind == Kind::kQr;
  const bool arena = sync && w.mode == sim::EngineMode::kArena;

  const double step_ns = sync ? med(ns_per(SpanKind::kStep, &OpResult::deliveries)) : 0.0;
  const double arena_ns = med(ns_per(SpanKind::kReplayArena, &OpResult::replay_arena_deliveries));
  const double reducer_ns =
      med(ns_per(SpanKind::kReplayReducer, &OpResult::replay_reducer_deliveries));
  const double kernel_ns = arena ? arena_ns : reducer_ns;
  // Untraced ops of the traced run give the tracing overhead.
  std::vector<double> traced_tte;
  std::vector<double> plain_tte;
  for (const OpResult& o : ops) (o.traced ? traced_tte : plain_tte).push_back(o.tte_s);
  const double plain = median(plain_tte);

  std::vector<Metric> m = {
      {"net.topology.build_s", "s", med(total(SpanKind::kTopology))},
      {"sim.engine_sync.ctor_s", "s",
       sync ? med(total(SpanKind::kCtor)) : qr ? med(total(SpanKind::kReplayCtorD15)) : 0.0},
      {"sim.engine_sync.step_s", "s", med(total(SpanKind::kStep))},
      {"sim.engine_sync.step_ns_per_delivery", "ns", step_ns},
      {"sim.engine_sync.overhead_ns_per_delivery", "ns", sync ? step_ns - kernel_ns : 0.0},
      {"sim.metrics.max_error_s", "s", med(total(SpanKind::kMaxError))},
      {"sim.metrics.check_share", "share", med([](const OpResult& o, const OpSpans& s) {
         return s.total[static_cast<std::size_t>(SpanKind::kCheck)] / o.tte_s;
       })},
      {"core.arena.ns_per_delivery", "ns", arena_ns},
      {"core.reducer.ns_per_delivery", "ns", reducer_ns},
      {"core.reducer.ns_per_delivery_d15", "ns",
       med(ns_per(SpanKind::kReplayReducerD15, &OpResult::replay_reducer_d15_deliveries))},
      {"sim.reduce.d1_s", "s", med(total(SpanKind::kReduceD1))},
      {"sim.reduce.d15_s", "s", med(total(SpanKind::kReduceD15))},
      {"sim.engine_async.run_s", "s", med(total(SpanKind::kRunUntil))},
      {"sim.engine_async.ns_per_event", "ns", med(ns_per(SpanKind::kRunUntil, &OpResult::events))},
      {"sim.engine_async.ctor_s", "s", async ? med(total(SpanKind::kCtor)) : 0.0},
      // Share of traced tte_s spent in the blocking library calls: the
      // engine's step/run_until (or dmgs) plus the max_error scan.
      {"ladder_coverage", "share", med([](const OpResult& o, const OpSpans& s) {
         const auto t = [&](SpanKind k) { return s.total[static_cast<std::size_t>(k)]; };
         return (t(SpanKind::kStep) + t(SpanKind::kRunUntil) + t(SpanKind::kDmgs) +
                 t(SpanKind::kMaxError)) / o.tte_s;
       })},
      {"tracing_overhead", "ratio", plain > 0.0 ? median(traced_tte) / plain : 0.0},
  };
  for (std::size_t k = 0; k < kKinds; ++k) {
    const double v = med([k](const OpResult&, const OpSpans& s) { return s.self[k]; });
    if (v > 0.0) self_times.push_back({kSpanNames[k], "s", v});
  }
  return m;
}

// ---------------------------------------------------------------------------
// Host and build context
// ---------------------------------------------------------------------------

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string host_context() {
  std::string cpu = "unknown";
  {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(std::min(colon + 2, line.size()));
        break;
      }
    }
  }
  std::ostringstream caches;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_first_line(dir + "size");
    if (size.empty()) break;
    caches << (i == 0 ? "" : ",") << "\"L" << read_first_line(dir + "level") << ' '
           << read_first_line(dir + "type") << "\":\"" << size << '"';
  }
  std::ostringstream os;
  os << "{\"context\":{\"cpu\":\"" << json_escape(cpu) << "\",\"nproc\":"
     << sysconf(_SC_NPROCESSORS_ONLN) << ",\"caches\":{" << caches.str() << "},\"compiler\":\""
     << json_escape(REDBENCH_COMPILER) << "\",\"build_type\":\"" << REDBENCH_BUILD_TYPE
     << "\",\"shards\":1,\"threads\":1}}";
  return os.str();
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would carry over the peak of the process that exec'd us.)
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": " << value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "redbench: %s\nusage: redbench --workload calm|loss|qr|async --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed wants an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds wants a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "redbench: refusing to time an unoptimized build (build type %s)\n",
                 REDBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf("%s\n", host_context().c_str());

  Tracer tracer;
  // Warm-up: one untimed operation lets caches, the allocator and lazy
  // set-up settle before measuring.
  (void)run_op(w, op_seed(args.seed, ~0ULL), 0, tracer);

  std::vector<OpResult> ops;
  const auto start = Clock::now();
  while (ops.size() < w.count_ops || seconds_between(start, Clock::now()) < args.seconds) {
    const auto index = static_cast<std::uint32_t>(ops.size());
    tracer.set_enabled(args.trace && index % 2 == 0);
    ops.push_back(run_op(w, op_seed(args.seed, index), index, tracer));
  }
  tracer.set_enabled(false);

  std::size_t failed = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].note.empty()) std::printf("capped-op %s #%zu %s\n", w.name, i, ops[i].note.c_str());
    if (ops[i].ok) continue;
    ++failed;
    std::printf("failed-op %s #%zu %s\n", w.name, i, ops[i].failure.c_str());
  }

  std::vector<double> tte;
  std::vector<double> setup;
  for (const OpResult& o : ops) {
    tte.push_back(o.tte_s);
    setup.push_back(o.setup_s);
  }
  const std::vector<Metric> count_metrics = counts(w, ops);
  std::printf("{\"counts\": %s}\n", metrics_json(count_metrics).c_str());
  // The median and, given 20+ ops, the highest percentile with at least ten
  // ops beyond it.
  std::printf("{\"ops\": %zu, \"tte_s\": {\"p50\": %.6g", ops.size(), median(tte));
  if (ops.size() >= 20) {
    const double q = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(ops.size()))) / 100.0;
    std::printf(", \"p%.0f\": %.6g", 100.0 * q, quantile(tte, q));
  }
  std::printf("}}\n");

  std::vector<Metric> metrics;
  if (args.trace) {
    std::vector<Metric> self_times;
    metrics = per_layer(w, ops, tracer.spans(), self_times);
    metrics.insert(metrics.end(), count_metrics.begin() + 2, count_metrics.end());
    std::printf("{\"self_times\": %s}\n", metrics_json(self_times).c_str());
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "redbench: cannot write trace %s\n", args.trace_out.c_str());
      return 1;
    }
  } else {
    metrics = {
        {"tte_s", "s", median(tte)},
        count_metrics[0],
        count_metrics[1],
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", ops.size(), failed, metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace redbench

int main(int argc, char** argv) {
  try {
    return redbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "redbench: %s\n", e.what());
    return 1;
  }
}
