// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into the
// library (nothing inside the program is instrumented), kept in a vector
// while the run measures, and written once at exit as Chrome trace-event
// JSON, which Perfetto and chrome://tracing open. Each span knows the span
// that caused it, so self times (duration minus the part covered by child
// spans) can be derived afterwards.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace redbench {

using Clock = std::chrono::steady_clock;

/// Every span kind the benchmark records. Nesting:
///   op -> setup -> {topology, inputs, ctor}
///   op -> round -> {step | run_until, check -> {max_error, consensus}}
///   op -> dmgs
///   op -> replay.* (kernel replays and front-door reductions, traced run only)
enum class SpanKind : std::uint8_t {
  kOp,
  kSetup,
  kTopology,
  kInputs,
  kCtor,
  kRound,
  kStep,
  kRunUntil,
  kCheck,
  kMaxError,
  kConsensus,
  kDmgs,
  kReplayArena,
  kReplayReducer,
  kReplayReducerD15,
  kReplayCtorD15,
  kReduceD1,
  kReduceD15,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(SpanKind::kCount)> kSpanNames = {
    "op",          "setup",      "net.topology.parse", "inputs",
    "engine.ctor", "round",      "sim.engine_sync.step", "sim.engine_async.run_until",
    "check",       "sim.metrics.max_error", "sim.estimates.consensus", "linalg.dmgs",
    "replay.core.arena",  "replay.core.reducer", "replay.core.reducer_d15",
    "replay.sim.engine_sync.ctor_d15", "replay.sim.reduce_vectors_d1",
    "replay.sim.reduce_vectors_d15",
};

struct Span {
  SpanKind kind = SpanKind::kOp;
  std::uint32_t op = 0;      ///< operation index (shared by all spans of one op)
  std::uint32_t parent = 0;  ///< index + 1 of the causing span; 0 for a root
  std::uint32_t round = 0;   ///< sync: engine round before the step; else 0
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Turns recording on or off for the spans that follow (the traced run
  /// alternates traced and untraced ops to measure the tracing overhead).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(SpanKind kind, std::uint32_t op, std::uint32_t round = 0) {
    if (!enabled_) return;
    Span s;
    s.kind = kind;
    s.op = op;
    s.round = round;
    s.parent = open_.empty() ? 0 : open_.back() + 1;
    s.start_ns = now_ns();
    open_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(s);
  }

  void end() {
    if (!enabled_) return;
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps). Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%u,\"id\":%zu,\"parent\":%u,\"round\":%u}}\n",
                   i == 0 ? "" : ",", kSpanNames[static_cast<std::size_t>(s.kind)],
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.op, i + 1, s.parent,
                   s.round);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: begin on construction, end on destruction.
class Scoped {
 public:
  Scoped(Tracer& tracer, SpanKind kind, std::uint32_t op, std::uint32_t round = 0)
      : tracer_(tracer) {
    tracer_.begin(kind, op, round);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { tracer_.end(); }

 private:
  Tracer& tracer_;
};

}  // namespace redbench
