// Performance counters for the engines and the benchmark harness.
//
// Every engine owns one PerfCounters instance and charges wall-clock time
// (std::chrono::steady_clock) to a fixed set of phases plus a handful of
// monotone event counters: events processed, messages and payload doubles on
// the wire, reallocations of the hot event queue. The bench subsystem reads
// the counters after a run to derive rounds/sec and deliveries/sec — the
// numbers every future optimisation PR is judged against (BENCH_pcflow.json).
//
// Design constraints:
//  * hot-path cost is one steady_clock::now() pair per timed phase entry and
//    plain increments for the counters — cheap enough to stay always-on;
//  * fixed phase slots (no map lookups, no allocation) keep the timer
//    branch-free and usable inside the engines' innermost loops;
//  * the counters are plain values, so snapshotting/diffing is trivial.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace pcf {

class PerfCounters {
 public:
  /// Phase slots. The engines charge to disjoint subsets:
  ///  * SyncEngine:      kFaults (fault processing), kGossip (send loop),
  ///                     kDelivery (crossing-mode wire drain);
  ///  * AsyncEngine:     kEvents (event dispatch loop).
  enum class Phase : std::size_t { kFaults, kGossip, kDelivery, kEvents, kCount };
  static constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

  /// RAII phase timer; charges the elapsed time on destruction.
  class ScopedTimer {
   public:
    ScopedTimer(PerfCounters& counters, Phase phase) noexcept
        : counters_(counters), phase_(phase), start_(std::chrono::steady_clock::now()) {}
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ~ScopedTimer() {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      counters_.add_seconds(phase_, std::chrono::duration<double>(elapsed).count());
    }

   private:
    PerfCounters& counters_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  [[nodiscard]] ScopedTimer time(Phase phase) noexcept { return ScopedTimer(*this, phase); }

  void add_seconds(Phase phase, double seconds) noexcept {
    phase_seconds_[static_cast<std::size_t>(phase)] += seconds;
  }
  [[nodiscard]] double seconds(Phase phase) const noexcept {
    return phase_seconds_[static_cast<std::size_t>(phase)];
  }
  /// Total wall-clock across all phases (phases are disjoint per engine).
  [[nodiscard]] double total_seconds() const noexcept {
    double total = 0.0;
    for (double s : phase_seconds_) total += s;
    return total;
  }

  // ---- monotone event counters (charged by the engines) ----
  std::uint64_t events_processed = 0;    ///< async: events handled
  std::uint64_t rounds = 0;              ///< sync: rounds stepped
  std::uint64_t messages_sent = 0;       ///< packets put on the wire
  std::uint64_t deliveries = 0;          ///< packets handed to on_receive
  std::uint64_t doubles_on_wire = 0;     ///< payload doubles transmitted
  /// async: growths of the event slab and of the calendar queue's arrays
  /// (ring nodes, drain heap, overflow heap)
  std::uint64_t queue_reallocations = 0;

  // ---- socket/runtime transport counters (charged by the runtimes) ----
  // These count OBSERVED datagram faults (sequence gaps, duplicate or stale
  // sequence numbers), not injected ones — on the socket runtime UDP loss is
  // a measured quantity. Per-link breakdowns live in the runtime's own
  // LinkStats; these are the process-wide totals.
  std::uint64_t datagrams_sent = 0;       ///< frames written to the socket
  std::uint64_t datagrams_received = 0;   ///< frames decoded off the socket
  std::uint64_t datagrams_lost = 0;       ///< sequence gaps observed (real loss)
  std::uint64_t datagrams_duplicated = 0; ///< repeated sequence numbers dropped
  std::uint64_t datagrams_reordered = 0;  ///< stale sequence numbers dropped
  std::uint64_t frames_rejected = 0;      ///< undecodable datagrams (corrupt/skew)
  std::uint64_t heartbeats_sent = 0;      ///< failure-detector beacons emitted
  std::uint64_t detector_downs = 0;       ///< heartbeat timeouts fired (link-down)
  std::uint64_t detector_ups = 0;         ///< heartbeat resumptions (link-up)

  // ---- bounded-mailbox backpressure (socket runtime) ----
  // Blocked pushes stall the socket RX thread on a full mailbox. See
  // Mailbox::Stats.
  std::uint64_t mailbox_blocked_pushes = 0;  ///< blocking push() calls that waited on a full box
  std::uint64_t mailbox_high_watermark = 0;  ///< max queue length (merge: max)

  /// Throughput rates against the total charged wall-clock; 0 when no time
  /// has been charged yet (so a fresh engine reports 0 instead of inf/NaN).
  [[nodiscard]] double rounds_per_sec() const noexcept { return rate(rounds); }
  [[nodiscard]] double deliveries_per_sec() const noexcept { return rate(deliveries); }
  [[nodiscard]] double events_per_sec() const noexcept { return rate(events_processed); }

 private:
  [[nodiscard]] double rate(std::uint64_t count) const noexcept {
    const double t = total_seconds();
    return t > 0.0 ? static_cast<double>(count) / t : 0.0;
  }

  std::array<double, kPhaseCount> phase_seconds_{};
};

}  // namespace pcf
