// Threaded gossip runtime — the algorithms outside the simulator.
//
// Every algorithm from src/core runs here unmodified: nodes are split over
// worker threads, which drive the one ArenaFleet through its per-node
// operations, and packets travel through per-node mailboxes. Within a
// step, workers interleave freely — delivery timing and crossings are real
// nondeterminism, not simulated; a lightweight per-step barrier only paces
// the workers so that gossip actually alternates (see worker()). Per
// directed link FIFO holds because only the owning thread of the sender
// produces packets for that link and mailboxes preserve push order.
//
// This is the evidence that the reduction algorithms depend only on
// point-to-point messaging — the same property that would let them run over
// MPI or sockets.
#pragma once

#include <atomic>
#include <barrier>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "runtime/mailbox.hpp"
#include "support/annotations.hpp"
#include "support/perf.hpp"

namespace pcf::runtime {

struct RuntimeConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Worker threads; nodes are split round-robin. 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Per-node mailbox capacity; 0 = unbounded (the original behavior). With a
  /// bound, workers use non-blocking pushes and drain their own shard while a
  /// destination box is full — backpressure instead of unbounded queues; the
  /// pressure shows up in PerfCounters::mailbox_rejected_pushes. A blocking
  /// push would deadlock against the per-step barrier (a full hub mailbox
  /// whose owner is already waiting at the barrier), which is why the bounded
  /// path retries with drains instead of waiting.
  std::size_t mailbox_capacity = 0;
};

class ThreadedRuntime {
 public:
  /// The runtime stores its own copy of the topology, so temporaries are safe.
  ThreadedRuntime(net::Topology topology, std::span<const core::Mass> initial,
                  RuntimeConfig config);

  /// Runs a phase in which every node performs `steps_per_node` gossip sends
  /// (plus however many receives arrive), then drains all in-flight packets
  /// and settles crossed exchanges (see settle()). Blocks until the phase is
  /// complete. May be called repeatedly.
  void run(std::size_t steps_per_node);

  /// Injects a permanent link failure. Must be called between run() phases:
  /// workers read dead_links_ without a lock, so mutating it mid-phase is a
  /// data race. Calling this while workers are active throws
  /// ContractViolation instead of racing.
  void fail_link(net::NodeId a, net::NodeId b);

  /// Heals a previously failed link: both endpoints re-admit the neighbor
  /// (ArenaFleet::link_up) with zeroed flows. Same phase-boundary contract as
  /// fail_link — throws ContractViolation while workers are active.
  void heal_link(net::NodeId a, net::NodeId b);

  /// Queues a link fault (heal = false: fail, true: heal) to be applied at
  /// the next phase boundary. Unlike fail_link/heal_link this may be called
  /// from any thread at any time — including while a run() phase is active —
  /// so chaos-style drivers do not need to special-case the runtime's
  /// phase discipline. Queued events are applied in queue order when the
  /// current phase's workers have joined (and, if the runtime is idle, by the
  /// next run() before its workers start). The edge must exist in the
  /// topology; redundant events (failing a dead link, healing a live one) are
  /// benign no-ops, exactly like the immediate APIs.
  void queue_fault(net::NodeId a, net::NodeId b, bool heal);

  /// Queued-but-unapplied fault count (test/observability hook).
  [[nodiscard]] std::size_t pending_faults() const;

  [[nodiscard]] std::size_t size() const noexcept { return topology_.size(); }
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;
  [[nodiscard]] core::Mass total_mass() const;
  /// The node state: node i is fleet index i. Read it between run() phases.
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return *fleet_; }
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_.load(); }
  /// True while a run() phase has worker threads up (test/guard hook).
  [[nodiscard]] bool workers_active() const noexcept {
    return workers_active_.load(std::memory_order_acquire);
  }
  /// Wall-clock per phase (kRun / kDrain) and step counters.
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }

 private:
  void worker(std::size_t worker_index, std::size_t steps_per_node, std::barrier<>& step_barrier);
  void drain_node(net::NodeId i);
  void deliver(std::size_t worker_index, net::NodeId to, Envelope envelope);
  /// Directed edge i -> j in the topology's numbering.
  [[nodiscard]] std::size_t edge(net::NodeId i, net::NodeId j) const {
    return *topology_.edge_index(i, j);
  }
  void settle();
  void apply_pending_faults();  ///< caller guarantees workers are not active

  net::Topology topology_;
  RuntimeConfig config_;
  /// The node state. Each worker writes only its own nodes' rows; link
  /// liveness changes only between phases.
  std::unique_ptr<core::ArenaFleet> fleet_;
  std::vector<Rng> node_rngs_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::vector<net::NodeId>> shards_;  // nodes per worker
  /// Per directed edge i -> j (edge(i, j)): packets i received from j, and
  /// how many of them i had received when it last sent to j. Written only by
  /// i's owning worker, or between phases.
  std::vector<std::uint64_t> received_;
  std::vector<std::uint64_t> heard_at_send_;
  std::set<std::pair<net::NodeId, net::NodeId>> dead_links_;
  std::atomic<std::size_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};  // bounded mode: envelopes shed after retry
  std::atomic<bool> workers_active_{false};
  PerfCounters perf_;  // phase-disciplined: written only while workers are down
  struct QueuedFault {
    net::NodeId a;
    net::NodeId b;
    bool heal;
  };
  mutable Mutex pending_faults_mutex_;
  std::vector<QueuedFault> pending_faults_ PCF_GUARDED_BY(pending_faults_mutex_);
};

}  // namespace pcf::runtime
