// Threaded gossip runtime — the algorithms outside the simulator.
//
// Every algorithm from src/core runs here unmodified: nodes are split over
// worker threads, which drive the one ArenaFleet through its per-node
// operations, and packets travel through per-node mailboxes. Within a
// step, workers interleave freely — delivery timing and crossings are real
// nondeterminism, not simulated; a lightweight per-step barrier only paces
// the workers so that gossip actually alternates (see worker()). Per
// directed link FIFO holds because only the owning thread of the sender
// produces packets for that link and mailboxes preserve push order. The
// fleet is the only record of link liveness: a failed link is excluded at
// both endpoints (ArenaFleet::link_down), and make_message picks only live
// neighbors, so no new packet crosses it.
//
// This is the evidence that the reduction algorithms depend only on
// point-to-point messaging — the same property that would let them run over
// MPI or sockets.
#pragma once

#include <atomic>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "runtime/mailbox.hpp"

namespace pcf::runtime {

struct RuntimeConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Worker threads; nodes are split round-robin. 0 = hardware concurrency.
  std::size_t num_threads = 0;
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

  /// Fails a link: both endpoints exclude each other (ArenaFleet::link_down).
  /// Must be called between run() phases: workers read link liveness from
  /// the fleet without a lock, so changing it mid-phase is a data race.
  /// Calling this while workers are active throws ContractViolation instead
  /// of racing. Failing a dead link is a no-op.
  void fail_link(net::NodeId a, net::NodeId b);

  /// Heals a failed link: both endpoints re-admit the neighbor
  /// (ArenaFleet::link_up) with zeroed flows. Same phase-boundary contract as
  /// fail_link. Healing a live link is a no-op.
  void heal_link(net::NodeId a, net::NodeId b);

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

 private:
  void worker(std::size_t worker_index, std::size_t steps_per_node, std::barrier<>& step_barrier);
  void drain_node(net::NodeId i);
  /// Directed edge i -> j in the topology's numbering.
  [[nodiscard]] std::size_t edge(net::NodeId i, net::NodeId j) const {
    return *topology_.edge_index(i, j);
  }
  void settle();

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
  std::atomic<std::size_t> delivered_{0};
  std::atomic<bool> workers_active_{false};
};

}  // namespace pcf::runtime
