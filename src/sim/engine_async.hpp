// Asynchronous event-driven gossip engine.
//
// Gossip reduction needs no synchronization — that is one of its selling
// points. This engine drops the round barrier of SyncEngine: every node owns
// a Poisson clock (rate `tick_rate`) and gossips whenever it fires, and every
// packet travels with a random latency drawn from [latency_min, latency_max).
// Per directed link, delivery is FIFO (arrival times are clamped to be
// monotone): the PCF handshake assumes in-order-or-lost delivery, which every
// realistic transport (TCP, MPI) provides.
//
// The event loop is templated on the algorithm, one dispatch per run_until():
// ticks, deliveries and the oracle scan call the fleet's kernels directly;
// the fault events call the fleet's per-node operations.
//
// Used by integration tests and ablations to demonstrate that the accuracy /
// fault-tolerance results do not depend on the synchronous model.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/checkpoint.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/metrics.hpp"
#include "support/perf.hpp"

namespace pcf::sim {

struct AsyncEngineConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  FaultPlan faults;  // event times are in simulation time units
  std::uint64_t seed = 1;
  double tick_rate = 1.0;     ///< gossip sends per node per time unit
  double latency_min = 0.05;  ///< packet latency lower bound
  double latency_max = 0.5;   ///< packet latency upper bound (exclusive)
  InvariantConfig invariants;  ///< runtime invariant checking (see invariants.hpp)
};

// A note on node crashes and the oracle: unlike the synchronous engine
// (which processes faults at round boundaries when nothing is in flight), the
// asynchronous network always has packets in transit. The oracle's retarget
// therefore snapshots the survivors' local masses PLUS the mass still carried
// by queued deliveries on live links (each receiver's unreceived mass —
// additive shares for push-sum, last-writer-wins mirrors for the flow
// algorithms). Without the in-flight term the target is biased by whatever
// was on the wire at detection time — the historical bug this fixes.
class AsyncEngine {
 public:
  /// The engine stores its own copy of the topology, so temporaries are safe.
  AsyncEngine(net::Topology topology, std::span<const core::Mass> initial,
              AsyncEngineConfig config);

  /// Advances the simulation until `time` (processing all events due).
  void run_until(double time);

  /// Advances until max_error() ≤ tol or until `deadline`. Checks the error
  /// every `check_interval` time units. Returns true on success. max_error()
  /// defaults to component 0: the other components are not checked.
  bool run_until_error(double tol, double deadline, double check_interval = 1.0);

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Live access to the fault model between run_until() calls. Only the
  /// probabilistic knobs (loss / flip / state-flip / duplicate / reorder
  /// rates) may be changed; scheduled events are fixed at construction, and
  /// the churn event chains are seeded from the rates given at construction
  /// (setting churn_fail_prob afterwards starts no new chain).
  [[nodiscard]] FaultPlan& mutable_faults() noexcept { return config_.faults; }
  [[nodiscard]] std::size_t size() const noexcept { return topology_.size(); }
  [[nodiscard]] const Oracle& oracle() const noexcept { return oracle_; }
  /// The node state, read-only (per-node operations keyed by node index).
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return *fleet_; }
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;
  [[nodiscard]] double max_error(std::size_t k = 0) const;
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_; }
  [[nodiscard]] bool node_alive(NodeId i) const { return alive_.at(i); }
  /// Wall-clock / throughput counters (kEvents phase; see support/perf.hpp).
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }

  /// Cumulative fault telemetry — exactly what the invariant checkers see.
  [[nodiscard]] FaultExposure fault_exposure() const;

  /// The invariant monitor, or nullptr when checking is disabled. Checks run
  /// at every run_until() boundary (there is no quiescent round boundary in
  /// an asynchronous network, so only the in-flight-safe checkers fire).
  [[nodiscard]] const InvariantMonitor* invariants() const noexcept { return monitor_.get(); }
  /// Runs all invariant checkers against the current state immediately.
  void check_invariants_now();

  // ---- checkpoint / restore (sim/checkpoint.cpp; DESIGN.md §8) ----

  /// Serializes the engine's complete mutable state between run_until()s.
  /// kFull saves every pending event in firing order (in-flight packets
  /// included) — restore continues bitwise-identically. kLightweight drops
  /// the queued kDelivery events (FTPregel-style state-only snapshot): the
  /// blob shrinks by the in-flight traffic, the flow algorithms re-mirror
  /// the lost packets away, and push-sum loses the in-flight mass.
  [[nodiscard]] std::string save_checkpoint(CheckpointMode mode = CheckpointMode::kFull) const;

  /// Restores a checkpoint written by save_checkpoint into this engine, which
  /// must have been constructed with the identical topology, initial masses
  /// and config (validated via the blob's compatibility hash). Throws
  /// CheckpointError on truncated/corrupted/version-skewed blobs or an
  /// incompatible engine; header and compatibility validation happen before
  /// any state is touched, but a throw from deeper body corruption leaves the
  /// engine in an unspecified state — discard it.
  void restore(std::string_view checkpoint);

  /// FNV-1a hash of the bit-exact live protocol state (see the sync engine's
  /// state_fingerprint). Includes now() but not the pending queue, so it
  /// compares node-state agreement at a common simulation time.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  friend struct CheckpointFields;  // sim/checkpoint.cpp: the checkpoint field lists
  struct View;
  /// What a pending event does; its time and seq live in its Key.
  struct Event {
    enum class Kind {
      kTick,
      kDelivery,
      kLinkFailure,
      kCrash,
      kDetect,
      kDataUpdate,
      kLinkHeal,     // scheduled or churn: the link transports again
      kRejoin,       // a crashed node returns with fresh state
      kDetectUp,     // detector reports a healed link up at one endpoint
      kFalseDetect,  // detector false positive: live link wrongly excluded
      kFalseClear,   // the false positive clears ("detected up")
      kChurnFail,    // churn chain: the link fails
    } kind;
    NodeId a = 0;  // tick/crash/rejoin: node; delivery: sender; link: endpoint a
    NodeId b = 0;  // delivery: receiver; link: endpoint b; detect: peer
    /// Delivery: the receiver-side slot of the sender, as the send returned
    /// it. It fills what would be padding and is never serialized: restore
    /// re-derives it from (a, b).
    std::uint32_t to_slot = 0;
    double aux = 0.0;  // false detect: clear delay

    /// True for the kinds whose (a, b) is a topology edge: a delivery and
    /// every link event. Restore refuses such an event on any other pair.
    [[nodiscard]] bool on_edge() const noexcept {
      switch (kind) {
        case Kind::kTick:
        case Kind::kCrash:
        case Kind::kDataUpdate:
        case Kind::kRejoin: return false;
        default: return true;
      }
    }
  };
  static_assert(sizeof(Event) == 24, "the receiver slot must stay in Event's padding");
  /// The queue entry: 24 bytes, so the queue never moves an event or a
  /// packet. Its slot indexes events_ and payloads_.
  using Key = EventKey;

  /// Queues `event` at `time` in a free slab slot and returns the slot.
  std::uint32_t push(double time, Event event);
  /// Queues an event that carries `packet`.
  void push(double time, Event event, const core::Packet& packet);
  /// Pops and handles every event due by `time`. Ticks and deliveries run
  /// the fleet's kernels for algorithm A directly; the rest go to
  /// handle_fault.
  template <core::Algorithm A>
  void run_events(double time);
  template <core::Algorithm A>
  void tick(NodeId i);
  template <core::Algorithm A>
  void deliver(const Key& key, const Event& e);
  /// Link events, crashes, rejoins, detector notices and data updates: the
  /// cold path, through the fleet's per-node operations.
  void handle_fault(const Key& key, const Event& e);
  void schedule_tick(NodeId node);
  void fail_link(NodeId a, NodeId b, bool independent);
  /// Revives a dead link between live nodes: packets queued before the heal
  /// are lost (heal-epoch purge), detectors report "up" after the detection
  /// delay, and the churn fail chain restarts. Returns false if the link was
  /// not dead.
  bool revive_link(NodeId a, NodeId b);
  /// Snapshots live local masses + in-flight mass and retargets the oracle.
  void retarget_now();
  /// Appends the mass carried by queued deliveries on live links to `masses`
  /// (the crash-retarget snapshot), in firing order. See the class comment.
  template <core::Algorithm A>
  void append_in_flight_mass(std::vector<core::Mass>& masses) const;
  /// True if a delivery from `from` to `to` queued as `seq` was queued before
  /// its link's last heal (the packet was physically lost in the outage).
  [[nodiscard]] bool stale_delivery(NodeId from, NodeId to, std::uint64_t seq) const;

  net::Topology topology_;
  AsyncEngineConfig config_;
  std::unique_ptr<core::ArenaFleet> fleet_;  // the node state
  std::vector<Rng> node_rngs_;
  Rng net_rng_;
  Oracle oracle_;
  std::vector<core::Mass> initial_;  // per node — a rejoining node restarts from this
  std::vector<bool> alive_;
  std::set<std::pair<NodeId, NodeId>> dead_links_;
  /// Links that failed independently of a crash (scheduled or churn); a
  /// rejoin does not revive these.
  std::set<std::pair<NodeId, NodeId>> cut_links_;
  /// Live links currently excluded by a failure-detector false positive.
  std::set<std::pair<NodeId, NodeId>> falsely_excluded_;
  /// Per healed link: the event seq at heal time. Earlier-queued deliveries
  /// were in flight when the cable was cut and are dropped on arrival.
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> heal_seq_;
  /// FIFO clamp per directed link, at the fleet's edge_index() (the
  /// topology's edge_index() order). 0.0 means no FIFO send yet: every clamp
  /// written is at least 1e-9.
  std::vector<double> last_arrival_;
  /// The pending events' keys, popped in (time, seq) order.
  CalendarQueue queue_;
  /// The event slab: slot k of events_ and payloads_ belongs to the pending
  /// Key with slot k; free_slots_ holds the slots of handled events.
  std::vector<Event> events_;
  std::vector<core::Packet> payloads_;  // deliveries: the packet; data updates: the delta in `a`
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t slab_growths_ = 0;  // times events_ grew (PerfCounters::queue_reallocations)
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t delivered_ = 0;
  bool pending_retarget_ = false;
  std::size_t pending_detects_ = 0;  // kDetect events scheduled but not handled
  std::size_t pending_up_notices_ = 0;  // kDetectUp events scheduled but not handled
  std::unique_ptr<InvariantMonitor> monitor_;
  PerfCounters perf_;
  std::size_t link_failures_fired_ = 0;
  std::size_t crashes_fired_ = 0;
  std::size_t data_updates_fired_ = 0;
  std::size_t link_heals_fired_ = 0;
  std::size_t rejoins_fired_ = 0;
  std::size_t false_detects_fired_ = 0;
  std::size_t false_clears_fired_ = 0;
  std::size_t duplicates_injected_ = 0;
};

}  // namespace pcf::sim
