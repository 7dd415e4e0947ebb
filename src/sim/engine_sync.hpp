// Synchronous round-based gossip engine.
//
// One round = every live node draws a gossip target and emits one packet. By
// default (Delivery::kSequential) each packet is delivered as soon as its
// sender produced it, in node order, so no two packets are ever in flight at
// once — the model the paper's invariants assume. Delivery::kCrossing is the
// stress model: all packets of a round are sent first and then delivered, so
// receivers see the senders' states as they were at the start of the round
// (messages "cross"). Everything is deterministic given the seed: node i draws
// its targets from its own forked RNG stream, so runs of *different
// algorithms* with the same seed use the same communication schedule — which
// is how the paper makes Fig. 4 and Fig. 7 directly comparable ("we initially
// used exactly the same random seed").
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "core/stopping.hpp"
#include "net/topology.hpp"
#include "sim/checkpoint.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/metrics.hpp"
#include "support/perf.hpp"

namespace pcf::sim {

/// Within-round delivery model.
enum class Delivery {
  /// Each packet is delivered as soon as its sender produced it (node order).
  /// No two packets are ever in flight at once, so pairwise flow conservation
  /// holds after every delivery and the total mass is exactly conserved at
  /// every round boundary. Default, and the model the paper's invariants
  /// assume.
  kSequential,
  /// All packets of a round are sent first, then delivered ("messages
  /// cross"). Two nodes that pick each other in the same round each mirror
  /// the other's STALE flow, transiently breaking conservation — a stress
  /// model the flow algorithms must (and do) self-heal from.
  kCrossing,
};

/// Checkpoint codec of the engine's node rows. Both modes run the same state,
/// one core::ArenaFleet, through the same code: a devirtualized round loop
/// and the fleet's per-node operations for faults, the oracle and the
/// invariant checkers. The mode is recorded in the checkpoint header and
/// changes no state bit — held to that by tests/sim/test_arena_equivalence.cpp.
enum class EngineMode {
  /// Dim-prefixed rows (protocol::PrefixedRows) — the bytes a kLegacy
  /// checkpoint has always had, and the other engines write.
  kLegacy,
  /// Raw stride rows (protocol::RawRows).
  kArena,
};

struct SyncEngineConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  FaultPlan faults;
  std::uint64_t seed = 1;
  Delivery delivery = Delivery::kSequential;
  EngineMode mode = EngineMode::kLegacy;
  /// The round loop is serial; the constructor rejects any value but 1. The
  /// field stays only because redbench/main.cpp sets it to 1; it goes when
  /// that line does.
  std::size_t shards = 1;
  InvariantConfig invariants;  ///< runtime invariant checking (see invariants.hpp)
};

struct RunStats {
  std::size_t rounds = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_dropped = 0;  // by message-loss injection or dead links
  std::size_t messages_flipped = 0;
  std::size_t messages_duplicated = 0;  // adversarial-delivery duplicates injected
  std::size_t doubles_sent = 0;  // payload bandwidth (mass components on the wire)
  std::size_t state_flips = 0;   // memory soft errors injected
  bool reached_target = false;   // for run_until_error
};

class SyncEngine {
 public:
  /// `initial` is one mass per node (all same dimension). The weight layout
  /// decides the aggregate (see core::initial_weight).
  /// The engine stores its own copy of the topology, so temporaries are safe.
  SyncEngine(net::Topology topology, std::span<const core::Mass> initial,
             SyncEngineConfig config);

  /// Executes one synchronous round (fault events due at this round fire
  /// first). Returns the round index just executed (1-based).
  std::size_t step();

  /// Runs `rounds` rounds.
  void run(std::size_t rounds);

  /// Runs until max_error() ≤ tol or max_rounds elapsed. max_error()
  /// defaults to component 0: the other components are not checked.
  RunStats run_until_error(double tol, std::size_t max_rounds);

  /// Runs until no estimate changes for `window` consecutive rounds (the
  /// numerical fixed point — best accuracy the algorithm will ever reach),
  /// or until max_rounds.
  RunStats run_until_fixed_point(std::size_t max_rounds, std::size_t window = 32);

  // ---- observation ----
  [[nodiscard]] std::size_t size() const noexcept { return topology_.size(); }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] const Oracle& oracle() const noexcept { return oracle_; }
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  /// Wall-clock per phase / throughput counters (see support/perf.hpp).
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }
  /// Live access to the fault model between steps. Only the probabilistic
  /// knobs (loss / flip / duplicate / reorder / churn rates) may be changed
  /// mid-run; the scheduled event lists are fixed at construction. Zeroing
  /// reorder_prob after a reordered round does NOT re-arm the exact
  /// conservation checkers — the staleness it caused is sticky.
  [[nodiscard]] FaultPlan& mutable_faults() noexcept { return config_.faults; }

  /// Programmatic live data update: node's input changes by `delta` and the
  /// oracle target shifts exactly. The flow state is untouched, so estimates
  /// re-converge from where they are — the basis of warm-started reduction
  /// sessions (see sim::ReductionSession).
  void apply_data_update(NodeId node, const core::Mass& delta);

  /// Programmatic permanent link failure: transport stops now, both endpoints
  /// are notified immediately (detection delay does not apply).
  void fail_link_now(NodeId a, NodeId b);
  /// Programmatic link heal: transport resumes now, both endpoints are
  /// notified immediately (link up). No-op if the link is up; rejected if
  /// either endpoint is crashed (rejoin revives a crashed node's links).
  void heal_link_now(NodeId a, NodeId b);
  /// Currently failed links (normalized (min,max) pairs, sorted) — the chaos
  /// harness uses this to heal whatever churn left dead.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> dead_links() const {
    return {dead_links_.begin(), dead_links_.end()};
  }
  [[nodiscard]] bool node_alive(NodeId i) const { return alive_.at(i); }
  /// The node state: node i is fleet index i. Mutating it bypasses the
  /// oracle and the fault bookkeeping (the tamper tests do, on purpose).
  [[nodiscard]] core::ArenaFleet& fleet() noexcept { return *fleet_; }
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return *fleet_; }

  /// Estimates of component k on all live nodes (dead nodes are skipped).
  /// This and the error scans below throw when k is not below the dimension.
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;
  /// Current masses of all live nodes.
  [[nodiscard]] std::vector<core::Mass> masses() const;
  [[nodiscard]] double max_error(std::size_t k = 0) const;
  [[nodiscard]] double median_error(std::size_t k = 0) const;
  /// Quantile q of the live nodes' local relative errors (q in [0,1]).
  [[nodiscard]] double error_quantile(double q, std::size_t k = 0) const;
  /// Largest flow component across all live nodes (ablation A3).
  [[nodiscard]] double max_abs_flow() const;
  /// Samples a TracePoint for the current state.
  [[nodiscard]] TracePoint sample(std::size_t k = 0) const;

  /// Cumulative fault telemetry — exactly what the invariant checkers see
  /// (fired event counters, in-flight/lossy exposure). The chaos harness and
  /// tests read heal/rejoin/duplication counts through this.
  [[nodiscard]] FaultExposure fault_exposure() const;

  /// The invariant monitor, or nullptr when checking is disabled.
  [[nodiscard]] const InvariantMonitor* invariants() const noexcept { return monitor_.get(); }
  /// Runs all invariant checkers against the current state immediately
  /// (independent of the per-round cadence). No-op when checking is disabled.
  void check_invariants_now();

  // ---- checkpoint / restore (sim/checkpoint.cpp; DESIGN.md §8) ----

  /// Serializes the engine's complete mutable state. Call between step()s —
  /// the synchronous wire is empty at every round boundary, so kLightweight
  /// and kFull produce the same body here (the mode is recorded for
  /// symmetry with the async engine).
  [[nodiscard]] std::string save_checkpoint(CheckpointMode mode = CheckpointMode::kFull) const;

  /// Restores a checkpoint written by save_checkpoint into this engine, which
  /// must have been constructed with the identical topology, initial masses
  /// and config (validated via the blob's compatibility hash). Throws
  /// CheckpointError on truncated/corrupted/version-skewed blobs or an
  /// incompatible engine; header and compatibility validation happen before
  /// any state is touched, but a throw from deeper body corruption leaves the
  /// engine in an unspecified state — discard it. After a successful restore,
  /// continuation is bitwise-identical to the saved run (per-round
  /// state_fingerprint(), message for message).
  void restore(std::string_view checkpoint);

  /// FNV-1a hash of the bit-exact live protocol state: round, per-node
  /// liveness, masses, estimates, flows toward every topology neighbor, and
  /// PCF handshake counters. Two engines in the same state agree; any bitwise
  /// state divergence shows. The restore-equivalence probe used by the tests,
  /// the chaos-restore scenarios and `pcflow checkpoint`.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Times node i rejoined after a crash (checkpointed; the session layer
  /// uses this to re-apply data updates a dead node missed).
  [[nodiscard]] std::uint64_t rejoin_count(NodeId i) const { return rejoin_counts_.at(i); }

 private:
  friend struct CheckpointFields;  // sim/checkpoint.cpp: the checkpoint field lists
  struct View;
  /// Calls f(estimate) with component k of every live node's estimate, in
  /// node order (ArenaFleet::for_each_estimate). Checks k < dim first.
  template <class F>
  void for_each_estimate(std::size_t k, F&& f) const;
  /// The live nodes' relative errors in component k, in node order.
  [[nodiscard]] std::vector<double> live_errors(std::size_t k) const;
  void check_invariants(bool force);
  void process_due_faults();
  void fail_link(NodeId a, NodeId b, double physical_time, bool independent);
  /// Revives a dead link: clears the dead/cut marks, drops its stale pending
  /// down-notices, and schedules a link-up notice at both endpoints for
  /// `time + detection_delay`. Caller has checked both endpoints are alive.
  void revive_link(NodeId a, NodeId b, double physical_time);
  void rejoin_node(NodeId node, double physical_time);
  void deliver_notifications_due();

  // Round phases, templated on the algorithm so the fleet's flat-array ops
  // inline.
  template <core::Algorithm A>
  void send_phase();
  template <core::Algorithm A>
  void drain_phase();

  net::Topology topology_;
  SyncEngineConfig config_;
  std::unique_ptr<core::ArenaFleet> fleet_;  // the node state, both modes
  std::vector<Rng> node_rngs_;
  Rng fault_rng_;
  Oracle oracle_;
  std::vector<core::Mass> initial_;  // per node — a rejoining node restarts from this
  std::vector<bool> alive_;
  std::set<std::pair<NodeId, NodeId>> dead_links_;  // normalized (min,max); transport cut
  /// Links that failed independently of a node crash (scheduled, explicit, or
  /// churn). A rejoin revives a crashed node's links EXCEPT these — the cable
  /// is still cut; only a heal event (or churn heal) restores them.
  std::set<std::pair<NodeId, NodeId>> cut_links_;
  /// Live links currently excluded by a failure-detector false positive.
  std::set<std::pair<NodeId, NodeId>> falsely_excluded_;
  struct PendingNotice {
    double due_time;
    NodeId node;  // who gets the callback
    NodeId peer;
    bool up = false;  // false: link_down, true: link_up
  };
  std::vector<PendingNotice> pending_notices_;
  std::vector<LinkHealEvent> churn_heals_;      // churn-scheduled heals, unordered
  std::vector<FalseDetectEvent> pending_clears_;  // "detected up" times for false positives
  std::size_t next_link_failure_ = 0;
  std::size_t next_node_crash_ = 0;
  std::size_t next_data_update_ = 0;
  std::size_t next_link_heal_ = 0;
  std::size_t next_node_rejoin_ = 0;
  std::size_t next_false_detect_ = 0;
  std::size_t round_ = 0;
  std::vector<std::uint64_t> rejoin_counts_;  // per node, monotone
  RunStats stats_;
  PerfCounters perf_;
  bool pending_retarget_ = false;
  /// A round ran with reordering enabled. Sticky: the stale mirrors it left
  /// outlive the knob, so the invariant layer treats the run as in-flight
  /// from then on (see View::faults()).
  bool wire_reordered_ = false;
  /// Crossing mode only: all exclusion notices have fired but the retarget
  /// must wait until the current round's wire_ has drained, so the snapshot
  /// sees no crossing packets mid-flight. See step().
  bool retarget_after_wire_ = false;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::size_t explicit_link_failures_ = 0;  // via fail_link_now()
  std::size_t crashes_fired_ = 0;
  std::size_t explicit_data_updates_ = 0;  // via apply_data_update()
  std::size_t churn_failures_fired_ = 0;
  std::size_t link_heals_fired_ = 0;
  std::size_t rejoins_fired_ = 0;
  std::size_t false_detects_fired_ = 0;
  std::size_t false_clears_fired_ = 0;

  struct InFlight {
    NodeId from;
    NodeId to;
    /// Receiver-side slot of the sender.
    std::uint32_t to_slot = 0;
    core::Packet packet;
  };
  std::vector<InFlight> wire_;  // reused per round
};

}  // namespace pcf::sim
