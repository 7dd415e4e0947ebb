// Fault injection model.
//
// The paper's fault classes and how they are injected here:
//  * message loss   — each packet is independently dropped with probability
//                     `message_loss_prob` (soft error; no one is notified);
//  * bit flips      — each delivered packet has a random bit of one payload
//                     double flipped with probability `bit_flip_prob`. By
//                     default only mantissa/sign bits are flipped: an exponent
//                     flip can turn a value into NaN/Inf, which no
//                     mass-conserving scheme can cancel out and which real
//                     systems catch with range checks (set
//                     `bit_flip_any_bit` to exercise that case anyway);
//  * permanent link failure — at `time` the link stops transporting packets;
//                     both endpoints' failure detectors fire `detection_delay`
//                     later and the algorithms exclude the link;
//  * node crash     — modeled, as in the paper, as the permanent failure of
//                     all the node's links. The crashed node's unrecoverable
//                     mass leaves the computation, so the engines re-derive
//                     the oracle target from the surviving nodes' masses.
//
// Recovery and churn (the dynamic-network half the paper leaves implicit —
// cf. Flow Updating under churn, arXiv:1109.4373):
//  * link heal      — at `time` a previously failed link transports again;
//                     both endpoints' detectors report it up `detection_delay`
//                     later and the algorithms re-admit the neighbor with
//                     zeroed flows (ArenaFleet::link_up — the Section IV
//                     exclusion rule run in reverse). Packets that were in
//                     flight when the cable was cut stay lost;
//  * node rejoin    — a crashed node returns with FRESH state (its pre-crash
//                     state is gone): its rows are reset in place from the node's
//                     initial mass, links to live neighbors revive (unless
//                     they failed independently of the crash), and the
//                     returning mass re-enters the computation — the engines
//                     retarget the oracle, mirroring the crash retarget;
//  * churn          — probabilistic fail/heal cycling: each live link fails
//                     with rate `churn_fail_prob` (per round in the sync
//                     engine; per unit time per link in the async engine) and
//                     every failed link revives after an exponentially
//                     distributed outage with rate `churn_heal_rate`;
//  * adversarial delivery — each delivered packet is duplicated with
//                     probability `duplicate_prob` (flow mirrors are
//                     idempotent, push-sum shares are not — that asymmetry is
//                     the point), and delayed out of FIFO order with
//                     probability `reorder_prob` (async: an extra arrival
//                     delay uniform in [0, reorder_jitter) that bypasses the
//                     per-link FIFO clamp; sync: the round's deliveries are
//                     permuted);
//  * false-positive detection — at `time` the detectors at both ends of a
//                     LIVE link wrongly report it down (the algorithms
//                     exclude it) and report it up again `clear_delay` later
//                     (the algorithms re-admit it). The transport is never
//                     interrupted.
#pragma once

#include <algorithm>
#include <vector>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"

namespace pcf::sim {

using core::Packet;
using net::NodeId;

struct LinkFailureEvent {
  double time = 0.0;  ///< in rounds (sync engine) or time units (async engine)
  NodeId a = 0;
  NodeId b = 0;
};

struct NodeCrashEvent {
  double time = 0.0;
  NodeId node = 0;
};

/// A live input change (not a fault — dynamic monitoring à la LiMoSense):
/// at `time`, node `node`'s local data changes by `delta`. The flow-based
/// algorithms track the moving aggregate; the engines retarget the oracle.
struct DataUpdateEvent {
  double time = 0.0;
  NodeId node = 0;
  core::Mass delta;
};

/// A failed link starts transporting again. No-op if the link is up or either
/// endpoint is crashed (a rejoin revives the crashed node's links itself).
struct LinkHealEvent {
  double time = 0.0;
  NodeId a = 0;
  NodeId b = 0;
};

/// A crashed node returns with fresh state. No-op if the node is alive.
struct NodeRejoinEvent {
  double time = 0.0;
  NodeId node = 0;
};

/// Failure-detector false positive on a live link: wrongly "detected down" at
/// `time`, "detected up" again `clear_delay` later. Suppressed if the link
/// genuinely dies in between.
struct FalseDetectEvent {
  double time = 0.0;
  NodeId a = 0;
  NodeId b = 0;
  double clear_delay = 1.0;
};

// NOTE on growing this struct: every field must be threaded through empty(),
// latest_event_time(), both engines, fault_spec parse/format (for events),
// differential.cpp's algorithm_trusted() + repro dump, and the invariant
// checkers' FaultExposure. tests/sim/test_faults.cpp pins the field count
// with a structured binding that fails to compile until updated — update the
// consumers FIRST, then the test.
struct FaultPlan {
  double message_loss_prob = 0.0;
  double bit_flip_prob = 0.0;
  bool bit_flip_any_bit = false;
  /// Memory soft errors: per node and round, the probability that one bit of
  /// one STORED flow variable flips (vs. bit_flip_prob, which corrupts
  /// packets in transit). See ArenaFleet::corrupt_stored_flow.
  double state_flip_prob = 0.0;
  /// Delay between a permanent failure and the failure-detector callback
  /// (on_link_down) at the endpoints — and, symmetrically, between a heal and
  /// the on_link_up callback. 0 matches the paper's experiments.
  double detection_delay = 0.0;
  /// Adversarial delivery: per-packet duplication probability. The duplicate
  /// is delivered immediately after the original (sync) or as the next packet
  /// on the link (async).
  double duplicate_prob = 0.0;
  /// Adversarial delivery: probability that a packet is delayed out of FIFO
  /// order. In the sync engine any reorder_prob > 0 also forces the round's
  /// deliveries through the wire (as in crossing mode), where the selected
  /// packets are shuffled to the back.
  double reorder_prob = 0.0;
  /// Async engine: extra arrival delay bound (time units) for reordered
  /// packets. Ignored by the sync engine (its delay unit is the round).
  double reorder_jitter = 0.5;
  /// Churn: per live link, probability of failing per round (sync) / failure
  /// rate per time unit (async).
  double churn_fail_prob = 0.0;
  /// Churn: when > 0, EVERY link failure between live nodes — churn-induced
  /// or scheduled — heals after an Exp(churn_heal_rate) outage.
  double churn_heal_rate = 0.0;
  std::vector<LinkFailureEvent> link_failures;
  std::vector<NodeCrashEvent> node_crashes;
  std::vector<DataUpdateEvent> data_updates;
  std::vector<LinkHealEvent> link_heals;
  std::vector<NodeRejoinEvent> node_rejoins;
  std::vector<FalseDetectEvent> false_detects;

  [[nodiscard]] bool empty() const noexcept {
    return message_loss_prob == 0.0 && bit_flip_prob == 0.0 && state_flip_prob == 0.0 &&
           duplicate_prob == 0.0 && reorder_prob == 0.0 && churn_fail_prob == 0.0 &&
           link_failures.empty() && node_crashes.empty() && data_updates.empty() &&
           link_heals.empty() && node_rejoins.empty() && false_detects.empty();
  }

  /// Latest scheduled event time (a false detect extends to its clear time).
  /// 0 when no events are scheduled. Churn has no schedule and is not
  /// reflected here.
  [[nodiscard]] double latest_event_time() const noexcept {
    double latest = 0.0;
    for (const auto& e : link_failures) latest = std::max(latest, e.time);
    for (const auto& e : node_crashes) latest = std::max(latest, e.time);
    for (const auto& e : data_updates) latest = std::max(latest, e.time);
    for (const auto& e : link_heals) latest = std::max(latest, e.time);
    for (const auto& e : node_rejoins) latest = std::max(latest, e.time);
    for (const auto& e : false_detects) latest = std::max(latest, e.time + e.clear_delay);
    return latest;
  }
};

/// Throws ContractViolation unless every time in `plan` is finite: the
/// scheduled event times, the false detects' clear delays, the detection
/// delay and the reorder jitter. The engines order events by these times,
/// and a NaN has no place in that order.
void check_fault_times(const FaultPlan& plan);

/// Flips one random bit of one randomly chosen payload double in `packet`.
/// Honors `any_bit` (see FaultPlan::bit_flip_any_bit).
void flip_random_bit(Packet& packet, Rng& rng, bool any_bit);

}  // namespace pcf::sim
