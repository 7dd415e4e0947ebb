// Runtime invariant checking for the simulation engines.
//
// The paper's central claims are invariants: global mass conservation under
// faults, pairwise flow antisymmetry (f_{i,j} == -f_{j,i}), the PCF
// handshake's phase discipline, and "failures cause no convergence
// fall-back". This module turns them into continuously evaluated checkers
// that both engines run as observers every round (sync) / event window
// (async). Each checker is *fault-aware*: it knows which violations are
// expected consequences of an injected failure (a dropped packet breaks
// pairwise conservation until the next delivery heals it; a crash removes
// mass until the oracle retargets) and only reports the unexpected ones.
//
// The strictness ladder, from the delivery model and fault exposure:
//  * sequential delivery, clean transport  — mass conservation and flow
//    antisymmetry hold EXACTLY at every round boundary and are checked with
//    tight tolerances;
//  * crossing / asynchronous delivery      — packets are in flight, so both
//    properties are transient (and a node's weight can transiently collapse,
//    spiking its relative error fault-free); only phase discipline and
//    finiteness remain checkable;
//  * lossy / corrupting transport          — flow algorithms self-heal, so
//    per-round checks are suspended and only finiteness remains.
// The PCF handshake invariants (cycle monotonicity, completer ≤ initiator ≤
// completer + 1, slot agreement by phase parity) hold under EVERY delivery
// model and under message loss — they are receipt-driven — and are therefore
// always enforced.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "net/topology.hpp"
#include "sim/metrics.hpp"

namespace pcf::sim {

using net::NodeId;

/// What the engine has injected so far. Checkers use this to decide which
/// violations are expected (and therefore not reported).
struct FaultExposure {
  /// Packets can be in flight when the check runs (crossing delivery, async
  /// engine) — pairwise/global conservation is transient, not per-check.
  bool in_flight = false;
  /// Event counters (sync engine: exact; async engine: conservatively set
  /// from the configured probabilities since it keeps no per-event stats).
  std::size_t messages_dropped = 0;
  std::size_t messages_flipped = 0;
  std::size_t state_flips = 0;
  /// Loss / corruption is configured (probability > 0), even if no event has
  /// fired yet — disables the error-envelope checker, whose history would
  /// otherwise be reset by every event anyway.
  bool lossy_env = false;
  /// Exponent bits may be flipped (NaN/Inf injection) — disables finiteness.
  bool any_bit_flips = false;
  /// A crash or rejoin fired but the oracle retarget is still pending.
  bool crash_settling = false;
  std::size_t link_failures = 0;  ///< scheduled + explicit + churn link failures fired
  std::size_t crashes = 0;
  std::size_t data_updates = 0;
  std::size_t link_heals = 0;  ///< scheduled + explicit + churn link heals fired
  std::size_t rejoins = 0;
  std::size_t false_detects = 0;  ///< failure-detector false positives fired
  /// False positives that cleared ("detected up" — link up ran at both
  /// ends). Counted separately from false_detects because the CLEAR also
  /// resets per-edge protocol state and the checkers must resync then too.
  std::size_t false_clears = 0;
  /// Adversarial-delivery duplicates injected. Flow mirrors are idempotent;
  /// push-sum shares are NOT — its conservation checks are suspended.
  std::size_t messages_duplicated = 0;
  /// Link-up notices scheduled but not yet delivered (detection_delay).
  /// The per-edge protocol reset lands when the notice is DELIVERED, which
  /// can be rounds after the heal/rejoin counter ticked — history-based
  /// checkers hold their resync window open until these drain.
  std::size_t pending_up_notices = 0;

  /// No drop/corruption event has fired — exact-conservation checks apply.
  /// (Duplicates are excluded deliberately: flow-mirror delivery is
  /// idempotent, so duplication keeps sequential conservation exact.)
  [[nodiscard]] bool transport_clean() const noexcept {
    return messages_dropped == 0 && messages_flipped == 0 && state_flips == 0;
  }
  /// Monotone event counter; history-based checkers reset when it changes.
  [[nodiscard]] std::size_t event_count() const noexcept {
    return messages_dropped + messages_flipped + state_flips + link_failures + crashes +
           data_updates + link_heals + rejoins + false_detects + false_clears +
           messages_duplicated;
  }
  /// Recovery events that reset per-edge protocol state (link up zeroes
  /// the PCF cycle counters); history-based per-edge checkers resynchronize
  /// when this changes.
  [[nodiscard]] std::size_t recovery_count() const noexcept {
    return link_heals + rejoins + false_detects + false_clears;
  }
};

/// Engine-agnostic read-only view of a running system, implemented by
/// adapters inside SyncEngine and AsyncEngine (and by fakes in tests).
class SystemView {
 public:
  virtual ~SystemView() = default;
  [[nodiscard]] virtual const net::Topology& topology() const = 0;
  /// The node state: node i is fleet index i.
  [[nodiscard]] virtual const core::ArenaFleet& fleet() const = 0;
  [[nodiscard]] core::Algorithm algorithm() const { return fleet().algorithm(); }
  /// Round index (sync) or simulation time (async).
  [[nodiscard]] virtual double time() const = 0;
  [[nodiscard]] virtual bool alive(NodeId i) const = 0;
  [[nodiscard]] virtual bool link_dead(NodeId a, NodeId b) const = 0;
  [[nodiscard]] virtual const Oracle& oracle() const = 0;
  [[nodiscard]] virtual FaultExposure faults() const = 0;
};

struct InvariantViolation {
  std::string checker;
  double time = 0.0;
  std::string detail;
};

/// One pluggable invariant. Checkers may keep history between check() calls
/// (monotonicity, envelopes); a checker instance belongs to one engine.
class InvariantChecker {
 public:
  virtual ~InvariantChecker() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  virtual void check(const SystemView& view, std::vector<InvariantViolation>& out) = 0;
};

struct InvariantConfig {
  /// Tri-state: unset (default) consults the PCF_CHECK_INVARIANTS environment
  /// variable, which the test suite sets for every ctest invocation. Engines
  /// embed this config, so benches/examples stay check-free unless opted in.
  std::optional<bool> enabled;
  /// Throw InvariantViolationError on the first check() that finds new
  /// violations (default). When false, violations only accumulate and can be
  /// inspected via InvariantMonitor::violations().
  bool throw_on_violation = true;
  /// Check cadence in rounds (sync engine); the async engine checks at every
  /// run_until() boundary regardless.
  std::size_t check_every = 1;
  /// Relative tolerance for exact global mass conservation.
  double mass_rel_tol = 1e-8;
  /// Loose bound applied once a PCF cancellation handshake may have been
  /// interrupted by a link failure (the two-generals window loses at most one
  /// in-flight flow's mass; see core/protocol.hpp).
  double mass_fault_tol = 0.5;
  /// Error-envelope: a violation fires when the max relative error exceeds
  /// max(envelope_factor × best-seen, envelope_floor) with no intervening
  /// fault event — the "no convergence fall-back" claim. The floor absorbs
  /// the benign 1e-8-scale error rebound flow algorithms show around their
  /// numerical fixed point (growing flows erode cancellation precision —
  /// Fig. 3); a real fall-back (the PF restart problem) is O(0.1).
  double envelope_factor = 1e4;
  double envelope_floor = 1e-6;
  /// The envelope only arms once the best-seen error drops below this —
  /// pre-convergence, near-zero weights make relative errors spike without
  /// any fault (the paper's claim is about fall-back *after* convergence).
  double envelope_arm = 1e-3;

  /// Resolves the tri-state `enabled` against the environment.
  [[nodiscard]] bool resolve_enabled() const;
};

class InvariantViolationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Owns the checker set of one engine; engines call check() as observers.
class InvariantMonitor {
 public:
  explicit InvariantMonitor(InvariantConfig config = {});

  void add_checker(std::unique_ptr<InvariantChecker> checker);
  /// Installs the standard suite: mass conservation, flow antisymmetry, PCF
  /// handshake discipline, estimate-error envelope, finite state.
  void install_default_checkers();

  /// Runs every checker; throws InvariantViolationError when new violations
  /// appear and config.throw_on_violation is set.
  void check(const SystemView& view);

  [[nodiscard]] const std::vector<InvariantViolation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t checks_run() const noexcept { return checks_run_; }
  [[nodiscard]] const InvariantConfig& config() const noexcept { return config_; }

 private:
  InvariantConfig config_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::vector<InvariantViolation> violations_;
  std::size_t checks_run_ = 0;
};

// Individual checker factories, exported so tests can exercise them against
// fake SystemViews.
[[nodiscard]] std::unique_ptr<InvariantChecker> make_mass_conservation_checker(
    const InvariantConfig& config);
[[nodiscard]] std::unique_ptr<InvariantChecker> make_flow_antisymmetry_checker();
[[nodiscard]] std::unique_ptr<InvariantChecker> make_pcf_handshake_checker();
[[nodiscard]] std::unique_ptr<InvariantChecker> make_estimate_envelope_checker(
    const InvariantConfig& config);
[[nodiscard]] std::unique_ptr<InvariantChecker> make_finite_state_checker();

}  // namespace pcf::sim
