// The per-node protocol interface shared by all gossip reduction algorithms.
//
// A Reducer is the complete protocol state machine of ONE node: it owns the
// node's initial mass, its per-neighbor flow state, and produces/consumes
// point-to-point packets. Engines (synchronous rounds, asynchronous events,
// threaded and socket runtimes) only move packets between nodes — the
// algorithms never see the transport, which is exactly the property that
// lets the same code run in a simulator and on real processes.
//
// Each algorithm's rules exist once, as kernels in core/protocol.hpp, and
// their state has one layout, ArenaFleet (core/arena.hpp), which the engines
// and runtimes drive directly. Reducer is only make_reducer's handle: one
// node in a one-node fleet of its own, for tests and tools, forwarding every
// call to the fleet's per-node operations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "core/mass.hpp"
#include "net/topology.hpp"
#include "net/tree_schedule.hpp"
#include "support/rng.hpp"

namespace pcf::core {

using net::NodeId;

/// Universal wire format. Each algorithm uses the subset of fields it needs;
/// unused fields stay zero. Keeping one POD packet type (instead of a variant
/// per algorithm) lets the fault injector flip bits and the engines stay
/// algorithm-agnostic.
struct Packet {
  Mass a;                       ///< push-sum share / PF flow / PCF flow slot 1 / FU flow
  Mass b;                       ///< PCF flow slot 2 / FU sender estimate
  std::uint8_t active_slot = 1; ///< PCF: sender's c_{i,j} ∈ {1,2}
  std::uint64_t role_count = 0; ///< PCF: sender's r_{i,j}
};

/// A packet addressed to a neighbor.
struct Outgoing {
  NodeId to = 0;
  Packet packet;
};

enum class Algorithm {
  kPushSum,             ///< Kempe et al. 2003 — fast, zero fault tolerance
  kPushFlow,            ///< Gansterer et al. 2011/12 — Fig. 1 of the paper
  kPushCancelFlow,      ///< this paper's contribution — Fig. 5
  kFlowUpdating,        ///< Jesus et al. 2009 — averaging-only baseline
  kCorrectionAllreduce, ///< Küttler & Härtig — tree allreduce with corrections
  kFuMassHybrid,        ///< Almeida et al. 2011 — FU flows at MD pairing speed
};

[[nodiscard]] std::string_view to_string(Algorithm a) noexcept;
/// Parses "pushsum" | "pf" | "pcf" | "fu" | "corr" | "fumd" (and long names).
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// Whether the algorithm needs a resolved net::TreeSchedule in its
/// ReducerConfig. A topology ArenaFleet builds it from its topology when the
/// caller left it empty; a one-node fleet (make_reducer) needs it supplied.
[[nodiscard]] constexpr bool needs_tree_schedule(Algorithm a) noexcept {
  return a == Algorithm::kCorrectionAllreduce;
}

/// PCF bookkeeping variants (Section III-A of the paper).
enum class PcfVariant {
  /// Fig. 5 verbatim: the flow sum ϕ is maintained incrementally and the
  /// estimate is v − ϕ. Cheapest, but a corrupted ϕ or flow slot can never
  /// heal, so bit flips are not tolerated.
  kFast,
  /// ϕ only absorbs *cancelled* flows; the estimate is recomputed from the
  /// live flow slots each time. Retains PF's self-healing of corrupted flow
  /// variables (the paper's remark at the end of Section III-A).
  kRobust,
};

[[nodiscard]] std::string_view to_string(PcfVariant v) noexcept;

struct ReducerConfig {
  Aggregate aggregate = Aggregate::kAverage;
  PcfVariant pcf_variant = PcfVariant::kRobust;
  /// PF ablation: maintain Σ flows in a cached accumulator instead of
  /// recomputing it per send (the paper notes both variants are inaccurate).
  bool pf_cached_flow_sum = false;
  /// Correction allreduce: requested reduce-tree shape. kAuto selects from
  /// the topology (star hub → star, id-order path → chain, heap edges →
  /// binary, else BFS) — the Hoplite-style dynamic reduce-topology pick.
  net::TreeKind tree_kind = net::TreeKind::kAuto;
  /// The resolved tree schedule, shared read-only by every node. A topology
  /// ArenaFleet builds it when an algorithm that needs it (see
  /// needs_tree_schedule) is selected and this is still empty. Derived state:
  /// a pure function of topology × tree_kind, so checkpoint compatibility
  /// hashes tree_kind, never the schedule itself.
  std::shared_ptr<const net::TreeSchedule> tree;
};

/// PCF's per-edge handshake state as one endpoint holds it.
struct PcfEdgeView {
  Mass flow1;
  Mass flow2;
  std::uint8_t active_slot = 1;  ///< 1-based
  std::uint64_t role_count = 0;
};

/// Per-node protocol state machine. Not thread-safe.
class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Installs identity, neighborhood and initial mass. Must be called exactly
  /// once before any other member but name() and wire_masses().
  virtual void init(NodeId self, std::span<const NodeId> neighbors, Mass initial) = 0;

  /// One gossip send step: choose a live neighbor (uniformly at random) and
  /// produce the packet for it. Returns nullopt when the node has no live
  /// neighbors left.
  [[nodiscard]] virtual std::optional<Outgoing> make_message(Rng& rng) = 0;

  /// Directed send step toward a specific live neighbor — used by
  /// deterministic schedules (e.g. the paper's Fig. 2 regular synchronous
  /// matching on a bus). Returns nullopt if `target` is not a live neighbor.
  [[nodiscard]] virtual std::optional<Outgoing> make_message_to(NodeId target) = 0;

  /// Delivers a packet from neighbor `from`. Packets on a directed link are
  /// delivered in FIFO order by every engine; loss (gaps) is allowed.
  virtual void on_receive(NodeId from, const Packet& packet) = 0;

  /// The node's current mass e_i.
  [[nodiscard]] virtual Mass local_mass() const = 0;

  /// Current estimate of aggregate component k: the mass ratio s[k]/w, except
  /// Flow Updating's fused neighborhood estimate and the correction
  /// allreduce's global view.
  [[nodiscard]] virtual double estimate(std::size_t k = 0) const = 0;

  /// Failure-detector callback: the link to `j` failed permanently. The
  /// reducer excludes j from the computation (PF/PCF: zero the edge flows).
  /// A duplicate notification, or one for an unknown peer, is a no-op.
  virtual void on_link_down(NodeId j) = 0;

  /// Recovery callback: the link to `j` (previously reported down) works
  /// again — a healed link, a rejoined neighbor, or a failure-detector false
  /// positive clearing. The reducer re-admits j with a blank edge: zeroed
  /// flows (the exclusion rule run in reverse; the flow state both ends held
  /// before the outage is stale and was already folded into the local masses
  /// by on_link_down). Duplicate notifications are benign no-ops, as is a
  /// notification for a neighbor that was never excluded.
  virtual void on_link_up(NodeId j) = 0;

  /// Number of live neighbors (after link failures).
  [[nodiscard]] virtual std::size_t live_degree() const = 0;

  /// The mass this node's state does NOT yet reflect but which delivering
  /// `packet` (a pending packet from neighbor `from`) would add to
  /// local_mass(); zero whenever on_receive would ignore the packet.
  [[nodiscard]] virtual Mass unreceived_mass(NodeId from, const Packet& packet) const = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Mass pairs a wire encoding of this algorithm's packets carries: 1 for
  /// push-sum/PF (one flow), 2 for PCF (two slots) and FU (flow + estimate).
  [[nodiscard]] virtual std::size_t wire_masses() const noexcept = 0;
};

/// One node outside any topology, for tests and tools: init() lays it out in
/// a one-node ArenaFleet of its own, exactly once. Unsorted neighbor ids are
/// sorted; an empty or duplicate list throws ContractViolation.
[[nodiscard]] std::unique_ptr<Reducer> make_reducer(Algorithm algorithm,
                                                    const ReducerConfig& config = {});

}  // namespace pcf::core
