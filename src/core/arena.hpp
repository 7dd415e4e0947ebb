// The one storage layout: a structure-of-arrays state arena.
//
// ArenaFleet stores the state of ALL nodes in one protocol::RowStore indexed
// by a CSR adjacency built once from net::Topology:
//
//   offsets_[i] .. offsets_[i+1]   node i's directed-edge range ("slots")
//   nbr_[e]                        neighbor id of directed edge e
//   reverse_slot_[e]               slot of i in that neighbor's own range
//
// and hands the kernels of core/protocol.hpp node i's rows at offsets_[i].
// The fleet holds no protocol rule. Every engine and runtime holds one fleet
// over its topology; make_reducer's lone node is an empty fleet that hold()s
// one node outside any topology.
//
// Two kinds of operation reach the kernels. The hot ones (make_message<A> /
// receive<A> / for_each_estimate) are templated on the Algorithm so both
// engines' event loops and oracle scans devirtualize and inline them. The
// per-node operations — link events, rejoins, data updates, the oracle
// retarget, the invariant checkers, checkpoints and the runtimes — take a
// node index and peer ids and make one algorithm dispatch each; slot
// resolution and the idempotence of link events live there, once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/mass.hpp"
#include "core/protocol.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::core {

class ArenaFleet {
 public:
  /// Builds the CSR adjacency and the algorithm's state arrays, and installs
  /// one initial mass per node. All masses must share one dimension.
  ArenaFleet(Algorithm algorithm, const ReducerConfig& config,
             const net::Topology& topology, std::span<const Mass> initial);
  /// An empty fleet (size() == 0) for one node outside any topology; hold()
  /// lays that node out.
  ArenaFleet(Algorithm algorithm, const ReducerConfig& config)
      : algorithm_(algorithm), config_(config) {}

  /// Lays out node `self` at index 0 with `neighbors` (sorted here; an empty
  /// list or duplicates throw) and zeroed rows of dimension `dim`. The node
  /// has no reverse slots, so it is driven only through the per-node
  /// operations, which view its rows under `self` (the kernels read it:
  /// PCF's roles, CORR's tree). Throws ContractViolation unless the fleet is
  /// empty.
  void hold(NodeId self, std::span<const NodeId> neighbors, std::size_t dim);

  [[nodiscard]] std::size_t size() const noexcept { return live_count_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] Algorithm algorithm() const noexcept { return algorithm_; }
  [[nodiscard]] const ReducerConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::size_t degree(NodeId i) const noexcept {
    return offsets_[i + 1] - offsets_[i];
  }
  [[nodiscard]] std::size_t live_degree(NodeId i) const noexcept { return live_count_[i]; }
  [[nodiscard]] NodeId neighbor(NodeId i, std::size_t slot) const noexcept {
    return nbr_[offsets_[i] + slot];
  }
  [[nodiscard]] bool alive_at(NodeId i, std::size_t slot) const noexcept {
    return alive_[offsets_[i] + slot] != 0;
  }
  /// Slot index of neighbor j in node i's range, or nullopt.
  [[nodiscard]] std::optional<std::size_t> slot_of(NodeId i, NodeId j) const noexcept;
  /// Directed-edge index of node i's `slot`: the CSR order, which is
  /// Topology::edge_index(i, neighbor(i, slot)).
  [[nodiscard]] std::size_t edge_index(NodeId i, std::size_t slot) const noexcept {
    return offsets_[i] + slot;
  }

  /// A produced packet plus the sender's slot and the receiver-side slot of
  /// the sender, so the engines need no id -> slot lookup.
  struct Send {
    NodeId to = 0;
    std::uint32_t from_slot = 0;
    std::uint32_t to_slot = 0;
    Packet packet;
  };

  // ---- hot path (templated on the algorithm; inlined into the engine) ----

  /// One gossip send step for node i: uniform live-neighbor draw, then the
  /// algorithm's send rule.
  template <Algorithm A>
  [[nodiscard]] std::optional<Send> make_message(NodeId i, Rng& rng) {
    const auto slot = pick_live_slot(i, rng);
    if (!slot) return std::nullopt;
    const std::size_t e = offsets_[i] + *slot;
    Send out;
    out.to = nbr_[e];
    out.from_slot = static_cast<std::uint32_t>(*slot);
    out.to_slot = reverse_slot_[e];
    protocol::send<A>(rows<A>(i), *slot, out.packet);
    return out;
  }

  /// Delivers `packet` from neighbor `from` (= neighbor(i, slot)) to node i.
  template <Algorithm A>
  void receive(NodeId i, NodeId from, std::size_t slot, const Packet& packet) {
    PCF_ASSERT(nbr_[offsets_[i] + slot] == from);
    (void)from;
    protocol::receive<A>(rows<A>(i), slot, packet);
  }

  /// Calls f(estimate) with component k of the estimate of every node i with
  /// live(i), in node order: one algorithm dispatch, then the estimate kernel
  /// on the node's rows (no virtual call per node). Checks k < dim() first.
  template <class Live, class F>
  void for_each_estimate(std::size_t k, const Live& live, F&& f) const {
    PCF_CHECK_MSG(k < dim_, "component " << k << " out of range (dimension " << dim_ << ")");
    visit(algorithm_, [&]<Algorithm A>() {
      for (NodeId i = 0; i < size(); ++i) {
        if (live(i)) f(protocol::estimate<A>(rows<A>(i), k));
      }
    });
  }

  // ---- per-node operations (one algorithm dispatch each; peers by id) ----

  /// One gossip send step for node i, as make_message<A>.
  [[nodiscard]] std::optional<Outgoing> make_message(NodeId i, Rng& rng);
  /// Directed send from node i to j; nullopt unless j is a live neighbor.
  [[nodiscard]] std::optional<Outgoing> make_message_to(NodeId i, NodeId j);
  /// Delivers `packet` from `from` to node i; a packet from a non-neighbor
  /// (a stale packet from a removed link) is ignored.
  void receive(NodeId i, NodeId from, const Packet& packet);
  /// The failure detector reports the link i-j down: node i excludes j.
  /// Unknown and already excluded neighbors are no-ops.
  void link_down(NodeId i, NodeId j);
  /// The link i-j works again: node i re-admits j with a blank edge. Unknown
  /// and never excluded neighbors are no-ops.
  void link_up(NodeId i, NodeId j);
  /// Rejoin: every slot of node i live, its rows factory-fresh from
  /// `initial` (reset in place; rejoin never grows the arena).
  void reset(NodeId i, const Mass& initial);
  /// Live data update: node i's input moves by `delta`.
  void update_data(NodeId i, const Mass& delta);
  /// Memory soft error in one of node i's stored flows; false (no draw) for
  /// push-sum, which stores none.
  bool corrupt_stored_flow(NodeId i, Rng& rng);

  [[nodiscard]] Mass local_mass(NodeId i) const;
  [[nodiscard]] double estimate(NodeId i, std::size_t k = 0) const;
  /// The mass node i does not yet reflect but delivering `packet` from
  /// `from` would add (the crash retarget); zero if node i would ignore it.
  [[nodiscard]] Mass unreceived_mass(NodeId i, NodeId from, const Packet& packet) const;
  /// Upper bound on the flow rows any algorithm stores per edge (PCF: 2).
  static constexpr std::size_t kMaxFlowSlots = 2;
  /// Copies node i's stored flows toward live neighbor j into `out` (slot s
  /// pairs with slot s at j; `out` holds kMaxFlowSlots). Returns the count:
  /// 0 without flow state or unless j is a live neighbor.
  [[nodiscard]] std::size_t flows_toward(NodeId i, NodeId j, std::span<Mass> out) const;
  /// PCF: node i's handshake state toward neighbor j; nullopt for the other
  /// algorithms and non-neighbors.
  [[nodiscard]] std::optional<PcfEdgeView> pcf_edge_view(NodeId i, NodeId j) const;
  /// PCF: role swaps node i completed, summed over its edges; 0 otherwise.
  [[nodiscard]] std::uint64_t role_swaps(NodeId i) const;
  /// Largest |component| over node i's live flow state.
  [[nodiscard]] double max_abs_flow_component(NodeId i) const;
  [[nodiscard]] std::string_view name() const noexcept;

  /// Checkpointing: node i's per-slot liveness — the degree (a
  /// wrong-topology checkpoint fails its check on read), then one flag byte
  /// per slot — and its rows through `Codec` (protocol::RawRows or
  /// protocol::PrefixedRows). Reading rebuilds the live-slot prefix and
  /// throws BinioError on a degree mismatch, truncation or a bad row.
  template <class Codec>
  void transfer(NodeId i, BinaryWriter& w) const {
    transfer_liveness(i, w);
    visit(algorithm_, [&]<Algorithm A>() { protocol::transfer<A, Codec>(w, node_rows<A>(i)); });
  }
  template <class Codec>
  void transfer(NodeId i, BinaryReader& r) {
    transfer_liveness(i, r);
    visit(algorithm_, [&]<Algorithm A>() { protocol::transfer<A, Codec>(r, node_rows<A>(i)); });
  }

  // ---- storage surface ----

  /// Node i's rows for algorithm A (which must be algorithm()).
  template <Algorithm A>
  [[nodiscard]] protocol::NodeRows rows(NodeId i) const noexcept {
    const std::size_t base = offsets_[i];
    protocol::NodeRows v{.self = i,
                         .dim = dim_,
                         .degree = offsets_[i + 1] - base,
                         .nbr = nbr_.data() + base,
                         .alive = alive_.data() + base,
                         .config = &config_};
    store_.bind<A>(v, i, base);
    return v;
  }

  /// Flips the liveness of node i's `slot`, which must currently be the
  /// opposite; keeps the sorted live-slot prefix.
  void set_alive(NodeId i, std::size_t slot, bool alive) noexcept;

 private:
  /// Sizes the liveness and row arrays for offsets_, all slots live.
  void allocate();
  /// Node i's rows under its own id, i + id_base_.
  template <Algorithm A>
  [[nodiscard]] protocol::NodeRows node_rows(NodeId i) const noexcept {
    protocol::NodeRows v = rows<A>(i);
    v.self = i + id_base_;
    return v;
  }
  /// Uniformly random live slot of node i: exactly one rng.below(live
  /// degree) draw when non-empty, nothing otherwise — the send steps' RNG
  /// stream contract.
  [[nodiscard]] std::optional<std::size_t> pick_live_slot(NodeId i, Rng& rng) const noexcept {
    const std::uint32_t lc = live_count_[i];
    if (lc == 0) return std::nullopt;
    return live_slots_[offsets_[i] + static_cast<std::size_t>(rng.below(lc))];
  }
  /// The slot of neighbor j if j is a neighbor of node i and its link is live.
  [[nodiscard]] std::optional<std::size_t> live_slot_of(NodeId i, NodeId j) const noexcept;
  /// Node i's packet toward live `slot`.
  [[nodiscard]] Outgoing send_on(NodeId i, std::size_t slot);
  /// Marks every slot of node i live.
  void revive_all(NodeId i) noexcept;
  void transfer_liveness(NodeId i, BinaryWriter& w) const;
  void transfer_liveness(NodeId i, BinaryReader& r);

  Algorithm algorithm_;
  ReducerConfig config_;
  std::size_t dim_ = 0;
  /// Node index i has id i + id_base_: 0 in a topology fleet, the node's id
  /// in a one-node fleet (hold()).
  NodeId id_base_ = 0;

  // CSR adjacency (copied from the Topology; neighbor lists stay sorted).
  std::vector<std::size_t> offsets_;        ///< size n+1
  std::vector<NodeId> nbr_;                 ///< directed edges, E entries
  std::vector<std::uint32_t> reverse_slot_; ///< slot of i in nbr_[e]'s range
  std::vector<std::uint8_t> alive_;         ///< per directed edge
  /// Node i's live slots as a sorted prefix of [offsets_[i], offsets_[i] +
  /// live_count_[i]). Sorted ascending slots == ascending neighbor ids, so
  /// the uniform draw picks the same neighbor whatever the order of failures
  /// and heals.
  std::vector<std::uint32_t> live_slots_;
  std::vector<std::uint32_t> live_count_;   ///< per node

  protocol::RowStore store_;  ///< the algorithm's rows for all nodes and edges
};

}  // namespace pcf::core
