#include "core/arena.hpp"

#include <algorithm>

#include "core/node_reducer.hpp"
#include "support/binio.hpp"

namespace pcf::core {

ArenaFleet::ArenaFleet(Algorithm algorithm, const ReducerConfig& config,
                       const net::Topology& topology, std::span<const Mass> initial)
    : algorithm_(algorithm), config_(config) {
  const std::size_t n = topology.size();
  PCF_CHECK_MSG(n > 0, "arena needs a non-empty topology");
  PCF_CHECK_MSG(initial.size() == n, "one initial mass per node required");
  dim_ = initial[0].dim();
  for (const Mass& m : initial) {
    PCF_CHECK_MSG(m.dim() == dim_, "initial masses must share one dimension");
  }

  // CSR adjacency. Topology stores sorted neighbor lists already; the checks
  // below are the arena's construction contract (simple symmetric graph) that
  // the round-trip property test pins.
  offsets_.assign(n + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    const auto nbrs = topology.neighbors(i);
    PCF_CHECK_MSG(!nbrs.empty(), "node " << i << " needs at least one neighbor");
    offsets_[i + 1] = offsets_[i] + nbrs.size();
  }
  const std::size_t edges = offsets_[n];
  nbr_.resize(edges);
  for (NodeId i = 0; i < n; ++i) {
    const auto nbrs = topology.neighbors(i);
    std::copy(nbrs.begin(), nbrs.end(), nbr_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]));
    for (std::size_t s = 0; s < nbrs.size(); ++s) {
      PCF_CHECK_MSG(nbrs[s] != i, "self-edge at node " << i);
      PCF_CHECK_MSG(s == 0 || nbrs[s - 1] < nbrs[s],
                    "neighbor list of node " << i << " not sorted/unique");
    }
  }
  reverse_slot_.resize(edges);
  for (NodeId i = 0; i < n; ++i) {
    for (std::size_t e = offsets_[i]; e < offsets_[i + 1]; ++e) {
      const NodeId j = nbr_[e];
      const auto back = slot_of(j, i);
      PCF_CHECK_MSG(back.has_value(), "asymmetric edge " << i << "->" << j);
      reverse_slot_[e] = static_cast<std::uint32_t>(*back);
    }
  }
  alive_.resize(edges);
  live_slots_.resize(edges);
  live_count_.resize(n);
  for (NodeId i = 0; i < n; ++i) revive_all(i);

  visit(algorithm_, [&]<Algorithm A>() {
    store_ = protocol::RowStore::make<A>(config_, n, edges, dim_);
    for (NodeId i = 0; i < n; ++i) protocol::reset<A>(rows<A>(i), initial[i]);
  });
}

std::optional<std::size_t> ArenaFleet::slot_of(NodeId i, NodeId j) const noexcept {
  const auto begin = nbr_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]);
  const auto end = nbr_.begin() + static_cast<std::ptrdiff_t>(offsets_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return std::nullopt;
  return static_cast<std::size_t>(it - begin);
}

void ArenaFleet::set_alive(NodeId i, std::size_t slot, bool alive) noexcept {
  const std::size_t base = offsets_[i];
  PCF_ASSERT((alive_[base + slot] != 0) != alive);
  const auto s = static_cast<std::uint32_t>(slot);
  std::uint32_t* seg = live_slots_.data() + base;
  const std::uint32_t lc = live_count_[i];
  const auto pos = static_cast<std::size_t>(std::lower_bound(seg, seg + lc, s) - seg);
  if (alive) {
    for (std::size_t p = lc; p > pos; --p) seg[p] = seg[p - 1];
    seg[pos] = s;
    ++live_count_[i];
  } else {
    for (std::size_t p = pos; p + 1 < lc; ++p) seg[p] = seg[p + 1];
    --live_count_[i];
  }
  alive_[base + slot] = alive ? 1 : 0;
}

void ArenaFleet::revive_all(NodeId i) noexcept {
  const std::size_t base = offsets_[i];
  const auto deg = static_cast<std::uint32_t>(degree(i));
  for (std::uint32_t s = 0; s < deg; ++s) {
    alive_[base + s] = 1;
    live_slots_[base + s] = s;
  }
  live_count_[i] = deg;
}

void ArenaFleet::transfer_liveness(NodeId i, BinaryWriter& w) const {
  core::transfer_liveness(w, std::span(alive_).subspan(offsets_[i], degree(i)));
}

void ArenaFleet::transfer_liveness(NodeId i, BinaryReader& r) {
  const std::size_t base = offsets_[i];
  core::transfer_liveness(r, std::span(alive_).subspan(base, degree(i)));
  std::uint32_t lc = 0;
  for (std::uint32_t s = 0; s < degree(i); ++s) {
    if (alive_[base + s] != 0) live_slots_[base + lc++] = s;
  }
  live_count_[i] = lc;
}

namespace {

/// Storage policy for NodeReducer: node `self`'s rows inside an ArenaFleet,
/// checkpointed through `RowCodec`.
template <Algorithm A, class RowCodec>
class ArenaRows {
 public:
  using Codec = RowCodec;
  static constexpr bool kLiveAtConstruction = true;  ///< the fleet reset every node

  ArenaRows(ArenaFleet& fleet, NodeId self) : fleet_(&fleet), self_(self) {}

  void init(NodeId self, std::span<const NodeId> neighbors, std::size_t dim) {
    PCF_CHECK_MSG(self == self_, "arena facade bound to node " << self_ << ", initialized as "
                                                               << self);
    PCF_CHECK_MSG(neighbors.size() == fleet_->degree(self_),
                  "neighbor set does not match the arena adjacency");
    PCF_CHECK_MSG(dim == fleet_->dim(), "initial mass dimension mismatch");
    fleet_->revive_all(self_);  // the node keeps its rows; rejoin never grows the arena
  }

  [[nodiscard]] protocol::NodeRows view() const noexcept { return fleet_->rows<A>(self_); }
  [[nodiscard]] std::optional<std::size_t> slot_of(NodeId j) const noexcept {
    return fleet_->slot_of(self_, j);
  }
  [[nodiscard]] bool alive_at(std::size_t slot) const noexcept {
    return fleet_->alive_at(self_, slot);
  }
  void set_alive(std::size_t slot, bool alive) { fleet_->set_alive(self_, slot, alive); }
  [[nodiscard]] std::optional<std::size_t> pick_live_slot(Rng& rng) const noexcept {
    return fleet_->pick_live_slot(self_, rng);
  }
  [[nodiscard]] std::size_t live_count() const noexcept { return fleet_->live_degree(self_); }
  void transfer_liveness(BinaryWriter& w) const { fleet_->transfer_liveness(self_, w); }
  void transfer_liveness(BinaryReader& r) { fleet_->transfer_liveness(self_, r); }
  [[nodiscard]] const ReducerConfig& config() const noexcept { return fleet_->config(); }

 private:
  ArenaFleet* fleet_;
  NodeId self_;
};

}  // namespace

template <class Codec>
std::unique_ptr<Reducer> make_arena_reducer(ArenaFleet& fleet, NodeId i) {
  PCF_CHECK_MSG(i < fleet.size(), "arena node " << i << " out of range");
  return visit(fleet.algorithm(), [&]<Algorithm A>() -> std::unique_ptr<Reducer> {
    return std::make_unique<NodeReducer<A, ArenaRows<A, Codec>>>(fleet, i);
  });
}

template std::unique_ptr<Reducer> make_arena_reducer<protocol::RawRows>(ArenaFleet&, NodeId);
template std::unique_ptr<Reducer> make_arena_reducer<protocol::PrefixedRows>(ArenaFleet&, NodeId);

}  // namespace pcf::core
