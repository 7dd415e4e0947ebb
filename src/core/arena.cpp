#include "core/arena.hpp"

#include <algorithm>
#include <string_view>

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
  allocate();
  visit(algorithm_, [&]<Algorithm A>() {
    for (NodeId i = 0; i < n; ++i) protocol::reset<A>(rows<A>(i), initial[i]);
  });
}

void ArenaFleet::hold(std::span<const NodeId> neighbors, std::size_t dim) {
  PCF_CHECK_MSG(size() == 0, "reducer initialized twice");
  nbr_.assign(neighbors.begin(), neighbors.end());
  std::sort(nbr_.begin(), nbr_.end());
  PCF_CHECK_MSG(std::adjacent_find(nbr_.begin(), nbr_.end()) == nbr_.end(),
                "duplicate neighbor id");
  offsets_ = {0, nbr_.size()};
  dim_ = dim;
  allocate();
}

void ArenaFleet::allocate() {
  const std::size_t n = offsets_.size() - 1;
  const std::size_t edges = offsets_[n];
  alive_.resize(edges);
  live_slots_.resize(edges);
  live_count_.resize(n);
  for (NodeId i = 0; i < n; ++i) revive_all(i);
  visit(algorithm_, [&]<Algorithm A>() {
    store_ = protocol::RowStore::make<A>(config_, n, edges, dim_);
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

namespace {

/// The liveness field list: the degree, then one flag byte per slot.
template <class IO, class Flags>
void transfer_flags(IO& io, Flags alive) {
  io.expect(std::uint64_t{alive.size()}, "checkpoint: node degree mismatch");
  for (auto& a : alive) io.flag(a);
}

}  // namespace

void ArenaFleet::transfer_liveness(NodeId i, BinaryWriter& w) const {
  transfer_flags(w, std::span(alive_).subspan(offsets_[i], degree(i)));
}

void ArenaFleet::transfer_liveness(NodeId i, BinaryReader& r) {
  const std::size_t base = offsets_[i];
  transfer_flags(r, std::span(alive_).subspan(base, degree(i)));
  std::uint32_t lc = 0;
  for (std::uint32_t s = 0; s < degree(i); ++s) {
    if (alive_[base + s] != 0) live_slots_[base + lc++] = s;
  }
  live_count_[i] = lc;
}

namespace {

/// The Reducer facade over one node's rows in an ArenaFleet (index_ in the
/// fleet, id self_ as the kernels see it), checkpointing them through
/// `Codec`. It holds no rule of its own: every virtual resolves the slot in
/// the fleet and calls the kernel of core/protocol.hpp.
template <Algorithm A, class Codec>
class NodeReducer final : public Reducer {
 public:
  /// Node i of a shared fleet: live at once, as the fleet's constructor
  /// reset every node.
  NodeReducer(ArenaFleet& fleet, NodeId i)
      : fleet_(&fleet), index_(i), self_(i), initialized_(true) {}
  /// make_reducer's node: an empty fleet of its own, which init() lays out.
  explicit NodeReducer(const ReducerConfig& config)
      : own_(std::make_unique<ArenaFleet>(A, config)), fleet_(own_.get()) {}

  void init(NodeId self, std::span<const NodeId> neighbors, Mass initial) override {
    PCF_CHECK_MSG(!neighbors.empty(), "node needs at least one neighbor");
    if (own_) {
      own_->hold(neighbors, initial.dim());  // throws if the node was laid out already
      self_ = self;
    } else {
      PCF_CHECK_MSG(self == self_, "arena facade bound to node " << self_
                                                                 << ", initialized as " << self);
      PCF_CHECK_MSG(neighbors.size() == fleet_->degree(index_),
                    "neighbor set does not match the arena adjacency");
      PCF_CHECK_MSG(initial.dim() == fleet_->dim(), "initial mass dimension mismatch");
      fleet_->revive_all(index_);  // the node keeps its rows; rejoin never grows the arena
    }
    protocol::reset<A>(view(), initial);
    initialized_ = true;
  }

  [[nodiscard]] std::optional<Outgoing> make_message(Rng& rng) override {
    expect_init("make_message");
    const auto slot = fleet_->pick_live_slot(index_, rng);
    if (!slot) return std::nullopt;
    return send(*slot);
  }

  [[nodiscard]] std::optional<Outgoing> make_message_to(NodeId target) override {
    expect_init("make_message_to");
    const auto slot = live_slot_of(target);
    if (!slot) return std::nullopt;
    return send(*slot);
  }

  void on_receive(NodeId from, const Packet& packet) override {
    expect_init("on_receive");
    const auto slot = fleet_->slot_of(index_, from);
    if (!slot) return;  // stale packet from a removed link
    protocol::receive<A>(view(), *slot, packet);
  }

  [[nodiscard]] Mass local_mass() const override {
    expect_init("local_mass");
    const protocol::NodeRows v = view();
    double buf[protocol::kMaxStride];
    protocol::local_mass<A>(v, buf);
    return protocol::to_mass(buf, v.dim);
  }

  [[nodiscard]] double estimate(std::size_t k = 0) const override {
    expect_init("estimate");
    return protocol::estimate<A>(view(), k);
  }

  void on_link_down(NodeId j) override {
    const auto slot = live_slot_of(j);
    if (!slot) return;  // unknown or already excluded
    protocol::link_down<A>(view(), *slot, [&] { fleet_->set_alive(index_, *slot, false); });
  }

  void on_link_up(NodeId j) override {
    const auto slot = fleet_->slot_of(index_, j);
    if (!slot || fleet_->alive_at(index_, *slot)) return;  // unknown or never excluded
    fleet_->set_alive(index_, *slot, true);
    protocol::link_up<A>(view(), *slot);
  }

  void update_data(const Mass& delta) override {
    expect_init("update_data");
    protocol::update_data(view(), delta);
  }

  void transfer_state(BinaryWriter& w) const override { transfer(w); }
  void transfer_state(BinaryReader& r) override { transfer(r); }

  [[nodiscard]] std::string_view name() const noexcept override {
    return protocol::name<A>(fleet_->config());
  }
  [[nodiscard]] std::size_t live_degree() const noexcept override {
    return fleet_->live_degree(index_);
  }

  [[nodiscard]] double max_abs_flow_component() const noexcept override {
    return protocol::max_abs_flow_component<A>(view());
  }

  [[nodiscard]] std::uint64_t role_swaps() const noexcept override {
    if constexpr (A == Algorithm::kPushCancelFlow) {
      if (initialized_) return *view().role_swaps;
    }
    return 0;
  }

  [[nodiscard]] std::size_t wire_masses() const noexcept override {
    return protocol::kWireMasses<A>;
  }

  bool corrupt_stored_flow(Rng& rng) override {
    expect_init("corrupt_stored_flow");
    return protocol::corrupt_stored_flow<A>(view(), rng);
  }

  [[nodiscard]] std::size_t flows_toward(NodeId j, std::span<Mass> out) const override {
    const auto slot = live_slot_of(j);
    if (!slot) return 0;
    return protocol::flows_toward<A>(view(), *slot, out);
  }

  [[nodiscard]] Mass unreceived_mass(NodeId from, const Packet& packet) const override {
    expect_init("unreceived_mass");
    const protocol::NodeRows v = view();
    const auto slot = fleet_->slot_of(index_, from);
    if (!slot) return Mass::zero(v.dim);
    return protocol::unreceived_mass<A>(v, *slot, packet);
  }

  [[nodiscard]] bool in_flight_mass_accumulates() const noexcept override {
    return protocol::kInFlightMassAccumulates<A>;
  }

  [[nodiscard]] std::optional<PcfEdgeView> pcf_edge_view(NodeId j) const override {
    if constexpr (A == Algorithm::kPushCancelFlow) {
      const auto slot = fleet_->slot_of(index_, j);
      if (slot) return protocol::pcf_edge_view(view(), *slot);
    }
    return std::nullopt;
  }

 private:
  /// The node's rows, under its own id: a held node sits at fleet index 0.
  [[nodiscard]] protocol::NodeRows view() const noexcept {
    protocol::NodeRows v = fleet_->rows<A>(index_);
    v.self = self_;
    return v;
  }

  /// The slot of neighbor j if j is a neighbor and its link is live.
  [[nodiscard]] std::optional<std::size_t> live_slot_of(NodeId j) const noexcept {
    const auto slot = fleet_->slot_of(index_, j);
    if (!slot || !fleet_->alive_at(index_, *slot)) return std::nullopt;
    return slot;
  }

  /// The checkpoint field list: liveness flags, then the protocol rows.
  template <class IO>
  void transfer(IO& io) const {
    expect_init("transfer_state");
    fleet_->transfer_liveness(index_, io);
    protocol::transfer<A, Codec>(io, view());
  }

  [[nodiscard]] std::optional<Outgoing> send(std::size_t slot) {
    const protocol::NodeRows v = view();
    Outgoing out;
    out.to = v.nbr[slot];
    protocol::send<A>(v, slot, out.packet);
    return out;
  }

  void expect_init(const char* what) const {
    PCF_CHECK_MSG(initialized_, what << " before init");
  }

  std::unique_ptr<ArenaFleet> own_;  ///< make_reducer's fleet; null for a facade
  ArenaFleet* fleet_;
  NodeId index_ = 0;  ///< the node's index in the fleet
  NodeId self_ = 0;   ///< the node's id, as the kernels see it
  bool initialized_ = false;
};

}  // namespace

template <class Codec>
std::unique_ptr<Reducer> make_arena_reducer(ArenaFleet& fleet, NodeId i) {
  PCF_CHECK_MSG(i < fleet.size(), "arena node " << i << " out of range");
  return visit(fleet.algorithm(), [&]<Algorithm A>() -> std::unique_ptr<Reducer> {
    return std::make_unique<NodeReducer<A, Codec>>(fleet, i);
  });
}

template std::unique_ptr<Reducer> make_arena_reducer<protocol::RawRows>(ArenaFleet&, NodeId);
template std::unique_ptr<Reducer> make_arena_reducer<protocol::PrefixedRows>(ArenaFleet&, NodeId);

std::unique_ptr<Reducer> make_reducer(Algorithm algorithm, const ReducerConfig& config) {
  return visit(algorithm, [&]<Algorithm A>() -> std::unique_ptr<Reducer> {
    return std::make_unique<NodeReducer<A, protocol::PrefixedRows>>(config);
  });
}

}  // namespace pcf::core
