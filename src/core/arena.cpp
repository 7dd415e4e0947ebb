#include "core/arena.hpp"

#include <algorithm>
#include <memory>

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

void ArenaFleet::hold(NodeId self, std::span<const NodeId> neighbors, std::size_t dim) {
  PCF_CHECK_MSG(size() == 0, "reducer initialized twice");
  PCF_CHECK_MSG(!neighbors.empty(), "node needs at least one neighbor");
  nbr_.assign(neighbors.begin(), neighbors.end());
  std::sort(nbr_.begin(), nbr_.end());
  PCF_CHECK_MSG(std::adjacent_find(nbr_.begin(), nbr_.end()) == nbr_.end(),
                "duplicate neighbor id");
  offsets_ = {0, nbr_.size()};
  dim_ = dim;
  id_base_ = self;
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

std::optional<std::size_t> ArenaFleet::live_slot_of(NodeId i, NodeId j) const noexcept {
  const auto slot = slot_of(i, j);
  if (!slot || !alive_at(i, *slot)) return std::nullopt;
  return slot;
}

Outgoing ArenaFleet::send_on(NodeId i, std::size_t slot) {
  Outgoing out;
  out.to = neighbor(i, slot);
  visit(algorithm_, [&]<Algorithm A>() { protocol::send<A>(node_rows<A>(i), slot, out.packet); });
  return out;
}

std::optional<Outgoing> ArenaFleet::make_message(NodeId i, Rng& rng) {
  const auto slot = pick_live_slot(i, rng);
  if (!slot) return std::nullopt;
  return send_on(i, *slot);
}

std::optional<Outgoing> ArenaFleet::make_message_to(NodeId i, NodeId j) {
  const auto slot = live_slot_of(i, j);
  if (!slot) return std::nullopt;
  return send_on(i, *slot);
}

void ArenaFleet::receive(NodeId i, NodeId from, const Packet& packet) {
  const auto slot = slot_of(i, from);
  if (!slot) return;  // stale packet from a removed link
  visit(algorithm_,
        [&]<Algorithm A>() { protocol::receive<A>(node_rows<A>(i), *slot, packet); });
}

void ArenaFleet::link_down(NodeId i, NodeId j) {
  const auto slot = live_slot_of(i, j);
  if (!slot) return;  // unknown or already excluded
  visit(algorithm_, [&]<Algorithm A>() {
    protocol::link_down<A>(node_rows<A>(i), *slot, [&] { set_alive(i, *slot, false); });
  });
}

void ArenaFleet::link_up(NodeId i, NodeId j) {
  const auto slot = slot_of(i, j);
  if (!slot || alive_at(i, *slot)) return;  // unknown or never excluded
  set_alive(i, *slot, true);
  visit(algorithm_, [&]<Algorithm A>() { protocol::link_up<A>(node_rows<A>(i), *slot); });
}

void ArenaFleet::reset(NodeId i, const Mass& initial) {
  revive_all(i);
  visit(algorithm_, [&]<Algorithm A>() { protocol::reset<A>(node_rows<A>(i), initial); });
}

void ArenaFleet::update_data(NodeId i, const Mass& delta) {
  visit(algorithm_, [&]<Algorithm A>() { protocol::update_data(node_rows<A>(i), delta); });
}

bool ArenaFleet::corrupt_stored_flow(NodeId i, Rng& rng) {
  return visit(algorithm_, [&]<Algorithm A>() {
    return protocol::corrupt_stored_flow<A>(node_rows<A>(i), rng);
  });
}

Mass ArenaFleet::local_mass(NodeId i) const {
  double buf[protocol::kMaxStride];
  visit(algorithm_, [&]<Algorithm A>() { protocol::local_mass<A>(node_rows<A>(i), buf); });
  return protocol::to_mass(buf, dim_);
}

double ArenaFleet::estimate(NodeId i, std::size_t k) const {
  return visit(algorithm_,
               [&]<Algorithm A>() { return protocol::estimate<A>(node_rows<A>(i), k); });
}

Mass ArenaFleet::unreceived_mass(NodeId i, NodeId from, const Packet& packet) const {
  const auto slot = slot_of(i, from);
  if (!slot) return Mass::zero(dim_);
  return visit(algorithm_, [&]<Algorithm A>() {
    return protocol::unreceived_mass<A>(node_rows<A>(i), *slot, packet);
  });
}

std::size_t ArenaFleet::flows_toward(NodeId i, NodeId j, std::span<Mass> out) const {
  const auto slot = live_slot_of(i, j);
  if (!slot) return 0;
  return visit(algorithm_, [&]<Algorithm A>() {
    return protocol::flows_toward<A>(node_rows<A>(i), *slot, out);
  });
}

std::optional<PcfEdgeView> ArenaFleet::pcf_edge_view(NodeId i, NodeId j) const {
  if (algorithm_ != Algorithm::kPushCancelFlow) return std::nullopt;
  const auto slot = slot_of(i, j);
  if (!slot) return std::nullopt;
  return protocol::pcf_edge_view(node_rows<Algorithm::kPushCancelFlow>(i), *slot);
}

std::uint64_t ArenaFleet::role_swaps(NodeId i) const {
  if (algorithm_ != Algorithm::kPushCancelFlow) return 0;
  return *node_rows<Algorithm::kPushCancelFlow>(i).role_swaps;
}

double ArenaFleet::max_abs_flow_component(NodeId i) const {
  return visit(algorithm_, [&]<Algorithm A>() {
    return protocol::max_abs_flow_component<A>(node_rows<A>(i));
  });
}

std::string_view ArenaFleet::name() const noexcept {
  return visit(algorithm_, [&]<Algorithm A>() { return protocol::name<A>(config_); });
}

namespace {

/// make_reducer's handle: one node in a one-node fleet of its own, which
/// init() lays out. Every call forwards to the fleet's operation at index 0.
class HeldNode final : public Reducer {
 public:
  HeldNode(Algorithm algorithm, const ReducerConfig& config) : fleet_(algorithm, config) {}

  void init(NodeId self, std::span<const NodeId> neighbors, Mass initial) override {
    fleet_.hold(self, neighbors, initial.dim());
    fleet_.reset(0, initial);
  }
  [[nodiscard]] std::optional<Outgoing> make_message(Rng& rng) override {
    return held("make_message").make_message(0, rng);
  }
  [[nodiscard]] std::optional<Outgoing> make_message_to(NodeId target) override {
    return held("make_message_to").make_message_to(0, target);
  }
  void on_receive(NodeId from, const Packet& packet) override {
    held("on_receive").receive(0, from, packet);
  }
  [[nodiscard]] Mass local_mass() const override { return held("local_mass").local_mass(0); }
  [[nodiscard]] double estimate(std::size_t k) const override {
    return held("estimate").estimate(0, k);
  }
  void on_link_down(NodeId j) override { held("on_link_down").link_down(0, j); }
  void on_link_up(NodeId j) override { held("on_link_up").link_up(0, j); }
  [[nodiscard]] std::size_t live_degree() const override {
    return held("live_degree").live_degree(0);
  }
  [[nodiscard]] Mass unreceived_mass(NodeId from, const Packet& packet) const override {
    return held("unreceived_mass").unreceived_mass(0, from, packet);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return fleet_.name(); }
  [[nodiscard]] std::size_t wire_masses() const noexcept override {
    return visit(fleet_.algorithm(), []<Algorithm A>() { return protocol::kWireMasses<A>; });
  }

 private:
  [[nodiscard]] ArenaFleet& held(const char* what) {
    PCF_CHECK_MSG(fleet_.size() != 0, what << " before init");
    return fleet_;
  }
  [[nodiscard]] const ArenaFleet& held(const char* what) const {
    PCF_CHECK_MSG(fleet_.size() != 0, what << " before init");
    return fleet_;
  }

  ArenaFleet fleet_;
};

}  // namespace

std::unique_ptr<Reducer> make_reducer(Algorithm algorithm, const ReducerConfig& config) {
  return std::make_unique<HeldNode>(algorithm, config);
}

}  // namespace pcf::core
