// The Reducer interface over the protocol kernels, for any storage policy.
//
// NodeReducer<A, Rows> holds no rule of its own: every virtual resolves the
// slot through the storage policy and calls the kernel of core/protocol.hpp.
// Two policies exist:
//  * OwnedRows<A> (below, the default) — the per-object layout make_reducer
//    builds: the node owns its NeighborSet and a one-node RowStore, and
//    checkpoints rows in the dim-prefixed format;
//  * ArenaRows<A, Codec> (core/arena.cpp) — a facade over node i's rows
//    inside an ArenaFleet, checkpointing them through the Codec it is given
//    (raw rows, or the dim-prefixed format of the per-object layout).
// A policy provides: init (neighborhood and dimension), view(), slot_of,
// alive_at, set_alive, pick_live_slot, live_count, transfer_liveness (one
// overload per stream direction), config(), the row Codec, and
// kLiveAtConstruction (its rows hold a factory-fresh node before init(), and
// init() resets them in place).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "core/neighbor_set.hpp"
#include "core/protocol.hpp"
#include "core/reducer.hpp"

namespace pcf::core {

/// Per-object storage: the node's own neighbor set and one-node RowStore.
template <Algorithm A>
class OwnedRows {
 public:
  using Codec = protocol::PrefixedRows;
  static constexpr bool kLiveAtConstruction = false;  ///< the rows exist after init()

  explicit OwnedRows(const ReducerConfig& config) : config_(config) {}

  void init(NodeId self, std::span<const NodeId> neighbors, std::size_t dim) {
    neighbors_.init(neighbors);
    self_ = self;
    dim_ = dim;
    store_ = protocol::RowStore::make<A>(config_, 1, neighbors_.size(), dim);
  }

  [[nodiscard]] protocol::NodeRows view() const noexcept {
    protocol::NodeRows v{.self = self_,
                         .dim = dim_,
                         .degree = neighbors_.size(),
                         .nbr = neighbors_.ids().data(),
                         .alive = neighbors_.alive_flags().data(),
                         .config = &config_};
    store_.bind<A>(v, 0, 0);
    return v;
  }

  [[nodiscard]] std::optional<std::size_t> slot_of(NodeId j) const noexcept {
    return neighbors_.slot_of(j);
  }
  [[nodiscard]] bool alive_at(std::size_t slot) const noexcept { return neighbors_.alive_at(slot); }
  void set_alive(std::size_t slot, bool alive) { neighbors_.set_alive(slot, alive); }
  [[nodiscard]] std::optional<std::size_t> pick_live_slot(Rng& rng) const noexcept {
    return neighbors_.pick_live_slot(rng);
  }
  [[nodiscard]] std::size_t live_count() const noexcept { return neighbors_.live_count(); }
  void transfer_liveness(BinaryWriter& w) const { neighbors_.transfer(w); }
  void transfer_liveness(BinaryReader& r) { neighbors_.transfer(r); }
  [[nodiscard]] const ReducerConfig& config() const noexcept { return config_; }

 private:
  ReducerConfig config_;
  NeighborSet neighbors_;
  NodeId self_ = 0;
  std::size_t dim_ = 0;
  protocol::RowStore store_;
};

template <Algorithm A, class Rows = OwnedRows<A>>
class NodeReducer final : public Reducer {
 public:
  template <class... Args>
  explicit NodeReducer(Args&&... args) : rows_(std::forward<Args>(args)...) {}

  void init(NodeId self, std::span<const NodeId> neighbors, Mass initial) override {
    PCF_CHECK_MSG(Rows::kLiveAtConstruction || !initialized_, "reducer initialized twice");
    PCF_CHECK_MSG(!neighbors.empty(), "node needs at least one neighbor");
    rows_.init(self, neighbors, initial.dim());
    protocol::reset<A>(rows_.view(), initial);
    initialized_ = true;
  }

  [[nodiscard]] std::optional<Outgoing> make_message(Rng& rng) override {
    expect_init("make_message");
    const auto slot = rows_.pick_live_slot(rng);
    if (!slot) return std::nullopt;
    return send(*slot);
  }

  [[nodiscard]] std::optional<Outgoing> make_message_to(NodeId target) override {
    expect_init("make_message_to");
    const auto slot = rows_.slot_of(target);
    if (!slot || !rows_.alive_at(*slot)) return std::nullopt;
    return send(*slot);
  }

  void on_receive(NodeId from, const Packet& packet) override {
    expect_init("on_receive");
    const auto slot = rows_.slot_of(from);
    if (!slot) return;  // stale packet from a removed link
    protocol::receive<A>(rows_.view(), *slot, packet);
  }

  [[nodiscard]] Mass local_mass() const override {
    expect_init("local_mass");
    const protocol::NodeRows v = rows_.view();
    double buf[protocol::kMaxStride];
    protocol::local_mass<A>(v, buf);
    return protocol::to_mass(buf, v.dim);
  }

  [[nodiscard]] double estimate(std::size_t k = 0) const override {
    expect_init("estimate");
    return protocol::estimate<A>(rows_.view(), k);
  }

  void on_link_down(NodeId j) override {
    const auto slot = rows_.slot_of(j);
    if (!slot || !rows_.alive_at(*slot)) return;  // unknown or already excluded
    protocol::link_down<A>(rows_.view(), *slot, [&] { rows_.set_alive(*slot, false); });
  }

  void on_link_up(NodeId j) override {
    const auto slot = rows_.slot_of(j);
    if (!slot || rows_.alive_at(*slot)) return;  // unknown or never excluded
    rows_.set_alive(*slot, true);
    protocol::link_up<A>(rows_.view(), *slot);
  }

  void update_data(const Mass& delta) override {
    expect_init("update_data");
    protocol::update_data(rows_.view(), delta);
  }

  void transfer_state(BinaryWriter& w) const override { transfer(w, rows_); }
  void transfer_state(BinaryReader& r) override { transfer(r, rows_); }

  [[nodiscard]] std::string_view name() const noexcept override {
    return protocol::name<A>(rows_.config());
  }
  [[nodiscard]] std::size_t live_degree() const noexcept override { return rows_.live_count(); }

  [[nodiscard]] double max_abs_flow_component() const noexcept override {
    return protocol::max_abs_flow_component<A>(rows_.view());
  }

  [[nodiscard]] std::uint64_t role_swaps() const noexcept override {
    if constexpr (A == Algorithm::kPushCancelFlow) {
      if (initialized_) return *rows_.view().role_swaps;
    }
    return 0;
  }

  [[nodiscard]] std::size_t wire_masses() const noexcept override {
    return protocol::kWireMasses<A>;
  }

  bool corrupt_stored_flow(Rng& rng) override {
    expect_init("corrupt_stored_flow");
    return protocol::corrupt_stored_flow<A>(rows_.view(), rng);
  }

  [[nodiscard]] std::size_t flows_toward(NodeId j, std::span<Mass> out) const override {
    const auto slot = rows_.slot_of(j);
    if (!slot || !rows_.alive_at(*slot)) return 0;
    return protocol::flows_toward<A>(rows_.view(), *slot, out);
  }

  [[nodiscard]] Mass unreceived_mass(NodeId from, const Packet& packet) const override {
    expect_init("unreceived_mass");
    const protocol::NodeRows v = rows_.view();
    const auto slot = rows_.slot_of(from);
    if (!slot) return Mass::zero(v.dim);
    return protocol::unreceived_mass<A>(v, *slot, packet);
  }

  [[nodiscard]] bool in_flight_mass_accumulates() const noexcept override {
    return protocol::kInFlightMassAccumulates<A>;
  }

  [[nodiscard]] std::optional<PcfEdgeView> pcf_edge_view(NodeId j) const override {
    if constexpr (A == Algorithm::kPushCancelFlow) {
      const auto slot = rows_.slot_of(j);
      if (slot) return protocol::pcf_edge_view(rows_.view(), *slot);
    }
    return std::nullopt;
  }

 private:
  /// The checkpoint field list: liveness flags, then the protocol rows.
  template <class IO, class R>
  void transfer(IO& io, R& rows) const {
    expect_init("transfer_state");
    rows.transfer_liveness(io);
    protocol::transfer<A, typename Rows::Codec>(io, rows.view());
  }

  [[nodiscard]] std::optional<Outgoing> send(std::size_t slot) {
    const protocol::NodeRows v = rows_.view();
    Outgoing out;
    out.to = v.nbr[slot];
    protocol::send<A>(v, slot, out.packet);
    return out;
  }

  void expect_init(const char* what) const {
    PCF_CHECK_MSG(initialized_, what << " before init");
  }

  Rows rows_;
  bool initialized_ = Rows::kLiveAtConstruction;
};

}  // namespace pcf::core
