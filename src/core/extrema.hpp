// Extrema gossip — distributed min/max.
//
// Sums and averages need mass conservation; minima and maxima do not: the
// aggregate is *idempotent and monotone*, so a node simply keeps the
// smallest/largest values it has ever seen and gossips them. Duplication,
// reordering and loss are all harmless (re-learning an extremum is a no-op),
// which makes extrema gossip trivially fault tolerant — with two inherent
// caveats the flow algorithms do not share:
//
//  * a corrupted packet can inject a spurious extremum that can never be
//    retracted (monotone state cannot heal);
//  * a crashed node's value cannot be un-learned — the reported minimum may
//    belong to a node that no longer exists.
//
// Both are documented properties of min/max gossip in general, not of this
// implementation. The reducer piggybacks on the standard interface: the
// "mass" is the pair (min, max) with weight 1, estimate(0) = min,
// estimate(1) = max. It conserves nothing, so it is driven by the
// statistics layer (sim/statistics.hpp) rather than by oracle-checked
// reductions.
#pragma once

#include "core/neighbor_set.hpp"
#include "core/reducer.hpp"

namespace pcf::core {

class ExtremaGossip final : public Reducer {
 public:
  explicit ExtremaGossip(const ReducerConfig& config) : config_(config) {}

  /// `initial` must be scalar: the node's value seeds both extrema.
  void init(NodeId self, std::span<const NodeId> neighbors, Mass initial) override;
  [[nodiscard]] std::optional<Outgoing> make_message(Rng& rng) override;
  [[nodiscard]] std::optional<Outgoing> make_message_to(NodeId target) override;
  void on_receive(NodeId from, const Packet& packet) override;
  /// (min, max) as a dim-2 pseudo-mass with weight 1.
  [[nodiscard]] Mass local_mass() const override;
  void on_link_down(NodeId j) override;
  void on_link_up(NodeId j) override;
  /// A new sample merges into the extrema (it can widen them, never shrink).
  void update_data(const Mass& delta) override;
  void transfer_state(BinaryWriter& w) const override;
  void transfer_state(BinaryReader& r) override;
  [[nodiscard]] std::string_view name() const noexcept override { return "extrema-gossip"; }
  [[nodiscard]] std::size_t live_degree() const noexcept override {
    return neighbors_.live_count();
  }

  [[nodiscard]] double current_min() const noexcept { return min_; }
  [[nodiscard]] double current_max() const noexcept { return max_; }

 private:
  template <class IO, class Self>
  static void fields(IO& io, Self& node);

  ReducerConfig config_;
  NeighborSet neighbors_;
  double min_ = 0.0;
  double max_ = 0.0;
  bool initialized_ = false;
};

}  // namespace pcf::core
