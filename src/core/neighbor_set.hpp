// Shared per-node neighbor bookkeeping for reducer implementations: sorted
// id -> slot lookup, liveness flags, and uniform sampling among live
// neighbors.
//
// The live set is stored as *slot indices* (ascending). Because ids_ is
// sorted, ascending slots and ascending ids induce the same order, so the
// uniform draw in pick_live()/pick_live_slot() selects the same neighbor for
// the same RNG state as the historical id-keyed implementation — golden
// traces do not move. Storing slots lets the hot send path go straight from
// the sample to per-slot flow storage without re-running the O(log degree)
// id lookup that slot_of() does (the "latent map lookup" this layout fixes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::core {

/// Checkpointing: one node's per-slot liveness flags, the same bytes in both
/// state layouts — the degree (a wrong-topology checkpoint fails its check
/// on read), then one flag byte per slot.
template <class IO, class Flags>
void transfer_liveness(IO& io, Flags&& alive) {
  io.expect(std::uint64_t{alive.size()}, "checkpoint: node degree mismatch");
  for (auto& a : alive) io.flag(a);
}

class NeighborSet {
 public:
  void init(std::span<const net::NodeId> neighbors) {
    ids_.assign(neighbors.begin(), neighbors.end());
    std::sort(ids_.begin(), ids_.end());
    PCF_CHECK_MSG(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end(),
                  "duplicate neighbor id");
    alive_.assign(ids_.size(), 1);
    live_slots_.resize(ids_.size());
    for (std::uint32_t s = 0; s < live_slots_.size(); ++s) live_slots_[s] = s;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t live_count() const noexcept { return live_slots_.size(); }
  [[nodiscard]] net::NodeId id_at(std::size_t slot) const noexcept { return ids_[slot]; }
  [[nodiscard]] bool alive_at(std::size_t slot) const noexcept { return alive_[slot] != 0; }

  /// Slot index of neighbor `j`, or nullopt if j is not a neighbor.
  [[nodiscard]] std::optional<std::size_t> slot_of(net::NodeId j) const noexcept {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), j);
    if (it == ids_.end() || *it != j) return std::nullopt;
    return static_cast<std::size_t>(it - ids_.begin());
  }

  /// Uniformly random live neighbor's slot, or nullopt if none are left.
  /// Draws exactly one rng.below(live_count()) when the live set is
  /// non-empty, nothing otherwise — the reducers' RNG-stream contract.
  [[nodiscard]] std::optional<std::size_t> pick_live_slot(Rng& rng) const noexcept {
    if (live_slots_.empty()) return std::nullopt;
    return static_cast<std::size_t>(
        live_slots_[static_cast<std::size_t>(rng.below(live_slots_.size()))]);
  }

  /// Uniformly random live neighbor, or nullopt if none are left.
  [[nodiscard]] std::optional<net::NodeId> pick_live(Rng& rng) const noexcept {
    const auto slot = pick_live_slot(rng);
    if (!slot) return std::nullopt;
    return ids_[*slot];
  }

  /// Marks neighbor j dead; returns its slot if it was alive, nullopt if it
  /// was unknown or already dead (duplicate failure notifications are benign).
  std::optional<std::size_t> mark_dead(net::NodeId j) {
    const auto slot = slot_of(j);
    if (!slot || alive_[*slot] == 0) return std::nullopt;
    set_alive(*slot, false);
    return slot;
  }

  /// Marks neighbor j alive again (link heal / rejoin); returns its slot if
  /// it was dead, nullopt if it was unknown or already alive (duplicate
  /// recovery notifications are benign).
  std::optional<std::size_t> mark_alive(net::NodeId j) {
    const auto slot = slot_of(j);
    if (!slot || alive_[*slot] != 0) return std::nullopt;
    set_alive(*slot, true);
    return slot;
  }

  /// Flips the liveness of `slot`, which must currently be the opposite.
  /// live_slots_ stays sorted, so pick_live sampling is deterministic
  /// regardless of the failure and heal order.
  void set_alive(std::size_t slot, bool alive) {
    PCF_ASSERT((alive_[slot] != 0) != alive);
    alive_[slot] = alive ? 1 : 0;
    const auto s = static_cast<std::uint32_t>(slot);
    const auto pos = std::lower_bound(live_slots_.begin(), live_slots_.end(), s);
    if (alive) {
      live_slots_.insert(pos, s);
    } else {
      live_slots_.erase(pos);
    }
  }

  /// Sorted neighbor ids and per-slot liveness flags, slot-indexed.
  [[nodiscard]] std::span<const net::NodeId> ids() const noexcept { return ids_; }
  [[nodiscard]] std::span<const std::uint8_t> alive_flags() const noexcept { return alive_; }

  /// Checkpointing: only the liveness flags are mutable state — ids_ comes
  /// from the topology (re-supplied at restore via init), and live_slots_ is
  /// derived from the flags, so neither is serialized. The read side expects
  /// an init()-ed set with the same neighborhood and rebuilds live_slots_.
  void transfer(BinaryWriter& w) const { transfer_liveness(w, alive_); }
  void transfer(BinaryReader& r) {
    transfer_liveness(r, alive_);
    live_slots_.clear();
    for (std::uint32_t s = 0; s < ids_.size(); ++s) {
      if (alive_[s] != 0) live_slots_.push_back(s);
    }
  }

 private:
  std::vector<net::NodeId> ids_;            // sorted
  std::vector<std::uint8_t> alive_;         // per-slot, branch-friendly
  std::vector<std::uint32_t> live_slots_;   // sorted ascending
};

}  // namespace pcf::core
