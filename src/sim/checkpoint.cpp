// Engine checkpoint/restore implementation (format: DESIGN.md §8).
//
// This TU implements member functions of both engines, and CheckpointFields
// is a friend of both, so the serialization code reads private state directly
// instead of widening the engines' public surface. Every section is ONE field
// list that saves through a BinaryWriter and restores through a BinaryReader
// (support/binio.hpp), so the two directions cannot drift apart; changing a
// list changes the format — bump kCheckpointVersion.

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/state_io.hpp"
#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "support/binio.hpp"

namespace pcf::sim {

namespace {

constexpr std::uint8_t kKindSync = 1;
constexpr std::uint8_t kKindAsync = 2;

/// FNV-1a over a stream of 64-bit words (fed byte-wise, little-endian).
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add_bits(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void hash_mass(Fnv& h, const core::Mass& m) {
  h.add(m.dim());
  for (const double v : m.s) h.add_bits(v);
  h.add_bits(m.w);
}

/// The scheduled (immutable) half of the fault plan. Both engines sort the
/// event lists by time at construction, so identically-constructed engines
/// hash identically regardless of the order the plan was written in.
void hash_fault_schedule(Fnv& h, const FaultPlan& p) {
  h.add(p.link_failures.size());
  for (const auto& e : p.link_failures) {
    h.add_bits(e.time);
    h.add(e.a);
    h.add(e.b);
  }
  h.add(p.node_crashes.size());
  for (const auto& e : p.node_crashes) {
    h.add_bits(e.time);
    h.add(e.node);
  }
  h.add(p.data_updates.size());
  for (const auto& e : p.data_updates) {
    h.add_bits(e.time);
    h.add(e.node);
    hash_mass(h, e.delta);
  }
  h.add(p.link_heals.size());
  for (const auto& e : p.link_heals) {
    h.add_bits(e.time);
    h.add(e.a);
    h.add(e.b);
  }
  h.add(p.node_rejoins.size());
  for (const auto& e : p.node_rejoins) {
    h.add_bits(e.time);
    h.add(e.node);
  }
  h.add(p.false_detects.size());
  for (const auto& e : p.false_detects) {
    h.add_bits(e.time);
    h.add(e.a);
    h.add(e.b);
    h.add_bits(e.clear_delay);
  }
}

void hash_construction_inputs(Fnv& h, const net::Topology& topology,
                              std::span<const core::Mass> initial,
                              const core::ReducerConfig& reducer) {
  h.add(static_cast<std::uint64_t>(reducer.aggregate));
  h.add(static_cast<std::uint64_t>(reducer.pcf_variant));
  h.add(reducer.pf_cached_flow_sum ? 1 : 0);
  // The resolved tree schedule is a pure function of (topology, tree_kind), so
  // hashing the kind pins it. Only non-default kinds contribute — keeping every
  // pre-roster pinned golden hash byte-identical.
  if (reducer.tree_kind != net::TreeKind::kAuto) {
    h.add(static_cast<std::uint64_t>(reducer.tree_kind));
  }
  h.add(topology.size());
  for (std::size_t i = 0; i < topology.size(); ++i) {
    const auto nbrs = topology.neighbors(static_cast<NodeId>(i));
    h.add(nbrs.size());
    for (const NodeId j : nbrs) h.add(j);
  }
  h.add(initial.size());
  for (const auto& m : initial) hash_mass(h, m);
}

// ---- header -----------------------------------------------------------

/// The header's field list. Reading checks the magic, version, engine kind
/// and mode as it goes, each with its own CheckpointError.
template <class IO>
void transfer(IO& io, CheckpointInfo& h) {
  if (!io.tag(kCheckpointMagic)) throw CheckpointError("not a pcflow checkpoint (bad magic)");
  io.u32(h.version);
  if (h.version != kCheckpointVersion) {
    throw CheckpointError("unsupported checkpoint version " + std::to_string(h.version) +
                          " (this build reads version " + std::to_string(kCheckpointVersion) +
                          ")");
  }
  io.u8(h.engine_kind);
  if (h.engine_kind != kKindSync && h.engine_kind != kKindAsync) {
    throw CheckpointError("corrupt checkpoint: unknown engine kind");
  }
  auto mode = static_cast<std::uint8_t>(h.mode);
  io.u8(mode);
  if (mode > static_cast<std::uint8_t>(CheckpointMode::kFull)) {
    throw CheckpointError("corrupt checkpoint: unknown checkpoint mode");
  }
  h.mode = static_cast<CheckpointMode>(mode);
  io.u8(h.algorithm);
  io.u8(h.engine_mode);
  io.u64(h.seed);
  io.u64(h.nodes);
  io.u64(h.dim);
  io.u64(h.compat_hash);
  io.f64(h.position);
}

/// Parses + validates the header; leaves `r` positioned at the body.
CheckpointInfo read_header(BinaryReader& r) {
  try {
    CheckpointInfo h;
    transfer(r, h);
    return h;
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("truncated checkpoint header: ") + e.what());
  }
}

/// Refuses a blob whose header differs from the one `want` (this engine's
/// own header) in anything but mode and position.
void expect_compatible(const CheckpointInfo& got, const CheckpointInfo& want) {
  if (got.engine_kind != want.engine_kind) {
    throw CheckpointError(got.engine_kind == kKindSync ? "checkpoint was saved by the sync engine"
                                                       : "checkpoint was saved by the async engine");
  }
  if (got.algorithm != want.algorithm) {
    throw CheckpointError("checkpoint algorithm does not match this engine");
  }
  if (got.engine_mode != want.engine_mode) {
    throw CheckpointError("checkpoint engine mode (legacy/arena) does not match this engine");
  }
  if (got.seed != want.seed || got.nodes != want.nodes || got.dim != want.dim ||
      got.compat_hash != want.compat_hash) {
    throw CheckpointError(
        "checkpoint is incompatible with this engine's construction inputs "
        "(seed/topology/initial masses/config mismatch)");
  }
}

// ---- shared sections --------------------------------------------------
//
// Each section is one field list for save and restore (support/binio.hpp);
// the state arguments are const when saving.

/// A time or delay: reading refuses NaN and infinity, which have no place
/// in the engines' event order.
template <class IO, class T>
void transfer_time(IO& io, T& time) {
  io.f64(time);
  if constexpr (std::is_same_v<IO, BinaryReader>) {
    if (!std::isfinite(time)) throw BinioError("non-finite time");
  }
}

/// The probabilistic fault knobs are mutable mid-run (mutable_faults() — the
/// chaos harness zeroes them to enter its recovery phase), so they are
/// checkpointed state; the scheduled event lists are construction inputs
/// covered by the compat hash instead.
template <class IO, class Plan>
void transfer_fault_knobs(IO& io, Plan& p) {
  io.f64(p.message_loss_prob);
  io.f64(p.bit_flip_prob);
  io.boolean(p.bit_flip_any_bit);
  io.f64(p.state_flip_prob);
  transfer_time(io, p.detection_delay);
  io.f64(p.duplicate_prob);
  io.f64(p.reorder_prob);
  transfer_time(io, p.reorder_jitter);
  io.f64(p.churn_fail_prob);
  io.f64(p.churn_heal_rate);
}

/// One entry of a link table: a topology edge (a, b) with a < b. The engines
/// keep these tables in sorted containers, so reading also rejects an entry
/// that does not come strictly after `prev`. (0, 0) is below every valid
/// entry, so it starts a table.
template <class IO, class Link>
void transfer_link(IO& io, Link& link, std::pair<NodeId, NodeId>& prev,
                   const net::Topology& topology) {
  io.node(link.first, topology.size());
  io.node(link.second, topology.size());
  if constexpr (std::is_same_v<IO, BinaryReader>) {
    if (link.first >= link.second || !topology.has_edge(link.first, link.second)) {
      throw BinioError("link table entry is not a normalized topology edge");
    }
    if (link <= prev) throw BinioError("link table entries out of order");
    prev = link;
  }
}

/// A set of normalized links; std::set iterates in sorted order (D2-safe).
template <class IO, class Links>
void transfer_link_set(IO& io, Links& links, const net::Topology& topology) {
  std::pair<NodeId, NodeId> prev{0, 0};
  io.sequence(links, 8, [&](auto& link) { transfer_link(io, link, prev, topology); });
}

/// Deterministic subset of the perf counters — the wall-clock phase timers
/// are intentionally NOT checkpointed (they are measurements of this
/// process, not simulation state).
template <class IO, class Perf>
void transfer_perf(IO& io, Perf& perf) {
  io.u64(perf.events_processed);
  io.u64(perf.rounds);
  io.u64(perf.messages_sent);
  io.u64(perf.deliveries);
  io.u64(perf.doubles_on_wire);
}

/// Shared state-fingerprint over the per-node protocol state, probed through
/// the fleet's per-node operations (bit patterns, not values — two states
/// agree iff every double agrees bitwise).
void fingerprint_nodes(Fnv& h, const core::ArenaFleet& fleet, const std::vector<bool>& alive) {
  std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> slots;
  for (NodeId i = 0; i < fleet.size(); ++i) {
    h.add(alive[i] ? 1 : 0);
    if (!alive[i]) continue;  // dead state is unobservable; rejoin rebuilds it
    const core::Mass m = fleet.local_mass(i);
    for (const double v : m.s) h.add_bits(v);
    h.add_bits(m.w);
    for (std::size_t k = 0; k < m.dim(); ++k) h.add_bits(fleet.estimate(i, k));
    h.add(fleet.live_degree(i));
    h.add(fleet.role_swaps(i));
    for (std::size_t s = 0; s < fleet.degree(i); ++s) {
      const std::size_t written = fleet.flows_toward(i, fleet.neighbor(i, s), slots);
      h.add(written);
      for (std::size_t r = 0; r < written; ++r) {
        for (const double v : slots[r].s) h.add_bits(v);
        h.add_bits(slots[r].w);
      }
    }
  }
}

std::uint64_t sync_compat_hash(const net::Topology& topology,
                               std::span<const core::Mass> initial,
                               const SyncEngineConfig& config) {
  Fnv h;
  h.add(kKindSync);
  h.add(static_cast<std::uint64_t>(config.algorithm));
  h.add(static_cast<std::uint64_t>(config.delivery));
  h.add(static_cast<std::uint64_t>(config.mode));
  h.add(config.seed);
  hash_construction_inputs(h, topology, initial, config.reducer);
  hash_fault_schedule(h, config.faults);
  return h.h;
}

std::uint64_t async_compat_hash(const net::Topology& topology,
                                std::span<const core::Mass> initial,
                                const AsyncEngineConfig& config) {
  Fnv h;
  h.add(kKindAsync);
  h.add(static_cast<std::uint64_t>(config.algorithm));
  h.add(config.seed);
  h.add_bits(config.tick_rate);
  h.add_bits(config.latency_min);
  h.add_bits(config.latency_max);
  hash_construction_inputs(h, topology, initial, config.reducer);
  hash_fault_schedule(h, config.faults);
  return h.h;
}

}  // namespace

CheckpointInfo peek_checkpoint(std::string_view blob) {
  BinaryReader r(blob);
  return read_header(r);
}

/// The engines' checkpoint field lists (a friend of both engines). Each body
/// is written once and runs through a BinaryWriter (Self const) to save or a
/// BinaryReader to restore; node ids are checked against the node count on
/// read.
struct CheckpointFields {
  /// The header this engine writes; a restore compares the blob's against it.
  static CheckpointInfo header(const SyncEngine& e, CheckpointMode mode) {
    // The mode is recorded for symmetry; the sync body is mode-independent.
    return {kCheckpointVersion,
            kKindSync,
            mode,
            static_cast<std::uint8_t>(e.config_.algorithm),
            static_cast<std::uint8_t>(e.config_.mode == EngineMode::kArena ? 1 : 0),
            e.config_.seed,
            e.topology_.size(),
            e.oracle_.dim(),
            sync_compat_hash(e.topology_, e.initial_, e.config_),
            static_cast<double>(e.round_)};
  }

  static CheckpointInfo header(const AsyncEngine& e, CheckpointMode mode) {
    return {kCheckpointVersion,
            kKindAsync,
            mode,
            static_cast<std::uint8_t>(e.config_.algorithm),
            0,  // the async engine has no arena backend
            e.config_.seed,
            e.topology_.size(),
            e.oracle_.dim(),
            async_compat_hash(e.topology_, e.initial_, e.config_),
            e.now_};
  }

  template <class IO, class Self>
    requires std::same_as<std::remove_const_t<Self>, SyncEngine>
  static void body(IO& io, Self& e, CheckpointMode /*mode*/) {
    const std::size_t n = e.topology_.size();
    transfer_fault_knobs(io, e.config_.faults);
    io.u64(e.round_);
    io.u64(e.next_link_failure_);
    io.u64(e.next_node_crash_);
    io.u64(e.next_data_update_);
    io.u64(e.next_link_heal_);
    io.u64(e.next_node_rejoin_);
    io.u64(e.next_false_detect_);
    io.boolean(e.pending_retarget_);
    io.boolean(e.wire_reordered_);
    io.boolean(e.retarget_after_wire_);
    io.u64(e.stats_.rounds);
    io.u64(e.stats_.messages_sent);
    io.u64(e.stats_.messages_dropped);
    io.u64(e.stats_.messages_flipped);
    io.u64(e.stats_.messages_duplicated);
    io.u64(e.stats_.doubles_sent);
    io.u64(e.stats_.state_flips);
    io.boolean(e.stats_.reached_target);
    io.u64(e.explicit_link_failures_);
    io.u64(e.crashes_fired_);
    io.u64(e.explicit_data_updates_);
    io.u64(e.churn_failures_fired_);
    io.u64(e.link_heals_fired_);
    io.u64(e.rejoins_fired_);
    io.u64(e.false_detects_fired_);
    io.u64(e.false_clears_fired_);
    for (auto& count : e.rejoin_counts_) io.u64(count);
    Rng::transfer(io, e.fault_rng_);
    shared(io, e);
    io.sequence(e.pending_notices_, 17, [&](auto& notice) {
      transfer_time(io, notice.due_time);
      io.node(notice.node, n);
      io.node(notice.peer, n);
      io.boolean(notice.up);
    });
    io.sequence(e.churn_heals_, 16, [&](auto& heal) {
      transfer_time(io, heal.time);
      io.node(heal.a, n);
      io.node(heal.b, n);
    });
    io.sequence(e.pending_clears_, 24, [&](auto& clear) {
      transfer_time(io, clear.time);
      io.node(clear.a, n);
      io.node(clear.b, n);
      transfer_time(io, clear.clear_delay);
    });
    nodes(io, e);
  }

  template <class IO, class Self>
    requires std::same_as<std::remove_const_t<Self>, AsyncEngine>
  static void body(IO& io, Self& e, CheckpointMode mode) {
    using Event = AsyncEngine::Event;
    using Key = AsyncEngine::Key;
    // The wire format stores Event::Kind as its integer value; pin the values
    // the format depends on so an enum reorder fails here, not in saved state.
    static_assert(static_cast<std::uint8_t>(Event::Kind::kDelivery) == 1);
    static_assert(static_cast<std::uint8_t>(Event::Kind::kDataUpdate) == 5);
    static_assert(static_cast<std::uint8_t>(Event::Kind::kChurnFail) == 11);
    const std::size_t n = e.topology_.size();
    transfer_fault_knobs(io, e.config_.faults);
    transfer_time(io, e.now_);
    io.u64(e.seq_);
    io.u64(e.delivered_);
    io.boolean(e.pending_retarget_);
    io.u64(e.pending_detects_);
    io.u64(e.pending_up_notices_);
    io.u64(e.link_failures_fired_);
    io.u64(e.crashes_fired_);
    io.u64(e.data_updates_fired_);
    io.u64(e.link_heals_fired_);
    io.u64(e.rejoins_fired_);
    io.u64(e.false_detects_fired_);
    io.u64(e.false_clears_fired_);
    io.u64(e.duplicates_injected_);
    Rng::transfer(io, e.net_rng_);
    shared(io, e);
    std::pair<NodeId, NodeId> prev_heal{0, 0};
    io.sequence(e.heal_seq_, 16, [&](auto& entry) {  // std::map: sorted iteration
      transfer_link(io, entry.first, prev_heal, e.topology_);
      io.u64(entry.second);
    });
    fifo_clamps(io, e);
    nodes(io, e);

    // The event queue, in firing order: sorted by (time, seq), the queue's
    // total order, so the bytes do not depend on how the queue is laid out.
    // Full mode: every pending event; (time, seq) fixes the pop order, so
    // continuation is bitwise-exact. Lightweight mode: kDelivery events (the
    // in-flight packets) are dropped on save, FTPregel-style; the control
    // events (ticks, scheduled faults, churn chains, detector notices)
    // survive, because replay cannot regenerate them. This is the one step
    // whose two directions differ. Each event is its key's time and seq plus
    // its slab slot; restore fills the slab in list order and accepts any
    // order. A delivery's receiver slot is not written: restore re-derives it.
    std::vector<Key> keys;
    if constexpr (std::is_same_v<IO, BinaryWriter>) {
      for (const Key& key : e.queue_.sorted()) {
        if (mode == CheckpointMode::kFull || e.events_[key.slot].kind != Event::Kind::kDelivery) {
          keys.push_back(key);
        }
      }
    } else {
      e.events_.clear();
      e.payloads_.clear();
      e.free_slots_.clear();
    }
    io.sequence(keys, 30, [&](auto& key) {
      if constexpr (std::is_same_v<IO, BinaryReader>) {
        key.slot = static_cast<std::uint32_t>(e.events_.size());
        e.events_.emplace_back();
        e.payloads_.emplace_back();
      }
      auto& event = e.events_[key.slot];
      transfer_time(io, key.time);
      io.enumeration(event.kind, Event::Kind::kChurnFail);
      io.node(event.a, n);
      io.node(event.b, n);
      io.u64(key.seq);
      transfer_time(io, event.aux);
      // Only these kinds carry a packet; the rest leave it default.
      if (event.kind == Event::Kind::kDelivery || event.kind == Event::Kind::kDataUpdate) {
        core::transfer_packet(io, e.payloads_[key.slot]);
      }
      if constexpr (std::is_same_v<IO, BinaryReader>) {
        // A delivery or link event names a topology edge; a delivery also
        // gets back its receiver slot, which the blob does not carry.
        if (event.on_edge()) {
          const auto slot = e.fleet_->slot_of(event.b, event.a);
          if (!slot) throw BinioError("event on a pair that is not a topology edge");
          if (event.kind == Event::Kind::kDelivery) {
            event.to_slot = static_cast<std::uint32_t>(*slot);
          }
        }
      }
    });
    if constexpr (std::is_same_v<IO, BinaryReader>) {
      e.queue_.clear();
      for (const Key& key : keys) e.queue_.push(key);
    }
  }

 private:
  /// RNG streams, liveness and the three link sets, common to both engines.
  template <class IO, class Self>
  static void shared(IO& io, Self& e) {
    for (auto& rng : e.node_rngs_) Rng::transfer(io, rng);
    for (auto&& alive : e.alive_) io.boolean(alive);
    transfer_link_set(io, e.dead_links_, e.topology_);
    transfer_link_set(io, e.cut_links_, e.topology_);
    transfer_link_set(io, e.falsely_excluded_, e.topology_);
  }

  /// The FIFO clamp table, written sparsely: one (sender, receiver, time)
  /// entry per directed link that has carried a FIFO send, in (sender,
  /// receiver) order — the topology's edge order. Reading rejects a pair
  /// that is not a topology edge, entries out of order, and a zero time
  /// (0.0 marks a link with no FIFO send; every clamp written is at least
  /// 1e-9).
  template <class IO, class Self>
  static void fifo_clamps(IO& io, Self& e) {
    struct Clamp {
      NodeId from = 0;
      NodeId to = 0;
      double time = 0.0;
    };
    const std::size_t n = e.topology_.size();
    std::vector<Clamp> clamps;
    if constexpr (std::is_same_v<IO, BinaryWriter>) {
      std::size_t edge = 0;
      for (NodeId from = 0; from < n; ++from) {
        for (const NodeId to : e.topology_.neighbors(from)) {
          const double time = e.last_arrival_[edge++];
          if (time != 0.0) clamps.push_back({from, to, time});
        }
      }
    }
    io.sequence(clamps, 16, [&](auto& clamp) {
      io.node(clamp.from, n);
      io.node(clamp.to, n);
      transfer_time(io, clamp.time);
    });
    if constexpr (std::is_same_v<IO, BinaryReader>) {
      std::fill(e.last_arrival_.begin(), e.last_arrival_.end(), 0.0);
      std::size_t next = 0;  // the lowest edge index the next entry may take
      for (const Clamp& clamp : clamps) {
        const auto edge = e.topology_.edge_index(clamp.from, clamp.to);
        if (!edge) throw BinioError("FIFO clamp on a pair that is not a topology edge");
        if (*edge < next) throw BinioError("FIFO clamp entries out of order");
        if (clamp.time == 0.0) throw BinioError("FIFO clamp of zero");
        e.last_arrival_[*edge] = clamp.time;
        next = *edge + 1;
      }
    }
  }

  /// The oracle's targets, every node's state — dead nodes included: their
  /// frozen state is deterministic, and saving unconditionally keeps the
  /// layout positional — and the deterministic perf counters. A kArena sync
  /// engine writes raw rows, every other engine dim-prefixed rows.
  template <class IO, class Self>
  static void nodes(IO& io, Self& e) {
    Oracle::transfer(io, e.oracle_);
    const auto rows = [&]<class Codec>() {
      for (NodeId i = 0; i < e.fleet_->size(); ++i) e.fleet_->template transfer<Codec>(i, io);
    };
    if (raw_rows(e)) {
      rows.template operator()<core::protocol::RawRows>();
    } else {
      rows.template operator()<core::protocol::PrefixedRows>();
    }
    transfer_perf(io, e.perf_);
  }

  static bool raw_rows(const SyncEngine& e) { return e.config_.mode == EngineMode::kArena; }
  static bool raw_rows(const AsyncEngine& /*e*/) { return false; }
};

namespace {

template <class Engine>
std::string save(const Engine& engine, CheckpointMode mode) {
  BinaryWriter w;
  CheckpointInfo h = CheckpointFields::header(engine, mode);
  transfer(w, h);
  CheckpointFields::body(w, engine, mode);
  return std::move(w).take();
}

/// Header and compatibility are validated before any engine state is
/// touched; a throw from deeper body corruption leaves the engine in an
/// unspecified state.
template <class Engine>
void restore_into(Engine& engine, std::string_view checkpoint) {
  BinaryReader r(checkpoint);
  const CheckpointInfo h = read_header(r);
  expect_compatible(h, CheckpointFields::header(engine, h.mode));
  try {
    CheckpointFields::body(r, engine, h.mode);
    r.expect_end();
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("corrupt checkpoint body: ") + e.what());
  }
}

}  // namespace

// ===========================================================================
// SyncEngine
// ===========================================================================

std::string SyncEngine::save_checkpoint(CheckpointMode mode) const { return save(*this, mode); }

void SyncEngine::restore(std::string_view checkpoint) {
  restore_into(*this, checkpoint);
  // Per-round scratch never outlives a step(), but clear defensively so a
  // restore into a mid-lifetime engine cannot leak stale wire entries.
  wire_.clear();
}

std::uint64_t SyncEngine::state_fingerprint() const {
  Fnv h;
  h.add(round_);
  fingerprint_nodes(h, *fleet_, alive_);
  return h.h;
}

// ===========================================================================
// AsyncEngine
// ===========================================================================

std::string AsyncEngine::save_checkpoint(CheckpointMode mode) const { return save(*this, mode); }

void AsyncEngine::restore(std::string_view checkpoint) { restore_into(*this, checkpoint); }

std::uint64_t AsyncEngine::state_fingerprint() const {
  Fnv h;
  h.add_bits(now_);
  fingerprint_nodes(h, *fleet_, alive_);
  return h.h;
}

}  // namespace pcf::sim
