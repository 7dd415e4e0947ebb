#include "sim/session.hpp"

#include "support/binio.hpp"
#include "support/check.hpp"

namespace pcf::sim {

namespace {

/// Session blob = this prelude (session bookkeeping) + the engine checkpoint
/// as a length-prefixed string. Versioned with kCheckpointVersion: the engine
/// blob inside carries the same version, so they bump together.
constexpr std::string_view kSessionMagic{"PCFSESS\0", 8};

SyncEngineConfig engine_config(const SessionOptions& options) {
  SyncEngineConfig cfg;
  cfg.algorithm = options.algorithm;
  cfg.reducer = options.reducer;
  cfg.faults = options.faults;
  cfg.seed = options.seed;
  cfg.delivery = options.delivery;
  cfg.mode = options.mode;
  cfg.invariants = options.invariants;
  // Field-count pin (the FaultPlan pin's pattern): if SyncEngineConfig grows
  // a field this stops compiling, forcing a decision on whether the session
  // forwards it. The session once silently dropped mode — engines ran legacy
  // regardless of what the caller asked for. `shards` is not forwarded: the
  // engine accepts only its default.
  {
    [[maybe_unused]] const auto& [algorithm, reducer, faults, seed, delivery, mode, shards,
                                  invariants] = cfg;
  }
  return cfg;
}

/// The session's checkpointed state, staged so that a restore changes
/// nothing until the engine has accepted its own blob.
struct SessionBlob {
  std::uint64_t queries = 0;
  std::vector<core::Values> current;        ///< arrives sized to the session
  std::vector<std::uint64_t> seen_rejoins;  ///< arrives sized to the session
  std::string engine;
};

/// The session blob's one field list, for save and restore alike.
template <class IO>
void transfer(IO& io, SessionBlob& blob) {
  if (!io.tag(kSessionMagic)) throw CheckpointError("not a pcflow session checkpoint");
  std::uint32_t version = kCheckpointVersion;
  io.u32(version);
  if (version != kCheckpointVersion) {
    throw CheckpointError("unsupported session checkpoint version");
  }
  io.u64(blob.queries);
  std::uint64_t nodes = blob.current.size();
  std::uint64_t dim = blob.current.front().size();
  io.u64(nodes);
  io.u64(dim);
  if (nodes != blob.current.size() || dim != blob.current.front().size()) {
    throw CheckpointError("session checkpoint node count or dimension mismatch");
  }
  for (auto& values : blob.current) {
    for (double& v : values) io.f64(v);
  }
  for (std::uint64_t& n : blob.seen_rejoins) io.u64(n);
  io.str(blob.engine);
}

}  // namespace

ReductionSession::ReductionSession(net::Topology topology,
                                   std::span<const core::Values> initial,
                                   SessionOptions options)
    : options_(std::move(options)),
      base_(initial.begin(), initial.end()),
      current_(initial.begin(), initial.end()),
      engine_(std::move(topology), masses_from_vectors(initial, options_.aggregate),
              engine_config(options_)),
      seen_rejoins_(initial.size(), 0) {
  PCF_CHECK_MSG(!current_.empty(), "session needs inputs");
}

SessionQueryResult ReductionSession::run_to_target(std::size_t dropped, std::size_t reapplied) {
  const std::size_t before = engine_.round();
  const auto stats =
      engine_.run_until_error(options_.target_accuracy, options_.max_rounds_per_query);
  ++queries_;

  SessionQueryResult result;
  result.rounds = engine_.round() - before;
  result.reached_target = stats.reached_target;
  result.max_error = engine_.max_error();
  result.dropped_updates = dropped;
  result.reapplied_updates = reapplied;
  const std::size_t d = current_.front().size();
  result.estimates.assign(engine_.size(),
                          std::vector<double>(d, std::numeric_limits<double>::quiet_NaN()));
  for (net::NodeId i = 0; i < engine_.size(); ++i) {
    if (!engine_.node_alive(i)) continue;
    for (std::size_t k = 0; k < d; ++k) result.estimates[i][k] = engine_.fleet().estimate(i, k);
  }
  return result;
}

std::size_t ReductionSession::sync_rejoined_nodes() {
  std::size_t reapplied = 0;
  const std::size_t d = current_.front().size();
  for (net::NodeId i = 0; i < engine_.size(); ++i) {
    if (engine_.rejoin_count(i) == seen_rejoins_[i]) continue;
    // A node that crashed again after rejoining is skipped WITHOUT advancing
    // the watermark — the drift is re-applied after its next rejoin instead.
    if (!engine_.node_alive(i)) continue;
    seen_rejoins_[i] = engine_.rejoin_count(i);
    core::Mass delta = core::Mass::zero(d);
    bool changed = false;
    for (std::size_t k = 0; k < d; ++k) {
      delta.s[k] = current_[i][k] - base_[i][k];
      changed = changed || delta.s[k] != 0.0;
    }
    if (changed) {
      engine_.apply_data_update(i, delta);
      ++reapplied;
    }
  }
  return reapplied;
}

SessionQueryResult ReductionSession::query(std::span<const core::Values> values) {
  PCF_CHECK_MSG(values.size() == current_.size(), "one input vector per node required");
  // Rejoin sync first: it re-applies drift relative to base_, so it must see
  // the PREVIOUS current_ — the new deltas below then stack on top.
  const std::size_t reapplied = sync_rejoined_nodes();
  std::size_t dropped = 0;
  const std::size_t d = current_.front().size();
  for (net::NodeId i = 0; i < values.size(); ++i) {
    PCF_CHECK_MSG(values[i].size() == d, "session input dimension is fixed at construction");
    core::Mass delta = core::Mass::zero(d);
    bool changed = false;
    for (std::size_t k = 0; k < d; ++k) {
      delta.s[k] = values[i][k] - current_[i][k];
      changed = changed || delta.s[k] != 0.0;
    }
    if (!changed) continue;
    // Record the desired value even when the node is dead: the update is
    // buffered, not lost — sync_rejoined_nodes() re-applies the accumulated
    // drift when the node comes back. (current_[i] used to stay stale here,
    // so the NEXT query's delta silently shifted the session's target.)
    current_[i] = values[i];
    if (engine_.node_alive(i)) {
      engine_.apply_data_update(i, delta);
    } else {
      ++dropped;
    }
  }
  return run_to_target(dropped, reapplied);
}

SessionQueryResult ReductionSession::refresh() { return run_to_target(0, sync_rejoined_nodes()); }

void ReductionSession::fail_link(net::NodeId a, net::NodeId b) { engine_.fail_link_now(a, b); }

void ReductionSession::heal_link(net::NodeId a, net::NodeId b) { engine_.heal_link_now(a, b); }

std::string ReductionSession::save_checkpoint(CheckpointMode mode) const {
  SessionBlob blob{queries_, current_, seen_rejoins_, engine_.save_checkpoint(mode)};
  BinaryWriter w;
  transfer(w, blob);
  return std::move(w).take();
}

void ReductionSession::restore(std::string_view checkpoint) {
  SessionBlob blob{0, current_, std::vector<std::uint64_t>(current_.size()), {}};
  try {
    BinaryReader r(checkpoint);
    transfer(r, blob);
    r.expect_end();
  } catch (const BinioError&) {
    throw CheckpointError("corrupt session checkpoint");
  }
  // Engine restore validates compatibility and throws before the session's
  // own state is touched.
  engine_.restore(blob.engine);
  queries_ = static_cast<std::size_t>(blob.queries);
  current_ = std::move(blob.current);
  seen_rejoins_ = std::move(blob.seen_rejoins);
}

}  // namespace pcf::sim
