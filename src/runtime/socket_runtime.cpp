#include "runtime/socket_runtime.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "core/arena.hpp"
#include "core/state_io.hpp"
#include "core/stopping.hpp"
#include "net/transport.hpp"
#include "runtime/mailbox.hpp"
#include "support/annotations.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"

namespace pcf::runtime {

namespace {

// 8-byte file magics + shared version for the runtime's sidecar files
// (per-shard checkpoint and result blobs). Versioned like the engine
// checkpoints: a reader refuses files from another build generation.
constexpr std::string_view kCkptMagic = "PCFNETCK";
constexpr std::string_view kResultMagic = "PCFNETRS";
// v2: result blob reports blocked and rejected mailbox pushes separately
// (one extra u64) instead of a single conflated overflow counter.
// v3: the rejected-push u64 is gone (no producer ever failed fast).
constexpr std::uint32_t kNetFileVersion = 3;

// A shard's stopping rule. `steps_per_node` is the minimum budget; past it a
// shard is done once every local estimate has been quiet (core::LocalStop)
// for kQuietPatience steps, and it stops gossiping only when every peer shard
// is done too (beacon flag) or down. A shard the scheduler favoured thus keeps
// answering the laggards instead of leaving them to gossip into a frozen
// network, so the answer no longer depends on how the OS interleaved the
// shards. Estimates that never settle stop at kMaxBudgetFactor × the budget.
constexpr double kQuietRelTol = 1e-9;
constexpr std::size_t kQuietPatience = 32;
constexpr std::uint64_t kMaxBudgetFactor = 8;

[[nodiscard]] std::int64_t now_ms() noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Seals `w` with an FNV trailer and writes it via tmp-file + rename, so a
/// reader never observes a half-written blob (the supervisor may SIGKILL the
/// writer at any instant — that is the point of the exercise).
void write_file_atomic(const std::string& path, BinaryWriter&& w) {
  w.u64(fnv1a(w.buffer().substr(0, w.size())));
  const std::string body = std::move(w).take();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return;  // best effort: a failed checkpoint is a skipped one
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out.good()) return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

/// Reads a sealed blob; empty string when missing, truncated or corrupted.
[[nodiscard]] std::string read_file_checked(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string body = buffer.str();
  if (body.size() < 8) return {};
  BinaryReader trailer(std::string_view(body).substr(body.size() - 8));
  if (trailer.u64() != fnv1a(std::string_view(body).substr(0, body.size() - 8))) return {};
  body.resize(body.size() - 8);
  return body;
}

[[nodiscard]] std::string ckpt_path(const std::string& dir, std::uint32_t shard) {
  return dir + "/ckpt_shard" + std::to_string(shard) + ".bin";
}

[[nodiscard]] std::string result_path(const std::string& dir, std::uint32_t shard) {
  return dir + "/result_shard" + std::to_string(shard) + ".bin";
}

using LinkKey = std::pair<net::NodeId, net::NodeId>;  // directed (from, to)

/// The result blob's one field list: a shard's write_result fills `report`
/// and writes it, the parent's parse_result reads it back. Reading checks
/// the magic, version, shard index (preset in report.shard) and shard count.
template <class IO>
void transfer_result(IO& io, ShardReport& report, std::size_t num_shards) {
  if (!io.tag(kResultMagic)) throw BinioError("not a shard result");
  io.expect(kNetFileVersion, "shard result version");
  io.expect(report.shard, "shard result of another shard");
  io.u32(report.epoch);
  io.u64(report.steps_completed);
  io.u64(report.restored_from_step);
  io.u64(report.datagrams_sent);
  io.u64(report.frames_rejected);
  io.u64(report.heartbeats_sent);
  io.u64(report.detector_downs);
  io.u64(report.detector_ups);
  io.u64(report.mailbox_blocked_pushes);
  io.u64(report.mailbox_high_watermark);
  io.expect(std::uint64_t{num_shards}, "shard result shard count");
  report.rx_from.resize(num_shards);
  for (LinkCounters& link : report.rx_from) {
    io.u64(link.received);
    io.u64(link.lost);
    io.u64(link.duplicated);
    io.u64(link.reordered);
  }
  std::size_t locals = report.nodes.size();
  io.size(locals, 4);
  report.nodes.resize(locals);
  report.estimates.resize(locals);
  report.masses.resize(locals);
  for (std::size_t k = 0; k < locals; ++k) {
    io.u32(report.nodes[k]);
    io.f64(report.estimates[k]);
    core::transfer_mass(io, report.masses[k]);
  }
}

/// One shard incarnation: the child-process side of the runtime. Constructed
/// after fork() from the inherited parent image (topology, masses, ports and
/// the shard's own bound socket all arrive by inheritance — nothing is
/// re-serialized across the fork).
class ShardProcess {
 public:
  ShardProcess(const net::Topology& topology, const SocketRuntimeConfig& config,
               std::span<const core::Mass> initial, std::span<const std::uint16_t> ports,
               const UdpSocket& socket, std::uint32_t shard, std::uint32_t epoch)
      : topology_(topology),
        config_(config),
        ports_(ports),
        socket_(socket),
        shard_(shard),
        epoch_(epoch),
        num_shards_(static_cast<std::uint32_t>(config.num_shards)),
        fleet_(config.algorithm, config.reducer, topology, initial),
        shard_down_(config.num_shards, false),
        last_heard_(config.num_shards),
        peer_done_(config.num_shards),
        peer_epoch_(config.num_shards, 0),
        rx_from_(config.num_shards) {
    const Rng base(config_.seed);
    for (net::NodeId i = shard_; i < topology_.size(); i += num_shards_) {
      local_nodes_.push_back(i);
      rngs_.push_back(base.fork(i));
      mailboxes_.push_back(std::make_unique<Mailbox>(config_.mailbox_capacity));
    }
  }

  int run() {
    std::uint64_t start_step = 0;
    if (epoch_ > 0 && config_.checkpoint_every_steps > 0) {
      start_step = try_restore();
    }
    const std::int64_t started = now_ms();
    for (auto& heard : last_heard_) heard.store(started, std::memory_order_relaxed);

    std::thread rx([this] { rx_loop(); });

    std::int64_t next_heartbeat = started;
    core::LocalStop quiet(local_nodes_.size(), kQuietRelTol, kQuietPatience);
    const std::uint64_t step_cap = config_.steps_per_node * kMaxBudgetFactor;
    std::uint64_t step = start_step;
    while (step < step_cap && !(done_ && peers_done())) {
      for (std::size_t k = 0; k < local_nodes_.size(); ++k) drain_into(k);
      for (std::size_t k = 0; k < local_nodes_.size(); ++k) {
        auto out = fleet_.make_message(local_nodes_[k], rngs_[k]);
        if (!out) continue;
        send_packet(local_nodes_[k], out->to, out->packet);
      }
      next_heartbeat = heartbeat_and_detect(next_heartbeat);
      ++step;
      if (config_.checkpoint_every_steps > 0 && step % config_.checkpoint_every_steps == 0) {
        write_checkpoint(step);
      }
      for (std::size_t k = 0; k < local_nodes_.size(); ++k) {
        (void)quiet.observe(k, fleet_.estimate(local_nodes_[k]));
      }
      done_ = step >= config_.steps_per_node && quiet.all_converged();
      if (config_.step_pacing_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(config_.step_pacing_us));
      }
    }
    done_ = true;  // the computation is frozen from here on, however the loop ended
    if (config_.checkpoint_every_steps > 0) write_checkpoint(step);

    // Receive-only linger: keep folding in late traffic and beaconing so
    // slower peers (a restarted shard redoing steps) still have a live
    // counterparty. The detector sweep stops here deliberately: this shard's
    // computation is frozen, and excluding a peer that merely finished its
    // own linger and exited would fold flows into the final answer for no
    // benefit — exclusion only exists to serve an ONGOING computation.
    // The linger also outlasts any peer still gossiping: going silent under
    // it would trip its detector and exclude this shard mid-computation.
    const std::int64_t linger_end = now_ms() + config_.linger_ms;
    while (now_ms() < linger_end || !peers_done_or_silent()) {
      for (std::size_t k = 0; k < local_nodes_.size(); ++k) drain_into(k);
      next_heartbeat = heartbeat_and_detect(next_heartbeat, /*sweep_detector=*/false);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    stop_.store(true, std::memory_order_release);
    for (auto& box : mailboxes_) box->shutdown();
    rx.join();
    for (std::size_t k = 0; k < local_nodes_.size(); ++k) drain_into(k);

    write_result(start_step, step);
    return 0;
  }

 private:
  [[nodiscard]] std::size_t local_index(net::NodeId node) const noexcept {
    return node / num_shards_;
  }

  /// Every peer shard is done or currently declared down.
  [[nodiscard]] bool peers_done() const {
    for (std::uint32_t p = 0; p < num_shards_; ++p) {
      if (p == shard_ || shard_down_[p]) continue;
      if (!peer_done_[p].load(std::memory_order_relaxed)) return false;
    }
    return true;
  }

  /// peers_done() for the linger, where the detector no longer sweeps: a
  /// peer silent past the timeout counts as gone.
  [[nodiscard]] bool peers_done_or_silent() const {
    const std::int64_t now = now_ms();
    for (std::uint32_t p = 0; p < num_shards_; ++p) {
      if (p == shard_ || peer_done_[p].load(std::memory_order_relaxed)) continue;
      if (now - last_heard_[p].load(std::memory_order_relaxed) <= config_.heartbeat_timeout_ms) {
        return false;
      }
    }
    return true;
  }

  void drain_into(std::size_t k) {
    for (auto& env : mailboxes_[k]->drain()) {
      fleet_.receive(local_nodes_[k], env.from, env.packet);
    }
  }

  void send_packet(net::NodeId from, net::NodeId to, const core::Packet& packet) {
    const auto dest_shard = static_cast<std::uint32_t>(to % num_shards_);
    if (dest_shard == shard_) {
      // Same-process link: direct delivery (trivially FIFO, never lossy).
      fleet_.receive(to, from, packet);
      return;
    }
    net::DataFrame frame;
    frame.from = from;
    frame.to = to;
    frame.seq = ++tx_seq_[{from, to}];
    frame.packet = packet;
    socket_.send_to(ports_[dest_shard], net::encode_frame(frame));
    ++sent_;  // counted sent even if the kernel refused: the receiver's gap
              // accounting is the single source of truth for loss
  }

  /// Sends due heartbeats and (while the computation is live) sweeps the
  /// failure detector; returns the next heartbeat deadline.
  std::int64_t heartbeat_and_detect(std::int64_t next_heartbeat, bool sweep_detector = true) {
    const std::int64_t now = now_ms();
    if (now >= next_heartbeat) {
      net::HeartbeatFrame beacon;
      beacon.shard = shard_;
      beacon.epoch = epoch_;
      beacon.seq = ++heartbeat_seq_;
      beacon.done = done_;
      const std::string bytes = net::encode_frame(beacon);
      for (std::uint32_t p = 0; p < num_shards_; ++p) {
        if (p == shard_) continue;
        socket_.send_to(ports_[p], bytes);
        ++heartbeats_sent_;
      }
      next_heartbeat = now + config_.heartbeat_period_ms;
    }
    if (!sweep_detector) return next_heartbeat;

    for (std::uint32_t p = 0; p < num_shards_; ++p) {
      if (p == shard_) continue;
      const std::int64_t age = now - last_heard_[p].load(std::memory_order_relaxed);
      if (!shard_down_[p] && age > config_.heartbeat_timeout_ms) {
        shard_down_[p] = true;
        ++detector_downs_;
        notify_links(p, /*up=*/false);
      } else if (shard_down_[p] && age <= config_.heartbeat_timeout_ms) {
        shard_down_[p] = false;
        ++detector_ups_;
        notify_links(p, /*up=*/true);
      }
    }
    return next_heartbeat;
  }

  /// Reports every cross-shard edge into peer shard `p` down or up.
  void notify_links(std::uint32_t p, bool up) {
    for (std::size_t k = 0; k < local_nodes_.size(); ++k) {
      for (const net::NodeId j : topology_.neighbors(local_nodes_[k])) {
        if (j % num_shards_ != p) continue;
        if (up) {
          fleet_.link_up(local_nodes_[k], j);
        } else {
          fleet_.link_down(local_nodes_[k], j);
        }
      }
    }
  }

  // ---- receive thread ---------------------------------------------------

  void rx_loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      auto datagram = socket_.receive(20);
      if (!datagram) continue;
      net::Frame frame;
      try {
        frame = net::decode_frame(*datagram);
      } catch (const net::TransportError&) {
        ++rejected_;
        continue;
      }
      if (frame.kind == net::FrameKind::kHeartbeat) {
        on_heartbeat(frame.heartbeat);
      } else {
        on_data(frame.data);
      }
    }
  }

  void on_heartbeat(const net::HeartbeatFrame& beacon) {
    if (beacon.shard >= num_shards_ || beacon.shard == shard_) {
      ++rejected_;  // stray or self-addressed beacon
      return;
    }
    {
      MutexLock lock(rx_mutex_);
      auto& known_epoch = peer_epoch_[beacon.shard];
      if (beacon.epoch < known_epoch) return;  // pre-restart straggler
      if (beacon.epoch > known_epoch) {
        // The peer was reborn from a checkpoint: its sequence counters
        // rewound, so expectations for its links must reset — the first
        // frame of the new life is accepted without gap accounting.
        known_epoch = beacon.epoch;
        for (auto it = rx_seq_.begin(); it != rx_seq_.end();) {
          if (it->first.first % num_shards_ == beacon.shard) {
            it = rx_seq_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    last_heard_[beacon.shard].store(now_ms(), std::memory_order_relaxed);
    peer_done_[beacon.shard].store(beacon.done, std::memory_order_relaxed);
  }

  void on_data(const net::DataFrame& frame) {
    if (frame.from >= topology_.size() || frame.to >= topology_.size() ||
        frame.to % num_shards_ != shard_ || !topology_.has_edge(frame.from, frame.to)) {
      ++rejected_;  // stray datagram from a stale run on a reused port
      return;
    }
    const auto from_shard = static_cast<std::uint32_t>(frame.from % num_shards_);
    last_heard_[from_shard].store(now_ms(), std::memory_order_relaxed);

    {
      MutexLock lock(rx_mutex_);
      LinkCounters& link = rx_from_[from_shard];
      const auto [it, fresh_link] = rx_seq_.try_emplace(LinkKey{frame.from, frame.to}, 0);
      if (!fresh_link) {
        if (frame.seq == it->second) {
          ++link.duplicated;
          return;
        }
        if (frame.seq < it->second) {
          ++link.reordered;
          return;
        }
        link.lost += frame.seq - it->second - 1;  // the measured quantity
      }
      it->second = frame.seq;
      ++link.received;
    }

    // Blocking push: when the owner lags, the RX thread stalls here, the
    // kernel buffer fills and further datagrams become measured loss.
    (void)mailboxes_[local_index(frame.to)]->push({frame.from, frame.packet});
  }

  // ---- checkpoint / restore / result ------------------------------------

  /// The shard checkpoint's one field list. Reading checks the magic,
  /// version, shard and node ids against this incarnation (BinioError).
  template <class IO>
  void transfer_checkpoint(IO& io, std::uint64_t& next_step) {
    if (!io.tag(kCkptMagic)) throw BinioError("not a shard checkpoint");
    io.expect(kNetFileVersion, "shard checkpoint version");
    io.expect(shard_, "shard checkpoint of another shard");
    std::uint32_t writer_epoch = epoch_;  // read back and superseded by this incarnation's
    io.u32(writer_epoch);
    io.u64(next_step);
    io.expect(std::uint64_t{local_nodes_.size()}, "shard checkpoint node count");
    for (std::size_t k = 0; k < local_nodes_.size(); ++k) {
      io.expect(local_nodes_[k], "shard checkpoint node id");
      Rng::transfer(io, rngs_[k]);
      io.nested([&](auto& state) {
        fleet_.transfer<core::protocol::PrefixedRows>(local_nodes_[k], state);
      });
    }
    const auto link_seq = [&](auto& entry) {
      io.node(entry.first.first, topology_.size());
      io.node(entry.first.second, topology_.size());
      io.u64(entry.second);
    };
    io.sequence(tx_seq_, 16, link_seq);
    // On restore this runs before the RX thread exists, but the lock keeps
    // the guarded-by contract compiler-checkable instead of special-cased.
    MutexLock lock(rx_mutex_);
    io.sequence(rx_seq_, 16, link_seq);
    for (auto& e : peer_epoch_) io.u32(e);
  }

  void write_checkpoint(std::uint64_t next_step) {
    BinaryWriter w;
    transfer_checkpoint(w, next_step);
    write_file_atomic(ckpt_path(config_.run_dir, shard_), std::move(w));
  }

  /// Restores the previous incarnation's checkpoint; returns the step to
  /// resume from (0 = nothing usable, start fresh — which IS the degraded
  /// restore semantics, not an error: the run continues from initial state
  /// and the accuracy impact is measured like any other fault).
  [[nodiscard]] std::uint64_t try_restore() {
    const std::string body = read_file_checked(ckpt_path(config_.run_dir, shard_));
    if (body.empty()) return 0;
    try {
      BinaryReader r(body);
      std::uint64_t next_step = 0;
      transfer_checkpoint(r, next_step);
      r.expect_end();
      return next_step;
    } catch (const BinioError&) {
      return 0;  // torn or stale checkpoint: start fresh
    }
  }

  void write_result(std::uint64_t restored_from, std::uint64_t steps_completed) {
    ShardReport report;
    report.shard = shard_;
    report.epoch = epoch_;
    report.steps_completed = steps_completed;
    report.restored_from_step = restored_from;
    report.datagrams_sent = sent_;
    report.frames_rejected = rejected_;
    report.heartbeats_sent = heartbeats_sent_;
    report.detector_downs = detector_downs_;
    report.detector_ups = detector_ups_;
    for (const auto& box : mailboxes_) {
      const Mailbox::Stats s = box->stats();
      report.mailbox_blocked_pushes += s.blocked_pushes;
      report.mailbox_high_watermark = std::max(report.mailbox_high_watermark, s.high_watermark);
    }
    {
      // The RX thread has joined by the time results are written; locking
      // anyway keeps the access pattern uniform for the analysis.
      MutexLock lock(rx_mutex_);
      report.rx_from = rx_from_;
    }
    report.nodes = local_nodes_;
    for (const net::NodeId i : local_nodes_) {
      report.estimates.push_back(fleet_.estimate(i));
      report.masses.push_back(fleet_.local_mass(i));
    }
    BinaryWriter w;
    transfer_result(w, report, num_shards_);
    write_file_atomic(result_path(config_.run_dir, shard_), std::move(w));
  }

  const net::Topology& topology_;
  const SocketRuntimeConfig& config_;
  std::span<const std::uint16_t> ports_;
  const UdpSocket& socket_;
  const std::uint32_t shard_;
  const std::uint32_t epoch_;
  const std::uint32_t num_shards_;

  /// The node state of the whole topology; this shard runs only its own
  /// nodes' rows.
  core::ArenaFleet fleet_;
  std::vector<net::NodeId> local_nodes_;
  std::vector<Rng> rngs_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Main-thread state.
  std::map<LinkKey, std::uint64_t> tx_seq_;
  std::vector<bool> shard_down_;
  std::uint64_t sent_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t detector_downs_ = 0;
  std::uint64_t detector_ups_ = 0;
  bool done_ = false;  ///< this shard's stopping criterion holds (beaconed)

  // Shared with the receive thread.
  std::atomic<bool> stop_{false};
  std::vector<std::atomic<std::int64_t>> last_heard_;
  std::vector<std::atomic<bool>> peer_done_;  ///< latest beacon flag per peer
  Mutex rx_mutex_;
  std::map<LinkKey, std::uint64_t> rx_seq_ PCF_GUARDED_BY(rx_mutex_);
  std::vector<std::uint32_t> peer_epoch_ PCF_GUARDED_BY(rx_mutex_);
  std::vector<LinkCounters> rx_from_ PCF_GUARDED_BY(rx_mutex_);
  std::atomic<std::uint64_t> rejected_{0};
};

/// Parses one shard's sealed result blob into `report`; false on any defect.
bool parse_result(const std::string& dir, std::uint32_t shard, std::size_t num_shards,
                  ShardReport& report) {
  const std::string body = read_file_checked(result_path(dir, shard));
  if (body.empty()) return false;
  try {
    BinaryReader r(body);
    report.shard = shard;
    transfer_result(r, report, num_shards);
    r.expect_end();
    report.produced = true;
    return true;
  } catch (const BinioError&) {
    return false;
  }
}

}  // namespace

LinkCounters ShardReport::rx_total() const noexcept {
  LinkCounters total;
  for (const LinkCounters& link : rx_from) {
    total.received += link.received;
    total.lost += link.lost;
    total.duplicated += link.duplicated;
    total.reordered += link.reordered;
  }
  return total;
}

LinkCounters SocketTrialReport::rx_total() const noexcept {
  LinkCounters total;
  for (const ShardReport& s : shards) {
    const LinkCounters t = s.rx_total();
    total.received += t.received;
    total.lost += t.lost;
    total.duplicated += t.duplicated;
    total.reordered += t.reordered;
  }
  return total;
}

std::uint64_t SocketTrialReport::datagrams_sent() const noexcept {
  std::uint64_t total = 0;
  for (const ShardReport& s : shards) total += s.datagrams_sent;
  return total;
}

double SocketTrialReport::measured_loss_rate() const noexcept {
  const LinkCounters t = rx_total();
  const std::uint64_t denom = t.received + t.lost;
  return denom == 0 ? 0.0 : static_cast<double>(t.lost) / static_cast<double>(denom);
}

double SocketTrialReport::measured_duplicate_rate() const noexcept {
  const LinkCounters t = rx_total();
  const std::uint64_t denom = t.received + t.lost;
  return denom == 0 ? 0.0 : static_cast<double>(t.duplicated) / static_cast<double>(denom);
}

double SocketTrialReport::measured_reorder_rate() const noexcept {
  const LinkCounters t = rx_total();
  const std::uint64_t denom = t.received + t.lost;
  return denom == 0 ? 0.0 : static_cast<double>(t.reordered) / static_cast<double>(denom);
}

std::vector<double> SocketTrialReport::estimates_by_node(std::size_t num_nodes) const {
  std::vector<double> out(num_nodes, std::numeric_limits<double>::quiet_NaN());
  for (const ShardReport& s : shards) {
    if (!s.produced) continue;
    for (std::size_t k = 0; k < s.nodes.size(); ++k) {
      if (s.nodes[k] < num_nodes) out[s.nodes[k]] = s.estimates[k];
    }
  }
  return out;
}

SocketRuntime::SocketRuntime(net::Topology topology, std::span<const core::Mass> initial,
                             SocketRuntimeConfig config)
    : topology_(std::move(topology)), config_(std::move(config)) {
  PCF_CHECK_MSG(initial.size() == topology_.size(), "one initial mass per node required");
  PCF_CHECK_MSG(config_.num_shards >= 1 && config_.num_shards <= topology_.size(),
                "socket runtime wants 1 <= num_shards <= nodes");
  PCF_CHECK_MSG(!config_.run_dir.empty(), "socket runtime needs a run_dir");
  initial_.assign(initial.begin(), initial.end());
}

int SocketRuntime::child_main(std::uint32_t shard, std::uint32_t epoch) {
  try {
    ShardProcess process(topology_, config_, initial_, ports_, sockets_[shard], shard, epoch);
    return process.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcflow-shard[%u]: %s\n", shard, e.what());
    return 3;
  } catch (...) {
    return 3;
  }
}

SocketTrialReport SocketRuntime::run(const ChaosPlan& chaos) {
  PCF_CHECK_MSG(!ran_, "SocketRuntime::run may only be called once");
  ran_ = true;

  std::filesystem::create_directories(config_.run_dir);
  const auto num_shards = config_.num_shards;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    std::error_code ec;
    std::filesystem::remove(ckpt_path(config_.run_dir, s), ec);
    std::filesystem::remove(result_path(config_.run_dir, s), ec);
  }

  // Bind every shard socket BEFORE any fork: children inherit the full port
  // map, and a restarted child reuses the very same socket.
  sockets_.reserve(num_shards);
  ports_.clear();
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    sockets_.push_back(
        UdpSocket::bind_loopback(0, config_.socket_recv_buffer, config_.bind_attempts));
    ports_.push_back(sockets_.back().port());
  }

  SocketTrialReport report;
  report.shards.assign(num_shards, ShardReport{});
  for (std::uint32_t s = 0; s < num_shards; ++s) report.shards[s].shard = s;

  std::vector<pid_t> pids(num_shards, -1);
  std::vector<std::uint32_t> epochs(num_shards, 0);
  std::vector<std::size_t> shard_restarts(num_shards, 0);
  std::vector<bool> done(num_shards, false);
  std::vector<bool> failed(num_shards, false);

  const auto spawn = [&](std::uint32_t s) {
    const pid_t pid = ::fork();
    PCF_CHECK_MSG(pid >= 0, "socket runtime: fork failed");
    if (pid == 0) {
      ::_exit(child_main(s, epochs[s]));
    }
    pids[s] = pid;
  };
  for (std::uint32_t s = 0; s < num_shards; ++s) spawn(s);

  const std::int64_t started = now_ms();
  const std::int64_t deadline = started + config_.trial_timeout_ms;
  bool kill_fired = chaos.kill_shard < 0;
  bool stall_fired = chaos.stall_shard < 0;
  bool resume_fired = chaos.stall_shard < 0;

  std::size_t open = num_shards;
  while (open > 0 && now_ms() < deadline) {
    const std::int64_t elapsed = now_ms() - started;
    if (!kill_fired && elapsed >= chaos.kill_after_ms) {
      kill_fired = true;
      const auto s = static_cast<std::uint32_t>(chaos.kill_shard);
      if (s < num_shards && pids[s] > 0 && !done[s]) ::kill(pids[s], SIGKILL);
    }
    if (!stall_fired && elapsed >= chaos.stall_after_ms) {
      stall_fired = true;
      const auto s = static_cast<std::uint32_t>(chaos.stall_shard);
      if (s < num_shards && pids[s] > 0 && !done[s]) ::kill(pids[s], SIGSTOP);
    }
    if (!resume_fired && stall_fired && elapsed >= chaos.stall_after_ms + chaos.stall_ms) {
      resume_fired = true;
      const auto s = static_cast<std::uint32_t>(chaos.stall_shard);
      if (s < num_shards && pids[s] > 0 && !done[s]) ::kill(pids[s], SIGCONT);
    }

    bool reaped = false;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      if (done[s] || failed[s] || pids[s] <= 0) continue;
      int status = 0;
      const pid_t p = ::waitpid(pids[s], &status, WNOHANG);
      if (p != pids[s]) continue;
      reaped = true;
      if (WIFSIGNALED(status)) {
        // Real process death. Restart from the last checkpoint — or give the
        // shard up once the restart budget is burned.
        if (shard_restarts[s] < config_.max_restarts) {
          ++shard_restarts[s];
          ++report.restarts;
          ++epochs[s];
          spawn(s);
        } else {
          failed[s] = true;
          ++report.failures;
          --open;
        }
      } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        done[s] = true;
        --open;
      } else {
        failed[s] = true;  // voluntary nonzero exit: a bug, not a fault
        ++report.failures;
        --open;
      }
    }
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Deadline: whatever is still up gets killed and counted failed.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (done[s] || failed[s] || pids[s] <= 0) continue;
    ::kill(pids[s], SIGKILL);
    int status = 0;
    (void)::waitpid(pids[s], &status, 0);
    failed[s] = true;
    ++report.failures;
  }

  report.completed = true;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    report.shards[s].epoch = epochs[s];
    if (!parse_result(config_.run_dir, s, num_shards, report.shards[s])) {
      report.completed = false;
    }
  }
  return report;
}

}  // namespace pcf::runtime
