#include "runtime/threaded_runtime.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pcf::runtime {

namespace {
std::pair<net::NodeId, net::NodeId> norm_edge(net::NodeId a, net::NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

ThreadedRuntime::ThreadedRuntime(net::Topology topology,
                                 std::span<const core::Mass> initial, RuntimeConfig config)
    : topology_(std::move(topology)), config_(std::move(config)) {
  PCF_CHECK_MSG(initial.size() == topology_.size(), "one initial mass per node required");
  if (config_.num_threads == 0) {
    config_.num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  config_.num_threads = std::min(config_.num_threads, topology_.size());

  if (core::needs_tree_schedule(config_.algorithm) && !config_.reducer.tree) {
    config_.reducer.tree = std::make_shared<const net::TreeSchedule>(
        net::build_tree_schedule(topology_, config_.reducer.tree_kind));
  }

  fleet_ = std::make_unique<core::ArenaFleet>(config_.algorithm, config_.reducer, topology_,
                                              initial);
  const Rng base(config_.seed);
  for (net::NodeId i = 0; i < topology_.size(); ++i) {
    node_rngs_.push_back(base.fork(i));
    mailboxes_.push_back(std::make_unique<Mailbox>(config_.mailbox_capacity));
  }
  received_.assign(2 * topology_.edge_count(), 0);
  heard_at_send_.assign(2 * topology_.edge_count(), 0);
  shards_.resize(config_.num_threads);
  for (net::NodeId i = 0; i < topology_.size(); ++i) {
    shards_[i % config_.num_threads].push_back(i);
  }
}

void ThreadedRuntime::drain_node(net::NodeId i) {
  for (auto& env : mailboxes_[i]->drain()) {
    fleet_->receive(i, env.from, env.packet);
    ++received_[edge(i, env.from)];
    delivered_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadedRuntime::settle() {
  // Workers interleave freely, so the last exchange on an edge may have
  // crossed: each endpoint built its packet before the other's arrived. For
  // the flow algorithms that leaves the edge's two flows out of step (push-
  // flow: f_ij + f_ji = -(half of each sender's mass)) until the edge's next
  // packet, and total_mass() at the phase boundary would be off by that much.
  // One more packet from the lower endpoint, built after it has heard
  // everything, closes every such edge; receives never send, so one pass
  // suffices.
  for (net::NodeId i = 0; i < size(); ++i) {
    for (const net::NodeId j : topology_.neighbors(i)) {
      if (j < i || dead_links_.count(norm_edge(i, j)) != 0) continue;
      const std::size_t ij = edge(i, j);
      const std::size_t ji = edge(j, i);
      const bool crossed =
          heard_at_send_[ij] < received_[ij] && heard_at_send_[ji] < received_[ji];
      if (!crossed) continue;
      auto out = fleet_->make_message_to(i, j);
      if (!out) continue;
      heard_at_send_[ij] = received_[ij];
      fleet_->receive(j, i, out->packet);
      ++received_[ji];
      delivered_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ThreadedRuntime::deliver(std::size_t worker_index, net::NodeId to, Envelope envelope) {
  if (config_.mailbox_capacity == 0) {
    mailboxes_[to]->push(std::move(envelope));
    return;
  }
  // Bounded mode. A blocking push here can deadlock: the destination's owner
  // may already be parked at the step barrier (it will not drain again until
  // *this* worker arrives too). So: fail fast, make progress by draining our
  // own shard (frees peers blocked on us, models "receiver busy"), retry
  // once, and if the box is still full shed the packet — gossip reductions
  // treat that exactly like wire loss, and the drop is counted.
  if (mailboxes_[to]->try_push(envelope)) return;
  for (const net::NodeId n : shards_[worker_index]) drain_node(n);
  if (mailboxes_[to]->try_push(std::move(envelope))) return;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedRuntime::worker(std::size_t worker_index, std::size_t steps_per_node,
                             std::barrier<>& step_barrier) {
  // Workers only ever mutate their own shard's nodes; cross-thread
  // interaction is exclusively via mailboxes. The per-step barrier makes
  // gossip steps globally interleave: without it, an OS that runs threads to
  // completion (e.g. a single-core box) would let one worker fire its entire
  // budget of sends before anyone replies — one giant burst instead of an
  // iterative exchange, and the computation barely mixes.
  for (std::size_t step = 0; step < steps_per_node; ++step) {
    for (const net::NodeId i : shards_[worker_index]) {
      drain_node(i);
      auto out = fleet_->make_message(i, node_rngs_[i]);
      if (!out) continue;
      if (dead_links_.count(norm_edge(i, out->to)) != 0) continue;  // cable cut
      const std::size_t e = edge(i, out->to);
      heard_at_send_[e] = received_[e];
      deliver(worker_index, out->to, {i, std::move(out->packet)});
    }
    step_barrier.arrive_and_wait();
  }
}

void ThreadedRuntime::run(std::size_t steps_per_node) {
  apply_pending_faults();  // events queued while idle take effect before step 0
  {
    const auto timer = perf_.time(PerfCounters::Phase::kRun);
    workers_active_.store(true, std::memory_order_release);
    std::barrier step_barrier(static_cast<std::ptrdiff_t>(config_.num_threads));
    std::vector<std::thread> workers;
    workers.reserve(config_.num_threads);
    for (std::size_t w = 0; w < config_.num_threads; ++w) {
      workers.emplace_back(
          [this, w, steps_per_node, &step_barrier] { worker(w, steps_per_node, step_barrier); });
    }
    for (auto& t : workers) t.join();
    workers_active_.store(false, std::memory_order_release);
  }
  // Quiesce: receives never generate packets, so one drain pass empties all
  // in-flight traffic.
  {
    const auto timer = perf_.time(PerfCounters::Phase::kDrain);
    for (net::NodeId i = 0; i < size(); ++i) drain_node(i);
    settle();
  }
  apply_pending_faults();  // events queued mid-phase land at this boundary
  perf_.rounds += steps_per_node;
  perf_.deliveries = delivered_.load(std::memory_order_relaxed);
  perf_.mailbox_dropped = dropped_.load(std::memory_order_relaxed);
  std::uint64_t blocked = 0;
  std::uint64_t rejected = 0;
  std::uint64_t watermark = 0;
  for (const auto& box : mailboxes_) {
    const Mailbox::Stats s = box->stats();
    blocked += s.blocked_pushes;
    rejected += s.rejected_pushes;
    watermark = std::max(watermark, s.high_watermark);
  }
  perf_.mailbox_blocked_pushes = blocked;
  perf_.mailbox_rejected_pushes = rejected;
  perf_.mailbox_high_watermark = watermark;
}

void ThreadedRuntime::queue_fault(net::NodeId a, net::NodeId b, bool heal) {
  // Validate eagerly so a bad edge surfaces at the call site, not at the next
  // phase boundary where the caller's stack is long gone.
  PCF_CHECK_MSG(topology_.has_edge(a, b), "queue_fault: no such link");
  MutexLock lock(pending_faults_mutex_);
  pending_faults_.push_back({a, b, heal});
}

std::size_t ThreadedRuntime::pending_faults() const {
  MutexLock lock(pending_faults_mutex_);
  return pending_faults_.size();
}

void ThreadedRuntime::apply_pending_faults() {
  std::vector<QueuedFault> events;
  {
    MutexLock lock(pending_faults_mutex_);
    events.swap(pending_faults_);
  }
  // Workers are not active at either call site, so the immediate APIs'
  // phase-boundary guard passes; redundant events are no-ops there already.
  for (const QueuedFault& e : events) {
    if (e.heal) {
      heal_link(e.a, e.b);
    } else {
      fail_link(e.a, e.b);
    }
  }
}

void ThreadedRuntime::fail_link(net::NodeId a, net::NodeId b) {
  // Workers read dead_links_ lock-free; mutating it mid-phase would be a data
  // race (and was, before this guard — found by tsan on the bench harness).
  PCF_CHECK_MSG(!workers_active(), "fail_link while a run() phase is active");
  PCF_CHECK_MSG(topology_.has_edge(a, b), "fail_link: no such link");
  if (!dead_links_.insert(norm_edge(a, b)).second) return;
  fleet_->link_down(a, b);
  fleet_->link_down(b, a);
}

void ThreadedRuntime::heal_link(net::NodeId a, net::NodeId b) {
  // Same contract as fail_link: dead_links_ is read lock-free by workers.
  PCF_CHECK_MSG(!workers_active(), "heal_link while a run() phase is active");
  PCF_CHECK_MSG(topology_.has_edge(a, b), "heal_link: no such link");
  if (dead_links_.erase(norm_edge(a, b)) == 0) return;
  fleet_->link_up(a, b);
  fleet_->link_up(b, a);
}

std::vector<double> ThreadedRuntime::estimates(std::size_t k) const {
  std::vector<double> out;
  out.reserve(size());
  for (net::NodeId i = 0; i < size(); ++i) out.push_back(fleet_->estimate(i, k));
  return out;
}

core::Mass ThreadedRuntime::total_mass() const {
  PCF_CHECK_MSG(size() != 0, "total_mass on an empty runtime");
  core::Mass total = fleet_->local_mass(0);
  for (net::NodeId i = 1; i < size(); ++i) total += fleet_->local_mass(i);
  return total;
}

}  // namespace pcf::runtime
