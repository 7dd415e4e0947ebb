#include "runtime/threaded_runtime.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pcf::runtime {

ThreadedRuntime::ThreadedRuntime(net::Topology topology,
                                 std::span<const core::Mass> initial, RuntimeConfig config)
    : topology_(std::move(topology)), config_(std::move(config)) {
  PCF_CHECK_MSG(initial.size() == topology_.size(), "one initial mass per node required");
  if (config_.num_threads == 0) {
    config_.num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  config_.num_threads = std::min(config_.num_threads, topology_.size());

  fleet_ = std::make_unique<core::ArenaFleet>(config_.algorithm, config_.reducer, topology_,
                                              initial);
  const Rng base(config_.seed);
  for (net::NodeId i = 0; i < topology_.size(); ++i) {
    node_rngs_.push_back(base.fork(i));
    mailboxes_.push_back(std::make_unique<Mailbox>());
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
  // suffices. A failed link gets no packet: make_message_to refuses it.
  for (net::NodeId i = 0; i < size(); ++i) {
    for (const net::NodeId j : topology_.neighbors(i)) {
      if (j < i) continue;
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
      const std::size_t e = edge(i, out->to);
      heard_at_send_[e] = received_[e];
      mailboxes_[out->to]->push({i, std::move(out->packet)});
    }
    step_barrier.arrive_and_wait();
  }
}

void ThreadedRuntime::run(std::size_t steps_per_node) {
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
  // Quiesce: receives never generate packets, so one drain pass empties all
  // in-flight traffic.
  for (net::NodeId i = 0; i < size(); ++i) drain_node(i);
  settle();
}

void ThreadedRuntime::fail_link(net::NodeId a, net::NodeId b) {
  // Workers read link liveness from the fleet lock-free; changing it
  // mid-phase would be a data race (and was, before this guard — found by
  // tsan on the bench harness). The fleet ignores a second link_down.
  PCF_CHECK_MSG(!workers_active(), "fail_link while a run() phase is active");
  PCF_CHECK_MSG(topology_.has_edge(a, b), "fail_link: no such link");
  fleet_->link_down(a, b);
  fleet_->link_down(b, a);
}

void ThreadedRuntime::heal_link(net::NodeId a, net::NodeId b) {
  // Same contract as fail_link. The fleet ignores link_up on a live link.
  PCF_CHECK_MSG(!workers_active(), "heal_link while a run() phase is active");
  PCF_CHECK_MSG(topology_.has_edge(a, b), "heal_link: no such link");
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
