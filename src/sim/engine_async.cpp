#include "sim/engine_async.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pcf::sim {

namespace {
std::pair<NodeId, NodeId> norm_edge(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

/// Read-only adapter the invariant checkers observe the engine through.
struct AsyncEngine::View final : SystemView {
  explicit View(const AsyncEngine& e) : engine(e) {}
  [[nodiscard]] const net::Topology& topology() const override { return engine.topology_; }
  [[nodiscard]] const core::ArenaFleet& fleet() const override { return *engine.fleet_; }
  [[nodiscard]] double time() const override { return engine.now_; }
  [[nodiscard]] bool alive(NodeId i) const override { return engine.alive_.at(i); }
  [[nodiscard]] bool link_dead(NodeId a, NodeId b) const override {
    return engine.dead_links_.count(norm_edge(a, b)) != 0;
  }
  [[nodiscard]] const Oracle& oracle() const override { return engine.oracle_; }
  [[nodiscard]] FaultExposure faults() const override {
    const FaultPlan& plan = engine.config_.faults;
    FaultExposure f;
    f.in_flight = true;  // an asynchronous network always has packets in transit
    f.lossy_env = plan.message_loss_prob > 0.0 || plan.bit_flip_prob > 0.0 ||
                  plan.state_flip_prob > 0.0;
    f.any_bit_flips = plan.bit_flip_any_bit && plan.bit_flip_prob > 0.0;
    f.crash_settling = engine.pending_retarget_;
    f.link_failures = engine.link_failures_fired_;
    f.crashes = engine.crashes_fired_;
    f.data_updates = engine.data_updates_fired_;
    f.link_heals = engine.link_heals_fired_;
    f.rejoins = engine.rejoins_fired_;
    f.false_detects = engine.false_detects_fired_;
    f.false_clears = engine.false_clears_fired_;
    f.messages_duplicated = engine.duplicates_injected_;
    f.pending_up_notices = engine.pending_up_notices_;
    return f;
  }
  const AsyncEngine& engine;
};

void AsyncEngine::check_invariants_now() {
  if (!monitor_) return;
  const View view(*this);
  monitor_->check(view);
}

FaultExposure AsyncEngine::fault_exposure() const { return View(*this).faults(); }

AsyncEngine::AsyncEngine(net::Topology topology, std::span<const core::Mass> initial,
                         AsyncEngineConfig config)
    : topology_(std::move(topology)),
      config_(std::move(config)),
      net_rng_(Rng(config_.seed).fork(topology_.size() + 7)),
      oracle_(initial),
      initial_(initial.begin(), initial.end()) {
  PCF_CHECK_MSG(initial.size() == topology_.size(), "one initial mass per node required");
  PCF_CHECK_MSG(config_.tick_rate > 0.0, "tick_rate must be positive");
  PCF_CHECK_MSG(config_.latency_min >= 0.0 && config_.latency_max >= config_.latency_min,
                "bad latency range");

  fleet_ = std::make_unique<core::ArenaFleet>(config_.algorithm, config_.reducer, topology_,
                                              initial);
  const Rng base(config_.seed);
  node_rngs_.reserve(topology_.size());
  for (NodeId i = 0; i < topology_.size(); ++i) node_rngs_.push_back(base.fork(i));
  alive_.assign(topology_.size(), true);
  last_arrival_.assign(2 * topology_.edge_count(), 0.0);
  // Room for one tick per node and as many events again (deliveries in
  // flight, fault events), so the slab rarely grows during a run.
  events_.reserve(2 * topology_.size());
  payloads_.reserve(2 * topology_.size());
  for (NodeId i = 0; i < topology_.size(); ++i) schedule_tick(i);
  for (const auto& f : config_.faults.link_failures) {
    PCF_CHECK_MSG(topology_.has_edge(f.a, f.b), "fault plan: unknown link");
    push(f.time, {Event::Kind::kLinkFailure, f.a, f.b});
  }
  for (const auto& c : config_.faults.node_crashes) {
    PCF_CHECK_MSG(c.node < topology_.size(), "fault plan: crash node out of range");
    push(c.time, {Event::Kind::kCrash, c.node});
  }
  for (const auto& u : config_.faults.data_updates) {
    PCF_CHECK_MSG(u.node < topology_.size(), "fault plan: data update node out of range");
    core::Packet carrier;
    carrier.a = u.delta;  // carry the delta in the payload slot
    push(u.time, {Event::Kind::kDataUpdate, u.node}, carrier);
  }
  for (const auto& h : config_.faults.link_heals) {
    PCF_CHECK_MSG(topology_.has_edge(h.a, h.b), "fault plan: heal for unknown link");
    push(h.time, {Event::Kind::kLinkHeal, h.a, h.b});
  }
  for (const auto& r : config_.faults.node_rejoins) {
    PCF_CHECK_MSG(r.node < topology_.size(), "fault plan: rejoin node out of range");
    push(r.time, {Event::Kind::kRejoin, r.node});
  }
  for (const auto& d : config_.faults.false_detects) {
    PCF_CHECK_MSG(topology_.has_edge(d.a, d.b), "fault plan: false detect on unknown link");
    PCF_CHECK_MSG(d.clear_delay >= 0.0, "fault plan: negative false-detect clear delay");
    push(d.time,
         {.kind = Event::Kind::kFalseDetect, .a = d.a, .b = d.b, .aux = d.clear_delay});
  }
  // Churn: every link carries an independent Exp(churn_fail_prob) failure
  // clock. A fired clock that finds its link already dead ends the chain;
  // the heal (or rejoin) that revives the link starts a fresh one.
  if (config_.faults.churn_fail_prob > 0.0) {
    for (const auto& [a, b] : topology_.edges()) {
      push(net_rng_.exponential(config_.faults.churn_fail_prob), {Event::Kind::kChurnFail, a, b});
    }
  }

  if (config_.invariants.resolve_enabled()) {
    monitor_ = std::make_unique<InvariantMonitor>(config_.invariants);
    monitor_->install_default_checkers();
  }
}

std::uint32_t AsyncEngine::push(double time, Event event) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    if (events_.size() == events_.capacity()) ++slab_growths_;
    slot = static_cast<std::uint32_t>(events_.size());
    events_.push_back(event);
    payloads_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    events_[slot] = event;
  }
  queue_.push({time, seq_++, slot});
  return slot;
}

void AsyncEngine::push(double time, Event event, const core::Packet& packet) {
  const std::uint32_t slot = push(time, event);
  payloads_[slot] = packet;
}

void AsyncEngine::schedule_tick(NodeId node) {
  const double dt = node_rngs_[node].exponential(config_.tick_rate);
  push(now_ + dt, {Event::Kind::kTick, node});
}

void AsyncEngine::fail_link(NodeId a, NodeId b, bool independent) {
  const auto edge = norm_edge(a, b);
  if (!dead_links_.insert(edge).second) return;
  if (independent) cut_links_.insert(edge);
  falsely_excluded_.erase(edge);  // a real failure supersedes a false positive
  const double due = now_ + config_.faults.detection_delay;
  push(due, {Event::Kind::kDetect, a, b});
  push(due, {Event::Kind::kDetect, b, a});
  pending_detects_ += 2;
  // Churn heal: independent failures between live nodes come back after an
  // exponentially distributed outage. Crash-induced failures are owned by the
  // rejoin event instead.
  if (independent && config_.faults.churn_heal_rate > 0.0 && alive_[a] && alive_[b]) {
    push(now_ + net_rng_.exponential(config_.faults.churn_heal_rate),
         {Event::Kind::kLinkHeal, a, b});
  }
}

bool AsyncEngine::revive_link(NodeId a, NodeId b) {
  const auto edge = norm_edge(a, b);
  if (dead_links_.erase(edge) == 0) return false;
  cut_links_.erase(edge);
  ++link_heals_fired_;
  // Packets queued while the cable was cut were physically lost; remember the
  // heal epoch so kDelivery (and the in-flight mass snapshot) drop them.
  heal_seq_[edge] = seq_;
  const double due = now_ + config_.faults.detection_delay;
  push(due, {Event::Kind::kDetectUp, a, b});
  push(due, {Event::Kind::kDetectUp, b, a});
  pending_up_notices_ += 2;
  if (config_.faults.churn_fail_prob > 0.0) {
    push(now_ + net_rng_.exponential(config_.faults.churn_fail_prob),
         {Event::Kind::kChurnFail, a, b});
  }
  return true;
}

void AsyncEngine::retarget_now() {
  std::vector<core::Mass> current;
  for (NodeId i = 0; i < size(); ++i) {
    if (alive_[i]) current.push_back(fleet_->local_mass(i));
  }
  core::visit(config_.algorithm, [&]<core::Algorithm A>() { append_in_flight_mass<A>(current); });
  oracle_.retarget(current);
}

bool AsyncEngine::stale_delivery(NodeId from, NodeId to, std::uint64_t seq) const {
  const auto it = heal_seq_.find(norm_edge(from, to));
  return it != heal_seq_.end() && seq < it->second;
}

template <core::Algorithm A>
void AsyncEngine::tick(NodeId i) {
  if (!alive_[i]) return;
  schedule_tick(i);
  const auto& plan = config_.faults;
  if (plan.state_flip_prob > 0.0 && net_rng_.chance(plan.state_flip_prob)) {
    // A memory soft error in the node's stored flows.
    (void)core::protocol::corrupt_stored_flow<A>(fleet_->rows<A>(i), net_rng_);
  }
  auto out = fleet_->make_message<A>(i, node_rngs_[i]);
  if (!out) return;
  const NodeId to = out->to;
  if (dead_links_.count(norm_edge(i, to)) != 0 || !alive_[to]) return;
  if (plan.message_loss_prob > 0.0 && net_rng_.chance(plan.message_loss_prob)) return;
  core::Packet& packet = out->packet;
  if (plan.bit_flip_prob > 0.0 && net_rng_.chance(plan.bit_flip_prob)) {
    flip_random_bit(packet, net_rng_, plan.bit_flip_any_bit);
  }
  double arrival = now_ + net_rng_.uniform(config_.latency_min, config_.latency_max);
  const bool reordered = plan.reorder_prob > 0.0 && net_rng_.chance(plan.reorder_prob);
  double* last = nullptr;  // this link's FIFO clamp, unless reordered
  if (reordered) {
    // Adversarial delivery: delay the packet past the FIFO clamp without
    // advancing it, so later sends on the link can legitimately overtake.
    arrival += net_rng_.uniform(0.0, plan.reorder_jitter);
  } else {
    // FIFO per directed link: never deliver before an earlier packet on
    // the same link (the tiny epsilon keeps arrivals strictly ordered).
    last = &last_arrival_[fleet_->edge_index(i, out->from_slot)];
    arrival = std::max(arrival, *last + 1e-9);
    *last = arrival;
  }
  ++perf_.messages_sent;
  perf_.doubles_on_wire += core::protocol::kWireMasses<A> * (packet.a.dim() + 1);
  const Event delivery{Event::Kind::kDelivery, i, to, out->to_slot};
  if (plan.duplicate_prob > 0.0 && net_rng_.chance(plan.duplicate_prob)) {
    ++duplicates_injected_;
    if (last != nullptr) *last = arrival + 1e-9;
    push(arrival + 1e-9, delivery, packet);
  }
  push(arrival, delivery, packet);
}

template <core::Algorithm A>
void AsyncEngine::deliver(const Key& key, const Event& e) {
  // A packet already in flight when its link died is lost, matching a
  // physical cable cut rather than a graceful shutdown; one queued before the
  // link's last heal died with the outage (stale_delivery).
  if (dead_links_.count(norm_edge(e.a, e.b)) != 0 || !alive_[e.b]) return;
  if (stale_delivery(e.a, e.b, key.seq)) return;
  fleet_->receive<A>(e.b, e.a, e.to_slot, payloads_[key.slot]);
  ++delivered_;
  ++perf_.deliveries;
}

void AsyncEngine::handle_fault(const Key& key, const Event& e) {
  switch (e.kind) {
    case Event::Kind::kTick:
    case Event::Kind::kDelivery:
      return;  // run_events handles these through the fleet
    case Event::Kind::kLinkFailure:
      ++link_failures_fired_;
      fail_link(e.a, e.b, /*independent=*/true);
      return;
    case Event::Kind::kChurnFail: {
      const auto edge = norm_edge(e.a, e.b);
      // A dead link (or endpoint) ends this chain; revive_link starts a new one.
      if (!alive_[e.a] || !alive_[e.b] || dead_links_.count(edge) != 0) return;
      ++link_failures_fired_;
      fail_link(e.a, e.b, /*independent=*/true);
      return;
    }
    case Event::Kind::kCrash: {
      if (!alive_[e.a]) return;
      alive_[e.a] = false;
      ++crashes_fired_;
      for (const NodeId peer : topology_.neighbors(e.a)) {
        fail_link(e.a, peer, /*independent=*/false);
      }
      pending_retarget_ = true;
      return;
    }
    case Event::Kind::kRejoin: {
      const NodeId i = e.a;
      if (alive_[i]) return;
      alive_[i] = true;
      ++rejoins_fired_;
      // Fresh state: the node restarts from its initial input, as a machine
      // rebooted from its local data would.
      fleet_->reset(i, initial_[i]);
      for (const NodeId peer : topology_.neighbors(i)) {
        const auto edge = norm_edge(i, peer);
        if (!alive_[peer] || cut_links_.count(edge) != 0) {
          // The peer is down, or the cable failed independently of the crash
          // and is still cut — exclude it immediately.
          fleet_->link_down(i, peer);
          continue;
        }
        (void)revive_link(i, peer);
      }
      schedule_tick(i);  // the crash orphaned the node's tick chain — restart it
      // The returning mass re-enters the computation: retarget immediately
      // (stale in-flight packets on the revived links are excluded by the
      // heal-epoch filter inside append_in_flight_mass).
      retarget_now();
      return;
    }
    case Event::Kind::kLinkHeal: {
      if (!alive_[e.a] || !alive_[e.b]) return;  // rejoin owns crashed ends
      (void)revive_link(e.a, e.b);
      return;
    }
    case Event::Kind::kDetectUp: {
      --pending_up_notices_;
      // Report "up" only if the link did not die again during the delay.
      if (alive_[e.a] && dead_links_.count(norm_edge(e.a, e.b)) == 0) {
        fleet_->link_up(e.a, e.b);
      }
      return;
    }
    case Event::Kind::kFalseDetect: {
      const auto edge = norm_edge(e.a, e.b);
      // Only a live link between live nodes can be *falsely* suspected.
      if (!alive_[e.a] || !alive_[e.b] || dead_links_.count(edge) != 0) return;
      if (!falsely_excluded_.insert(edge).second) return;
      ++false_detects_fired_;
      // Both detectors report the link down; transport stays up, so packets
      // already in flight still arrive (and are dropped by the reducers).
      fleet_->link_down(e.a, e.b);
      fleet_->link_down(e.b, e.a);
      push(now_ + e.aux, {Event::Kind::kFalseClear, e.a, e.b});
      return;
    }
    case Event::Kind::kFalseClear: {
      const auto edge = norm_edge(e.a, e.b);
      if (falsely_excluded_.erase(edge) == 0) return;  // superseded by a real failure
      if (alive_[e.a] && alive_[e.b] && dead_links_.count(edge) == 0) {
        ++false_clears_fired_;
        fleet_->link_up(e.a, e.b);
        fleet_->link_up(e.b, e.a);
      }
      return;
    }
    case Event::Kind::kDataUpdate: {
      if (!alive_[e.a]) return;
      const core::Mass& delta = payloads_[key.slot].a;
      fleet_->update_data(e.a, delta);
      // A live update changes the conserved mass by exactly delta — no
      // snapshot needed, so this is exact even with packets in flight.
      oracle_.shift(delta);
      ++data_updates_fired_;
      return;
    }
    case Event::Kind::kDetect: {
      --pending_detects_;
      // Skip the report if the link healed (or the node rejoined and revived
      // it) while the detector was still counting down.
      if (alive_[e.a] && dead_links_.count(norm_edge(e.a, e.b)) != 0) {
        fleet_->link_down(e.a, e.b);
      }
      if (pending_retarget_) {
        // Survivors' local masses alone miss whatever is still on the wire
        // between live nodes; retarget_now() folds the queued deliveries in so
        // the target is the mass the system will actually conserve once they
        // land. Retarget on every detect while a crash settles; the final
        // detect leaves the correct conserved target and ends the window.
        retarget_now();
        if (pending_detects_ == 0) pending_retarget_ = false;
      }
      return;
    }
  }
}

template <core::Algorithm A>
void AsyncEngine::append_in_flight_mass(std::vector<core::Mass>& masses) const {
  // Deliveries to dead nodes or over dead links will be dropped on arrival —
  // their mass is genuinely lost and must NOT be counted. For additive
  // payloads (push-sum) every queued packet contributes its share. For the
  // flow algorithms deliveries are absolute mirrors and per-directed-link
  // FIFO makes them last-writer-wins: only the newest queued packet per link
  // determines the receiver's eventual flow state, so only it carries mass.
  const auto unreceived = [&](const Key& key, const Event& e) {
    core::Mass m = core::protocol::unreceived_mass<A>(fleet_->rows<A>(e.b), e.to_slot,
                                                      payloads_[key.slot]);
    if (!m.is_zero()) masses.push_back(std::move(m));
  };
  std::map<std::pair<NodeId, NodeId>, const Key*> newest;
  for (const Key& key : queue_.items()) {
    const Event& e = events_[key.slot];
    if (e.kind != Event::Kind::kDelivery) continue;
    if (dead_links_.count(norm_edge(e.a, e.b)) != 0 || !alive_[e.b]) continue;
    if (stale_delivery(e.a, e.b, key.seq)) continue;  // lost in a pre-heal outage
    if constexpr (core::protocol::kInFlightMassAccumulates<A>) {
      unreceived(key, e);
    } else {
      const Key*& newest_key = newest[{e.a, e.b}];
      if (newest_key == nullptr || key.seq > newest_key->seq) newest_key = &key;
    }
  }
  for (const auto& [link, key] : newest) unreceived(*key, events_[key->slot]);
}

template <core::Algorithm A>
void AsyncEngine::run_events(double time) {
  while (!queue_.empty() && queue_.top().time <= time) {
    const Key key = queue_.top();
    queue_.pop();
    now_ = key.time;
    // A copy: the handlers push, and a push may grow the slab.
    const Event e = events_[key.slot];
    switch (e.kind) {
      case Event::Kind::kTick: tick<A>(e.a); break;
      case Event::Kind::kDelivery: deliver<A>(key, e); break;
      default: handle_fault(key, e); break;
    }
    free_slots_.push_back(key.slot);
    ++perf_.events_processed;
  }
}

void AsyncEngine::run_until(double time) {
  {
    const auto timer = perf_.time(PerfCounters::Phase::kEvents);
    core::visit(config_.algorithm, [&]<core::Algorithm A>() { run_events<A>(time); });
  }
  perf_.queue_reallocations = queue_.reallocations() + slab_growths_;
  now_ = std::max(now_, time);
  check_invariants_now();
}

bool AsyncEngine::run_until_error(double tol, double deadline, double check_interval) {
  PCF_CHECK_MSG(check_interval > 0.0, "check interval must be positive");
  while (now_ < deadline) {
    run_until(std::min(now_ + check_interval, deadline));
    if (max_error() <= tol) return true;
  }
  return max_error() <= tol;
}

std::vector<double> AsyncEngine::estimates(std::size_t k) const {
  std::vector<double> out;
  out.reserve(size());
  fleet_->for_each_estimate(k, [&](NodeId i) { return alive_[i]; },
                            [&](double x) { out.push_back(x); });
  return out;
}

double AsyncEngine::max_error(std::size_t k) const {
  double worst = 0.0;
  fleet_->for_each_estimate(k, [&](NodeId i) { return alive_[i]; },
                            [&](double x) { worst = std::max(worst, oracle_.error_of(x, k)); });
  return worst;
}

}  // namespace pcf::sim
