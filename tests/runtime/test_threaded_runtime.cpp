#include "runtime/threaded_runtime.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "sim/metrics.hpp"
#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::runtime {
namespace {

using core::Aggregate;
using core::Algorithm;

std::vector<core::Mass> random_masses(std::size_t n, Aggregate agg, std::uint64_t seed) {
  return sim::masses_from_values(test::random_values(n, seed), agg);
}

TEST(ThreadedRuntime, PcfConvergesWithRealThreads) {
  const auto t = net::Topology::hypercube(4);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 1);
  RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.seed = 1;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(600);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-11);
}

TEST(ThreadedRuntime, PushFlowConvergesWithRealThreads) {
  const auto t = net::Topology::hypercube(4);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 2);
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;
  cfg.num_threads = 3;  // uneven shard sizes
  cfg.seed = 2;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(600);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-10);
}

TEST(ThreadedRuntime, MassConservedAtQuiescence) {
  // run() drains all in-flight packets before returning, so pairwise flow
  // conservation holds and the total mass must equal the initial mass.
  const auto t = net::Topology::ring(12);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 3);
  double expected_s = 0.0;
  for (const auto& m : masses) expected_s += m.s[0];
  RuntimeConfig cfg;
  cfg.num_threads = 4;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(200);
  const auto total = rt.total_mass();
  EXPECT_NEAR(total.s[0], expected_s, 1e-9);
  EXPECT_NEAR(total.w, static_cast<double>(t.size()), 1e-10);
}

TEST(ThreadedRuntime, PushFlowMassConservedAtEveryPhaseBoundary) {
  // Push-flow's two flows on an edge fall out of step when the edge's last
  // exchange crossed between workers; run() settles such edges before it
  // returns, so every phase boundary is a consistent cut. Without the settle
  // about one boundary in eleven showed a crossed edge here (4-core VM).
  const auto t = net::Topology::hypercube(4);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 5);
  double expected_s = 0.0;
  for (const auto& m : masses) expected_s += m.s[0];
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;
  cfg.num_threads = 4;
  ThreadedRuntime rt(t, masses, cfg);
  for (int phase = 0; phase < 40; ++phase) {
    rt.run(200);  // short phases rarely overlap the workers enough to cross
    EXPECT_NEAR(rt.total_mass().s[0], expected_s, 1e-9) << "phase " << phase;
  }
}

TEST(ThreadedRuntime, MultiplePhasesAccumulate) {
  const auto t = net::Topology::hypercube(3);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 4);
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(50);
  const auto delivered_first = rt.messages_delivered();
  EXPECT_GT(delivered_first, 0u);
  rt.run(50);
  EXPECT_GT(rt.messages_delivered(), delivered_first);
}

TEST(ThreadedRuntime, LinkFailureBetweenPhasesIsTolerated) {
  const auto t = net::Topology::hypercube(4);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 5);
  RuntimeConfig cfg;
  cfg.num_threads = 4;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(300);
  rt.fail_link(0, 1);
  rt.run(600);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-11);
}

TEST(ThreadedRuntime, HealLinkRestoresTopologyBetweenPhases) {
  // run() drains all in-flight packets and settles crossed exchanges before
  // returning, so push-flow's exclusion and re-admission are both symmetric
  // and mass-neutral: after the heal the ORIGINAL aggregate comes back at
  // full accuracy. (PCF would not do for this assertion — its cancellation
  // handshake can rest mid-cycle even at quiescence, where exclusion costs
  // one absorbed half.)
  const auto t = net::Topology::hypercube(4);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 5);
  double expected_s = 0.0;
  for (const auto& m : masses) expected_s += m.s[0];
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;
  cfg.num_threads = 4;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(200);
  rt.fail_link(0, 1);
  EXPECT_EQ(rt.fleet().live_degree(0), 3u);
  rt.run(300);
  rt.heal_link(0, 1);
  EXPECT_EQ(rt.fleet().live_degree(0), 4u);
  EXPECT_EQ(rt.fleet().live_degree(1), 4u);
  rt.heal_link(0, 1);  // healing a live link is a no-op
  EXPECT_EQ(rt.fleet().live_degree(0), 4u);
  rt.run(600);
  const auto total = rt.total_mass();
  EXPECT_NEAR(total.s[0], expected_s, 1e-9);  // the episode was mass-neutral
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-10);
}

TEST(ThreadedRuntime, HealLinkWhileWorkersRunIsCheckedIllegal) {
  // Same contract as fail_link: workers read dead_links_ without a lock, so
  // heal_link must throw while a run() phase is active and succeed between
  // phases.
  const auto t = net::Topology::ring(8);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 10);
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.seed = 10;
  ThreadedRuntime rt(t, masses, cfg);
  rt.fail_link(0, 1);
  std::thread phase([&rt] { rt.run(20000); });
  while (!rt.workers_active()) std::this_thread::yield();
  EXPECT_THROW(rt.heal_link(0, 1), ContractViolation);
  phase.join();
  EXPECT_FALSE(rt.workers_active());
  rt.heal_link(0, 1);  // between phases: legal, notifies both endpoints
  EXPECT_EQ(rt.fleet().live_degree(0), 2u);
  EXPECT_EQ(rt.fleet().live_degree(1), 2u);
}

TEST(ThreadedRuntime, HealLinkRejectsNonEdge) {
  const auto t = net::Topology::ring(6);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 6);
  ThreadedRuntime rt(t, masses, {});
  EXPECT_THROW(rt.heal_link(0, 3), ContractViolation);
}

TEST(ThreadedRuntime, FailLinkRejectsNonEdge) {
  const auto t = net::Topology::ring(6);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 6);
  ThreadedRuntime rt(t, masses, {});
  EXPECT_THROW(rt.fail_link(0, 3), ContractViolation);
}

TEST(ThreadedRuntime, SingleThreadDegenerateCaseWorks) {
  const auto t = net::Topology::bus(5);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 7);
  RuntimeConfig cfg;
  cfg.num_threads = 1;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(2000);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-10);
}

TEST(ThreadedRuntime, MoreThreadsThanNodesIsClamped) {
  const auto t = net::Topology::bus(3);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 8);
  RuntimeConfig cfg;
  cfg.num_threads = 64;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(800);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-9);
}

TEST(ThreadedRuntime, FailLinkWhileWorkersRunIsCheckedIllegal) {
  // Workers read dead_links_ without a lock, so fail_link during a run()
  // phase would be a data race. The contract makes it checked-illegal: the
  // call must throw while workers are up and succeed between phases.
  const auto t = net::Topology::ring(8);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 9);
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.seed = 9;
  ThreadedRuntime rt(t, masses, cfg);
  EXPECT_FALSE(rt.workers_active());

  // Enough steps that the phase comfortably outlasts the guarded call below
  // (the call fires within microseconds of workers_active flipping true).
  std::thread phase([&rt] { rt.run(20000); });
  while (!rt.workers_active()) std::this_thread::yield();
  EXPECT_THROW(rt.fail_link(0, 1), ContractViolation);
  phase.join();
  EXPECT_FALSE(rt.workers_active());

  rt.fail_link(0, 1);  // between phases: legal, notifies both endpoints
  EXPECT_EQ(rt.fleet().live_degree(0), 1u);
  EXPECT_EQ(rt.fleet().live_degree(1), 1u);
  rt.run(400);  // the runtime keeps working after the rejected call
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-8);
}

TEST(ThreadedRuntime, QueueFaultAppliesAtNextPhaseBoundary) {
  // Regression for the chaos-driver ergonomics: queue_fault may fire while a
  // phase is active (where fail_link would throw ContractViolation) and the
  // event lands at the phase boundary instead.
  const auto t = net::Topology::ring(8);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 11);
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.seed = 11;
  ThreadedRuntime rt(t, masses, cfg);

  std::thread phase([&rt] { rt.run(20000); });
  while (!rt.workers_active()) std::this_thread::yield();
  rt.queue_fault(0, 1, /*heal=*/false);  // mid-phase: no throw, just queued
  phase.join();

  // Applied when the phase's workers joined — before run() returned.
  EXPECT_EQ(rt.pending_faults(), 0u);
  EXPECT_EQ(rt.fleet().live_degree(0), 1u);
  EXPECT_EQ(rt.fleet().live_degree(1), 1u);

  // Queued while idle: applied by the next run() before its first step.
  rt.queue_fault(0, 1, /*heal=*/true);
  EXPECT_EQ(rt.pending_faults(), 1u);
  rt.run(400);
  EXPECT_EQ(rt.pending_faults(), 0u);
  EXPECT_EQ(rt.fleet().live_degree(0), 2u);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-8);
}

TEST(ThreadedRuntime, QueueFaultOrderAndRedundancySemantics) {
  const auto t = net::Topology::ring(6);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 12);
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  ThreadedRuntime rt(t, masses, cfg);

  EXPECT_THROW(rt.queue_fault(0, 3, false), ContractViolation);  // not an edge

  rt.queue_fault(0, 1, /*heal=*/false);
  rt.queue_fault(0, 1, /*heal=*/true);   // applied in order: net effect = live
  rt.queue_fault(2, 3, /*heal=*/true);   // healing a live link is a no-op
  rt.queue_fault(4, 5, /*heal=*/false);
  rt.queue_fault(4, 5, /*heal=*/false);  // failing a dead link is a no-op
  EXPECT_EQ(rt.pending_faults(), 5u);
  rt.run(100);
  EXPECT_EQ(rt.pending_faults(), 0u);
  EXPECT_EQ(rt.fleet().live_degree(0), 2u);
  EXPECT_EQ(rt.fleet().live_degree(2), 2u);
  EXPECT_EQ(rt.fleet().live_degree(4), 1u);
  EXPECT_EQ(rt.fleet().live_degree(5), 1u);
}

TEST(ThreadedRuntime, BoundedMailboxesStillConverge) {
  // A tight per-node bound forces the backpressure path (try_push → drain own
  // shard → retry → drop); sheds show up as mailbox counters and the gossip
  // reduction still converges because drops look exactly like wire loss.
  const auto t = net::Topology::hypercube(4);
  const auto masses = random_masses(t.size(), Aggregate::kAverage, 13);
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;  // loss-tolerant by construction
  cfg.num_threads = 4;
  cfg.seed = 13;
  cfg.mailbox_capacity = 2;
  ThreadedRuntime rt(t, masses, cfg);
  rt.run(800);
  const auto& perf = rt.perf();
  EXPECT_GT(perf.mailbox_high_watermark, 0u);
  EXPECT_LE(perf.mailbox_high_watermark, 2u);  // the bound really held
  // The threaded runtime only ever try_pushes (blocking in a worker would
  // deadlock the step barrier), so backpressure must land in rejected, never
  // in blocked.
  EXPECT_EQ(perf.mailbox_blocked_pushes, 0u);
  const sim::Oracle oracle(masses);
  for (double e : rt.estimates()) EXPECT_LT(oracle.error_of(e), 1e-8);
}

TEST(Mailbox, PreservesFifoOrder) {
  Mailbox box;
  for (int i = 0; i < 10; ++i) {
    Envelope env;
    env.from = static_cast<net::NodeId>(i);
    box.push(std::move(env));
  }
  const auto drained = box.drain();
  ASSERT_EQ(drained.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(drained[static_cast<std::size_t>(i)].from, i);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, DrainOnEmptyIsEmpty) {
  Mailbox box;
  EXPECT_TRUE(box.drain().empty());
}

}  // namespace
}  // namespace pcf::runtime
