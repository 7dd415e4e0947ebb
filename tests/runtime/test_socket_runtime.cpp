// Tests for the process-per-shard loopback-UDP runtime (fork-based — this
// suite lives in its own non-`threaded` binary because TSan cannot follow
// children across fork). Nothing here asserts byte-determinism: the socket
// runtime's contract is convergence within the error envelope under whatever
// faults were MEASURED, so the assertions are about structure (shard/node
// assignment, counters, result files), supervision (a SIGKILLed shard comes
// back from its checkpoint), detection (a SIGSTOPped shard is a healed false
// positive) and accuracy vs. the exact oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "runtime/net_trial.hpp"
#include "runtime/socket_runtime.hpp"
#include "net/topology.hpp"
#include "sim/reduce.hpp"
#include "support/rng.hpp"

namespace pcf::runtime {
namespace {

/// Fresh scratch dir per test so checkpoints/results never cross-talk.
[[nodiscard]] std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("pcf_socket_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(SocketRuntime, ShardsNodesRoundRobinAndReportsPerLinkCounters) {
  Rng rng(7);
  const net::Topology topology = net::Topology::parse("ring:8", rng);
  const std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);

  SocketRuntimeConfig config;
  config.algorithm = core::Algorithm::kFlowUpdating;
  config.seed = 7;
  config.num_shards = 2;
  config.steps_per_node = 150;
  config.step_pacing_us = 500;  // gentle pace: structure test, not a stress test
  config.linger_ms = 200;
  config.run_dir = scratch_dir("structure");

  SocketRuntime runtime(topology, masses, config);
  EXPECT_EQ(runtime.shard_of(0), 0u);
  EXPECT_EQ(runtime.shard_of(5), 1u);

  const SocketTrialReport report = runtime.run();
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(report.failures, 0u);

  for (std::uint32_t s = 0; s < 2; ++s) {
    const ShardReport& shard = report.shards[s];
    EXPECT_TRUE(shard.produced);
    EXPECT_EQ(shard.shard, s);
    EXPECT_EQ(shard.epoch, 0u);  // nothing was killed
    ASSERT_EQ(shard.nodes.size(), 4u);
    for (std::size_t i = 0; i < shard.nodes.size(); ++i) {
      EXPECT_EQ(shard.nodes[i] % 2, s);  // round-robin assignment
    }
    ASSERT_EQ(shard.rx_from.size(), 2u);
    // A shard never counts datagrams from itself (same-shard delivery is
    // direct, not UDP).
    EXPECT_EQ(shard.rx_from[s].received, 0u);
    EXPECT_GT(shard.heartbeats_sent, 0u);
  }
  // Cross-shard gossip on a ring must actually cross the sockets.
  EXPECT_GT(report.rx_total().received, 0u);
  EXPECT_GT(report.datagrams_sent(), 0u);

  const auto estimates = report.estimates_by_node(8);
  ASSERT_EQ(estimates.size(), 8u);
  for (const double e : estimates) EXPECT_FALSE(std::isnan(e));
}

TEST(SocketNetTrial, SixtyFourNodesConvergeUnderMeasuredLoss) {
  NetTrialOptions options;
  options.topology_spec = "torus2d:8x8";
  options.algorithm = core::Algorithm::kFlowUpdating;
  options.seed = 11;
  options.runtime.num_shards = 4;
  options.runtime.steps_per_node = 400;
  options.runtime.step_pacing_us = 0;  // flat out: real kernel-drop backpressure
  options.runtime.mailbox_capacity = 64;
  options.runtime.socket_recv_buffer = 4096;
  options.runtime.linger_ms = 250;
  options.run_dir = scratch_dir("loss");
  options.session_baseline = true;

  const NetTrialReport report = run_net_trial(options);
  EXPECT_TRUE(report.trial.completed);
  EXPECT_EQ(report.nodes, 64u);
  EXPECT_EQ(report.reporting_nodes, 64u);
  EXPECT_GT(report.trial.rx_total().received, 0u);
  // Flat-out sends into a 4 KiB socket buffer behind a bounded mailbox make
  // kernel drops effectively certain; the point of the runtime is that this
  // loss is MEASURED, not injected.
  EXPECT_GT(report.trial.rx_total().lost, 0u);
  EXPECT_GT(report.trial.measured_loss_rate(), 0.0);
  EXPECT_LT(report.trial.measured_loss_rate(), 1.0);
  // Flow updating tolerates message loss (trust table), so the envelope is
  // binding — and the run must land inside it.
  EXPECT_TRUE(report.trusted);
  EXPECT_TRUE(report.within_envelope) << "max_rel_error=" << report.max_rel_error;
  EXPECT_TRUE(report.ok);
  // Warm-session baseline rode along.
  EXPECT_TRUE(report.session_compared);
  EXPECT_GT(report.session_cold_rounds, 0u);

  // The serialized report speaks the versioned schema CI validates.
  const std::string json = net_trial_report_to_json(options, report);
  EXPECT_NE(json.find("\"schema\": \"pcflow-net\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  // Minor 1 renamed the mailbox overflow counter to blocked pushes; minor 2
  // dropped the always-zero rejected pushes. Only the blocked key remains.
  EXPECT_NE(json.find("\"schema_minor\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mailbox_blocked_pushes\""), std::string::npos);
  EXPECT_EQ(json.find("\"mailbox_rejected_pushes\""), std::string::npos);
  EXPECT_EQ(json.find("\"mailbox_overflow_blocks\""), std::string::npos);
  EXPECT_NE(json.find("\"measured\""), std::string::npos);
  EXPECT_NE(json.find("\"supervision\""), std::string::npos);
}

TEST(SocketNetTrial, SigkilledShardRestartsFromCheckpointAndConverges) {
  NetTrialOptions options;
  options.topology_spec = "torus2d:8x8";
  // Flow updating: edge state is idempotent (flow, estimate) pairs, so a
  // shard restored from a slightly stale checkpoint re-converges instead of
  // violating a conservation invariant the way rewound PCF flows would.
  options.algorithm = core::Algorithm::kFlowUpdating;
  options.seed = 13;
  options.runtime.num_shards = 4;
  options.runtime.steps_per_node = 500;
  options.runtime.step_pacing_us = 500;  // ~250 ms of stepping: the kill lands mid-run
  options.runtime.checkpoint_every_steps = 25;
  options.runtime.linger_ms = 400;
  options.chaos.kill_shard = 1;
  options.chaos.kill_after_ms = 100;
  options.run_dir = scratch_dir("kill");
  options.session_baseline = false;

  const NetTrialReport report = run_net_trial(options);
  EXPECT_EQ(report.trial.restarts, 1u);
  EXPECT_EQ(report.trial.failures, 0u);
  EXPECT_TRUE(report.trial.completed);
  ASSERT_EQ(report.trial.shards.size(), 4u);
  EXPECT_GE(report.trial.shards[1].epoch, 1u);  // the reborn incarnation reported
  // 100 ms at 500 us/step is ~200 steps — several checkpoints deep, so the
  // successor restored real progress rather than starting fresh.
  EXPECT_GT(report.trial.shards[1].restored_from_step, 0u);
  EXPECT_EQ(report.reporting_nodes, 64u);
  EXPECT_TRUE(report.ok) << "max_rel_error=" << report.max_rel_error;
}

TEST(SocketNetTrial, SigstoppedShardIsDetectedAndHealsAsFalsePositive) {
  NetTrialOptions options;
  options.topology_spec = "torus2d:8x8";
  options.algorithm = core::Algorithm::kFlowUpdating;
  options.seed = 17;
  options.runtime.num_shards = 4;
  options.runtime.steps_per_node = 700;
  options.runtime.step_pacing_us = 500;  // ~350 ms: peers still stepping at resume
  options.runtime.heartbeat_period_ms = 10;
  options.runtime.heartbeat_timeout_ms = 60;
  options.runtime.linger_ms = 400;
  options.chaos.stall_shard = 2;
  options.chaos.stall_after_ms = 60;
  options.chaos.stall_ms = 150;
  options.run_dir = scratch_dir("stall");
  options.session_baseline = false;

  const NetTrialReport report = run_net_trial(options);
  EXPECT_TRUE(report.trial.completed);
  EXPECT_EQ(report.trial.restarts, 0u);  // a stall is not a death

  std::uint64_t downs = 0;
  std::uint64_t ups = 0;
  for (const ShardReport& shard : report.trial.shards) {
    downs += shard.detector_downs;
    ups += shard.detector_ups;
  }
  // The 150 ms stall exceeds the 60 ms timeout: some peer must have declared
  // shard 2 down, and after SIGCONT its beacons must have healed the verdict.
  EXPECT_GE(downs, 1u);
  EXPECT_GE(ups, 1u);
  EXPECT_EQ(report.reporting_nodes, 64u);
  EXPECT_TRUE(report.ok) << "max_rel_error=" << report.max_rel_error;
}

}  // namespace
}  // namespace pcf::runtime
