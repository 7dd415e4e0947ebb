#include "sim/reduce.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;
using core::Values;

TEST(Reduce, ScalarAverageReachesTarget) {
  const auto t = net::Topology::hypercube(4);
  const std::vector<double> values = test::random_values(t.size(), 1);
  ReduceOptions opt;
  opt.target_accuracy = 1e-12;
  opt.seed = 7;
  const auto result = reduce(t, values, opt);
  EXPECT_TRUE(result.reached_target);
  double expected = 0.0;
  for (double v : values) expected += v;
  expected /= static_cast<double>(values.size());
  EXPECT_NEAR(result.target[0], expected, 1e-12);
  for (net::NodeId i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(result.estimate(i), expected, 1e-11 * std::abs(expected));
  }
}

TEST(Reduce, ScalarSumReachesTarget) {
  const auto t = net::Topology::hypercube(4);
  const std::vector<double> values = test::random_values(t.size(), 2);
  ReduceOptions opt;
  opt.aggregate = Aggregate::kSum;
  opt.target_accuracy = 1e-12;
  const auto result = reduce(t, values, opt);
  EXPECT_TRUE(result.reached_target);
  double expected = 0.0;
  for (double v : values) expected += v;
  EXPECT_NEAR(result.estimate(3), expected, 1e-10 * std::abs(expected));
}

TEST(Reduce, VectorPayloadReducesAllComponents) {
  const auto t = net::Topology::hypercube(3);
  std::vector<Values> values(t.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = Values{static_cast<double>(i), static_cast<double>(2 * i), 1.0};
  }
  ReduceOptions opt;
  opt.aggregate = Aggregate::kSum;
  opt.target_accuracy = 1e-12;
  const auto result = reduce_vectors(t, values, opt);
  EXPECT_TRUE(result.reached_target);
  EXPECT_NEAR(result.estimate(0, 0), 28.0, 1e-9);  // Σ i for i<8
  EXPECT_NEAR(result.estimate(0, 1), 56.0, 1e-9);
  EXPECT_NEAR(result.estimate(0, 2), 8.0, 1e-9);
}

TEST(Reduce, StopTestChecksOnlyComponentZero) {
  // run_until_error reads max_error(), which is component 0's: a vector
  // reduction stops once component 0 is within ε, whatever the other
  // components' error. Component 0 is the same on every node, so it is exact
  // after the first round, while component 1 has barely started to mix.
  const auto t = net::Topology::hypercube(4);
  const std::vector<double> noise = test::random_values(t.size(), 6);
  std::vector<Values> values(t.size());
  double expected = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = Values{1.0, noise[i]};
    expected += noise[i];
  }
  expected /= static_cast<double>(values.size());
  ReduceOptions opt;
  opt.target_accuracy = 1e-12;
  const auto result = reduce_vectors(t, values, opt);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.max_error, 0.0);
  double worst = 0.0;
  for (net::NodeId i = 0; i < t.size(); ++i) {
    worst = std::max(worst, std::abs(result.estimate(i, 1) - expected) / std::abs(expected));
  }
  EXPECT_GT(worst, 1e3 * opt.target_accuracy) << "component 1 converged in one round";
}

TEST(Reduce, RespectsMaxRounds) {
  const auto t = net::Topology::ring(16);
  const std::vector<double> values = test::random_values(t.size(), 3);
  ReduceOptions opt;
  opt.algorithm = Algorithm::kPushSum;
  opt.target_accuracy = 1e-30;  // unreachable
  opt.max_rounds = 40;
  const auto result = reduce(t, values, opt);
  EXPECT_FALSE(result.reached_target);
  EXPECT_EQ(result.rounds, 40u);
}

TEST(Reduce, TraceRecordsRequestedCadence) {
  const auto t = net::Topology::hypercube(3);
  const std::vector<double> values = test::random_values(t.size(), 4);
  ReduceOptions opt;
  opt.trace_every = 10;
  opt.max_rounds = 100;
  opt.target_accuracy = 1e-30;
  const auto result = reduce(t, values, opt);
  EXPECT_EQ(result.trace.points().size(), 10u);
  EXPECT_EQ(result.trace.points()[0].time, 10.0);
  EXPECT_EQ(result.trace.points()[9].time, 100.0);
}

TEST(Reduce, CrashedNodeGetsNaNEstimates) {
  const auto t = net::Topology::hypercube(3);
  const std::vector<double> values = test::random_values(t.size(), 5);
  ReduceOptions opt;
  opt.faults.node_crashes.push_back({10.0, 2});
  opt.max_rounds = 300;
  opt.target_accuracy = 1e-11;
  const auto result = reduce(t, values, opt);
  EXPECT_TRUE(std::isnan(result.estimate(2)));
  EXPECT_FALSE(std::isnan(result.estimate(0)));
}

TEST(Reduce, RejectsWrongValueCount) {
  const auto t = net::Topology::ring(4);
  const std::vector<double> values(3, 1.0);
  EXPECT_THROW(reduce(t, values, {}), ContractViolation);
}

TEST(MassesFromValues, WeightLayouts) {
  const std::vector<double> values{1.0, 2.0, 3.0};
  const auto avg = masses_from_values(values, Aggregate::kAverage);
  const auto sum = masses_from_values(values, Aggregate::kSum);
  EXPECT_EQ(avg[2].w, 1.0);
  EXPECT_EQ(sum[0].w, 1.0);
  EXPECT_EQ(sum[1].w, 0.0);
  EXPECT_EQ(sum[2].w, 0.0);
}

TEST(ReduceWeighted, ConvergesToWeightedMean) {
  const auto t = net::Topology::hypercube(4);
  const std::vector<double> values = test::random_values(t.size(), 21);
  std::vector<double> weights(t.size());
  Rng rng(22);
  for (auto& w : weights) w = rng.uniform(0.5, 4.0);
  ReduceOptions opt;
  opt.target_accuracy = 1e-12;
  const auto result = reduce_weighted(t, values, weights, opt);
  EXPECT_TRUE(result.reached_target);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    num += weights[i] * values[i];
    den += weights[i];
  }
  for (net::NodeId i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(result.estimate(i), num / den, 1e-10);
  }
}

TEST(ReduceWeighted, UniformWeightsEqualPlainAverage) {
  const auto t = net::Topology::ring(8);
  const std::vector<double> values = test::random_values(t.size(), 23);
  const std::vector<double> weights(t.size(), 2.5);
  ReduceOptions opt;
  opt.target_accuracy = 1e-11;
  opt.max_rounds = 5000;
  const auto weighted = reduce_weighted(t, values, weights, opt);
  const auto plain = reduce(t, values, opt);
  EXPECT_NEAR(weighted.target[0], plain.target[0], 1e-12);
}

TEST(ReduceWeighted, RejectsNonPositiveWeights) {
  const auto t = net::Topology::ring(4);
  const std::vector<double> values(4, 1.0);
  const std::vector<double> weights{1.0, 0.0, 1.0, 1.0};
  EXPECT_THROW(reduce_weighted(t, values, weights, {}), ContractViolation);
}

TEST(Reduce, BandwidthAccountingMatchesWireFormat) {
  const auto t = net::Topology::ring(6);
  const std::vector<double> values = test::random_values(t.size(), 25);
  for (const auto& [alg, masses_on_wire] :
       {std::pair{Algorithm::kPushSum, std::size_t{1}},
        std::pair{Algorithm::kPushFlow, std::size_t{1}},
        std::pair{Algorithm::kPushCancelFlow, std::size_t{2}},
        std::pair{Algorithm::kFlowUpdating, std::size_t{2}},
        std::pair{Algorithm::kCorrectionAllreduce, std::size_t{2}},
        std::pair{Algorithm::kFuMassHybrid, std::size_t{2}}}) {
    ReduceOptions opt;
    opt.algorithm = alg;
    opt.max_rounds = 50;
    opt.target_accuracy = 1e-30;
    const auto result = reduce(t, values, opt);
    // 6 nodes x rounds x wire masses x (1 value + 1 weight) doubles. The
    // gossip algorithms run out the full 50 rounds; correction allreduce hits
    // the unreachable-looking target exactly (error is bitwise 0 once the
    // global view propagates) and stops early, so use the actual round count.
    EXPECT_EQ(result.stats.doubles_sent, 6u * result.rounds * masses_on_wire * 2u)
        << core::to_string(alg);
    if (alg != Algorithm::kCorrectionAllreduce) {
      EXPECT_EQ(result.rounds, 50u) << core::to_string(alg);
    }
  }
}

TEST(Reduce, AllAlgorithmsAgreeOnAverage) {
  const auto t = net::Topology::hypercube(4);
  const std::vector<double> values = test::random_values(t.size(), 6);
  for (const auto alg : {Algorithm::kPushSum, Algorithm::kPushFlow,
                         Algorithm::kPushCancelFlow, Algorithm::kFlowUpdating,
                         Algorithm::kCorrectionAllreduce, Algorithm::kFuMassHybrid}) {
    ReduceOptions opt;
    opt.algorithm = alg;
    opt.target_accuracy = 1e-11;
    opt.max_rounds = 5000;
    const auto result = reduce(t, values, opt);
    EXPECT_TRUE(result.reached_target) << core::to_string(alg);
  }
}

}  // namespace
}  // namespace pcf::sim
