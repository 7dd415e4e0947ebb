#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/mass.hpp"

namespace pcf::runtime {
namespace {

Envelope make_envelope(net::NodeId from, double value) {
  Envelope e;
  e.from = from;
  e.packet.a = core::Mass::scalar(value, 1.0);
  return e;
}

TEST(Mailbox, StartsEmpty) {
  Mailbox box;
  EXPECT_TRUE(box.empty());
  EXPECT_TRUE(box.drain().empty());
}

TEST(Mailbox, DrainPreservesFifoOrderAndEmptiesTheBox) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) box.push(make_envelope(static_cast<net::NodeId>(i), i * 1.0));
  EXPECT_FALSE(box.empty());

  const auto drained = box.drain();
  ASSERT_EQ(drained.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(drained[static_cast<std::size_t>(i)].from, static_cast<net::NodeId>(i));
    EXPECT_EQ(drained[static_cast<std::size_t>(i)].packet.a.s[0], i * 1.0);
  }
  EXPECT_TRUE(box.empty());
  EXPECT_TRUE(box.drain().empty());
}

TEST(Mailbox, PushAfterDrainStartsAFreshBatch) {
  Mailbox box;
  box.push(make_envelope(1, 1.0));
  (void)box.drain();
  box.push(make_envelope(2, 2.0));
  const auto drained = box.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].from, 2u);
}

TEST(Mailbox, UnboundedNeverOverflows) {
  Mailbox box;  // capacity 0 = unbounded
  EXPECT_EQ(box.capacity(), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(box.push(make_envelope(1, i * 1.0)));
  EXPECT_EQ(box.stats().blocked_pushes, 0u);
  EXPECT_EQ(box.stats().high_watermark, 1000u);
}

// Bounded blocking push: the producer parks on a full box and a concurrent
// drain releases it. TSan workload for the capacity/condvar interplay.
TEST(Mailbox, BlockingPushWaitsForDrain) {
  Mailbox box(2);
  EXPECT_TRUE(box.push(make_envelope(1, 1.0)));
  EXPECT_TRUE(box.push(make_envelope(1, 2.0)));

  std::thread producer([&box] {
    // Full: this blocks until the main thread drains.
    EXPECT_TRUE(box.push(make_envelope(2, 3.0)));
  });
  while (box.stats().blocked_pushes == 0) std::this_thread::yield();

  std::vector<Envelope> received = box.drain();
  producer.join();
  for (auto& envelope : box.drain()) received.push_back(envelope);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received.back().from, 2u);
  EXPECT_EQ(box.stats().blocked_pushes, 1u);
}

// The two ways a push can fail to land promptly are told apart: a push that
// stalls on a full box counts into blocked_pushes, while a push rejected
// after shutdown returns false and counts as no stall, even on a full box.
TEST(Mailbox, BlockedAndRejectedPushesAreCountedSeparately) {
  Mailbox box(1);
  EXPECT_TRUE(box.push(make_envelope(1, 1.0)));  // box now full
  EXPECT_EQ(box.stats().blocked_pushes, 0u);

  std::thread producer([&box] { EXPECT_TRUE(box.push(make_envelope(2, 4.0))); });
  while (box.stats().blocked_pushes == 0) std::this_thread::yield();
  (void)box.drain();
  producer.join();
  EXPECT_EQ(box.stats().blocked_pushes, 1u);

  box.shutdown();  // the producer's envelope still fills the box
  EXPECT_FALSE(box.push(make_envelope(3, 5.0)));
  EXPECT_FALSE(box.push(make_envelope(3, 6.0)));
  EXPECT_EQ(box.stats().blocked_pushes, 1u);  // untouched by the rejections
}

// Shutdown-aware wakeup: producers blocked on a full box must exit with
// push() == false instead of hanging when nobody will drain again.
TEST(Mailbox, ShutdownWakesBlockedProducersAndRejectsLatePushes) {
  constexpr int kProducers = 3;
  Mailbox box(1);
  EXPECT_TRUE(box.push(make_envelope(0, 0.0)));  // box now full

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      EXPECT_FALSE(box.push(make_envelope(static_cast<net::NodeId>(p + 1), 1.0)));
    });
  }
  while (box.stats().blocked_pushes < kProducers) std::this_thread::yield();

  box.shutdown();
  for (auto& producer : producers) producer.join();

  EXPECT_FALSE(box.push(make_envelope(9, 9.0)));  // rejected after shutdown
  const auto drained = box.drain();  // pre-shutdown contents still readable
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].from, 0u);
}

// Bounded fill/drain race: producers block whenever the consumer lags, yet
// nothing is lost or duplicated and per-producer order survives. The TSan CI
// job's bounded-mailbox workload.
TEST(Mailbox, BoundedConcurrentFillDrainLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;

  Mailbox box(8);  // far smaller than the traffic: constant backpressure
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.push(make_envelope(static_cast<net::NodeId>(p), i * 1.0)));
      }
    });
  }

  std::vector<Envelope> received;
  received.reserve(kProducers * kPerProducer);
  while (received.size() < kProducers * kPerProducer) {
    for (auto& envelope : box.drain()) received.push_back(envelope);
  }
  for (auto& producer : producers) producer.join();
  for (auto& envelope : box.drain()) received.push_back(envelope);

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  std::vector<double> next_expected(kProducers, 0.0);
  for (const auto& envelope : received) {
    ASSERT_EQ(envelope.packet.a.s[0], next_expected[envelope.from]);
    next_expected[envelope.from] += 1.0;
  }
  EXPECT_LE(box.stats().high_watermark, 8u);  // the bound really held
}

// Concurrent producers with one draining consumer — the deployment shape of
// the threaded runtime (any thread delivers, only the owner drains). Checks
// nothing is lost or duplicated and each producer's envelopes arrive in its
// push order. This test is the TSan CI job's primary mailbox workload.
TEST(Mailbox, ConcurrentProducersLoseNothingAndKeepPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;

  Mailbox box;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        box.push(make_envelope(static_cast<net::NodeId>(p), i * 1.0));
      }
    });
  }

  // Consumer: drain concurrently with the producers, then once more after the
  // join to collect stragglers.
  std::vector<Envelope> received;
  received.reserve(kProducers * kPerProducer);
  while (received.size() < kProducers * kPerProducer) {
    for (auto& envelope : box.drain()) received.push_back(envelope);
  }
  for (auto& producer : producers) producer.join();
  for (auto& envelope : box.drain()) received.push_back(envelope);

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  std::vector<double> next_expected(kProducers, 0.0);
  for (const auto& envelope : received) {
    auto& expected = next_expected[envelope.from];
    EXPECT_EQ(envelope.packet.a.s[0], expected) << "producer " << envelope.from;
    expected += 1.0;
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[static_cast<std::size_t>(p)], kPerProducer * 1.0);
  }
}

}  // namespace
}  // namespace pcf::runtime
