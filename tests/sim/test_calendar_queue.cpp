// The async engine's calendar queue must pop in exactly the (time, seq)
// order a sorted reference gives, whatever times it is fed: equal times,
// times before the bucket being drained, negative times, times past the
// ring and times past the bucket-index range.
#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::sim {
namespace {

using Ref = std::set<std::tuple<double, std::uint64_t, std::uint32_t>>;

std::tuple<double, std::uint64_t, std::uint32_t> as_tuple(const EventKey& key) {
  return {key.time, key.seq, key.slot};
}

/// Pops `queue` and `ref` together until `ref` is empty or its next time is
/// past `until`, requiring the same key each time. Returns the keys popped.
std::size_t drain_until(CalendarQueue& queue, Ref& ref, double until) {
  std::size_t popped = 0;
  while (!ref.empty() && std::get<0>(*ref.begin()) <= until) {
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(as_tuple(queue.top()), *ref.begin()) << "pop " << popped;
    queue.pop();
    ref.erase(ref.begin());
    ++popped;
  }
  EXPECT_EQ(queue.size(), ref.size());
  return popped;
}

/// A time drawn around `now`: mostly just ahead (ticks and deliveries),
/// sometimes exactly `now` or a recent time, before the drained bucket,
/// negative, far past the ring, or past the bucket-index range.
double draw_time(Rng& rng, double now, const std::vector<double>& recent) {
  const std::uint64_t pick = rng.below(20);
  if (pick < 10) return now + rng.exponential(1.0);
  if (pick < 12) return now;
  if (pick < 14 && !recent.empty()) return recent[rng.below(recent.size())];
  if (pick < 15) return now - rng.uniform(0.0, 0.01);
  if (pick < 16) return -rng.uniform(0.0, 100.0);
  if (pick < 17) return now + rng.uniform(50.0, 5000.0);
  if (pick < 18) return rng.chance(0.5) ? 1e300 : 1e18 * rng.uniform(1.0, 2.0);
  if (pick < 19) return rng.chance(0.5) ? -1e300 : now + 0.3;
  return now + rng.uniform(0.0, 0.001);
}

TEST(CalendarQueue, PopsInTheOrderOfASortedReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    // Geometries from a tiny ring (most keys overflow) to a wide one.
    const double width = std::ldexp(1.0, -static_cast<int>(rng.below(12)));
    const double horizon = rng.uniform(0.0, 8.0);
    CalendarQueue queue(width, horizon, 16 + rng.below(2000));
    Ref ref;
    std::vector<double> recent;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t pushes = rng.below(4);
      for (std::uint64_t p = 0; p < pushes; ++p) {
        const double time = draw_time(rng, now, recent);
        const EventKey key{time, seq++, static_cast<std::uint32_t>(rng.below(1000))};
        queue.push(key);
        ref.insert(as_tuple(key));
        recent.push_back(time);
        if (recent.size() > 16) recent.erase(recent.begin());
      }
      const std::uint64_t pops = rng.below(4);
      for (std::uint64_t p = 0; p < pops && !ref.empty(); ++p) {
        ASSERT_EQ(as_tuple(queue.top()), *ref.begin()) << "seed " << seed << " step " << step;
        // The clock follows the pops, but not out to the far keys.
        if (queue.top().time < 1e6) now = std::max(now, queue.top().time);
        queue.pop();
        ref.erase(ref.begin());
      }
      ASSERT_EQ(queue.size(), ref.size());
    }
    drain_until(queue, ref, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(queue.empty());
  }
}

TEST(CalendarQueue, EqualTimesPopBySeq) {
  // A hub crash queues two detector notices per edge at one instant: they
  // must come out by seq, whichever order they went in.
  CalendarQueue queue(1.0 / 64, 4.0, 256);
  Ref ref;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const std::uint64_t seq = (i * 7919ULL) % 500;  // a permutation of 0..499
    queue.push({2.5, seq, i});
    ref.insert({2.5, seq, i});
  }
  EXPECT_EQ(drain_until(queue, ref, 2.5), 500u);
}

TEST(CalendarQueue, RunUntilStyleDrainLeavesLaterKeysQueued) {
  // The engine peeks at top() and stops at its horizon, then pushes more:
  // a peek that moved the window must not reorder later pushes.
  CalendarQueue queue(1.0 / 8, 2.0, 64);
  Ref ref;
  std::uint64_t seq = 0;
  const auto push = [&](double time) {
    queue.push({time, seq, 0});
    ref.insert({time, seq++, 0});
  };
  for (const double time : {0.1, 0.7, 3.0, 40.0, 1e300}) push(time);
  drain_until(queue, ref, 0.5);
  EXPECT_EQ(queue.top().time, 0.7);  // the peek moves the window to 0.7's bucket
  for (const double time : {0.6, 0.55, 0.7, -1.0, 39.0, 1e300}) push(time);
  drain_until(queue, ref, 10.0);
  push(5.0);
  drain_until(queue, ref, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, SortedListsEveryKeyInFiringOrderAndClearEmpties) {
  CalendarQueue queue(1.0 / 16, 1.0, 32);
  std::vector<EventKey> keys;
  std::uint64_t seq = 0;
  for (const double time : {3.0, -2.0, 0.5, 0.5, 1e300, 0.01, 100.0, 0.5}) {
    keys.push_back({time, seq, static_cast<std::uint32_t>(seq)});
    ++seq;
    queue.push(keys.back());
  }
  (void)queue.top();  // drain part of the window first
  std::sort(keys.begin(), keys.end(), fires_before);
  const std::vector<EventKey> listed = queue.sorted();
  ASSERT_EQ(listed.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(as_tuple(listed[i]), as_tuple(keys[i]));
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.sorted().empty());
  queue.push({7.0, 0, 1});
  EXPECT_EQ(queue.top().time, 7.0);
}

TEST(CalendarQueue, RejectsADegenerateGeometry) {
  EXPECT_THROW(CalendarQueue(0.0, 1.0, 16), ContractViolation);
  EXPECT_THROW(CalendarQueue(std::nan(""), 1.0, 16), ContractViolation);
  EXPECT_THROW(CalendarQueue(1.0, -1.0, 16), ContractViolation);
}

}  // namespace
}  // namespace pcf::sim
