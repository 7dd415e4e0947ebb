// Property wall for the checkpoint/restore layer (DESIGN.md §8).
//
// The central claim under test: restoring a checkpoint into a freshly
// constructed engine and replaying yields per-round state fingerprints
// bitwise-identical to the uninterrupted run — for every algorithm, both
// row codecs (the sync engine's kLegacy dim-prefixed and kArena raw rows),
// both engines, and a checkpoint taken at EVERY round of a faulted lifecycle
// run. Plus the defensive side: truncated, corrupted, version-skewed and
// mismatched blobs are rejected with CheckpointError, and the on-disk format
// is pinned with a golden hash so accidental layout drift fails here instead
// of in a user's saved checkpoint.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "sim/session.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kPushSum,          Algorithm::kPushFlow,
                                        Algorithm::kPushCancelFlow,   Algorithm::kFlowUpdating,
                                        Algorithm::kCorrectionAllreduce, Algorithm::kFuMassHybrid};

/// A faulted lifecycle: a cut, a crash, a false positive, a live data update,
/// the rejoin and the heal — every fault-progress cursor the checkpoint
/// serializes moves during the run — plus probabilistic loss/duplication so
/// the RNG stream positions matter too.
FaultPlan lifecycle_plan() {
  FaultPlan plan;
  plan.link_failures.push_back({5.0, 0, 1});
  plan.node_crashes.push_back({8.0, 2});
  plan.false_detects.push_back({10.0, 4, 5, 4.0});
  plan.data_updates.push_back({12.0, 6, core::Mass::scalar(0.25, 0.0)});
  plan.node_rejoins.push_back({16.0, 2});
  plan.link_heals.push_back({18.0, 0, 1});
  plan.message_loss_prob = 0.05;
  plan.duplicate_prob = 0.1;
  return plan;
}

SyncEngine make_sync(const net::Topology& t, Algorithm algorithm, EngineMode mode,
                     FaultPlan faults, std::uint64_t seed = 3,
                     core::ReducerConfig reducer = {}) {
  const auto values = test::random_values(t.size(), seed ^ 0xabcdef);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  SyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.reducer = reducer;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.mode = mode;
  cfg.invariants.enabled = true;
  return SyncEngine(t, masses, cfg);
}

AsyncEngine make_async(const net::Topology& t, Algorithm algorithm, FaultPlan faults,
                       std::uint64_t seed = 3) {
  const auto values = test::random_values(t.size(), seed ^ 0xabcdef);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  AsyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.invariants.enabled = true;
  return AsyncEngine(t, masses, cfg);
}

// ------------------------------------------------------------ property wall

TEST(CheckpointSync, EveryRoundRoundTripsBitwiseOnBothLayouts) {
  const auto t = net::Topology::ring(12);
  constexpr std::size_t kRounds = 24;
  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const EngineMode mode : {EngineMode::kLegacy, EngineMode::kArena}) {
      auto reference = make_sync(t, algorithm, mode, lifecycle_plan());
      std::vector<std::string> blobs{reference.save_checkpoint()};
      std::vector<std::uint64_t> fingerprints{reference.state_fingerprint()};
      for (std::size_t r = 0; r < kRounds; ++r) {
        reference.step();
        blobs.push_back(reference.save_checkpoint());
        fingerprints.push_back(reference.state_fingerprint());
      }
      for (std::size_t c = 0; c <= kRounds; ++c) {
        auto restored = make_sync(t, algorithm, mode, lifecycle_plan());
        restored.restore(blobs[c]);
        ASSERT_EQ(restored.round(), c);
        ASSERT_EQ(restored.state_fingerprint(), fingerprints[c])
            << core::to_string(algorithm) << " restore at round " << c;
        for (std::size_t r = c; r < kRounds; ++r) {
          restored.step();
          ASSERT_EQ(restored.state_fingerprint(), fingerprints[r + 1])
              << core::to_string(algorithm) << " checkpointed at " << c << ", diverged at round "
              << r + 1;
        }
      }
    }
  }
}

TEST(CheckpointSync, LegacyAndArenaBlobsAreDistinctButBothRestore) {
  // The two modes serialize differently (dim-prefixed masses vs raw stride
  // rows), so the header pins the mode and a cross-mode restore refuses.
  const auto t = net::Topology::ring(12);
  auto legacy = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, lifecycle_plan());
  auto arena = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kArena, lifecycle_plan());
  legacy.run(10);
  arena.run(10);
  // Same protocol state regardless of layout...
  EXPECT_EQ(legacy.state_fingerprint(), arena.state_fingerprint());
  // ...but the blobs are layout-specific and refuse to cross-restore.
  EXPECT_THROW(legacy.restore(arena.save_checkpoint()), CheckpointError);
  EXPECT_THROW(arena.restore(legacy.save_checkpoint()), CheckpointError);
}

TEST(CheckpointSync, LightweightEqualsFullAtRoundBoundaries) {
  // The synchronous wire is empty between rounds, so the two modes differ
  // only in the header's mode byte and restore identically.
  auto engine =
      make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                lifecycle_plan());
  engine.run(10);
  const std::string full = engine.save_checkpoint(CheckpointMode::kFull);
  const std::string light = engine.save_checkpoint(CheckpointMode::kLightweight);
  EXPECT_EQ(full.size(), light.size());
  auto a = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                     lifecycle_plan());
  auto b = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                     lifecycle_plan());
  a.restore(full);
  b.restore(light);
  a.run(15);
  b.run(15);
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
}

TEST(CheckpointAsync, FullRestoreContinuesBitwise) {
  const auto t = net::Topology::ring(10);
  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const double at : {0.0, 3.7, 6.0}) {
      auto reference = make_async(t, algorithm, lifecycle_plan());
      reference.run_until(at);
      const std::string blob = reference.save_checkpoint(CheckpointMode::kFull);
      auto restored = make_async(t, algorithm, lifecycle_plan());
      restored.restore(blob);
      ASSERT_EQ(restored.state_fingerprint(), reference.state_fingerprint())
          << core::to_string(algorithm) << " at t=" << at;
      // The full blob carries every pending event (in-flight packets
      // included), so the continuation is bitwise-identical.
      reference.run_until(14.0);
      restored.run_until(14.0);
      ASSERT_EQ(restored.state_fingerprint(), reference.state_fingerprint())
          << core::to_string(algorithm) << " diverged after restore at t=" << at;
      EXPECT_EQ(restored.estimates(), reference.estimates());
    }
  }
}

TEST(CheckpointAsync, LightweightDropsInFlightAndFlowAlgorithmsSelfHeal) {
  // The state-only blob loses the queued deliveries: it must be strictly
  // smaller mid-flight, and the flow algorithms (absolute mirrors) must still
  // reconverge to the unchanged oracle target after the lossy restore.
  const auto t = net::Topology::ring(10);
  for (const Algorithm algorithm :
       {Algorithm::kPushFlow, Algorithm::kPushCancelFlow, Algorithm::kFlowUpdating}) {
    auto engine = make_async(t, algorithm, FaultPlan{});
    engine.run_until(6.0);
    const std::string full = engine.save_checkpoint(CheckpointMode::kFull);
    const std::string light = engine.save_checkpoint(CheckpointMode::kLightweight);
    EXPECT_LT(light.size(), full.size()) << core::to_string(algorithm);
    auto restored = make_async(t, algorithm, FaultPlan{});
    restored.restore(light);
    EXPECT_TRUE(restored.run_until_error(1e-9, /*deadline=*/400.0))
        << core::to_string(algorithm) << " did not re-converge after a lightweight restore";
  }
}

// ----------------------------------------------------------------- rejection

TEST(CheckpointReject, TruncatedAndTrailingBytes) {
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow,
                          EngineMode::kLegacy, lifecycle_plan());
  engine.run(6);
  const std::string blob = engine.save_checkpoint();
  for (const double frac : {0.0, 0.1, 0.5, 0.95}) {
    auto fresh = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow,
                           EngineMode::kLegacy, lifecycle_plan());
    const auto cut = static_cast<std::size_t>(static_cast<double>(blob.size()) * frac);
    EXPECT_THROW(fresh.restore(std::string_view(blob).substr(0, cut)), CheckpointError)
        << "accepted a blob truncated to " << cut << " bytes";
  }
  auto fresh = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                         lifecycle_plan());
  EXPECT_THROW(fresh.restore(blob + "x"), CheckpointError);
}

TEST(CheckpointReject, BadMagicVersionSkewAndCorruptHash) {
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow,
                          EngineMode::kLegacy, lifecycle_plan());
  engine.run(6);
  const std::string blob = engine.save_checkpoint();
  auto fresh = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                         lifecycle_plan());

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(fresh.restore(bad_magic), CheckpointError);

  // Header layout: magic[8], u32 version at offset 8.
  std::string skewed = blob;
  skewed[8] = static_cast<char>(kCheckpointVersion + 1);
  EXPECT_THROW(fresh.restore(skewed), CheckpointError);

  // Compat hash at offset 40 (magic 8 + version 4 + four u8 tags + seed 8 +
  // nodes 8 + dim 8) — a flipped bit there must read as "wrong engine".
  std::string corrupt = blob;
  corrupt[40] = static_cast<char>(corrupt[40] ^ 0x01);
  EXPECT_THROW(fresh.restore(corrupt), CheckpointError);
}

TEST(CheckpointReject, MismatchedEngineAlgorithmSeedTopologyAndKind) {
  const auto t = net::Topology::ring(12);
  auto engine = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, lifecycle_plan());
  engine.run(6);
  const std::string blob = engine.save_checkpoint();

  auto wrong_algorithm = make_sync(t, Algorithm::kPushFlow, EngineMode::kLegacy, lifecycle_plan());
  EXPECT_THROW(wrong_algorithm.restore(blob), CheckpointError);

  auto wrong_seed =
      make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, lifecycle_plan(), 99);
  EXPECT_THROW(wrong_seed.restore(blob), CheckpointError);

  auto wrong_topology = make_sync(net::Topology::ring(13), Algorithm::kPushCancelFlow,
                                  EngineMode::kLegacy, lifecycle_plan());
  EXPECT_THROW(wrong_topology.restore(blob), CheckpointError);

  // A faultless engine differs in the fault schedule — the compat hash covers
  // the scheduled events, so the restore refuses.
  auto wrong_faults = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, FaultPlan{});
  EXPECT_THROW(wrong_faults.restore(blob), CheckpointError);

  // Sync blob into an async engine (and vice versa): the kind byte refuses.
  auto async_engine = make_async(net::Topology::ring(12), Algorithm::kPushCancelFlow, FaultPlan{});
  EXPECT_THROW(async_engine.restore(blob), CheckpointError);
  const std::string async_blob = async_engine.save_checkpoint();
  auto sync_fresh = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, lifecycle_plan());
  EXPECT_THROW(sync_fresh.restore(async_blob), CheckpointError);
}

TEST(CheckpointReject, MismatchedAlgorithmAcrossRoster) {
  // The roster additions must be just as un-confusable as the original four:
  // every pair of distinct algorithms refuses to cross-restore.
  const auto t = net::Topology::ring(12);
  for (const Algorithm saved : kAllAlgorithms) {
    auto engine = make_sync(t, saved, EngineMode::kLegacy, lifecycle_plan());
    engine.run(4);
    const std::string blob = engine.save_checkpoint();
    for (const Algorithm restored : kAllAlgorithms) {
      auto fresh = make_sync(t, restored, EngineMode::kLegacy, lifecycle_plan());
      if (restored == saved) {
        EXPECT_NO_THROW(fresh.restore(blob));
      } else {
        EXPECT_THROW(fresh.restore(blob), CheckpointError)
            << core::to_string(saved) << " blob restored into a " << core::to_string(restored)
            << " engine";
      }
    }
  }
}

TEST(CheckpointReject, MismatchedTreeKind) {
  // An explicitly requested tree shape is part of the construction inputs:
  // restoring its blob into an engine with a different (or default-auto)
  // shape must refuse. kAuto itself is deliberately NOT hashed, so blobs
  // saved before the roster existed keep restoring.
  const auto t = net::Topology::ring(12);
  const auto values = test::random_values(t.size(), 3 ^ 0xabcdef);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  const auto engine_with = [&](net::TreeKind kind) {
    SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kCorrectionAllreduce;
    cfg.seed = 3;
    cfg.invariants.enabled = true;
    cfg.reducer.tree_kind = kind;
    return SyncEngine(t, masses, cfg);
  };
  auto bfs = engine_with(net::TreeKind::kBfs);
  bfs.run(4);
  const std::string blob = bfs.save_checkpoint();
  auto chain = engine_with(net::TreeKind::kChain);
  EXPECT_THROW(chain.restore(blob), CheckpointError);
  auto auto_kind = engine_with(net::TreeKind::kAuto);
  EXPECT_THROW(auto_kind.restore(blob), CheckpointError);
  auto bfs_again = engine_with(net::TreeKind::kBfs);
  EXPECT_NO_THROW(bfs_again.restore(blob));
}

/// Byte offsets of the sync body's dead-link set and three fault-event lists,
/// each at its u64 count. Walks the fixed-size prefix of the body (DESIGN.md
/// §8) and the three counted link sets (dead, cut, falsely excluded).
struct SyncListOffsets {
  std::size_t links = 0;
  std::size_t notices = 0;
  std::size_t heals = 0;
  std::size_t clears = 0;
};

std::uint64_t u64_at(const std::string& blob, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(blob.at(at + i))) << (8 * i);
  }
  return v;
}

SyncListOffsets sync_list_offsets(const std::string& blob, std::size_t n) {
  constexpr std::size_t kHeader = 8 + 4 + 4 + 5 * 8;
  constexpr std::size_t kFaultKnobs = 9 * 8 + 1;
  constexpr std::size_t kCursorsAndFlags = 7 * 8 + 3;
  constexpr std::size_t kStats = 7 * 8 + 1;
  constexpr std::size_t kFiredCounters = 8 * 8;
  std::size_t at = kHeader + kFaultKnobs + kCursorsAndFlags + kStats + kFiredCounters +
                   8 * n /* rejoin counts */ + 32 * (n + 1) /* rngs */ + n /* alive */;
  SyncListOffsets o;
  o.links = at;
  for (int set = 0; set < 3; ++set) at += 8 + 8 * u64_at(blob, at);
  o.notices = at;
  at += 8 + 17 * u64_at(blob, at);  // f64 due, u32 node, u32 peer, u8 up
  o.heals = at;
  at += 8 + 16 * u64_at(blob, at);  // f64 time, u32 a, u32 b
  o.clears = at;
  return o;
}

/// Byte offsets in the async body (DESIGN.md §8): the pending-detect count,
/// and the dead-link, heal-epoch and FIFO-clamp tables, each at its u64 count.
struct AsyncTableOffsets {
  std::size_t detects = 0;
  std::size_t links = 0;
  std::size_t heals = 0;
  std::size_t clamps = 0;
};

AsyncTableOffsets async_table_offsets(const std::string& blob, std::size_t n) {
  constexpr std::size_t kHeader = 8 + 4 + 4 + 5 * 8;
  constexpr std::size_t kFaultKnobs = 9 * 8 + 1;
  constexpr std::size_t kClockAndFlag = 3 * 8 + 1;  // now, next seq, delivered, retarget
  constexpr std::size_t kCounters = 10 * 8;         // pending detects, up notices, 8 fired
  AsyncTableOffsets o;
  o.detects = kHeader + kFaultKnobs + kClockAndFlag;
  std::size_t at = o.detects + kCounters + 32 /* net rng */ + 32 * n /* node rngs */ +
                   n /* alive */;
  o.links = at;
  for (int set = 0; set < 3; ++set) at += 8 + 8 * u64_at(blob, at);
  o.heals = at;
  at += 8 + 16 * u64_at(blob, at);  // u32 a, u32 b, u64 seq
  o.clamps = at;
  return o;
}

/// Overwrites the little-endian u32 at `at` with `id`.
std::string with_node_id(std::string blob, std::size_t at, std::uint32_t id) {
  for (std::size_t i = 0; i < 4; ++i) blob.at(at + i) = static_cast<char>((id >> (8 * i)) & 0xffU);
  return blob;
}

/// Overwrites the little-endian u32 at `at` with an id no ring:8 node has.
std::string with_bad_node_id(std::string blob, std::size_t at) {
  return with_node_id(std::move(blob), at, 0xFFFFFF00U);
}

std::uint32_t u32_at(const std::string& blob, std::size_t at) {
  return static_cast<std::uint32_t>(u64_at(blob, at) & 0xffffffffU);
}

/// Rewrites of a link table at `table` (its u64 count) that no engine writes,
/// for a table whose first entry is hypercube:3's edge (0, 1) and whose
/// entries are `stride` bytes apart: the entry reversed to (1, 0), moved to
/// (0, 3) — two bits apart, so no edge — and the second entry repeating the
/// first.
std::vector<std::string> bad_link_tables(const std::string& blob, std::size_t table,
                                         std::size_t stride) {
  const std::size_t first = table + 8;
  std::string repeated = blob;
  for (std::size_t i = 0; i < 8; ++i) repeated.at(first + stride + i) = blob.at(first + i);
  return {with_node_id(with_node_id(blob, first, 1), first + 4, 0),
          with_node_id(blob, first + 4, 3), std::move(repeated)};
}

TEST(CheckpointReject, SyncLinkTableEntryThatNoEngineWrites) {
  // A dead-link entry (1, 0) would let packets cross a link both reducers
  // had excluded, and (0, 3) would surface later as a ContractViolation in
  // the chaos heal loop instead of a CheckpointError here. Every entry must
  // be a topology edge (a, b) with a < b, strictly after the previous one.
  const auto t = net::Topology::hypercube(3);
  auto engine = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, {});
  engine.fail_link_now(0, 1);
  engine.fail_link_now(2, 3);
  engine.run(2);
  const std::string blob = engine.save_checkpoint();
  const SyncListOffsets o = sync_list_offsets(blob, 8);
  ASSERT_EQ(u64_at(blob, o.links), 2u) << "dead-link table is not {(0,1), (2,3)}";
  ASSERT_EQ(u32_at(blob, o.links + 8), 0u);
  ASSERT_EQ(u32_at(blob, o.links + 12), 1u);
  auto fresh = make_sync(t, Algorithm::kPushCancelFlow, EngineMode::kLegacy, {});
  ASSERT_NO_THROW(fresh.restore(blob));
  for (const std::string& bad : bad_link_tables(blob, o.links, 8)) {
    EXPECT_THROW(fresh.restore(bad), CheckpointError);
  }
}

TEST(CheckpointReject, AsyncLinkTablesEntryThatNoEngineWrites) {
  // Same rule for the async engine's link sets and its heal-epoch table:
  // links 0-1 and 2-3 fail, heal (recording their heal epochs) and fail again.
  FaultPlan plan;
  for (const double time : {0.5, 1.5}) {
    plan.link_failures.push_back({time, 0, 1});
    plan.link_failures.push_back({time, 2, 3});
  }
  plan.link_heals.push_back({1.0, 0, 1});
  plan.link_heals.push_back({1.0, 2, 3});
  const auto t = net::Topology::hypercube(3);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, plan);
  engine.run_until(3.0);
  const std::string blob = engine.save_checkpoint();
  const AsyncTableOffsets o = async_table_offsets(blob, 8);
  for (const std::size_t table : {o.links, o.heals}) {
    ASSERT_EQ(u64_at(blob, table), 2u) << "link table is not {(0,1), (2,3)}";
    ASSERT_EQ(u32_at(blob, table + 8), 0u);
    ASSERT_EQ(u32_at(blob, table + 12), 1u);
  }
  auto fresh = make_async(t, Algorithm::kPushCancelFlow, plan);
  ASSERT_NO_THROW(fresh.restore(blob));
  for (const std::string& bad : bad_link_tables(blob, o.links, 8)) {
    EXPECT_THROW(fresh.restore(bad), CheckpointError);
  }
  for (const std::string& bad : bad_link_tables(blob, o.heals, 16)) {
    EXPECT_THROW(fresh.restore(bad), CheckpointError);
  }
}

TEST(CheckpointReject, OutOfRangeNodeIdInPendingNotice) {
  FaultPlan plan;
  plan.link_failures.push_back({2.0, 0, 1});
  plan.detection_delay = 5.0;
  auto engine = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                          plan);
  engine.run(3);
  const std::string blob = engine.save_checkpoint();
  const SyncListOffsets o = sync_list_offsets(blob, 8);
  ASSERT_GT(u64_at(blob, o.notices), 0u) << "scenario left no detector notice pending";
  ASSERT_LT(u64_at(blob, o.notices + 8 + 8) & 0xffffffffU, 8u) << "offset is not a node id";
  auto fresh = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                         plan);
  ASSERT_NO_THROW(fresh.restore(blob));
  EXPECT_THROW(fresh.restore(with_bad_node_id(blob, o.notices + 8 + 8)), CheckpointError);
}

TEST(CheckpointReject, OutOfRangeNodeIdInChurnHeal) {
  FaultPlan plan;
  plan.link_failures.push_back({2.0, 0, 1});
  plan.churn_heal_rate = 0.01;
  auto engine = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                          plan);
  engine.run(3);
  const std::string blob = engine.save_checkpoint();
  const SyncListOffsets o = sync_list_offsets(blob, 8);
  ASSERT_GT(u64_at(blob, o.heals), 0u) << "scenario left no churn heal pending";
  ASSERT_LT(u64_at(blob, o.heals + 8 + 8) & 0xffffffffU, 8u) << "offset is not a node id";
  auto fresh = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                         plan);
  ASSERT_NO_THROW(fresh.restore(blob));
  EXPECT_THROW(fresh.restore(with_bad_node_id(blob, o.heals + 8 + 8)), CheckpointError);
}

TEST(CheckpointReject, OutOfRangeNodeIdInPendingClear) {
  FaultPlan plan;
  plan.false_detects.push_back({1.0, 4, 5, 10.0});
  auto engine = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                          plan);
  engine.run(3);
  const std::string blob = engine.save_checkpoint();
  const SyncListOffsets o = sync_list_offsets(blob, 8);
  ASSERT_GT(u64_at(blob, o.clears), 0u) << "scenario left no false-positive clear pending";
  ASSERT_LT(u64_at(blob, o.clears + 8 + 8) & 0xffffffffU, 8u) << "offset is not a node id";
  auto fresh = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                         plan);
  ASSERT_NO_THROW(fresh.restore(blob));
  EXPECT_THROW(fresh.restore(with_bad_node_id(blob, o.clears + 8 + 8)), CheckpointError);
}

TEST(CheckpointReject, FifoClampOnANonEdge) {
  // The clamp table is indexed by edge, so a (sender, receiver) pair that is
  // in range but not a topology edge has nowhere to go: refuse it.
  auto engine = make_async(net::Topology::ring(8), Algorithm::kPushCancelFlow, FaultPlan{});
  engine.run_until(3.0);
  const std::string blob = engine.save_checkpoint();
  const AsyncTableOffsets o = async_table_offsets(blob, 8);
  ASSERT_GT(u64_at(blob, o.clamps), 0u) << "no FIFO clamp was recorded";
  const auto sender = static_cast<std::uint32_t>(u64_at(blob, o.clamps + 8) & 0xffffffffU);
  ASSERT_LT(sender, 8u) << "offset is not a node id";
  auto fresh = make_async(net::Topology::ring(8), Algorithm::kPushCancelFlow, FaultPlan{});
  ASSERT_NO_THROW(fresh.restore(blob));
  // Across the ring: a node id in range that is no neighbor of the sender.
  EXPECT_THROW(fresh.restore(with_node_id(blob, o.clamps + 8 + 4, (sender + 4) % 8)),
               CheckpointError);
}

TEST(CheckpointReject, FifoClampOutOfOrderOrZero) {
  // A save writes each link's clamp once, in edge order, and never a zero.
  auto engine = make_async(net::Topology::ring(8), Algorithm::kPushCancelFlow, FaultPlan{});
  engine.run_until(3.0);
  const std::string blob = engine.save_checkpoint();
  const AsyncTableOffsets o = async_table_offsets(blob, 8);
  ASSERT_GT(u64_at(blob, o.clamps), 1u) << "fewer than two FIFO clamps were recorded";
  const std::size_t first = o.clamps + 8;
  std::string repeated = blob;  // the second entry names the first one's link
  for (std::size_t i = 0; i < 8; ++i) repeated.at(first + 16 + i) = blob.at(first + i);
  std::string zero = blob;
  for (std::size_t i = 0; i < 8; ++i) zero.at(first + 8 + i) = 0;
  auto fresh = make_async(net::Topology::ring(8), Algorithm::kPushCancelFlow, FaultPlan{});
  EXPECT_THROW(fresh.restore(repeated), CheckpointError);
  EXPECT_THROW(fresh.restore(zero), CheckpointError);
}

/// Offsets of the async event entries of `kind` queued for a time in
/// [lo, hi]: an entry is f64 time, u8 kind, u32 a, u32 b, u64 seq, f64 aux
/// (DESIGN.md §8), and both ids must be below n.
std::vector<std::size_t> async_event_offsets(const std::string& blob, std::uint8_t kind,
                                             double lo, double hi, std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t at = 0; at + 17 <= blob.size(); ++at) {
    const double time = std::bit_cast<double>(u64_at(blob, at));
    if (!(time >= lo && time <= hi) || static_cast<std::uint8_t>(blob[at + 8]) != kind) continue;
    if (u32_at(blob, at + 9) < n && u32_at(blob, at + 13) < n) out.push_back(at);
  }
  return out;
}

TEST(CheckpointReject, AsyncEventOnANonEdge) {
  // A delivery or link event names a topology edge. A delivery elsewhere has
  // no receiver slot to land in, and a link failure elsewhere would put a
  // non-edge into the dead-link table: refuse both on restore.
  FaultPlan plan;
  plan.detection_delay = 5.0;
  plan.link_failures.push_back({2.0, 4, 5});    // detectors due at 7
  plan.link_failures.push_back({7.25, 0, 1});
  plan.link_heals.push_back({8.25, 0, 1});
  plan.false_detects.push_back({9.25, 2, 3, 1.0});
  const auto t = net::Topology::ring(8);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, plan);
  engine.run_until(3.0);
  const std::string blob = engine.save_checkpoint();
  auto fresh = make_async(t, Algorithm::kPushCancelFlow, plan);
  ASSERT_NO_THROW(fresh.restore(blob));

  struct Case {
    std::uint8_t kind;
    double lo, hi;
    std::size_t count;
  };
  // Kind values are the wire format's (sim/checkpoint.cpp pins them).
  for (const Case c : {Case{1, 3.0, 4.0, 1}, Case{2, 7.25, 7.25, 1}, Case{4, 7.0, 7.0, 2},
                       Case{6, 8.25, 8.25, 1}, Case{9, 9.25, 9.25, 1}}) {
    const auto entries = async_event_offsets(blob, c.kind, c.lo, c.hi, 8);
    ASSERT_GE(entries.size(), c.count) << "no pending event of kind " << int{c.kind};
    for (const std::size_t at : entries) {
      // Across the ring: a node id in range that is no neighbor of endpoint a.
      const std::uint32_t a = u32_at(blob, at + 9);
      EXPECT_THROW(fresh.restore(with_node_id(blob, at + 13, (a + 4) % 8)), CheckpointError)
          << "accepted an event of kind " << int{c.kind} << " on (" << a << ", "
          << (a + 4) % 8 << ")";
    }
  }
}

/// The pending-event list that ends an async blob: the offset of its u64
/// count and of each entry. An entry is f64 time, u8 kind, u32 a, u32 b,
/// u64 seq, f64 aux and, for a delivery (kind 1) or a data update (kind 5),
/// a packet: two masses (u8 dim, dim f64 values, f64 weight), u8 active
/// slot, u64 role count. The list is found as the first count, past the FIFO
/// clamp table, whose entries parse exactly to the end of the blob.
struct EventList {
  std::size_t count_at = 0;
  std::vector<std::size_t> entries;
};

std::optional<std::vector<std::size_t>> parse_event_list(const std::string& blob, std::size_t at,
                                                         std::size_t n) {
  const std::uint64_t count = u64_at(blob, at);
  if (count == 0 || count > blob.size()) return std::nullopt;
  at += 8;
  std::vector<std::size_t> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (at + 33 > blob.size()) return std::nullopt;
    const auto kind = static_cast<std::uint8_t>(blob[at + 8]);
    if (kind > 11 || u32_at(blob, at + 9) >= n || u32_at(blob, at + 13) >= n) return std::nullopt;
    entries.push_back(at);
    at += 33;
    if (kind == 1 || kind == 5) {
      for (int mass = 0; mass < 2; ++mass) {
        if (at >= blob.size()) return std::nullopt;
        at += 1 + 8 * static_cast<std::uint8_t>(blob[at]) + 8;
      }
      at += 1 + 8;
    }
  }
  if (at != blob.size()) return std::nullopt;
  return entries;
}

EventList async_event_list(const std::string& blob, std::size_t n) {
  for (std::size_t at = async_table_offsets(blob, n).clamps; at + 8 <= blob.size(); ++at) {
    if (auto entries = parse_event_list(blob, at, n)) return {at, std::move(*entries)};
  }
  ADD_FAILURE() << "no pending-event list ends the blob";
  return {};
}

/// `blob` with its pending-event list written in reverse.
std::string with_events_reversed(const std::string& blob, std::size_t n) {
  const EventList list = async_event_list(blob, n);
  std::string out = blob.substr(0, list.count_at + 8);
  for (std::size_t i = list.entries.size(); i-- > 0;) {
    const std::size_t end = i + 1 < list.entries.size() ? list.entries[i + 1] : blob.size();
    out += blob.substr(list.entries[i], end - list.entries[i]);
  }
  return out;
}

/// Overwrites the f64 at `at` with NaN.
std::string with_nan_at(std::string blob, std::size_t at) {
  const auto bits = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < 8; ++i) blob.at(at + i) = static_cast<char>((bits >> (8 * i)) & 0xffU);
  return blob;
}

TEST(CheckpointReject, NonFiniteSimulationTimeOrEventTime) {
  // The event queue orders events by time; a NaN has no place in that order.
  const auto t = net::Topology::ring(8);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan());
  engine.run_until(3.0);
  const std::string blob = engine.save_checkpoint();
  const std::size_t now_at = async_table_offsets(blob, 8).detects - 3 * 8 - 1;
  ASSERT_EQ(std::bit_cast<double>(u64_at(blob, now_at)), engine.now()) << "now is not at " << now_at;
  const EventList list = async_event_list(blob, 8);
  ASSERT_FALSE(list.entries.empty());
  auto fresh = make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan());
  ASSERT_NO_THROW(fresh.restore(blob));
  EXPECT_THROW(fresh.restore(with_nan_at(blob, now_at)), CheckpointError);
  EXPECT_THROW(fresh.restore(with_nan_at(blob, list.entries.front())), CheckpointError);
  EXPECT_THROW(fresh.restore(with_nan_at(blob, list.entries.back())), CheckpointError);
}

TEST(CheckpointAsync, EventListInAnyOrderRestoresTheSameRun) {
  // Blobs list the pending events in firing order, but (time, seq) alone
  // fixes the order they fire in: a reversed list restores the same run.
  const auto t = net::Topology::ring(8);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  engine.run_until(6.0);
  const std::string blob = engine.save_checkpoint(CheckpointMode::kFull);
  const std::string reversed = with_events_reversed(blob, 8);
  ASSERT_EQ(reversed.size(), blob.size());
  ASSERT_NE(reversed, blob);
  auto a = make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  auto b = make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  a.restore(blob);
  b.restore(reversed);
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  EXPECT_EQ(b.save_checkpoint(CheckpointMode::kFull), blob);  // written back in firing order
  a.run_until(20.0);
  b.run_until(20.0);
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  EXPECT_EQ(b.perf().events_processed, a.perf().events_processed);
  EXPECT_EQ(b.messages_delivered(), a.messages_delivered());
  engine.run_until(20.0);
  EXPECT_EQ(a.state_fingerprint(), engine.state_fingerprint());
}

// ------------------------------------------------------------------- header

TEST(CheckpointPeek, ReportsHeaderFieldsWithoutAnEngine) {
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, EngineMode::kArena,
                          lifecycle_plan(), 7);
  engine.run(9);
  const CheckpointInfo info = peek_checkpoint(engine.save_checkpoint(CheckpointMode::kFull));
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.engine_kind, 1);  // sync
  EXPECT_EQ(info.mode, CheckpointMode::kFull);
  EXPECT_EQ(info.algorithm, static_cast<std::uint8_t>(Algorithm::kPushCancelFlow));
  EXPECT_EQ(info.engine_mode, 1);  // arena
  EXPECT_EQ(info.seed, 7u);
  EXPECT_EQ(info.nodes, 12u);
  EXPECT_EQ(info.dim, 1u);
  EXPECT_EQ(info.position, 9.0);
  EXPECT_THROW((void)peek_checkpoint("not a checkpoint"), CheckpointError);
}

// ------------------------------------------------------------- golden format

TEST(CheckpointGolden, FormatHashIsPinned) {
  // FNV-1a over a canonical blob (ring:8, PCF, legacy, seed 7, 10 faulted
  // rounds). Integers are written little-endian byte by byte and doubles as
  // IEEE-754 bits, so this hash is platform-independent. If it changes, the
  // on-disk format drifted: bump kCheckpointVersion (old blobs must be
  // rejected, not misread) and re-pin.
  auto engine =
      make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, EngineMode::kLegacy,
                lifecycle_plan(), 7);
  engine.run(10);
  const std::string blob = engine.save_checkpoint(CheckpointMode::kFull);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : blob) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  EXPECT_EQ(h, 0xf4fff9a01cdd0cacULL) << "checkpoint format drifted (blob is " << blob.size()
                       << " bytes) — bump kCheckpointVersion and re-pin this hash";
}

std::uint64_t fnv1a(const std::string& blob) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : blob) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(CheckpointGolden, RosterCodecHashesArePinned) {
  // Same pinning discipline for the roster additions' state codecs
  // (correction-allreduce: received/child/global view; hybrid: FU-shaped
  // flow/report rows). A changed hash means the on-disk layout drifted.
  auto corr = make_sync(net::Topology::ring(8), Algorithm::kCorrectionAllreduce,
                        EngineMode::kLegacy, lifecycle_plan(), 7);
  corr.run(10);
  EXPECT_EQ(fnv1a(corr.save_checkpoint(CheckpointMode::kFull)), 0x11eec8ea75ca6f8dULL)
      << "correction-allreduce checkpoint codec drifted — bump kCheckpointVersion and re-pin";
  auto fumd = make_sync(net::Topology::ring(8), Algorithm::kFuMassHybrid, EngineMode::kLegacy,
                        lifecycle_plan(), 7);
  fumd.run(10);
  EXPECT_EQ(fnv1a(fumd.save_checkpoint(CheckpointMode::kFull)), 0x308ba8a18f34d5c1ULL)
      << "fu-mass-hybrid checkpoint codec drifted — bump kCheckpointVersion and re-pin";
}

TEST(CheckpointGolden, ArenaCodecHashesArePinned) {
  // The arena layout writes raw stride rows instead of dim-prefixed masses,
  // so it needs pins of its own: same canonical run as the legacy pins above.
  const struct {
    Algorithm algorithm;
    std::uint64_t hash;
  } pins[] = {{Algorithm::kPushCancelFlow, 0xe78cbdad7b71a3a0ULL},
              {Algorithm::kCorrectionAllreduce, 0xfba24c4c28a8719dULL},
              {Algorithm::kFuMassHybrid, 0x3e780b32dba3616eULL}};
  for (const auto& pin : pins) {
    auto engine = make_sync(net::Topology::ring(8), pin.algorithm, EngineMode::kArena,
                            lifecycle_plan(), 7);
    engine.run(10);
    EXPECT_EQ(fnv1a(engine.save_checkpoint(CheckpointMode::kFull)), pin.hash)
        << core::to_string(pin.algorithm)
        << " arena checkpoint codec drifted — bump kCheckpointVersion and re-pin";
  }
}

TEST(CheckpointGolden, RemainingSyncCodecHashesArePinned) {
  // The rest of the sync roster on the canonical run, both layouts, plus the
  // reducer options that change which rows exist (PF's cached flow sum) or
  // how PCF keeps them (the fast variant).
  core::ReducerConfig cached;
  cached.pf_cached_flow_sum = true;
  core::ReducerConfig fast;
  fast.pcf_variant = core::PcfVariant::kFast;
  const struct {
    Algorithm algorithm;
    core::ReducerConfig reducer;
    std::uint64_t legacy;
    std::uint64_t arena;
  } pins[] = {{Algorithm::kPushSum, {}, 0xf5f6fd8555026523ULL, 0x1dd6d3d7eea77d33ULL},
              {Algorithm::kPushFlow, {}, 0x03ec6793f1c62d48ULL, 0x705fdf053a674d0cULL},
              {Algorithm::kPushFlow, cached, 0x55ae7149fc93ac92ULL, 0xe516addd0bd80744ULL},
              {Algorithm::kFlowUpdating, {}, 0x448e5c7443f22adfULL, 0x3d4b3ba50435ec04ULL},
              {Algorithm::kPushCancelFlow, fast, 0xd5398dee53d38ecaULL, 0xa5c691f6103a566eULL}};
  for (const auto& pin : pins) {
    for (const EngineMode mode : {EngineMode::kLegacy, EngineMode::kArena}) {
      auto engine = make_sync(net::Topology::ring(8), pin.algorithm, mode, lifecycle_plan(), 7,
                              pin.reducer);
      engine.run(10);
      EXPECT_EQ(fnv1a(engine.save_checkpoint(CheckpointMode::kFull)),
                mode == EngineMode::kLegacy ? pin.legacy : pin.arena)
          << core::to_string(pin.algorithm) << " (cached flow sum "
          << pin.reducer.pf_cached_flow_sum << ", fast "
          << (pin.reducer.pcf_variant == core::PcfVariant::kFast) << ", arena "
          << (mode == EngineMode::kArena)
          << ") checkpoint codec drifted — bump kCheckpointVersion and re-pin";
    }
  }
}

TEST(CheckpointGolden, AsyncCodecHashesArePinned) {
  // The async body adds the link maps and the pending events in firing
  // order; lightweight blobs drop the queued deliveries. Canonical run: ring:8, seed 7, 10 time units.
  const struct {
    Algorithm algorithm;
    std::uint64_t full;
    std::uint64_t light;
  } pins[] = {{Algorithm::kPushSum, 0x898081b452139338ULL, 0x3036a42ab0ce69b8ULL},
              {Algorithm::kPushFlow, 0x85b8300fb1e56e2dULL, 0x7a46140963005189ULL},
              {Algorithm::kPushCancelFlow, 0x1b0ad7e796df5d2fULL, 0x9437ac81e0a4076cULL},
              {Algorithm::kFlowUpdating, 0x8546ade86705e33aULL, 0x4c1e806111be3dbdULL},
              {Algorithm::kCorrectionAllreduce, 0xa380389e075f0e2dULL, 0x51fef0c369cdeaa9ULL},
              {Algorithm::kFuMassHybrid, 0xd27dbc35ec3158f0ULL, 0x663bd08988ed2e7bULL}};
  for (const auto& pin : pins) {
    auto engine = make_async(net::Topology::ring(8), pin.algorithm, lifecycle_plan(), 7);
    engine.run_until(10.0);
    EXPECT_EQ(fnv1a(engine.save_checkpoint(CheckpointMode::kFull)), pin.full)
        << core::to_string(pin.algorithm)
        << " async full checkpoint drifted — bump kCheckpointVersion and re-pin";
    EXPECT_EQ(fnv1a(engine.save_checkpoint(CheckpointMode::kLightweight)), pin.light)
        << core::to_string(pin.algorithm)
        << " async lightweight checkpoint drifted — bump kCheckpointVersion and re-pin";
  }
}

// ---------------------------------------------------------- async history
//
// The async engine's observable history, pinned at three points: after
// run_until(T), and after restoring the full and the lightweight blob taken
// there into fresh engines and running each on. The node state (the
// fingerprint), the event and delivery counts (the pop order) and the bytes
// of both blob modes (the events in firing order and the link tables) must
// not move when the event queue's representation changes.

struct AsyncPin {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t full = 0;
  std::uint64_t light = 0;
};

AsyncPin pin_of(const AsyncEngine& engine) {
  return {engine.state_fingerprint(), engine.perf().events_processed,
          engine.messages_delivered(), fnv1a(engine.save_checkpoint(CheckpointMode::kFull)),
          fnv1a(engine.save_checkpoint(CheckpointMode::kLightweight))};
}

/// The pins of one scenario: run to `t`, then continue each blob to `t2`.
template <class Make>
std::array<AsyncPin, 3> async_history(Make make, double t, double t2) {
  auto engine = make();
  engine.run_until(t);
  std::array<AsyncPin, 3> pins{pin_of(engine)};
  std::size_t next = 1;
  for (const CheckpointMode mode : {CheckpointMode::kFull, CheckpointMode::kLightweight}) {
    auto resumed = make();
    resumed.restore(engine.save_checkpoint(mode));
    resumed.run_until(t2);
    pins.at(next++) = pin_of(resumed);
  }
  return pins;
}

void expect_history(const std::array<AsyncPin, 3>& got, const std::array<AsyncPin, 3>& want,
                    const std::string& what) {
  const char* const points[] = {"at T", "after the full restore", "after the lightweight restore"};
  for (std::size_t p = 0; p < got.size(); ++p) {
    const AsyncPin& g = got.at(p);
    const AsyncPin& w = want.at(p);
    EXPECT_EQ(g.fingerprint, w.fingerprint) << what << " state " << points[p];
    EXPECT_EQ(g.events, w.events) << what << " events " << points[p];
    EXPECT_EQ(g.delivered, w.delivered) << what << " deliveries " << points[p];
    EXPECT_EQ(g.full, w.full) << what << " full blob " << points[p];
    EXPECT_EQ(g.light, w.light) << what << " lightweight blob " << points[p];
  }
}

TEST(AsyncGolden, RedbenchShapeHistoryIsPinned) {
  // The redbench `async` shape: regular:1000:8 in the CLI seed layout, PCF,
  // no faults, T = 40.
  const auto t = seeded_inputs("regular:1000:8", 1, Aggregate::kAverage).topology;
  const auto make = [&] { return make_async(t, Algorithm::kPushCancelFlow, FaultPlan{}, 1); };
  const std::array<AsyncPin, 3> want = {{
      {0xbb5b694dd881c747ULL, 79830, 39779, 0x2cab7e22deaffcddULL, 0x811b70f4274b4379ULL},
      {0x488edfaa52bfa26eULL, 92034, 45856, 0xd6218b451a60844dULL, 0xa3dded758253d5b1ULL},
      {0x06bd2db2126f6f2dULL, 91762, 45584, 0x0bcb4c156f38cc5dULL, 0x762087843ccb7d4fULL},
  }};
  expect_history(async_history(make, 40.0, 46.0), want, "regular:1000:8 pcf");
}

/// Every fault the async engine models, on a 24-node torus: loss,
/// duplicates, reordering with jitter, bit and state flips, a crash and its
/// rejoin, a cut and its heal, churn, a false positive and a data update.
/// At T = 10 the heal has fired and the rejoin and the false clear are
/// still queued.
FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.message_loss_prob = 0.05;
  plan.duplicate_prob = 0.1;
  plan.reorder_prob = 0.2;
  plan.reorder_jitter = 0.7;
  plan.bit_flip_prob = 0.01;
  plan.state_flip_prob = 0.01;
  plan.detection_delay = 0.5;
  plan.churn_fail_prob = 0.02;
  plan.churn_heal_rate = 0.3;
  plan.link_failures.push_back({3.0, 0, 1});
  plan.link_heals.push_back({9.0, 0, 1});
  plan.node_crashes.push_back({5.0, 6});
  plan.node_rejoins.push_back({11.0, 6});
  plan.false_detects.push_back({7.0, 2, 3, 4.0});
  plan.data_updates.push_back({8.0, 4, core::Mass::scalar(0.5, 0.0)});
  return plan;
}

TEST(AsyncGolden, ChaosHistoryIsPinnedForEveryAlgorithm) {
  const auto t = net::Topology::grid2d(4, 6, /*wrap=*/true);
  const struct {
    Algorithm algorithm;
    std::array<AsyncPin, 3> history;
  } pins[] = {
      {Algorithm::kPushSum,
       {{{0x354726c7b80ff024ULL, 507, 222, 0xd94bc3fe032ec83fULL, 0x2662961952ff7017ULL},
         {0xd813cf2d55744cd0ULL, 1020, 460, 0xd7894c343aae220aULL, 0x63dc0f07b5848e2aULL},
         {0x9785986fd036f084ULL, 1013, 453, 0x886a4016e05d83f3ULL, 0x8d4bfd0d4b1b2784ULL}}}},
      {Algorithm::kPushFlow,
       {{{0x1ceae6990af29fabULL, 505, 224, 0x84fadf27baaa97dcULL, 0x4a2adc7c3a7877eeULL},
         {0x745c720becfe41b6ULL, 1025, 460, 0xfe7f09eb0ba46d51ULL, 0xc8a97d48b464bc91ULL},
         {0xdb1192581a12c0b3ULL, 1018, 453, 0x8949a96989d8a38eULL, 0xc844c045ab4b0577ULL}}}},
      {Algorithm::kPushCancelFlow,
       {{{0x8bcb86380c62f850ULL, 505, 225, 0xfc262d185119dbc1ULL, 0x700970043bf95f5dULL},
         {0xa46be33ca117f53eULL, 1018, 458, 0xa67410f891f44715ULL, 0xc7b8e1cf0e04f7a7ULL},
         {0x2d1f574906e581cbULL, 1011, 451, 0x9254c73c7ad262faULL, 0xac58a6f60b5fe93cULL}}}},
      {Algorithm::kFlowUpdating,
       {{{0x8a676a9ea102cb92ULL, 505, 224, 0xfb1756e50e9909efULL, 0x2e39810d4d41c00fULL},
         {0x8f269945801d7f1dULL, 1025, 460, 0x47a870fd86021ac9ULL, 0x0d866feacf180dbaULL},
         {0x9a40efd2250a7d41ULL, 1018, 453, 0xbaf487cbecc629f1ULL, 0x800ebbf4d80f5da4ULL}}}},
      {Algorithm::kCorrectionAllreduce,
       {{{0x760055efb775aaf0ULL, 505, 224, 0x86a2967960b6e26cULL, 0x54bb1382ac48eb22ULL},
         {0xade54078cd40b2aeULL, 1025, 460, 0x222b2c69cf80b21aULL, 0x124f9bdef4510710ULL},
         {0xade54078cd40b2aeULL, 1018, 453, 0xb66b0ca3c04abad6ULL, 0x523f7620d55cfca0ULL}}}},
      {Algorithm::kFuMassHybrid,
       {{{0x569eef1a422e582aULL, 505, 224, 0x9f210df9f7d5a88dULL, 0xff1b97c6b0d4d22fULL},
         {0x7c1d3303229caf84ULL, 1025, 460, 0xd6277cc9ae73cc8bULL, 0x1ab68b5f19f9bfcfULL},
         {0xa89f583ebfa79fdbULL, 1018, 453, 0xe7d8a726b219a58bULL, 0xec068aed74785398ULL}}}},
  };
  for (const auto& pin : pins) {
    const auto make = [&] { return make_async(t, pin.algorithm, chaos_plan(), 5); };
    expect_history(async_history(make, 10.0, 20.0), pin.history,
                   "chaos " + std::string(core::to_string(pin.algorithm)));
  }
}

std::vector<core::Values> session_inputs() {
  std::vector<core::Values> inputs;
  for (const double v : test::random_values(8, 7)) inputs.push_back(core::Values{v + 1.0});
  return inputs;
}

SessionOptions session_options() {
  SessionOptions options;
  options.seed = 7;
  options.target_accuracy = 1e-10;
  return options;
}

/// A warm PCF session on ring:8: two queries, then the blob.
ReductionSession canonical_session() {
  auto inputs = session_inputs();
  ReductionSession session(net::Topology::ring(8), inputs, session_options());
  (void)session.query(inputs);
  inputs[3][0] += 0.125;
  (void)session.query(inputs);
  return session;
}

TEST(CheckpointGolden, SessionBlobHashIsPinned) {
  const ReductionSession session = canonical_session();
  EXPECT_EQ(fnv1a(session.save_checkpoint()), 0xb16d353c96616b56ULL)
      << "session checkpoint drifted — bump kCheckpointVersion and re-pin";
}

// ----------------------------------------------------------- mutation wall
//
// Every byte of a blob XOR 0xFF, one byte at a time. The restore must either
// reject the blob with CheckpointError or accept it; an accepted blob is a
// state the engine must survive, so five further steps either run or stop at
// a ContractViolation. Any other exception fails here; a crash or an
// out-of-bounds access fails the run (and the asan-ubsan lane reports it).
// The invariant checkers are off: a flipped flow or mass double is a valid
// state whose broken conservation they would rightly report.

/// Runs the wall over `blob`; `restore_and_step(bytes)` builds a fresh
/// target, restores `bytes` and, on success, runs the continuation.
template <class RestoreAndStep>
void byte_mutation_wall(const std::string& blob, RestoreAndStep restore_and_step) {
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string mutated = blob;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    try {
      restore_and_step(mutated);
    } catch (const CheckpointError&) {
      ++rejected;
    } catch (const ContractViolation&) {
      // the continuation refused the restored state
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << i << " of " << blob.size() << ": unexpected exception "
                    << e.what();
    }
  }
  // The header, counts and ids are checked, so some flips must be rejected;
  // most bytes are doubles, so most flips must restore and run on.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, blob.size() / 2);
}

/// Every strict prefix of `blob` is rejected with CheckpointError.
template <class Restore>
void every_prefix_rejected(const std::string& blob, Restore restore) {
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_THROW(restore(std::string_view(blob).substr(0, cut)), CheckpointError)
        << "accepted a blob truncated to " << cut << " of " << blob.size() << " bytes";
  }
}

FaultPlan pending_faults_plan() {
  FaultPlan plan = lifecycle_plan();
  plan.detection_delay = 4.0;
  plan.churn_heal_rate = 0.05;
  return plan;
}

SyncEngine unchecked_sync(EngineMode mode) {
  const auto t = net::Topology::ring(8);
  const auto masses = masses_from_values(test::random_values(8, 3 ^ 0xabcdef),
                                         Aggregate::kAverage);
  SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushCancelFlow;
  cfg.faults = pending_faults_plan();
  cfg.seed = 3;
  cfg.mode = mode;
  cfg.invariants.enabled = false;
  return SyncEngine(t, masses, cfg);
}

AsyncEngine unchecked_async() {
  const auto t = net::Topology::ring(8);
  const auto masses = masses_from_values(test::random_values(8, 3 ^ 0xabcdef),
                                         Aggregate::kAverage);
  AsyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushCancelFlow;
  cfg.faults = pending_faults_plan();
  cfg.seed = 3;
  cfg.invariants.enabled = false;
  return AsyncEngine(t, masses, cfg);
}

TEST(CheckpointMutation, SyncPcfBlobWithFaultsPending) {
  for (const EngineMode mode : {EngineMode::kLegacy, EngineMode::kArena}) {
    auto engine = unchecked_sync(mode);
    engine.run(11);
    const std::string blob = engine.save_checkpoint();
    const SyncListOffsets o = sync_list_offsets(blob, 8);
    ASSERT_GT(u64_at(blob, o.notices), 0u);
    ASSERT_GT(u64_at(blob, o.heals), 0u);
    ASSERT_GT(u64_at(blob, o.clears), 0u);
    byte_mutation_wall(blob, [&](const std::string& bytes) {
      auto fresh = unchecked_sync(mode);
      fresh.restore(bytes);
      fresh.run(5);
    });
  }
}

TEST(CheckpointMutation, AsyncPcfFullBlobWithDeliveriesQueued) {
  auto engine = unchecked_async();
  engine.run_until(11.3);
  const std::string blob = engine.save_checkpoint(CheckpointMode::kFull);
  ASSERT_GT(blob.size(), engine.save_checkpoint(CheckpointMode::kLightweight).size())
      << "no delivery was in flight at the checkpoint";
  byte_mutation_wall(blob, [&](const std::string& bytes) {
    auto fresh = unchecked_async();
    fresh.restore(bytes);
    fresh.run_until(16.3);
  });
  every_prefix_rejected(blob, [&](std::string_view bytes) {
    auto fresh = unchecked_async();
    fresh.restore(bytes);
  });
}

/// Churn on ring:8 with every async table and queue populated at T = 10:
/// the cut at 4 has healed at 7 (a heal epoch), the cut at 9.5 still awaits
/// its detectors (due 11.5) and its heal (14), and the false positive at 8
/// has not cleared (14).
FaultPlan mid_churn_plan() {
  FaultPlan plan;
  plan.message_loss_prob = 0.05;
  plan.detection_delay = 2.0;
  plan.churn_fail_prob = 0.03;
  plan.churn_heal_rate = 0.5;
  plan.link_failures.push_back({4.0, 0, 1});
  plan.link_heals.push_back({7.0, 0, 1});
  plan.link_failures.push_back({9.5, 2, 3});
  plan.link_heals.push_back({14.0, 2, 3});
  plan.false_detects.push_back({8.0, 5, 6, 6.0});
  return plan;
}

AsyncEngine unchecked_churn_async() {
  const auto t = net::Topology::ring(8);
  const auto masses = masses_from_values(test::random_values(8, 3 ^ 0xabcdef),
                                         Aggregate::kAverage);
  AsyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushCancelFlow;
  cfg.faults = mid_churn_plan();
  cfg.seed = 3;
  cfg.invariants.enabled = false;
  return AsyncEngine(t, masses, cfg);
}

TEST(CheckpointMutation, AsyncLightweightBlobMidChurn) {
  auto engine = unchecked_churn_async();
  engine.run_until(10.0);
  const std::string blob = engine.save_checkpoint(CheckpointMode::kLightweight);
  const AsyncTableOffsets o = async_table_offsets(blob, 8);
  ASSERT_GT(u64_at(blob, o.detects), 0u) << "no detector report pending";
  ASSERT_GT(u64_at(blob, o.heals), 0u) << "no heal epoch recorded";
  ASSERT_GT(u64_at(blob, o.clamps), 0u) << "no FIFO clamp recorded";
  const FaultExposure f = engine.fault_exposure();
  ASSERT_GT(f.false_detects, f.false_clears) << "no false-positive clear pending";
  ASSERT_GE(f.link_heals, 1u) << "the cut at 4 did not heal";
  byte_mutation_wall(blob, [&](const std::string& bytes) {
    auto fresh = unchecked_churn_async();
    fresh.restore(bytes);
    fresh.run_until(15.0);
  });
  every_prefix_rejected(blob, [&](std::string_view bytes) {
    auto fresh = unchecked_churn_async();
    fresh.restore(bytes);
  });
}

TEST(CheckpointMutation, SessionBlob) {
  const std::string blob = canonical_session().save_checkpoint();
  SessionOptions options = session_options();
  options.max_rounds_per_query = 5;
  options.invariants.enabled = false;
  byte_mutation_wall(blob, [&](const std::string& bytes) {
    ReductionSession fresh(net::Topology::ring(8), session_inputs(), options);
    fresh.restore(bytes);
    (void)fresh.refresh();
  });
  every_prefix_rejected(blob, [&](std::string_view bytes) {
    ReductionSession fresh(net::Topology::ring(8), session_inputs(), options);
    fresh.restore(bytes);
  });
}

}  // namespace
}  // namespace pcf::sim
