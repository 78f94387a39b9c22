#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "runtime/cluster.h"
#include "state/group_merge.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::SmallClusterConfig;
using testing::TuplesOf;
using testing::ToMultiset;

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, Tick timestamp) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = timestamp;
  t.payload = "pp";
  return t;
}

TEST(WindowProbeTest, FiltersCombinationsBeyondTheWindow) {
  PartitionGroup group(0, 2);
  group.ProbeAndInsert(MakeTuple(0, 1, 5, /*ts=*/0), nullptr, nullptr,
                       /*window=*/100);
  group.ProbeAndInsert(MakeTuple(0, 2, 5, /*ts=*/150), nullptr, nullptr, 100);
  // Arriving at t=200: joins the ts=150 tuple (span 50) but not ts=0.
  std::vector<JoinResult> results;
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(1, 3, 5, 200), &results, nullptr,
                                 100),
            1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].member_seqs, (std::vector<int64_t>{2, 3}));
}

TEST(WindowProbeTest, ThreeWaySpanUsesMinAndMax) {
  PartitionGroup group(0, 3);
  group.ProbeAndInsert(MakeTuple(0, 1, 5, 0), nullptr, nullptr, 100);
  group.ProbeAndInsert(MakeTuple(1, 2, 5, 60), nullptr, nullptr, 100);
  // Arriving at 110: span(0, 60, 110) = 110 > 100 → no result; but with
  // window 120 it qualifies.
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(2, 3, 5, 110), nullptr, nullptr,
                                 100),
            0);
  PartitionGroup group2(0, 3);
  group2.ProbeAndInsert(MakeTuple(0, 1, 5, 0), nullptr, nullptr, 120);
  group2.ProbeAndInsert(MakeTuple(1, 2, 5, 60), nullptr, nullptr, 120);
  EXPECT_EQ(group2.ProbeAndInsert(MakeTuple(2, 3, 5, 110), nullptr, nullptr,
                                  120),
            1);
}

TEST(WindowProbeTest, ZeroWindowMeansUnbounded) {
  PartitionGroup group(0, 2);
  group.ProbeAndInsert(MakeTuple(0, 1, 5, 0), nullptr, nullptr, 0);
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(1, 2, 5, 1000000), nullptr,
                                 nullptr, 0),
            1);
}

TEST(EvictBeforeTest, MovesExpiredTuplesAndAccounting) {
  PartitionGroup group(3, 2);
  group.InsertOnly(MakeTuple(0, 1, 5, 10));
  group.InsertOnly(MakeTuple(0, 2, 5, 90));
  group.InsertOnly(MakeTuple(1, 3, 6, 20));
  const int64_t bytes_before = group.bytes();

  PartitionGroup evicted(3, 2);
  EXPECT_EQ(group.EvictBefore(/*cutoff=*/50, &evicted), 2);
  EXPECT_EQ(group.tuple_count(), 1);
  EXPECT_EQ(evicted.tuple_count(), 2);
  EXPECT_EQ(group.bytes() + evicted.bytes(), bytes_before);
  // The surviving tuple is the ts=90 one.
  ASSERT_EQ(group.SortedKeysForStream(0), std::vector<JoinKey>{5});
  const std::vector<Tuple> survivors = TuplesOf(group, 0, 5);
  ASSERT_FALSE(survivors.empty());
  EXPECT_EQ(survivors[0].seq, 2);
  // Re-running evicts nothing.
  PartitionGroup none(3, 2);
  EXPECT_EQ(group.EvictBefore(50, &none), 0);
}

TEST(StateManagerEvictTest, SerializesEvictedGroupsAndDropsEmpties) {
  StateManager state(2, std::nullopt, /*window=*/100);
  state.ProcessTuple(0, MakeTuple(0, 1, 5, 10), nullptr);
  state.ProcessTuple(1, MakeTuple(0, 2, 1 << 20, 10), nullptr);
  state.ProcessTuple(1, MakeTuple(1, 3, 1 << 20, 500), nullptr);
  const int64_t tuples_before = state.total_tuples();

  StateManager::EvictionPass pass =
      state.EvictExpired(/*cutoff=*/100, /*preserve=*/{0, 1});
  const auto& evicted = pass.preserved;
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(pass.dropped_groups, 0);
  EXPECT_EQ(state.total_tuples(), tuples_before - 2);
  // Partition 0 became empty and was dropped entirely.
  EXPECT_EQ(state.FindGroup(0), nullptr);
  EXPECT_NE(state.FindGroup(1), nullptr);
  // Blobs decode back to the evicted tuples.
  for (const auto& group : evicted) {
    StatusOr<PartitionGroup> decoded = PartitionGroup::Deserialize(group.blob);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->tuple_count(), 1);
  }
}

// ---- Indexed eviction ------------------------------------------------

/// Every tuple of `group`, as (stream, key, seq, timestamp) in a
/// canonical order — the state a pass must leave, independent of how
/// the tables got there.
std::vector<std::tuple<StreamId, JoinKey, int64_t, Tick>> Contents(
    const PartitionGroup& group) {
  std::vector<std::tuple<StreamId, JoinKey, int64_t, Tick>> out;
  for (StreamId s = 0; s < group.num_streams(); ++s) {
    for (JoinKey key : group.SortedKeysForStream(s)) {
      for (const Tuple& t : TuplesOf(group, s, key)) {
        out.emplace_back(s, key, t.seq, t.timestamp);
      }
    }
  }
  return out;
}

/// The tuples of `all` a pass with `cutoff` keeps, in the same order.
std::vector<std::tuple<StreamId, JoinKey, int64_t, Tick>> Survivors(
    std::vector<std::tuple<StreamId, JoinKey, int64_t, Tick>> all,
    Tick cutoff) {
  std::erase_if(all, [cutoff](const auto& t) {
    return std::get<3>(t) < cutoff;
  });
  return all;
}

std::string Blob(const PartitionGroup& group) {
  std::string blob;
  group.Serialize(&blob);
  return blob;
}

TEST(IndexedEvictionTest, LateTuplesFromMergeFromAreEvicted) {
  PartitionGroup group(0, 2);
  for (int i = 0; i < 40; ++i) {
    group.ProbeAndInsert(MakeTuple(i % 2, i, i % 5, 5000 + 100 * i), nullptr);
  }
  // The first pass builds the index and evicts nothing.
  EXPECT_EQ(group.EvictBefore(1000, nullptr), 0);

  // A relocated group carries tuples older than everything resident,
  // some of them older than the last cutoff.
  PartitionGroup relocated(0, 2);
  for (int i = 0; i < 20; ++i) {
    relocated.InsertOnly(MakeTuple(i % 2, 100 + i, i % 7, 200 * i));
  }
  group.MergeFrom(std::move(relocated));
  const auto before = Contents(group);
  const int64_t bytes_before = group.bytes();

  PartitionGroup expired(0, 2);
  const int64_t moved = group.EvictBefore(5600, &expired);
  EXPECT_EQ(moved, static_cast<int64_t>(before.size() -
                                         Survivors(before, 5600).size()));
  EXPECT_EQ(Contents(group), Survivors(before, 5600));
  EXPECT_EQ(group.bytes() + expired.bytes(), bytes_before);
  EXPECT_EQ(group.tuple_count(), static_cast<int64_t>(Contents(group).size()));
  EXPECT_EQ(group.EvictBefore(5600, nullptr), 0);
}

TEST(IndexedEvictionTest, LateTuplesFromInstallGroupAreEvicted) {
  StateManager state(2, std::nullopt, /*window=*/1000);
  for (int i = 0; i < 30; ++i) {
    state.ProcessTuple(3, MakeTuple(i % 2, i, i % 4, 10000 + 50 * i), nullptr);
  }
  EXPECT_EQ(state.EvictExpired(2000, {3}).preserved.size(), 0u);

  PartitionGroup relocated(3, 2);
  for (int i = 0; i < 10; ++i) {
    relocated.InsertOnly(MakeTuple(i % 2, 100 + i, i % 3, 1500 + 900 * i));
  }
  const auto late = Contents(relocated);
  std::string blob;
  relocated.Serialize(&blob);
  ASSERT_TRUE(state.InstallGroup(blob).ok());
  const auto before = Contents(*state.FindGroup(3));

  StateManager::EvictionPass pass = state.EvictExpired(10200, {3});
  ASSERT_EQ(pass.preserved.size(), 1u);
  const int64_t expected_moved =
      static_cast<int64_t>(before.size() - Survivors(before, 10200).size());
  EXPECT_EQ(pass.preserved[0].tuple_count, expected_moved);
  EXPECT_EQ(Contents(*state.FindGroup(3)), Survivors(before, 10200));
  EXPECT_EQ(state.total_tuples(),
            static_cast<int64_t>(Survivors(before, 10200).size()));
  // Every late tuple was older than the cutoff, so all left.
  StatusOr<PartitionGroup> evicted = PartitionGroup::Deserialize(
      pass.preserved[0].blob);
  ASSERT_TRUE(evicted.ok());
  int64_t late_evicted = 0;
  for (const auto& t : Contents(*evicted)) {
    late_evicted += std::get<2>(t) >= 100 ? 1 : 0;
  }
  EXPECT_EQ(late_evicted, static_cast<int64_t>(late.size()));
}

TEST(IndexedEvictionTest, EvictionAfterSplitColdestMovedKeysOut) {
  PartitionGroup group(0, 2);
  for (int i = 0; i < 60; ++i) {
    group.ProbeAndInsert(MakeTuple(i % 2, i, i % 6, 40 * i), nullptr);
  }
  EXPECT_GT(group.EvictBefore(200, nullptr), 0);  // builds the index

  // The coldest keys leave for a group that is indexed already, so the
  // moved tuples must enter its index under their own timestamps.
  PartitionGroup cold(0, 2);
  cold.InsertOnly(MakeTuple(0, 1000, 99, 5000));
  EXPECT_EQ(cold.EvictBefore(0, nullptr), 0);
  ASSERT_GT(group.SplitColdest(group.bytes() / 2, &cold), 0);
  const auto resident = Contents(group);
  const auto moved_out = Contents(cold);

  // The source's index still names the moved keys; eviction must skip
  // them and keep the accounting exact.
  const int64_t evicted = group.EvictBefore(1500, nullptr);
  EXPECT_EQ(Contents(group), Survivors(resident, 1500));
  EXPECT_EQ(evicted, static_cast<int64_t>(resident.size() -
                                           Survivors(resident, 1500).size()));
  EXPECT_EQ(group.tuple_count(), static_cast<int64_t>(Contents(group).size()));
  EXPECT_EQ(cold.EvictBefore(1500, nullptr),
            static_cast<int64_t>(moved_out.size() -
                                 Survivors(moved_out, 1500).size()));
  EXPECT_EQ(Contents(cold), Survivors(moved_out, 1500));
  // Keys re-inserted after moving out are evicted once they expire.
  const JoinKey moved_key = std::get<1>(moved_out.front());
  group.ProbeAndInsert(MakeTuple(0, 2000, moved_key, 1600), nullptr);
  const auto again = Contents(group);
  group.EvictBefore(1700, nullptr);
  EXPECT_EQ(Contents(group), Survivors(again, 1700));
}

TEST(IndexedEvictionTest, DropAndPreserveLeaveIdenticalAccounting) {
  PartitionGroup dropped(0, 3);
  PartitionGroup preserved(0, 3);
  for (int i = 0; i < 600; ++i) {
    // Mostly increasing timestamps with a late straggler every 7th tuple;
    // the key range moves halfway, so the first range expires entirely.
    const Tick ts = (i % 7 == 0) ? 13 * i - 900 : 13 * i;
    const JoinKey key = (i < 300 ? 0 : 100) + (i * 31) % 23;
    const Tuple t = MakeTuple(i % 3, i, key, ts);
    dropped.ProbeAndInsert(t, nullptr);
    preserved.ProbeAndInsert(t, nullptr);
    if (i % 100 == 99) {
      const Tick cutoff = 13 * i - 2500;
      PartitionGroup expired(0, 3);
      EXPECT_EQ(dropped.EvictBefore(cutoff, nullptr),
                preserved.EvictBefore(cutoff, &expired));
      EXPECT_EQ(dropped.bytes(), preserved.bytes());
      EXPECT_EQ(dropped.tuple_count(), preserved.tuple_count());
      EXPECT_EQ(dropped.TouchedKeys(), preserved.TouchedKeys());
      EXPECT_EQ(dropped.DistinctKeyCount(), preserved.DistinctKeyCount());
      EXPECT_EQ(Blob(dropped), Blob(preserved));
    }
  }
  // The access clock tracks exactly the live key set.
  std::vector<JoinKey> live;
  for (const auto& t : Contents(dropped)) live.push_back(std::get<1>(t));
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  ASSERT_FALSE(live.empty());
  EXPECT_GE(live.front(), 100) << "the first key range should have expired";
  EXPECT_EQ(dropped.TouchedKeys(), live);
}

TEST(IndexedEvictionTest, RandomizedMatchesFullScan) {
  Rng rng(20071);
  PartitionGroup group(0, 2);
  // Every inserted tuple in arrival order, filtered by each pass.
  std::vector<std::tuple<StreamId, JoinKey, int64_t, Tick>> reference;
  constexpr Tick kMaxLate = 3 * PartitionGroup::kIndexBucketTicks;
  Tick now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += static_cast<Tick>(rng.Uniform(9));
    // One in ten arrivals is late by up to three index buckets, often
    // behind the previous pass's cutoff.
    Tick ts = now;
    if (rng.Uniform(10) == 0) ts -= static_cast<Tick>(rng.Uniform(kMaxLate));
    const Tuple t = MakeTuple(static_cast<StreamId>(rng.Uniform(2)), i,
                              static_cast<JoinKey>(rng.Uniform(41)), ts);
    group.ProbeAndInsert(t, nullptr);
    reference.emplace_back(t.stream_id, t.join_key, t.seq, t.timestamp);
    if (i % 250 == 249) {
      const Tick cutoff = now - 1000 - static_cast<Tick>(rng.Uniform(3001));
      const size_t before = reference.size();
      reference = Survivors(std::move(reference), cutoff);
      EXPECT_EQ(group.EvictBefore(cutoff, nullptr),
                static_cast<int64_t>(before - reference.size()));
      auto expected = reference;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const auto& x, const auto& y) {
                         return std::tie(std::get<0>(x), std::get<1>(x)) <
                                std::tie(std::get<0>(y), std::get<1>(y));
                       });
      ASSERT_EQ(Contents(group), expected) << "after pass at tuple " << i;
      EXPECT_EQ(group.tuple_count(), static_cast<int64_t>(expected.size()));
    }
  }
}

TEST(IndexedEvictionTest, EvictedBlobMatchesInsertOnlyEncoding) {
  StateManager state(2, std::nullopt, /*window=*/500);
  PartitionGroup reference(7, 2);
  for (int i = 0; i < 200; ++i) {
    // Late stragglers interleave with in-order arrivals.
    const Tick ts = (i % 5 == 0) ? 20 * i - 300 : 20 * i;
    const Tuple t = MakeTuple(i % 2, i, (i * 7) % 13, ts);
    state.ProcessTuple(7, t, nullptr);
    if (ts < 2000) reference.InsertOnly(t);
  }
  StateManager::EvictionPass pass = state.EvictExpired(2000, {7});
  ASSERT_EQ(pass.preserved.size(), 1u);
  EXPECT_EQ(pass.dropped_groups, 0);
  EXPECT_EQ(pass.preserved[0].tuple_count, reference.tuple_count());
  EXPECT_EQ(pass.preserved[0].bytes, reference.bytes());
  EXPECT_EQ(pass.preserved[0].raw_bytes, reference.SerializedByteSize());
  EXPECT_EQ(pass.preserved[0].blob, Blob(reference));

  // The drop path removes the same tuples without a blob.
  StateManager other(2, std::nullopt, 500);
  for (int i = 0; i < 200; ++i) {
    const Tick ts = (i % 5 == 0) ? 20 * i - 300 : 20 * i;
    other.ProcessTuple(7, MakeTuple(i % 2, i, (i * 7) % 13, ts), nullptr);
  }
  StateManager::EvictionPass dropped = other.EvictExpired(2000, {});
  EXPECT_TRUE(dropped.preserved.empty());
  EXPECT_EQ(dropped.dropped_groups, 1);
  EXPECT_EQ(dropped.dropped_tuples, reference.tuple_count());
  EXPECT_EQ(other.total_tuples(), state.total_tuples());
  EXPECT_EQ(other.total_bytes(), state.total_bytes());
  EXPECT_EQ(Blob(*other.FindGroup(7)), Blob(*state.FindGroup(7)));
}

TEST(WindowCrossJoinTest, RespectsWindow) {
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5, 0));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(1, 2, 5, 80));
  newer.InsertOnly(MakeTuple(1, 3, 5, 300));
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr,
                                 /*window=*/100),
            1);
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr, 0), 2);
}

/// The paper's claim: the adaptation techniques carry over to infinite
/// streams with finite windows. All-memory windowed runs define the
/// reference; spill + eviction + cleanup must reproduce it exactly.
ClusterConfig WindowedConfig() {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = MinutesToTicks(2);
  config.join_window_ticks = SecondsToTicks(20);
  return config;
}

TEST(WindowedClusterTest, AllMemoryWindowProducesFewerResults) {
  ClusterConfig windowed = WindowedConfig();
  windowed.strategy = AdaptationStrategy::kNoAdaptation;
  ClusterConfig unbounded = windowed;
  unbounded.join_window_ticks = 0;

  RunResult windowed_result = Cluster(windowed).Run();
  RunResult unbounded_result = Cluster(unbounded).Run();
  EXPECT_GT(windowed_result.runtime_results, 0);
  EXPECT_LT(windowed_result.runtime_results,
            unbounded_result.runtime_results);
}

TEST(WindowedClusterTest, EvictionBoundsStateWithoutSpilling) {
  ClusterConfig config = WindowedConfig();
  config.strategy = AdaptationStrategy::kNoAdaptation;
  Cluster cluster(config);
  RunResult result = cluster.Run();

  int64_t evicted = 0;
  for (const auto& c : result.engines) evicted += c.evicted_tuples;
  EXPECT_GT(evicted, 0);
  // With a 20 s window plus one 10 s eviction period of lag, resident
  // state stays around ~30 s of input (~400 KiB/engine at this rate) —
  // a fraction of the 2-minute run's total (~1.5 MiB/engine).
  double peak = 0;
  for (const TimeSeries& s : result.engine_memory) {
    peak = std::max(peak, s.Max());
  }
  EXPECT_LT(peak, 512.0 * kKiB)
      << "window eviction should keep state around one window of input";
  // And the final state is far below the unbounded accumulation.
  double final_total = 0;
  for (const TimeSeries& s : result.engine_memory) {
    final_total += s.Last();
  }
  EXPECT_LT(final_total, 1024.0 * kKiB);
}

TEST(WindowedClusterTest, SpillPlusCleanupMatchesWindowedReference) {
  // A one-shot load shift: engine 0's partitions are hot for the first
  // minute (their window-resident state exceeds the threshold → spills),
  // then go cold — the residual memory tuples of the spilled partitions
  // expire in place, forcing eviction generations onto disk.
  ClusterConfig config = WindowedConfig();
  config.placement_fractions = {0.75, 0.25};
  config.workload.fluctuation.enabled = true;
  config.workload.fluctuation.one_shot = true;
  config.workload.fluctuation.phase_ticks = MinutesToTicks(1);
  config.workload.fluctuation.hot_multiplier = 10.0;
  std::vector<JoinResult> reference = testing::ReferenceResults(config);
  ASSERT_FALSE(reference.empty());

  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 384 * kKiB;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  ASSERT_GT(result.spill_events, 0);
  int64_t eviction_segments = 0;
  for (const auto& c : result.engines) {
    eviction_segments += c.eviction_segments;
  }
  EXPECT_GT(eviction_segments, 0)
      << "spilled partitions must preserve evicted tuples for cleanup";

  auto all = ToMultiset(AllResults(result));
  for (const auto& [key, count] : all) {
    ASSERT_EQ(count, 1) << "duplicate windowed result " << key;
  }
  EXPECT_EQ(all, ToMultiset(reference));
}

TEST(WindowedClusterTest, LazyDiskMatchesWindowedReference) {
  ClusterConfig config = WindowedConfig();
  config.placement_fractions = {0.75, 0.25};
  std::vector<JoinResult> reference = testing::ReferenceResults(config);

  config.strategy = AdaptationStrategy::kLazyDisk;
  config.spill.memory_threshold_bytes = 448 * kKiB;
  // Restore is requested but must stay inert under window semantics
  // (it would break eviction-generation bookkeeping; see MaybeRestore).
  config.restore.enabled = true;
  config.restore.low_watermark = 0.9;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  int64_t restored = 0;
  for (const auto& c : result.engines) restored += c.restored_segments;
  EXPECT_EQ(restored, 0) << "restore must be inert in windowed mode";
  EXPECT_EQ(ToMultiset(AllResults(result)), ToMultiset(reference));
}

}  // namespace
}  // namespace dcape
