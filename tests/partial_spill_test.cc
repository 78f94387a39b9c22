#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/victim_policy.h"
#include "runtime/cluster.h"
#include "sim/fault_plan.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::ReferenceResults;
using testing::SmallClusterConfig;
using testing::ToMultiset;

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = seq;
  t.payload = "payload";
  return t;
}

/// Fills `group` with one bucket per key on both streams, touching keys
/// in order so the access clock ranks earlier keys colder.
void Fill(PartitionGroup* group, const std::vector<JoinKey>& keys) {
  int64_t seq = 0;
  for (JoinKey key : keys) {
    group->ProbeAndInsert(MakeTuple(0, ++seq, key), nullptr);
    group->ProbeAndInsert(MakeTuple(1, ++seq, key), nullptr);
  }
}

std::string Encode(const PartitionGroup& group) {
  std::string out;
  group.Serialize(&out);
  return out;
}

// ---------------------------------------------------------------------
// PartitionGroup: hot/cold split.

TEST(PartialSpillTest, SplitColdestMovesColdKeysKeepsHottest) {
  PartitionGroup group(0, 2);
  Fill(&group, {10, 20, 30, 40});
  // Re-touch key 10: it becomes the hottest, 20 the coldest.
  group.ProbeAndInsert(MakeTuple(0, 100, 10), nullptr);
  const int64_t total = group.bytes();
  const int64_t total_tuples = group.tuple_count();

  PartitionGroup cold(0, 2);
  const int64_t moved = group.SplitColdest(total / 2, &cold);
  ASSERT_GT(moved, 0);
  EXPECT_EQ(moved, cold.bytes());
  EXPECT_EQ(group.bytes() + cold.bytes(), total);
  EXPECT_EQ(group.tuple_count() + cold.tuple_count(), total_tuples);
  // The residue keeps the hottest key probe-able.
  std::vector<JoinResult> results;
  group.ProbeAndInsert(MakeTuple(1, 101, 10), &results);
  EXPECT_FALSE(results.empty());
  // The cold side holds complete buckets: both streams of the cold keys.
  EXPECT_GE(cold.tuple_count(), 2);
}

TEST(PartialSpillTest, SplitColdestNeverEmptiesTheResidue) {
  PartitionGroup group(0, 2);
  Fill(&group, {10, 20, 30});
  PartitionGroup cold(0, 2);
  // Asking for far more than the group holds still leaves the hottest
  // key resident: a partial spill never silently degenerates into a
  // whole-group eviction.
  group.SplitColdest(group.bytes() * 10, &cold);
  EXPECT_FALSE(group.empty());
  EXPECT_GE(group.DistinctKeyCount(), 1);
}

TEST(PartialSpillTest, SplitColdestSingleKeyGroupRefuses) {
  PartitionGroup group(0, 2);
  Fill(&group, {10});
  PartitionGroup cold(0, 2);
  EXPECT_EQ(group.SplitColdest(group.bytes(), &cold), 0);
  EXPECT_TRUE(cold.empty());
}

TEST(PartialSpillTest, SplitColdestIsDeterministic) {
  auto build_and_split = [] {
    PartitionGroup group(0, 2);
    Fill(&group, {7, 3, 11, 5, 13, 2});
    group.ProbeAndInsert(MakeTuple(0, 50, 11), nullptr);
    PartitionGroup cold(0, 2);
    group.SplitColdest(group.bytes() / 2, &cold);
    return Encode(cold) + "|" + Encode(group);
  };
  EXPECT_EQ(build_and_split(), build_and_split());
}

// ---------------------------------------------------------------------
// PartitionGroup: recursive sub-partitioning on the secondary hash.

TEST(PartialSpillTest, SecondaryHashBitSplitIsDisjointAndComplete) {
  PartitionGroup group(0, 2);
  std::vector<JoinKey> keys;
  for (JoinKey k = 1; k <= 32; ++k) keys.push_back(k * 17);
  Fill(&group, keys);
  const int64_t total = group.bytes();
  const int64_t tuples = group.tuple_count();

  PartitionGroup high = group.SplitBySecondaryHashBit(0);
  EXPECT_EQ(group.bytes() + high.bytes(), total);
  EXPECT_EQ(group.tuple_count() + high.tuple_count(), tuples);
  // Both halves are non-trivial for a spread key set.
  EXPECT_GT(group.DistinctKeyCount(), 0);
  EXPECT_GT(high.DistinctKeyCount(), 0);
  // Every key landed in the half its SecondaryKeyHash bit 0 dictates:
  // probing that half with a fresh stream-0 tuple must hit the key's
  // stream-1 bucket, which moved (or stayed) with it.
  for (JoinKey k : keys) {
    const bool bit = (SecondaryKeyHash(k) >> 0) & 1;
    std::vector<JoinResult> results;
    PartitionGroup& expected = bit ? high : group;
    expected.ProbeAndInsert(MakeTuple(0, 1000 + k, k), &results);
    EXPECT_FALSE(results.empty()) << "key " << k << " landed in the wrong half";
  }
}

TEST(PartialSpillTest, ExtractColdStateSubPartitionsOversizedColdSets) {
  StateManager state(2);
  for (JoinKey k = 1; k <= 64; ++k) {
    state.ProcessTuple(4, MakeTuple(0, 2 * k, k * 31), nullptr);
    state.ProcessTuple(4, MakeTuple(1, 2 * k + 1, k * 31), nullptr);
  }
  const int64_t total = state.total_bytes();
  // Whole-group extraction with a small piece budget forces recursive
  // secondary-hash splits.
  auto pieces = state.ExtractColdState(4, total, total / 8, /*max_depth=*/6);
  ASSERT_GT(pieces.size(), 1u);
  int64_t piece_bytes = 0;
  int max_depth_seen = 0;
  for (const auto& piece : pieces) {
    EXPECT_EQ(piece.partition, 4);
    piece_bytes += piece.bytes;
    max_depth_seen = std::max(max_depth_seen, piece.sub_depth);
  }
  EXPECT_EQ(piece_bytes, total);
  EXPECT_EQ(state.FindGroup(4), nullptr);
  EXPECT_GE(max_depth_seen, 1);
}

TEST(PartialSpillTest, ExtractColdStateDepthZeroDisablesSplitting) {
  StateManager state(2);
  for (JoinKey k = 1; k <= 64; ++k) {
    state.ProcessTuple(4, MakeTuple(0, 2 * k, k * 31), nullptr);
    state.ProcessTuple(4, MakeTuple(1, 2 * k + 1, k * 31), nullptr);
  }
  const int64_t total = state.total_bytes();
  auto pieces = state.ExtractColdState(4, total, total / 8, /*max_depth=*/0);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].sub_depth, 0);
}

// ---------------------------------------------------------------------
// StateManager: partial spill -> restore round trip.

TEST(PartialSpillTest, PartialSpillRestoreRoundTripsExactly) {
  StateManager state(2);
  for (JoinKey k = 1; k <= 16; ++k) {
    state.ProcessTuple(9, MakeTuple(0, 2 * k, k * 13), nullptr);
    state.ProcessTuple(9, MakeTuple(1, 2 * k + 1, k * 13), nullptr);
  }
  const int64_t bytes_before = state.total_bytes();
  const int64_t tuples_before = state.total_tuples();

  auto pieces = state.ExtractColdState(9, bytes_before / 2, bytes_before,
                                       /*max_depth=*/4);
  ASSERT_FALSE(pieces.empty());
  ASSERT_TRUE(pieces.front().partial);
  EXPECT_LT(state.total_bytes(), bytes_before);
  ASSERT_NE(state.FindGroup(9), nullptr);  // hot residue still probe-able

  // Reinstall every piece (the restore / write-failure recovery path):
  // the merged group must carry the exact tuple set and accounting.
  for (const auto& piece : pieces) {
    ASSERT_TRUE(state.InstallGroup(piece.blob).ok());
  }
  EXPECT_EQ(state.total_bytes(), bytes_before);
  EXPECT_EQ(state.total_tuples(), tuples_before);
  ASSERT_NE(state.FindGroup(9), nullptr);
  EXPECT_EQ(state.FindGroup(9)->bytes(), bytes_before);
  EXPECT_EQ(state.FindGroup(9)->tuple_count(), tuples_before);
}

TEST(PartialSpillTest, ColdProbeMissCounterTracksDiskBackedMisses) {
  StateManager state(2);
  state.ProcessTuple(1, MakeTuple(0, 1, 100), nullptr);
  state.ProcessTuple(1, MakeTuple(0, 2, 200), nullptr);
  EXPECT_EQ(state.cold_probe_misses(), 0);
  // A miss on a partition that is not disk-backed is not a cold miss.
  state.ProcessTuple(1, MakeTuple(1, 3, 300), nullptr);
  EXPECT_EQ(state.cold_probe_misses(), 0);
  state.MarkDiskBacked(1);
  state.ProcessTuple(1, MakeTuple(1, 4, 400), nullptr);
  EXPECT_EQ(state.cold_probe_misses(), 1);
  // A producing probe is not a miss.
  state.ProcessTuple(1, MakeTuple(1, 5, 100), nullptr);
  EXPECT_EQ(state.cold_probe_misses(), 1);
  state.ClearDiskBacked(1);
  state.ProcessTuple(1, MakeTuple(1, 6, 500), nullptr);
  EXPECT_EQ(state.cold_probe_misses(), 1);
}

// ---------------------------------------------------------------------
// Victim-policy plane: incremental score model and plan construction.

TEST(PartialSpillTest, SpillScoreModelMatchesBatchRanking) {
  auto make_stats = [] {
    std::vector<GroupStats> stats;
    for (PartitionId p = 0; p < 8; ++p) {
      GroupStats g;
      g.partition = p;
      g.bytes = 1000 + 100 * p;
      g.outputs = (p * 37) % 5;
      g.productivity =
          static_cast<double>(g.outputs) / static_cast<double>(g.bytes);
      stats.push_back(g);
    }
    return stats;
  };
  auto ids = [](const std::vector<GroupStats>& ranked) {
    std::vector<PartitionId> out;
    for (const GroupStats& g : ranked) out.push_back(g.partition);
    return out;
  };

  std::vector<GroupStats> stats = make_stats();
  SpillScoreModel model;
  EXPECT_EQ(model.Update(stats), 8);
  Rng rng(1);
  EXPECT_EQ(model.RankedAscending(),
            ids(RankForSpill(stats, SpillPolicy::kLeastProductiveFirst, &rng)));

  // Touch two partitions; only those re-cost (O(changed) contract), and
  // the ordering still matches a fresh batch ranking.
  stats[3].outputs = 100;
  stats[3].productivity = static_cast<double>(stats[3].outputs) /
                          static_cast<double>(stats[3].bytes);
  stats[5].bytes = 50;
  stats[5].productivity = static_cast<double>(stats[5].outputs) /
                          static_cast<double>(stats[5].bytes);
  EXPECT_EQ(model.Update(stats), 2);
  EXPECT_EQ(model.RankedAscending(),
            ids(RankForSpill(stats, SpillPolicy::kLeastProductiveFirst, &rng)));

  // Partitions absent from the snapshot are forgotten.
  stats.pop_back();
  EXPECT_EQ(model.Update(stats), 1);
  EXPECT_EQ(model.size(), 7u);
  EXPECT_EQ(model.ScoreOf(7), -1.0);
}

TEST(PartialSpillTest, BuildSpillPlanEndsWithPartialRequest) {
  std::vector<PartitionId> ranked = {2, 5, 7};
  auto live = [](PartitionId) -> int64_t { return 1000; };
  std::vector<SpillRequest> plan = BuildSpillPlan(ranked, 2500, live);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_TRUE(plan[0].whole_group);
  EXPECT_TRUE(plan[1].whole_group);
  EXPECT_FALSE(plan[2].whole_group);
  EXPECT_EQ(plan[2].bytes, 500);
  // Locked / absent partitions (live < 0) are skipped entirely.
  auto live_locked = [](PartitionId p) -> int64_t {
    return p == 5 ? -1 : 1000;
  };
  plan = BuildSpillPlan(ranked, 2500, live_locked);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].partition, 2);
  EXPECT_EQ(plan[1].partition, 7);
}

TEST(PartialSpillTest, AdaptiveSpillTargetTracksOvershoot) {
  // Fixed fraction: k% of current state.
  EXPECT_EQ(SpillTargetBytes(10000, 8000, 0.3), 3000);
  // Adaptive sentinel: spill down to 7/8 of the threshold.
  EXPECT_EQ(SpillTargetBytes(10000, 8000, 0.0), 10000 - 7000);
  // Always positive, even when barely over.
  EXPECT_GE(SpillTargetBytes(7001, 8000, 0.0), 1);
}

// ---------------------------------------------------------------------
// Cluster level: gradual spill must be invisible in the result set.

TEST(PartialSpillTest, GradualSpillMatchesAllMemoryOracle) {
  ClusterConfig config = SmallClusterConfig();
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 24 * kKiB;
  config.spill.spill_fraction = 0.0;  // adaptive sizing
  config.spill.max_subpartition_depth = 4;

  RunResult run = Cluster(config).Run();
  ASSERT_GT(run.spill_events, 0);
  ASSERT_GT(run.storage.partial_segments_written, 0)
      << "scenario never exercised a partial spill";
  EXPECT_EQ(ToMultiset(AllResults(run)), ToMultiset(ReferenceResults(config)));
}

TEST(PartialSpillTest, GradualSpillRepeatsAcrossRerunsAndCleanupWorkers) {
  ClusterConfig config = SmallClusterConfig();
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 24 * kKiB;
  config.spill.spill_fraction = 0.0;
  config.spill.max_subpartition_depth = 4;

  config.num_threads = 1;
  RunResult serial = Cluster(config).Run();
  ASSERT_GT(serial.storage.partial_segments_written, 0);
  // A rerun (threads=1 again), then cleanup fanned out over 4 and 8
  // workers.
  for (int threads : {1, 4, 8}) {
    config.num_threads = threads;
    RunResult again = Cluster(config).Run();
    EXPECT_EQ(serial.runtime_results, again.runtime_results)
        << "threads=" << threads;
    EXPECT_EQ(serial.spill_events, again.spill_events)
        << "threads=" << threads;
    EXPECT_EQ(serial.storage.partial_segments_written,
              again.storage.partial_segments_written)
        << "threads=" << threads;
    EXPECT_EQ(ToMultiset(AllResults(serial)), ToMultiset(AllResults(again)))
        << "threads=" << threads;
  }
}

TEST(PartialSpillTest, DiskWriteFaultsMidPartialSpillLoseNothing) {
  // Transient write failures during gradual spills reinstall the failed
  // piece into the residue; after healing, drain + cleanup must reach
  // the exact all-memory result set.
  ClusterConfig config = SmallClusterConfig();
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 24 * kKiB;
  config.spill.spill_fraction = 0.0;
  config.spill.max_subpartition_depth = 4;

  sim::FaultSpec spec;
  spec.write_error_prob = 0.3;
  auto plan =
      std::make_shared<sim::FaultPlan>(spec, /*seed=*/11, config.num_engines);
  config.fault_plan = plan;

  Cluster cluster(config);
  cluster.RunUntil(config.run_duration);
  plan->Heal();
  cluster.Drain();
  RunResult run = cluster.Collect();
  StatusOr<CleanupStats> cleanup = cluster.RunCleanup();
  ASSERT_TRUE(cleanup.ok()) << cleanup.status().ToString();
  run.cleanup = *std::move(cleanup);

  ASSERT_GT(run.storage.partial_segments_written, 0);
  int64_t write_failures = 0;
  for (const auto& engine : run.engines) {
    write_failures += engine.spill_write_failures;
  }
  ASSERT_GT(write_failures, 0) << "faults never hit a spill write";
  config.fault_plan = nullptr;
  EXPECT_EQ(ToMultiset(AllResults(run)), ToMultiset(ReferenceResults(config)));
}

}  // namespace
}  // namespace dcape
