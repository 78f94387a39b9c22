#include "state/group_merge.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "tests/test_util.h"

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, int64_t value = 0,
                int64_t category = 0) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.value = value;
  t.category = category;
  t.payload = "x";
  return t;
}

TEST(CrossJoinGenerationsTest, TwoWayCrossTermsOnly) {
  // older: a1 (s0), b1 (s1); newer: a2 (s0), b2 (s1) — all same key.
  // Full join = 4 combos; same-generation combos (a1,b1) and (a2,b2)
  // are excluded → exactly (a1,b2) and (a2,b1).
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5));
  older.InsertOnly(MakeTuple(1, 1, 5));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(0, 2, 5));
  newer.InsertOnly(MakeTuple(1, 2, 5));

  std::vector<JoinResult> results;
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, &results), 2);
  std::set<std::string> keys;
  for (const JoinResult& r : results) {
    keys.insert(r.EncodeKey());
    EXPECT_NE(r.member_seqs[0], r.member_seqs[1]);
  }
  EXPECT_EQ(keys.size(), 2u);
}

TEST(CrossJoinGenerationsTest, ThreeWayCount) {
  // One tuple per stream per generation, same key: 2^3 − 2 = 6 cross
  // combos.
  PartitionGroup older(0, 3);
  PartitionGroup newer(0, 3);
  for (StreamId s = 0; s < 3; ++s) {
    older.InsertOnly(MakeTuple(s, 1, 9));
    newer.InsertOnly(MakeTuple(s, 2, 9));
  }
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), 6);
}

TEST(CrossJoinGenerationsTest, EmptySideYieldsNothing) {
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5));
  PartitionGroup newer(0, 2);
  // newer has no stream-1 tuple and older has no stream-1 tuple either:
  // nothing can combine.
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), 0);
}

TEST(CrossJoinGenerationsTest, OneSidedStreamsStillCombine) {
  // older holds only stream-0 state, newer only stream-1 state: the only
  // combos are cross-generation by construction.
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5));
  older.InsertOnly(MakeTuple(0, 2, 5));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(1, 3, 5));
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), 2);
}

TEST(CrossJoinGenerationsTest, ProjectionApplied) {
  ResultProjection projection;
  projection.group_stream = 1;
  projection.op = AggregateOp::kMin;

  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5, /*value=*/100, /*cat=*/3));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(1, 2, 5, /*value=*/40, /*cat=*/8));

  std::vector<JoinResult> results;
  ASSERT_EQ(CrossJoinGenerations(older, newer, &projection, &results), 1);
  EXPECT_EQ(results[0].group_key, 8);
  EXPECT_EQ(results[0].agg_value, 40);
}

TEST(CrossJoinGenerationsTest, MatchesBruteForceOnMixedKeys) {
  // Brute-force check: total = merged-join; cross = total − per-gen.
  PartitionGroup older(0, 2);
  PartitionGroup newer(0, 2);
  int64_t seq = 0;
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i <= k; ++i) {
      older.InsertOnly(MakeTuple(i % 2, seq++, k));
      newer.InsertOnly(MakeTuple((i + 1) % 2, seq++, k));
    }
  }

  auto full_join_count = [](const PartitionGroup& g) {
    int64_t total = 0;
    for (JoinKey key : g.SortedKeysForStream(0)) {
      const size_t s0 = testing::TuplesOf(g, 0, key).size();
      const size_t s1 = testing::TuplesOf(g, 1, key).size();
      total += static_cast<int64_t>(s0 * s1);
    }
    return total;
  };

  PartitionGroup merged(0, 2);
  for (StreamId s = 0; s < 2; ++s) {
    for (JoinKey key : older.SortedKeysForStream(s)) {
      for (const Tuple& t : testing::TuplesOf(older, s, key)) {
        merged.InsertOnly(t);
      }
    }
    for (JoinKey key : newer.SortedKeysForStream(s)) {
      for (const Tuple& t : testing::TuplesOf(newer, s, key)) {
        merged.InsertOnly(t);
      }
    }
  }
  const int64_t expected = full_join_count(merged) - full_join_count(older) -
                           full_join_count(newer);
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), expected);
}

}  // namespace
}  // namespace dcape
