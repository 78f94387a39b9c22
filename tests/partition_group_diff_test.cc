// Differential test of PartitionGroup against a plain reference model: a
// std::map of tuple vectors per stream plus an access-clock map, driven
// through the same randomized operations. The key pool is chosen so that
// many keys share a home slot at the end of the key table, which makes
// probe chains wrap around the table end and deletions backward-shift
// across it; windows and splits drop enough rows to compact the arenas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "state/partition_group.h"
#include "tests/test_util.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

constexpr PartitionId kPartition = 5;

/// What a PartitionGroup should hold: tuples per stream and key in
/// arrival order, the access clock, and the counters.
struct Model {
  explicit Model(int m) : streams(static_cast<size_t>(m)) {}

  std::vector<std::map<JoinKey, std::vector<Tuple>>> streams;
  std::map<JoinKey, int64_t> touch;
  int64_t clock = 0;
  int64_t outputs = 0;

  int num_streams() const { return static_cast<int>(streams.size()); }

  void Insert(const Tuple& t) {
    streams[static_cast<size_t>(t.stream_id)][t.join_key].push_back(t);
  }

  bool HasKey(JoinKey key) const {
    for (const auto& table : streams) {
      if (table.count(key) > 0) return true;
    }
    return false;
  }

  std::vector<JoinKey> Keys() const {
    std::vector<JoinKey> keys;
    for (const auto& table : streams) {
      for (const auto& [key, tuples] : table) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

  int64_t Bytes() const {
    int64_t bytes = 0;
    for (const auto& table : streams) {
      for (const auto& [key, tuples] : table) {
        for (const Tuple& t : tuples) bytes += t.ByteSize();
      }
    }
    return bytes;
  }

  int64_t Count() const {
    int64_t count = 0;
    for (const auto& table : streams) {
      for (const auto& [key, tuples] : table) {
        count += static_cast<int64_t>(tuples.size());
      }
    }
    return count;
  }

  /// The results ProbeAndInsert must produce for `t`, in order: partners
  /// in arrival order, the last stream varying fastest.
  std::vector<JoinResult> Probe(const Tuple& t,
                                const ResultProjection* projection,
                                Tick window) const {
    const int m = num_streams();
    std::vector<const std::vector<Tuple>*> lists(static_cast<size_t>(m));
    for (int s = 0; s < m; ++s) {
      if (s == t.stream_id) continue;
      auto it = streams[static_cast<size_t>(s)].find(t.join_key);
      if (it == streams[static_cast<size_t>(s)].end()) return {};
      lists[static_cast<size_t>(s)] = &it->second;
    }
    std::vector<JoinResult> out;
    std::vector<const Tuple*> members(static_cast<size_t>(m), &t);
    Enumerate(t, 0, projection, window, lists, &members, &out);
    return out;
  }

  void Enumerate(const Tuple& t, int s, const ResultProjection* projection,
                 Tick window,
                 const std::vector<const std::vector<Tuple>*>& lists,
                 std::vector<const Tuple*>* members,
                 std::vector<JoinResult>* out) const {
    const int m = num_streams();
    if (s == m) {
      JoinResult r;
      r.partition = kPartition;
      r.join_key = t.join_key;
      Tick lo = std::numeric_limits<Tick>::max();
      Tick hi = std::numeric_limits<Tick>::min();
      int64_t agg = 0;
      for (int i = 0; i < m; ++i) {
        const Tuple& member = *(*members)[static_cast<size_t>(i)];
        r.member_seqs.push_back(member.seq);
        lo = std::min(lo, member.timestamp);
        hi = std::max(hi, member.timestamp);
        if (projection != nullptr) {
          if (i == projection->group_stream) r.group_key = member.category;
          agg = FoldAggregate(projection->op, agg, member.value, i == 0);
        }
      }
      if (window > 0 && hi - lo > window) return;
      if (projection != nullptr) r.agg_value = agg;
      r.latest_member_ts = hi;
      out->push_back(r);
      return;
    }
    if (s == t.stream_id) {
      Enumerate(t, s + 1, projection, window, lists, members, out);
      return;
    }
    for (const Tuple& partner : *lists[static_cast<size_t>(s)]) {
      (*members)[static_cast<size_t>(s)] = &partner;
      Enumerate(t, s + 1, projection, window, lists, members, out);
    }
  }

  void ProbeAndInsert(const Tuple& t, int64_t produced) {
    Insert(t);
    touch[t.join_key] = ++clock;
    outputs += produced;
  }

  /// Moves every stream's tuples of `key` (and its clock entry) to `dst`.
  int64_t MoveKey(JoinKey key, Model* dst) {
    int64_t bytes = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
      auto it = streams[s].find(key);
      if (it == streams[s].end()) continue;
      std::vector<Tuple>& to = dst->streams[s][key];
      for (Tuple& t : it->second) {
        bytes += t.ByteSize();
        to.push_back(std::move(t));
      }
      streams[s].erase(it);
    }
    auto it = touch.find(key);
    if (it != touch.end()) {
      int64_t& d = dst->touch[key];
      d = std::max(d, it->second);
      dst->clock = std::max(dst->clock, it->second);
      touch.erase(it);
    }
    return bytes;
  }

  int64_t EvictBefore(Tick cutoff, Model* evicted) {
    int64_t moved = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
      for (auto it = streams[s].begin(); it != streams[s].end();) {
        std::vector<Tuple> keep;
        for (Tuple& t : it->second) {
          if (t.timestamp < cutoff) {
            ++moved;
            if (evicted != nullptr) evicted->Insert(t);
          } else {
            keep.push_back(std::move(t));
          }
        }
        if (keep.empty()) {
          it = streams[s].erase(it);
        } else {
          it->second = std::move(keep);
          ++it;
        }
      }
    }
    for (auto it = touch.begin(); it != touch.end();) {
      it = HasKey(it->first) ? std::next(it) : touch.erase(it);
    }
    return moved;
  }

  int64_t SplitColdest(int64_t target, Model* cold) {
    const std::vector<JoinKey> keys = Keys();
    if (target <= 0 || keys.size() < 2) return 0;
    std::vector<std::pair<int64_t, JoinKey>> order;
    for (JoinKey key : keys) {
      auto it = touch.find(key);
      order.emplace_back(it == touch.end() ? 0 : it->second, key);
    }
    std::sort(order.begin(), order.end());
    int64_t moved = 0;
    for (size_t i = 0; i + 1 < order.size() && moved < target; ++i) {
      moved += MoveKey(order[i].second, cold);
    }
    return moved;
  }

  void MergeFrom(Model&& other) {
    for (size_t s = 0; s < streams.size(); ++s) {
      for (auto& [key, tuples] : other.streams[s]) {
        std::vector<Tuple>& to = streams[s][key];
        to.insert(to.end(), tuples.begin(), tuples.end());
      }
    }
    for (const auto& [key, t] : other.touch) {
      int64_t& mine = touch[key];
      mine = std::max(mine, t);
    }
    clock = std::max(clock, other.clock);
    outputs += other.outputs;
    other = Model(num_streams());
  }
};

/// `blob` (a v2 encoding whose outputs field is 0) with the outputs
/// field set to `outputs`.
std::string WithOutputs(const std::string& blob, int m, int64_t outputs) {
  std::string header;
  ByteWriter writer(&header);
  writer.PutVarint(static_cast<uint64_t>(kPartition));
  writer.PutVarint(static_cast<uint64_t>(m));
  const size_t at = 5 + header.size();  // magic + version + varints
  EXPECT_EQ(blob.at(at), '\0');
  std::string field;
  ByteWriter(&field).PutZigzag(outputs);
  return blob.substr(0, at) + field + blob.substr(at + 1);
}

void ExpectMatches(const PartitionGroup& group, const Model& model) {
  const int m = model.num_streams();
  ASSERT_EQ(group.num_streams(), m);
  EXPECT_EQ(group.tuple_count(), model.Count());
  EXPECT_EQ(group.bytes(), model.Bytes());
  EXPECT_EQ(group.outputs(), model.outputs);
  EXPECT_EQ(group.DistinctKeyCount(),
            static_cast<int64_t>(model.Keys().size()));
  std::vector<JoinKey> touched;
  for (const auto& [key, t] : model.touch) touched.push_back(key);
  EXPECT_EQ(group.TouchedKeys(), touched);

  // The reference rebuilt with InsertOnly must encode to the same bytes.
  PartitionGroup rebuilt(kPartition, m);
  for (const auto& table : model.streams) {
    for (const auto& [key, tuples] : table) {
      for (const Tuple& t : tuples) rebuilt.InsertOnly(t);
    }
  }
  std::string want;
  rebuilt.Serialize(&want);
  std::string got;
  group.Serialize(&got);
  EXPECT_EQ(got, WithOutputs(want, m, model.outputs));
}

/// A key pool built to stress the key table: a cluster of keys whose
/// home is the last slot of every table up to 64 slots (their probe
/// chains wrap), a cluster homed at slot 0 (the wrapped chains run into
/// them), and ordinary keys.
std::vector<JoinKey> KeyPool() {
  std::vector<JoinKey> wrap;
  std::vector<JoinKey> front;
  for (JoinKey k = 0; wrap.size() < 12 || front.size() < 6; ++k) {
    const uint64_t top = SecondaryKeyHash(k) >> 58;
    if (top == 0x3F && wrap.size() < 12) wrap.push_back(k);
    if (top == 0 && front.size() < 6) front.push_back(k);
  }
  std::vector<JoinKey> pool = wrap;
  pool.insert(pool.end(), front.begin(), front.end());
  for (JoinKey k = 1000; k < 1014; ++k) pool.push_back(k);
  return pool;
}

class Driver {
 public:
  Driver(int m, uint32_t seed)
      : m_(m), rng_(seed), pool_(KeyPool()), group_(kPartition, m),
        model_(m) {}

  Tuple RandomTuple() {
    Tuple t;
    t.stream_id = static_cast<StreamId>(Uniform(0, m_ - 1));
    t.seq = next_seq_++;
    t.join_key = pool_[static_cast<size_t>(
        Uniform(0, static_cast<int64_t>(pool_.size()) - 1))];
    // Mostly advancing time, with some late arrivals.
    now_ += Uniform(0, 3);
    t.timestamp = std::max<Tick>(0, now_ - (Uniform(0, 9) == 0
                                                ? Uniform(0, 200)
                                                : 0));
    t.value = Uniform(-50, 50);
    t.category = Uniform(0, 4);
    t.payload.assign(static_cast<size_t>(Uniform(0, 24)),
                     static_cast<char>('a' + t.seq % 26));
    return t;
  }

  void ProbeAndInsert() {
    const Tuple t = RandomTuple();
    const ResultProjection projection{
        static_cast<StreamId>(Uniform(0, m_ - 1)), AggregateOp::kMin};
    const ResultProjection* p = Uniform(0, 1) == 0 ? &projection : nullptr;
    const Tick window = Uniform(0, 2) == 0 ? Uniform(1, 300) : 0;
    const std::vector<JoinResult> want = model_.Probe(t, p, window);
    std::vector<JoinResult> got;
    const int64_t produced = group_.ProbeAndInsert(t, &got, p, window);
    ASSERT_EQ(produced, static_cast<int64_t>(want.size()));
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "result " << i;
      EXPECT_EQ(got[i].group_key, want[i].group_key);
      EXPECT_EQ(got[i].agg_value, want[i].agg_value);
      EXPECT_EQ(got[i].latest_member_ts, want[i].latest_member_ts);
    }
    model_.ProbeAndInsert(t, produced);
  }

  void InsertOnly() {
    const Tuple t = RandomTuple();
    group_.InsertOnly(t);
    model_.Insert(t);
  }

  void Evict() {
    const Tick cutoff = now_ - Uniform(0, 250);
    if (Uniform(0, 1) == 0) {
      ASSERT_EQ(group_.EvictBefore(cutoff, nullptr),
                model_.EvictBefore(cutoff, nullptr));
      return;
    }
    PartitionGroup evicted(kPartition, m_);
    Model evicted_model(m_);
    ASSERT_EQ(group_.EvictBefore(cutoff, &evicted),
              model_.EvictBefore(cutoff, &evicted_model));
    ExpectMatches(evicted, evicted_model);
  }

  /// Splits off the coldest keys into a group that is already indexed
  /// (so MoveKeyTo must index what it moves), evicts from the split-off
  /// piece, checks both, and merges the piece back.
  void SplitColdestAndMergeBack() {
    PartitionGroup cold(kPartition, m_);
    Model cold_model(m_);
    EXPECT_EQ(cold.EvictBefore(0, nullptr), 0);  // builds the index
    const int64_t target = Uniform(1, std::max<int64_t>(1, model_.Bytes()));
    ASSERT_EQ(group_.SplitColdest(target, &cold),
              model_.SplitColdest(target, &cold_model));
    ExpectMatches(group_, model_);
    ExpectMatches(cold, cold_model);
    const Tick cutoff = now_ - Uniform(0, 400);
    ASSERT_EQ(cold.EvictBefore(cutoff, nullptr),
              cold_model.EvictBefore(cutoff, nullptr));
    ExpectMatches(cold, cold_model);
    group_.MergeFrom(std::move(cold));
    model_.MergeFrom(std::move(cold_model));
  }

  void SplitByHashBitAndMergeBack() {
    const int bit = static_cast<int>(Uniform(0, 7));
    PartitionGroup high = group_.SplitBySecondaryHashBit(bit);
    Model high_model(m_);
    for (JoinKey key : model_.Keys()) {
      if ((SecondaryKeyHash(key) >> bit) & 1ULL) {
        model_.MoveKey(key, &high_model);
      }
    }
    ExpectMatches(group_, model_);
    ExpectMatches(high, high_model);
    if (Uniform(0, 1) == 0) {
      // Merge the low half into the high one (possibly empty).
      high.MergeFrom(std::move(group_));
      high_model.MergeFrom(std::move(model_));
      group_ = std::move(high);
      model_ = std::move(high_model);
    } else {
      group_.MergeFrom(std::move(high));
      model_.MergeFrom(std::move(high_model));
    }
  }

  /// Merges in an independently built group whose keys overlap ours.
  void MergeOther() {
    PartitionGroup other(kPartition, m_);
    Model other_model(m_);
    const int n = static_cast<int>(Uniform(0, 30));
    for (int i = 0; i < n; ++i) {
      const Tuple t = RandomTuple();
      std::vector<JoinResult> results;
      const int64_t produced = other.ProbeAndInsert(t, &results);
      other_model.ProbeAndInsert(t, produced);
    }
    group_.MergeFrom(std::move(other));
    model_.MergeFrom(std::move(other_model));
  }

  void RoundTrip() {
    std::string blob;
    group_.Serialize(&blob);
    StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    group_ = std::move(*restored);
    // A restored generation starts cold.
    model_.touch.clear();
    model_.clock = 0;
  }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const int64_t op = Uniform(0, 99);
      if (op < 55) {
        ProbeAndInsert();
      } else if (op < 70) {
        InsertOnly();
      } else if (op < 84) {
        Evict();
      } else if (op < 89) {
        SplitColdestAndMergeBack();
      } else if (op < 93) {
        SplitByHashBitAndMergeBack();
      } else if (op < 97) {
        MergeOther();
      } else {
        RoundTrip();
      }
      ExpectMatches(group_, model_);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step << " (op " << op << ")";
      }
    }
  }

 private:
  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  int m_;
  std::mt19937_64 rng_;
  std::vector<JoinKey> pool_;
  PartitionGroup group_;
  Model model_;
  int64_t next_seq_ = 0;
  Tick now_ = 0;
};

TEST(PartitionGroupDiffTest, KeyPoolWrapsTheTableEnd) {
  // The wrap cluster alone overfills the last slot of an 8..64-slot
  // table, so probes and backward shifts cross the end.
  const std::vector<JoinKey> pool = KeyPool();
  int wrapping = 0;
  for (JoinKey key : pool) {
    if ((SecondaryKeyHash(key) >> 58) == 0x3F) ++wrapping;
  }
  EXPECT_GE(wrapping, 12);
}

TEST(PartitionGroupDiffTest, TwoStreamsMatchReference) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Driver driver(2, seed);
    driver.Run(1500);
  }
}

TEST(PartitionGroupDiffTest, ThreeStreamsMatchReference) {
  for (uint32_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    Driver driver(3, seed);
    driver.Run(1500);
  }
}

TEST(PartitionGroupDiffTest, FourStreamsMatchReference) {
  Driver driver(4, 21u);
  driver.Run(1200);
}

}  // namespace
}  // namespace dcape
