#include "state/partition_group.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

#include "common/check.h"
#include "tuple/serde.h"

namespace dcape {
namespace {

/// v2 partition-group magic. Read as the leading v1 field (i32 partition
/// id, little endian) it is negative, which no v1 encoder ever produces.
constexpr char kGroupMagic[4] = {0x44, 0x43, 0x50, static_cast<char>(0xB2)};

}  // namespace

PartitionGroup::PartitionGroup(PartitionId partition, int num_streams)
    : partition_(partition), num_streams_(num_streams) {
  DCAPE_CHECK_GE(num_streams, 2);
  tables_.resize(static_cast<size_t>(num_streams));
}

int64_t PartitionGroup::ProbeAndInsert(const Tuple& tuple,
                                       std::vector<JoinResult>* results,
                                       const ResultProjection* projection,
                                       Tick window_ticks) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);

  // Collect the match lists of every other stream; an m-way result needs
  // a partner from each of them. The scratch vectors are members: assign
  // reuses their capacity, so steady-state probes never allocate.
  std::vector<const std::vector<Tuple>*>& matches = probe_matches_;
  matches.assign(static_cast<size_t>(num_streams_), nullptr);
  bool all_matched = true;
  for (int s = 0; s < num_streams_; ++s) {
    if (s == tuple.stream_id) continue;
    auto it = tables_[static_cast<size_t>(s)].find(tuple.join_key);
    if (it == tables_[static_cast<size_t>(s)].end() || it->second.empty()) {
      all_matched = false;
      break;
    }
    matches[static_cast<size_t>(s)] = &it->second;
  }

  int64_t produced = 0;
  if (all_matched) {
    // Enumerate the cross product of the other streams' match lists.
    JoinResult result;
    result.partition = partition_;
    result.join_key = tuple.join_key;
    result.member_seqs.assign(static_cast<size_t>(num_streams_), 0);
    result.member_seqs[static_cast<size_t>(tuple.stream_id)] = tuple.seq;

    std::vector<size_t>& cursor = probe_cursor_;
    cursor.assign(static_cast<size_t>(num_streams_), 0);
    while (true) {
      int64_t agg = 0;
      bool first_member = true;
      Tick min_ts = tuple.timestamp;
      Tick max_ts = tuple.timestamp;
      for (int s = 0; s < num_streams_; ++s) {
        const Tuple& member =
            (s == tuple.stream_id)
                ? tuple
                : (*matches[static_cast<size_t>(s)])[cursor[
                      static_cast<size_t>(s)]];
        result.member_seqs[static_cast<size_t>(s)] = member.seq;
        min_ts = std::min(min_ts, member.timestamp);
        max_ts = std::max(max_ts, member.timestamp);
        if (projection != nullptr) {
          if (s == projection->group_stream) {
            result.group_key = member.category;
          }
          agg = FoldAggregate(projection->op, agg, member.value, first_member);
          first_member = false;
        }
      }
      if (window_ticks <= 0 || max_ts - min_ts <= window_ticks) {
        if (projection != nullptr) result.agg_value = agg;
        result.latest_member_ts = max_ts;
        if (results != nullptr) results->push_back(result);
        ++produced;
      }

      // Odometer increment over the non-arriving streams.
      int s = num_streams_ - 1;
      for (; s >= 0; --s) {
        if (s == tuple.stream_id) continue;
        size_t& c = cursor[static_cast<size_t>(s)];
        if (++c < matches[static_cast<size_t>(s)]->size()) break;
        c = 0;
      }
      if (s < 0) break;
    }
  }

  InsertOnly(tuple);
  last_touch_[tuple.join_key] = ++access_clock_;
  outputs_ += produced;
  return produced;
}

int64_t PartitionGroup::EvictBefore(Tick cutoff, PartitionGroup* evicted) {
  if (evicted != nullptr) {
    DCAPE_CHECK_EQ(evicted->partition(), partition_);
    DCAPE_CHECK_EQ(evicted->num_streams(), num_streams_);
  }
  if (!indexed()) BuildArrivalIndex();
  int64_t moved = 0;
  for (int s = 0; s < num_streams_; ++s) {
    std::deque<ArrivalBucket>& index = arrivals_[static_cast<size_t>(s)];
    while (!index.empty() && index.front().id * kIndexBucketTicks < cutoff) {
      const ArrivalBucket& bucket = index.front();
      // The first entry of a key evicts all of its expired tuples; any
      // later entry finds nothing older than the cutoff.
      for (JoinKey key : bucket.keys) {
        moved += EvictKey(s, key, cutoff, evicted);
      }
      // A partly expired bucket stays for the next pass; its successors
      // start at or after the cutoff.
      if ((bucket.id + 1) * kIndexBucketTicks > cutoff) break;
      index.pop_front();
    }
  }
  return moved;
}

int64_t PartitionGroup::EvictKey(StreamId s, JoinKey key, Tick cutoff,
                                 PartitionGroup* evicted) {
  auto& table = tables_[static_cast<size_t>(s)];
  auto it = table.find(key);
  if (it == table.end()) return 0;
  std::vector<Tuple>& tuples = it->second;
  // In-place stable compaction: expired tuples leave, survivors slide
  // left. No temporary vector per bucket.
  int64_t moved = 0;
  size_t write = 0;
  for (size_t read = 0; read < tuples.size(); ++read) {
    Tuple& t = tuples[read];
    if (t.timestamp < cutoff) {
      bytes_ -= t.ByteSize();
      tuple_count_ -= 1;
      ++moved;
      if (evicted != nullptr) evicted->InsertOnly(std::move(t));
    } else {
      if (write != read) tuples[write] = std::move(t);
      ++write;
    }
  }
  if (write > 0) {
    tuples.resize(write);
    return moved;
  }
  table.erase(it);
  // The access clock tracks the live key set: drop the entry once the
  // key is gone from every stream.
  bool present = false;
  for (int other = 0; other < num_streams_ && !present; ++other) {
    present = tables_[static_cast<size_t>(other)].count(key) > 0;
  }
  if (!present) last_touch_.erase(key);
  return moved;
}

void PartitionGroup::BuildArrivalIndex() {
  arrivals_.resize(static_cast<size_t>(num_streams_));
  std::vector<std::pair<Tick, JoinKey>> entries;
  for (int s = 0; s < num_streams_; ++s) {
    entries.clear();
    // dcape-lint: allow(unordered-net) — entries are sorted below; the
    // index order is (timestamp, key), not hash-ordered.
    for (const auto& [key, tuples] : tables_[static_cast<size_t>(s)]) {
      for (const Tuple& t : tuples) entries.emplace_back(t.timestamp, key);
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [ts, key] : entries) IndexArrival(s, key, ts);
  }
}

void PartitionGroup::IndexArrival(StreamId s, JoinKey key, Tick ts) {
  const int64_t id = ts >> kIndexBucketShift;
  std::deque<ArrivalBucket>& index = arrivals_[static_cast<size_t>(s)];
  // Arrivals are nearly monotonic, so the search runs from the back; a
  // late tuple lands in the (possibly new) bucket of its own timestamp.
  auto it = index.end();
  while (it != index.begin() && std::prev(it)->id > id) --it;
  if (it != index.begin() && std::prev(it)->id == id) {
    std::prev(it)->keys.push_back(key);
    return;
  }
  // Opening a new newest bucket closes the previous one to all but late
  // arrivals: give back its growth slack (the index's main memory cost).
  if (it == index.end() && !index.empty()) index.back().keys.shrink_to_fit();
  index.insert(it, ArrivalBucket{id, {key}});
}

void PartitionGroup::IndexTuples(StreamId s, JoinKey key,
                                 const std::vector<Tuple>& tuples) {
  for (const Tuple& t : tuples) IndexArrival(s, key, t.timestamp);
}

void PartitionGroup::InsertOnly(const Tuple& tuple) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  bytes_ += tuple.ByteSize();
  tuple_count_ += 1;
  if (indexed()) IndexArrival(tuple.stream_id, tuple.join_key, tuple.timestamp);
  tables_[static_cast<size_t>(tuple.stream_id)][tuple.join_key].push_back(
      tuple);
}

void PartitionGroup::InsertOnly(Tuple&& tuple) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  bytes_ += tuple.ByteSize();
  tuple_count_ += 1;
  if (indexed()) IndexArrival(tuple.stream_id, tuple.join_key, tuple.timestamp);
  auto& bucket = tables_[static_cast<size_t>(tuple.stream_id)][tuple.join_key];
  bucket.push_back(std::move(tuple));
}

void PartitionGroup::MergeFrom(PartitionGroup&& other) {
  DCAPE_CHECK_EQ(partition_, other.partition_);
  DCAPE_CHECK_EQ(num_streams_, other.num_streams_);
  for (int s = 0; s < num_streams_; ++s) {
    auto& dst = tables_[static_cast<size_t>(s)];
    for (auto& [key, tuples] : other.tables_[static_cast<size_t>(s)]) {
      // Relocated state is older than what arrived here meanwhile; the
      // index files it under its own timestamps.
      if (indexed()) IndexTuples(s, key, tuples);
      auto& bucket = dst[key];
      bucket.insert(bucket.end(), std::make_move_iterator(tuples.begin()),
                    std::make_move_iterator(tuples.end()));
    }
  }
  bytes_ += other.bytes_;
  tuple_count_ += other.tuple_count_;
  outputs_ += other.outputs_;
  // Access clocks merge by max: both inputs are deterministic, so the
  // merged coldness ordering is too. A deserialized generation carries
  // no clock entries and ranks coldest, which is the right prior.
  for (const auto& [key, touch] : other.last_touch_) {
    int64_t& mine = last_touch_[key];
    mine = std::max(mine, touch);
  }
  access_clock_ = std::max(access_clock_, other.access_clock_);
  other.tables_.clear();
  other.last_touch_.clear();
  other.arrivals_.clear();
  other.bytes_ = 0;
  other.tuple_count_ = 0;
  other.outputs_ = 0;
  other.access_clock_ = 0;
}

int64_t PartitionGroup::MoveKeyTo(JoinKey key, PartitionGroup* dst) {
  int64_t moved_bytes = 0;
  for (int s = 0; s < num_streams_; ++s) {
    auto& table = tables_[static_cast<size_t>(s)];
    auto it = table.find(key);
    if (it == table.end()) continue;
    int64_t bucket_bytes = 0;
    for (const Tuple& t : it->second) bucket_bytes += t.ByteSize();
    const int64_t bucket_tuples = static_cast<int64_t>(it->second.size());
    // The source's index entries for `key` go stale, which eviction
    // tolerates; the destination's must cover the moved tuples.
    if (dst->indexed()) dst->IndexTuples(s, key, it->second);
    auto& dst_bucket = dst->tables_[static_cast<size_t>(s)][key];
    if (dst_bucket.empty()) {
      dst_bucket = std::move(it->second);
    } else {
      dst_bucket.insert(dst_bucket.end(),
                        std::make_move_iterator(it->second.begin()),
                        std::make_move_iterator(it->second.end()));
    }
    table.erase(it);
    bytes_ -= bucket_bytes;
    tuple_count_ -= bucket_tuples;
    dst->bytes_ += bucket_bytes;
    dst->tuple_count_ += bucket_tuples;
    moved_bytes += bucket_bytes;
  }
  auto touch = last_touch_.find(key);
  if (touch != last_touch_.end()) {
    int64_t& dst_touch = dst->last_touch_[key];
    dst_touch = std::max(dst_touch, touch->second);
    dst->access_clock_ = std::max(dst->access_clock_, touch->second);
    last_touch_.erase(touch);
  }
  return moved_bytes;
}

int64_t PartitionGroup::SplitColdest(int64_t target_bytes,
                                     PartitionGroup* cold) {
  DCAPE_CHECK(cold != nullptr);
  DCAPE_CHECK_EQ(cold->partition(), partition_);
  DCAPE_CHECK_EQ(cold->num_streams(), num_streams_);
  if (target_bytes <= 0) return 0;

  // Per-key byte totals across all streams, in a sorted map so the
  // candidate list is independent of hash-table iteration order.
  std::map<JoinKey, int64_t> key_bytes;
  for (int s = 0; s < num_streams_; ++s) {
    // dcape-lint: allow(unordered-net) — accumulation into a sorted map
    // is order-insensitive; emission below is (last_touch, key)-sorted.
    for (const auto& [key, tuples] : tables_[static_cast<size_t>(s)]) {
      int64_t b = 0;
      for (const Tuple& t : tuples) b += t.ByteSize();
      key_bytes[key] += b;
    }
  }
  if (key_bytes.size() < 2) return 0;

  struct Candidate {
    int64_t last_touch;
    JoinKey key;
    int64_t bytes;
  };
  std::vector<Candidate> order;
  order.reserve(key_bytes.size());
  for (const auto& [key, b] : key_bytes) {
    auto it = last_touch_.find(key);
    order.push_back(
        Candidate{it == last_touch_.end() ? 0 : it->second, key, b});
  }
  std::sort(order.begin(), order.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.last_touch != b.last_touch) {
                return a.last_touch < b.last_touch;
              }
              return a.key < b.key;
            });

  int64_t moved = 0;
  // The hottest key (last candidate) never moves: the residue must stay
  // probe-able in memory.
  for (size_t i = 0; i + 1 < order.size() && moved < target_bytes; ++i) {
    moved += MoveKeyTo(order[i].key, cold);
  }
  return moved;
}

PartitionGroup PartitionGroup::SplitBySecondaryHashBit(int bit) {
  DCAPE_CHECK_GE(bit, 0);
  DCAPE_CHECK_LT(bit, 64);
  PartitionGroup high(partition_, num_streams_);
  // Sorted key list first: MoveKeyTo mutates the tables, and the move
  // order must not depend on hash-table iteration.
  std::vector<JoinKey> keys;
  for (int s = 0; s < num_streams_; ++s) {
    // dcape-lint: allow(unordered-net) — keys are sorted and deduplicated
    // before any state moves.
    for (const auto& [key, tuples] : tables_[static_cast<size_t>(s)]) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (JoinKey key : keys) {
    if ((SecondaryKeyHash(key) >> bit) & 1ULL) MoveKeyTo(key, &high);
  }
  return high;
}

std::vector<JoinKey> PartitionGroup::TouchedKeys() const {
  std::vector<JoinKey> keys;
  keys.reserve(last_touch_.size());
  // dcape-lint: allow(unordered-net) — sorted before it is returned.
  for (const auto& [key, touch] : last_touch_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

int64_t PartitionGroup::DistinctKeyCount() const {
  std::vector<JoinKey> keys;
  for (int s = 0; s < num_streams_; ++s) {
    // dcape-lint: allow(unordered-net) — counting after sort+unique.
    for (const auto& [key, tuples] : tables_[static_cast<size_t>(s)]) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return static_cast<int64_t>(keys.size());
}

int64_t PartitionGroup::SerializedByteSize() const {
  // v1 layout: header (partition i32 + num_streams i32 + outputs i64),
  // one i64 tuple count per stream, then the tuples; bytes_ tracks
  // exactly the tuples' raw serialized size (Tuple::ByteSize ==
  // TupleSerializedSize).
  return 16 + 8 * static_cast<int64_t>(num_streams_) + bytes_;
}

namespace {

/// The hash tables' buckets in ascending key order. Serialization must
/// not follow hash-iteration order: it depends on the standard
/// library's table layout and on the group's insertion history, so the
/// same logical state would encode to different bytes on the spill
/// sender and on a receiver that merged it — blobs would be neither
/// canonical nor comparable across builds. Collecting into a sorted
/// vector makes the encoding a pure function of the state.
std::vector<const std::pair<const JoinKey, std::vector<Tuple>>*>
SortedBuckets(const std::unordered_map<JoinKey, std::vector<Tuple>>& table) {
  std::vector<const std::pair<const JoinKey, std::vector<Tuple>>*> buckets;
  buckets.reserve(table.size());
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below; emission is key-sorted, not hash-ordered.
  for (const auto& entry : table) buckets.push_back(&entry);
  std::sort(buckets.begin(), buckets.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return buckets;
}

}  // namespace

void PartitionGroup::Serialize(std::string* out, SegmentFormat format) const {
  out->reserve(out->size() + static_cast<size_t>(SerializedByteSize()));
  ByteWriter writer(out);
  if (format == SegmentFormat::kV1) {
    writer.PutI32(partition_);
    writer.PutI32(num_streams_);
    writer.PutI64(outputs_);
    for (int s = 0; s < num_streams_; ++s) {
      const auto buckets = SortedBuckets(tables_[static_cast<size_t>(s)]);
      int64_t stream_tuples = 0;
      for (const auto* bucket : buckets) {
        stream_tuples += static_cast<int64_t>(bucket->second.size());
      }
      writer.PutI64(stream_tuples);
      for (const auto* bucket : buckets) {
        for (const Tuple& t : bucket->second) EncodeTuple(t, out);
      }
    }
    return;
  }
  // v2: the stream id is implied by the section and the join key is
  // written once per bucket run; seq and timestamp delta-encode within
  // the run (arrival order makes the deltas small non-negative values).
  out->append(kGroupMagic, 4);
  writer.PutU8(static_cast<uint8_t>(SegmentFormat::kV2));
  writer.PutVarint(static_cast<uint64_t>(partition_));
  writer.PutVarint(static_cast<uint64_t>(num_streams_));
  writer.PutZigzag(outputs_);
  for (int s = 0; s < num_streams_; ++s) {
    const auto buckets = SortedBuckets(tables_[static_cast<size_t>(s)]);
    writer.PutVarint(buckets.size());
    for (const auto* bucket : buckets) {
      writer.PutZigzag(bucket->first);
      writer.PutVarint(bucket->second.size());
      int64_t prev_seq = 0;
      Tick prev_ts = 0;
      for (const Tuple& t : bucket->second) {
        writer.PutZigzag(t.seq - prev_seq);
        writer.PutZigzag(t.timestamp - prev_ts);
        writer.PutZigzag(t.value);
        writer.PutZigzag(t.category);
        writer.PutVString(t.payload);
        prev_seq = t.seq;
        prev_ts = t.timestamp;
      }
    }
  }
}

namespace {

StatusOr<int32_t> CheckedStreamCount(int64_t num_streams) {
  // Bound the stream count before allocating tables: adversarial or
  // corrupt input must fail with a Status, not exhaust memory.
  if (num_streams < 2 || num_streams > 1024) {
    return Status::InvalidArgument(
        "partition group stream count out of range: " +
        std::to_string(num_streams));
  }
  return static_cast<int32_t>(num_streams);
}

}  // namespace

StatusOr<PartitionGroup> PartitionGroup::Deserialize(std::string_view data) {
  if (data.size() >= 4 && std::memcmp(data.data(), kGroupMagic, 4) == 0) {
    ByteReader reader(data.substr(4));
    DCAPE_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
    if (version != static_cast<uint8_t>(SegmentFormat::kV2)) {
      return Status::InvalidArgument("unsupported partition group version " +
                                     std::to_string(version));
    }
    DCAPE_ASSIGN_OR_RETURN(uint64_t partition, reader.GetVarint());
    if (partition > static_cast<uint64_t>(
                        std::numeric_limits<int32_t>::max())) {
      return Status::InvalidArgument("partition id out of range");
    }
    DCAPE_ASSIGN_OR_RETURN(uint64_t raw_streams, reader.GetVarint());
    DCAPE_ASSIGN_OR_RETURN(
        int32_t num_streams,
        CheckedStreamCount(static_cast<int64_t>(raw_streams)));
    PartitionGroup group(static_cast<PartitionId>(partition), num_streams);
    DCAPE_ASSIGN_OR_RETURN(group.outputs_, reader.GetZigzag());
    for (int s = 0; s < num_streams; ++s) {
      DCAPE_ASSIGN_OR_RETURN(uint64_t num_keys, reader.GetVarint());
      if (num_keys > data.size()) {
        return Status::InvalidArgument("key count exceeds input size");
      }
      for (uint64_t k = 0; k < num_keys; ++k) {
        DCAPE_ASSIGN_OR_RETURN(JoinKey key, reader.GetZigzag());
        DCAPE_ASSIGN_OR_RETURN(uint64_t run_length, reader.GetVarint());
        if (run_length > data.size()) {
          return Status::InvalidArgument("run length exceeds input size");
        }
        int64_t prev_seq = 0;
        Tick prev_ts = 0;
        for (uint64_t i = 0; i < run_length; ++i) {
          Tuple t;
          t.stream_id = s;
          t.join_key = key;
          DCAPE_ASSIGN_OR_RETURN(int64_t seq_delta, reader.GetZigzag());
          t.seq = prev_seq + seq_delta;
          DCAPE_ASSIGN_OR_RETURN(Tick ts_delta, reader.GetZigzag());
          t.timestamp = prev_ts + ts_delta;
          DCAPE_ASSIGN_OR_RETURN(t.value, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(t.category, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(t.payload, reader.GetVString());
          prev_seq = t.seq;
          prev_ts = t.timestamp;
          group.InsertOnly(std::move(t));
        }
      }
    }
    if (!reader.exhausted()) {
      return Status::InvalidArgument("trailing bytes after partition group");
    }
    return group;
  }

  ByteReader reader(data);
  DCAPE_ASSIGN_OR_RETURN(int32_t partition, reader.GetI32());
  DCAPE_ASSIGN_OR_RETURN(int32_t raw_streams, reader.GetI32());
  DCAPE_ASSIGN_OR_RETURN(int32_t num_streams, CheckedStreamCount(raw_streams));
  PartitionGroup group(partition, num_streams);
  DCAPE_ASSIGN_OR_RETURN(group.outputs_, reader.GetI64());
  for (int s = 0; s < num_streams; ++s) {
    DCAPE_ASSIGN_OR_RETURN(int64_t stream_tuples, reader.GetI64());
    for (int64_t i = 0; i < stream_tuples; ++i) {
      DCAPE_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&reader));
      if (t.stream_id != s) {
        return Status::InvalidArgument(
            "tuple stream id does not match its serialized section");
      }
      group.InsertOnly(std::move(t));
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after partition group");
  }
  return group;
}

const std::unordered_map<JoinKey, std::vector<Tuple>>&
PartitionGroup::TableForStream(StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  return tables_[static_cast<size_t>(stream)];
}

std::vector<JoinKey> PartitionGroup::SortedKeysForStream(
    StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  std::vector<JoinKey> keys;
  const auto& table = tables_[static_cast<size_t>(stream)];
  keys.reserve(table.size());
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below; the cursor walks keys ascending, not hash-ordered.
  for (const auto& [key, tuples] : table) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace dcape
