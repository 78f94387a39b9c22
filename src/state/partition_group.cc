#include "state/partition_group.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

#include "common/check.h"
#include "tuple/serde.h"

namespace dcape {
namespace {

/// v2 partition-group magic. Read as the leading v1 field (i32 partition
/// id, little endian) it is negative, which no v1 encoder ever produces.
constexpr char kGroupMagic[4] = {0x44, 0x43, 0x50, static_cast<char>(0xB2)};

/// Grows `v` to hold `need` elements by 1.5x steps, not doubling: the
/// arenas are most of a group's memory, and a tighter step trades a few
/// more copies for less idle capacity.
template <typename T>
void GrowTo(std::vector<T>* v, size_t need, size_t min_capacity) {
  if (need <= v->capacity()) return;
  v->reserve(std::max({need, v->capacity() + v->capacity() / 2,
                       min_capacity}));
}

constexpr size_t kMinSlots = 8;

}  // namespace

PartitionGroup::PartitionGroup(PartitionId partition, int num_streams)
    : partition_(partition),
      num_streams_(num_streams),
      slot_words_(4 + static_cast<size_t>(std::max(num_streams, 0))) {
  DCAPE_CHECK_GE(num_streams, 2);
  arenas_.resize(static_cast<size_t>(num_streams));
}

// ---- Key table ---------------------------------------------------------

JoinKey PartitionGroup::SlotKey(size_t slot) const {
  JoinKey key;
  std::memcpy(&key, &slots_[slot * slot_words_], sizeof(key));
  return key;
}

int64_t PartitionGroup::SlotTouch(size_t slot) const {
  int64_t touch;
  std::memcpy(&touch, &slots_[slot * slot_words_ + 2], sizeof(touch));
  return touch;
}

void PartitionGroup::SetSlotTouch(size_t slot, int64_t touch) {
  std::memcpy(&slots_[slot * slot_words_ + 2], &touch, sizeof(touch));
}

size_t PartitionGroup::HomeSlot(JoinKey key) const {
  return static_cast<size_t>(SecondaryKeyHash(key) >> slot_shift_);
}

size_t PartitionGroup::FindSlot(JoinKey key) const {
  if (slots_.empty()) return kNoSlot;
  const size_t mask = SlotCapacity() - 1;
  for (size_t i = HomeSlot(key);; i = (i + 1) & mask) {
    if (SlotTouch(i) < 0) return kNoSlot;
    if (SlotKey(i) == key) return i;
  }
}

size_t PartitionGroup::FindOrInsertSlot(JoinKey key) {
  const size_t found = FindSlot(key);
  if (found != kNoSlot) return found;
  if (static_cast<size_t>(key_count_ + 1) * 10 > SlotCapacity() * 7) {
    Rehash(std::max(kMinSlots, SlotCapacity() * 2));
  }
  const size_t mask = SlotCapacity() - 1;
  size_t i = HomeSlot(key);
  while (SlotTouch(i) >= 0) i = (i + 1) & mask;
  std::memcpy(&slots_[i * slot_words_], &key, sizeof(key));
  SetSlotTouch(i, 0);
  ++key_count_;
  return i;
}

void PartitionGroup::EraseSlot(size_t slot) {
  const size_t mask = SlotCapacity() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; SlotTouch(j) >= 0; j = (j + 1) & mask) {
    // Slot j may fill the hole iff the hole lies on its probe path, i.e.
    // j is at least as far from its home as from the hole.
    const size_t home = HomeSlot(SlotKey(j));
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      std::memcpy(&slots_[hole * slot_words_], &slots_[j * slot_words_],
                  slot_words_ * sizeof(uint32_t));
      hole = j;
    }
  }
  std::fill_n(slots_.begin() + static_cast<std::ptrdiff_t>(hole * slot_words_),
              slot_words_, UINT32_MAX);
  --key_count_;
}

void PartitionGroup::Rehash(size_t capacity) {
  std::vector<uint32_t> old = std::move(slots_);
  const size_t old_capacity = old.size() / slot_words_;
  slots_.assign(capacity * slot_words_, UINT32_MAX);
  if (capacity == 0) {
    slot_shift_ = 64;
    return;
  }
  int log2 = 0;
  while ((size_t{1} << log2) < capacity) ++log2;
  slot_shift_ = 64 - log2;
  const size_t mask = capacity - 1;
  for (size_t o = 0; o < old_capacity; ++o) {
    const uint32_t* src = &old[o * slot_words_];
    int64_t touch;
    std::memcpy(&touch, src + 2, sizeof(touch));
    if (touch < 0) continue;
    JoinKey key;
    std::memcpy(&key, src, sizeof(key));
    size_t i = HomeSlot(key);
    while (SlotTouch(i) >= 0) i = (i + 1) & mask;
    std::memcpy(&slots_[i * slot_words_], src, slot_words_ * sizeof(uint32_t));
  }
}

void PartitionGroup::MaybeShrinkTable() {
  const size_t capacity = SlotCapacity();
  if (key_count_ == 0) {
    if (capacity > 0) Rehash(0);
    return;
  }
  const size_t keys = static_cast<size_t>(key_count_);
  if (capacity <= kMinSlots || keys * 40 >= capacity * 7) return;
  // Load under 0.175: halve while the load stays under 0.35, leaving
  // room to grow again.
  size_t target = capacity;
  while (target > kMinSlots && keys * 20 < (target / 2) * 7) target /= 2;
  Rehash(target);
}

uint32_t PartitionGroup::TailOf(StreamId stream, JoinKey key) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  const size_t slot = FindSlot(key);
  return slot == kNoSlot ? kNoRow
                         : SlotTails(slot)[static_cast<size_t>(stream)];
}

// ---- Rows --------------------------------------------------------------

void PartitionGroup::AppendRow(size_t slot, StreamId s, const Row& fields,
                               std::string_view payload) {
  StreamArena& arena = arenas_[static_cast<size_t>(s)];
  const size_t index = arena.rows.size();
  const size_t payload_off = arena.payload.size();
  // Row indices and payload offsets are uint32 (kNoRow is reserved).
  DCAPE_CHECK_LT(index, size_t{kNoRow});
  DCAPE_CHECK_LE(payload_off + payload.size(), size_t{UINT32_MAX});
  GrowTo(&arena.rows, index + 1, 4);
  GrowTo(&arena.payload, payload_off + payload.size(), 64);
  arena.payload.insert(arena.payload.end(), payload.begin(), payload.end());

  const uint32_t row = static_cast<uint32_t>(index);
  uint32_t& tail = SlotTails(slot)[static_cast<size_t>(s)];
  Row r = fields;
  r.payload_off = static_cast<uint32_t>(payload_off);
  if (tail == kNoRow) {
    r.next = row;
  } else {
    r.next = arena.rows[tail].next;
    arena.rows[tail].next = row;
  }
  tail = row;
  arena.rows.push_back(r);

  bytes_ += Tuple::kHeaderBytes + static_cast<int64_t>(payload.size());
  tuple_count_ += 1;
  if (indexed()) IndexArrival(s, SlotKey(slot), fields.timestamp);
}

void PartitionGroup::MaybeCompact(StreamId s) {
  StreamArena& arena = arenas_[static_cast<size_t>(s)];
  if (arena.dead == 0 ||
      arena.dead * 2 < static_cast<int64_t>(arena.rows.size())) {
    return;
  }
  StreamArena packed;
  packed.rows.reserve(arena.rows.size() - static_cast<size_t>(arena.dead));
  packed.payload.reserve(arena.payload.size() - arena.dead_payload);
  const size_t capacity = SlotCapacity();
  for (size_t slot = 0; slot < capacity; ++slot) {
    if (SlotTouch(slot) < 0) continue;
    uint32_t& tail = SlotTails(slot)[static_cast<size_t>(s)];
    if (tail == kNoRow) continue;
    const uint32_t head = static_cast<uint32_t>(packed.rows.size());
    WalkRun(arena, tail, [&](const Row& row, std::string_view p) {
      Row r = row;
      r.payload_off = static_cast<uint32_t>(packed.payload.size());
      r.next = static_cast<uint32_t>(packed.rows.size()) + 1;
      packed.rows.push_back(r);
      packed.payload.insert(packed.payload.end(), p.begin(), p.end());
    });
    // The run is contiguous; close its circle.
    packed.rows.back().next = head;
    tail = static_cast<uint32_t>(packed.rows.size()) - 1;
  }
  arena = std::move(packed);
}

// ---- Join and state movement ---------------------------------------------

int64_t PartitionGroup::ProbeAndInsert(const Tuple& tuple,
                                       std::vector<JoinResult>* results,
                                       const ResultProjection* projection,
                                       Tick window_ticks) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  const size_t me = static_cast<size_t>(tuple.stream_id);

  // One lookup serves the probe of every partner stream, the insert and
  // the access clock. An m-way result needs a partner from each other
  // stream.
  const size_t slot = FindOrInsertSlot(tuple.join_key);
  const uint32_t* tails = SlotTails(slot);
  bool all_matched = true;
  for (size_t s = 0; s < static_cast<size_t>(num_streams_); ++s) {
    if (s != me && tails[s] == kNoRow) {
      all_matched = false;
      break;
    }
  }

  int64_t produced = 0;
  if (all_matched) {
    // Enumerate the cross product of the other streams' key runs. The
    // arriving tuple stands in as row 0 of its own stream. The scratch
    // vectors are members: assign reuses their capacity, so steady-state
    // probes never allocate.
    JoinResult result;
    result.partition = partition_;
    result.join_key = tuple.join_key;
    result.member_seqs.assign(static_cast<size_t>(num_streams_), 0);

    const Row self{tuple.seq, tuple.timestamp, tuple.value, tuple.category,
                   0, 0};
    std::vector<const Row*>& rows = probe_rows_;
    std::vector<uint32_t>& cursor = probe_cursor_;
    rows.assign(static_cast<size_t>(num_streams_), &self);
    cursor.assign(static_cast<size_t>(num_streams_), 0);
    for (size_t s = 0; s < cursor.size(); ++s) {
      if (s == me) continue;
      rows[s] = arenas_[s].rows.data();
      cursor[s] = rows[s][tails[s]].next;
    }
    while (true) {
      int64_t agg = 0;
      bool first_member = true;
      Tick min_ts = tuple.timestamp;
      Tick max_ts = tuple.timestamp;
      for (int s = 0; s < num_streams_; ++s) {
        const size_t si = static_cast<size_t>(s);
        const Row& member = rows[si][cursor[si]];
        result.member_seqs[si] = member.seq;
        min_ts = std::min(min_ts, member.timestamp);
        max_ts = std::max(max_ts, member.timestamp);
        if (projection != nullptr) {
          if (s == projection->group_stream) result.group_key = member.category;
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

      // Odometer increment over the non-arriving streams: a run ends at
      // its tail, whose successor is the head again.
      int s = num_streams_ - 1;
      for (; s >= 0; --s) {
        const size_t si = static_cast<size_t>(s);
        if (si == me) continue;
        uint32_t& c = cursor[si];
        const bool wrapped = c == tails[si];
        c = rows[si][c].next;
        if (!wrapped) break;
      }
      if (s < 0) break;
    }
  }

  AppendRow(slot, tuple.stream_id,
            Row{tuple.seq, tuple.timestamp, tuple.value, tuple.category, 0, 0},
            tuple.payload);
  SetSlotTouch(slot, ++access_clock_);
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
    MaybeCompact(s);
  }
  MaybeShrinkTable();
  return moved;
}

int64_t PartitionGroup::EvictKey(StreamId s, JoinKey key, Tick cutoff,
                                 PartitionGroup* evicted) {
  const size_t slot = FindSlot(key);
  if (slot == kNoSlot) return 0;
  uint32_t& tail = SlotTails(slot)[static_cast<size_t>(s)];
  if (tail == kNoRow) return 0;
  StreamArena& arena = arenas_[static_cast<size_t>(s)];
  // Walk the run once: expired rows leave (and die in the arena),
  // survivors are relinked in their arrival order.
  int64_t moved = 0;
  size_t evicted_slot = kNoSlot;
  uint32_t keep_head = kNoRow;
  uint32_t keep_tail = kNoRow;
  const uint32_t old_tail = tail;
  uint32_t r = arena.rows[old_tail].next;
  while (true) {
    const uint32_t next = arena.rows[r].next;
    const Row& row = arena.rows[r];
    if (row.timestamp < cutoff) {
      const std::string_view payload = PayloadOf(arena, r);
      bytes_ -= Tuple::kHeaderBytes + static_cast<int64_t>(payload.size());
      tuple_count_ -= 1;
      arena.dead += 1;
      arena.dead_payload += payload.size();
      ++moved;
      if (evicted != nullptr) {
        if (evicted_slot == kNoSlot) {
          evicted_slot = evicted->FindOrInsertSlot(key);
        }
        evicted->AppendRow(evicted_slot, s, row, payload);
      }
    } else {
      if (keep_tail == kNoRow) {
        keep_head = r;
      } else {
        arena.rows[keep_tail].next = r;
      }
      keep_tail = r;
    }
    if (r == old_tail) break;
    r = next;
  }
  if (keep_tail != kNoRow) {
    arena.rows[keep_tail].next = keep_head;
    tail = keep_tail;
    return moved;
  }
  tail = kNoRow;
  // The slot (and with it the access clock) tracks the live key set:
  // drop it once the key is gone from every stream.
  const uint32_t* tails = SlotTails(slot);
  for (int other = 0; other < num_streams_; ++other) {
    if (tails[other] != kNoRow) return moved;
  }
  EraseSlot(slot);
  return moved;
}

void PartitionGroup::BuildArrivalIndex() {
  arrivals_.resize(static_cast<size_t>(num_streams_));
  std::vector<std::pair<Tick, JoinKey>> entries;
  const size_t capacity = SlotCapacity();
  for (int s = 0; s < num_streams_; ++s) {
    entries.clear();
    for (size_t slot = 0; slot < capacity; ++slot) {
      if (SlotTouch(slot) < 0) continue;
      const uint32_t tail = SlotTails(slot)[static_cast<size_t>(s)];
      if (tail == kNoRow) continue;
      const JoinKey key = SlotKey(slot);
      WalkRun(arenas_[static_cast<size_t>(s)], tail,
              [&](const Row& row, std::string_view) {
                entries.emplace_back(row.timestamp, key);
              });
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

void PartitionGroup::InsertOnly(const Tuple& tuple) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  AppendRow(FindOrInsertSlot(tuple.join_key), tuple.stream_id,
            Row{tuple.seq, tuple.timestamp, tuple.value, tuple.category, 0, 0},
            tuple.payload);
}

void PartitionGroup::MergeFrom(PartitionGroup&& other) {
  DCAPE_CHECK_EQ(partition_, other.partition_);
  DCAPE_CHECK_EQ(num_streams_, other.num_streams_);
  const size_t capacity = other.SlotCapacity();
  for (size_t o = 0; o < capacity; ++o) {
    const int64_t touch = other.SlotTouch(o);
    if (touch < 0) continue;
    const size_t slot = FindOrInsertSlot(other.SlotKey(o));
    // Relocated state is older than what arrived here meanwhile; it
    // follows the resident rows of its key, and the index files it
    // under its own timestamps.
    const uint32_t* tails = other.SlotTails(o);
    for (int s = 0; s < num_streams_; ++s) {
      if (tails[s] == kNoRow) continue;
      WalkRun(other.arenas_[static_cast<size_t>(s)], tails[s],
              [&](const Row& row, std::string_view p) {
                AppendRow(slot, s, row, p);
              });
    }
    // Access clocks merge by max: both inputs are deterministic, so the
    // merged coldness ordering is too. A deserialized generation carries
    // no clock entries and ranks coldest, which is the right prior.
    SetSlotTouch(slot, std::max(SlotTouch(slot), touch));
  }
  outputs_ += other.outputs_;
  access_clock_ = std::max(access_clock_, other.access_clock_);
  other = PartitionGroup(partition_, num_streams_);
}

int64_t PartitionGroup::MoveKeyTo(JoinKey key, PartitionGroup* dst) {
  const size_t slot = FindSlot(key);
  if (slot == kNoSlot) return 0;
  const size_t dst_slot = dst->FindOrInsertSlot(key);
  int64_t moved_bytes = 0;
  uint32_t* tails = SlotTails(slot);
  for (int s = 0; s < num_streams_; ++s) {
    uint32_t& tail = tails[static_cast<size_t>(s)];
    if (tail == kNoRow) continue;
    StreamArena& arena = arenas_[static_cast<size_t>(s)];
    const int64_t dst_bytes = dst->bytes_;
    const int64_t dst_tuples = dst->tuple_count_;
    // The source's index entries for `key` go stale, which eviction
    // tolerates; AppendRow indexes the rows in an indexed destination.
    WalkRun(arena, tail, [&](const Row& row, std::string_view p) {
      dst->AppendRow(dst_slot, s, row, p);
    });
    const int64_t run_bytes = dst->bytes_ - dst_bytes;
    const int64_t run_tuples = dst->tuple_count_ - dst_tuples;
    bytes_ -= run_bytes;
    tuple_count_ -= run_tuples;
    arena.dead += run_tuples;
    arena.dead_payload +=
        static_cast<size_t>(run_bytes - run_tuples * Tuple::kHeaderBytes);
    moved_bytes += run_bytes;
    tail = kNoRow;
  }
  const int64_t touch = SlotTouch(slot);
  if (touch > 0) {
    dst->SetSlotTouch(dst_slot, std::max(dst->SlotTouch(dst_slot), touch));
    dst->access_clock_ = std::max(dst->access_clock_, touch);
  }
  EraseSlot(slot);
  for (int s = 0; s < num_streams_; ++s) MaybeCompact(s);
  return moved_bytes;
}

int64_t PartitionGroup::SplitColdest(int64_t target_bytes,
                                     PartitionGroup* cold) {
  DCAPE_CHECK(cold != nullptr);
  DCAPE_CHECK_EQ(cold->partition(), partition_);
  DCAPE_CHECK_EQ(cold->num_streams(), num_streams_);
  if (target_bytes <= 0) return 0;
  if (key_count_ < 2) return 0;

  struct Candidate {
    int64_t last_touch;
    JoinKey key;
  };
  std::vector<Candidate> order;
  order.reserve(static_cast<size_t>(key_count_));
  const size_t capacity = SlotCapacity();
  for (size_t slot = 0; slot < capacity; ++slot) {
    const int64_t touch = SlotTouch(slot);
    if (touch >= 0) order.push_back(Candidate{touch, SlotKey(slot)});
  }
  // Keys are unique, so (last_touch, key) is a total order: the split
  // does not depend on slot order.
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
  MaybeShrinkTable();
  return moved;
}

PartitionGroup PartitionGroup::SplitBySecondaryHashBit(int bit) {
  DCAPE_CHECK_GE(bit, 0);
  DCAPE_CHECK_LT(bit, 64);
  PartitionGroup high(partition_, num_streams_);
  // Collect first: MoveKeyTo reshuffles the table.
  std::vector<JoinKey> keys;
  const size_t capacity = SlotCapacity();
  for (size_t slot = 0; slot < capacity; ++slot) {
    if (SlotTouch(slot) < 0) continue;
    const JoinKey key = SlotKey(slot);
    if ((SecondaryKeyHash(key) >> bit) & 1ULL) keys.push_back(key);
  }
  for (JoinKey key : keys) MoveKeyTo(key, &high);
  MaybeShrinkTable();
  return high;
}

std::vector<JoinKey> PartitionGroup::TouchedKeys() const {
  std::vector<JoinKey> keys;
  const size_t capacity = SlotCapacity();
  for (size_t slot = 0; slot < capacity; ++slot) {
    if (SlotTouch(slot) > 0) keys.push_back(SlotKey(slot));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::pair<JoinKey, uint32_t>> PartitionGroup::SortedRuns(
    StreamId s) const {
  std::vector<std::pair<JoinKey, uint32_t>> runs;
  const size_t capacity = SlotCapacity();
  for (size_t slot = 0; slot < capacity; ++slot) {
    if (SlotTouch(slot) < 0) continue;
    const uint32_t tail = SlotTails(slot)[static_cast<size_t>(s)];
    if (tail != kNoRow) runs.emplace_back(SlotKey(slot), tail);
  }
  std::sort(runs.begin(), runs.end());
  return runs;
}

std::vector<JoinKey> PartitionGroup::SortedKeysForStream(
    StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  std::vector<JoinKey> keys;
  for (const auto& [key, tail] : SortedRuns(stream)) keys.push_back(key);
  return keys;
}

int64_t PartitionGroup::SerializedByteSize() const {
  // v1 layout: header (partition i32 + num_streams i32 + outputs i64),
  // one i64 tuple count per stream, then the tuples; bytes_ tracks
  // exactly the tuples' raw serialized size (Tuple::ByteSize ==
  // TupleSerializedSize).
  return 16 + 8 * static_cast<int64_t>(num_streams_) + bytes_;
}

int64_t PartitionGroup::ResidentBytes() const {
  int64_t total = static_cast<int64_t>(slots_.capacity() * sizeof(uint32_t));
  for (const StreamArena& arena : arenas_) {
    total += static_cast<int64_t>(arena.rows.capacity() * sizeof(Row) +
                                  arena.payload.capacity());
  }
  return total;
}

void PartitionGroup::Serialize(std::string* out, SegmentFormat format) const {
  out->reserve(out->size() + static_cast<size_t>(SerializedByteSize()));
  ByteWriter writer(out);
  if (format == SegmentFormat::kV1) {
    writer.PutI32(partition_);
    writer.PutI32(num_streams_);
    writer.PutI64(outputs_);
    Tuple t;
    for (int s = 0; s < num_streams_; ++s) {
      const StreamArena& arena = arenas_[static_cast<size_t>(s)];
      writer.PutI64(static_cast<int64_t>(arena.rows.size()) - arena.dead);
      t.stream_id = s;
      for (const auto& [key, tail] : SortedRuns(s)) {
        t.join_key = key;
        WalkRun(arena, tail, [&](const Row& row, std::string_view p) {
          t.seq = row.seq;
          t.timestamp = row.timestamp;
          t.value = row.value;
          t.category = row.category;
          t.payload.assign(p);
          EncodeTuple(t, out);
        });
      }
    }
    return;
  }
  // v2: the stream id is implied by the section and the join key is
  // written once per key run; seq and timestamp delta-encode within the
  // run (arrival order makes the deltas small non-negative values).
  out->append(kGroupMagic, 4);
  writer.PutU8(static_cast<uint8_t>(SegmentFormat::kV2));
  writer.PutVarint(static_cast<uint64_t>(partition_));
  writer.PutVarint(static_cast<uint64_t>(num_streams_));
  writer.PutZigzag(outputs_);
  for (int s = 0; s < num_streams_; ++s) {
    const StreamArena& arena = arenas_[static_cast<size_t>(s)];
    const std::vector<std::pair<JoinKey, uint32_t>> runs = SortedRuns(s);
    writer.PutVarint(runs.size());
    for (const auto& [key, tail] : runs) {
      uint64_t run_length = 0;
      WalkRun(arena, tail,
              [&run_length](const Row&, std::string_view) { ++run_length; });
      writer.PutZigzag(key);
      writer.PutVarint(run_length);
      int64_t prev_seq = 0;
      Tick prev_ts = 0;
      WalkRun(arena, tail, [&](const Row& row, std::string_view p) {
        writer.PutZigzag(row.seq - prev_seq);
        writer.PutZigzag(row.timestamp - prev_ts);
        writer.PutZigzag(row.value);
        writer.PutZigzag(row.category);
        writer.PutVString(p);
        prev_seq = row.seq;
        prev_ts = row.timestamp;
      });
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
        if (run_length == 0) continue;
        // One lookup per run; the payloads copy straight from the blob.
        const size_t slot = group.FindOrInsertSlot(key);
        Row row{0, 0, 0, 0, 0, 0};
        for (uint64_t i = 0; i < run_length; ++i) {
          DCAPE_ASSIGN_OR_RETURN(int64_t seq_delta, reader.GetZigzag());
          row.seq += seq_delta;
          DCAPE_ASSIGN_OR_RETURN(Tick ts_delta, reader.GetZigzag());
          row.timestamp += ts_delta;
          DCAPE_ASSIGN_OR_RETURN(row.value, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(row.category, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(std::string_view payload,
                                 reader.GetVStringView());
          group.AppendRow(slot, s, row, payload);
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
      group.InsertOnly(t);
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after partition group");
  }
  return group;
}

}  // namespace dcape
