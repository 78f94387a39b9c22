#ifndef DCAPE_STATE_PARTITION_GROUP_H_
#define DCAPE_STATE_PARTITION_GROUP_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/virtual_clock.h"
#include "tuple/projection.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"

namespace dcape {

/// Lightweight statistics snapshot for one partition group, consumed by
/// the adaptation policies (victim selection, productivity ranking).
struct GroupStats {
  PartitionId partition = 0;
  /// Current memory-resident state bytes (P_size in the paper).
  int64_t bytes = 0;
  /// Output tuples attributed to this group so far (P_output).
  int64_t outputs = 0;
  /// P_output / P_size; 0 when the group is empty.
  double productivity = 0.0;
  int64_t tuple_count = 0;
};

/// Fixed 64-bit mix (splitmix64 finalizer) used to derive sub-partition
/// slots from join keys. Deliberately *not* std::hash: the slot of a key
/// must be identical across standard libraries, platforms, and runs, or
/// the recursive sub-partition split would break trace/oracle
/// bit-identity.
inline uint64_t SecondaryKeyHash(JoinKey key) {
  uint64_t x = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The paper's adaptation unit: all per-input-stream state with one
/// partition id, kept together so joins never span machines and cleanup
/// needs no per-tuple timestamps (§2, "Partition-Group Granularity").
///
/// An arriving tuple probes the *other* streams' state for its join key
/// (m-way symmetric hash join, Viglas et al. [26]) and is then inserted
/// into its own stream's state. Storage is flat:
///  - one open-addressing key table per group (linear probing on
///    SecondaryKeyHash, load <= 0.7, backward-shift deletion). A slot
///    holds the key, its access-clock entry and, per stream, the arena
///    index of the key's newest row — so one lookup serves the probe of
///    every partner stream, the insert and the clock update;
///  - per stream, a dense arena of 40-byte Rows plus a payload byte
///    arena. A key's rows form a circular list in arrival order (the
///    slot names the tail, the tail links to the head).
/// Rows that leave (eviction, key moves) stay in the arena as dead rows
/// until they reach half of it; the arena is then rewritten in key-run
/// order. Byte accounting stays in logical Tuple::ByteSize units.
class PartitionGroup {
 public:
  /// One resident tuple of a stream. The stream id and join key are
  /// implied by where the row is stored; the payload lives in the
  /// stream's byte arena and ends where the next arena row's begins.
  struct Row {
    int64_t seq;
    Tick timestamp;
    int64_t value;
    int64_t category;
    /// Start of the payload in the stream's byte arena.
    uint32_t payload_off;
    /// Arena index of the key's next row (the tail links to the head).
    uint32_t next;
  };

  /// An empty group for `partition` over `num_streams` join inputs.
  PartitionGroup(PartitionId partition, int num_streams);

  PartitionGroup(const PartitionGroup&) = delete;
  PartitionGroup& operator=(const PartitionGroup&) = delete;
  PartitionGroup(PartitionGroup&&) = default;
  PartitionGroup& operator=(PartitionGroup&&) = default;

  /// Probes the other streams for matches with `tuple` and appends the
  /// produced m-way results to `results`, then inserts `tuple` into its
  /// stream's state. Returns the number of results produced. Updates
  /// byte accounting and productivity counters. When `projection` is
  /// non-null each result's (group_key, agg_value) is computed from the
  /// member tuples. When `window_ticks > 0` only combinations whose
  /// member timestamps span at most the window qualify (sliding-window
  /// join semantics for infinite streams). Results enumerate the
  /// partners in arrival order, the last stream varying fastest.
  DCAPE_HOT_PATH int64_t ProbeAndInsert(
      const Tuple& tuple, std::vector<JoinResult>* results,
      const ResultProjection* projection = nullptr, Tick window_ticks = 0);

  /// Moves every tuple with timestamp < `cutoff` into `evicted` (a group
  /// of the same partition/stream count), or destroys them when
  /// `evicted` is null. Returns the number of evicted tuples; byte/tuple
  /// accounting moves with them. Output counters stay with this group.
  ///
  /// The first call builds a per-stream arrival index (join keys bucketed
  /// by timestamp, kIndexBucketTicks per bucket) that every later insert
  /// maintains, so a pass touches only the buckets that expire and the
  /// keys they name; groups that are never evicted never pay for the
  /// index. Within a key, evicted tuples keep their arrival order.
  int64_t EvictBefore(Tick cutoff, PartitionGroup* evicted);

  /// Inserts without probing (used when rebuilding state during cleanup).
  /// The payload is copied into the stream's arena.
  void InsertOnly(const Tuple& tuple);

  /// Merges all state and counters of `other` into this group. Used when
  /// a relocated group lands on an engine that has since accumulated new
  /// tuples for the same partition (defensive; the protocol normally
  /// prevents this).
  void MergeFrom(PartitionGroup&& other);

  /// Moves the *coldest whole keys* — every stream's tuples for a key
  /// move together — into `cold` until at least `target_bytes` have
  /// moved. Coldness is the per-key access clock (last ProbeAndInsert
  /// arrival for the key; keys never probed rank coldest), ties broken
  /// on ascending key, so the split is a pure function of the
  /// processing history and deterministic across thread counts.
  ///
  /// The hottest key never moves: the residue stays non-empty and
  /// probe-able, which is what makes a partial spill different from
  /// eviction. Because the split is key-granular across *all* streams,
  /// the spilled and resident key sets are disjoint — no join result
  /// can span them, so the cleanup generation algebra stays exact.
  /// Returns the bytes moved (0 for a single-key group).
  int64_t SplitColdest(int64_t target_bytes, PartitionGroup* cold);

  /// Moves every key whose secondary hash has bit `bit` set into the
  /// returned group (same partition / stream count). The recursive
  /// sub-partitioning step for groups larger than the memory budget:
  /// splitting on successive bits yields up to 2^depth independently
  /// spillable sub-groups, key-disjoint by construction.
  PartitionGroup SplitBySecondaryHashBit(int bit);

  /// Distinct join keys across all streams (a partial spill or
  /// sub-partition split needs >= 2 to make progress). O(1).
  int64_t DistinctKeyCount() const { return key_count_; }

  /// Exact number of bytes the v1 fixed-width Serialize appends. O(1):
  /// the tracked byte accounting already equals the tuples' raw
  /// serialized size. For v2 this is the reserve estimate and the "raw
  /// bytes" figure the storage counters compare the compact encoding
  /// against.
  int64_t SerializedByteSize() const;

  /// Bytes the group's storage holds allocated: the key table's slots
  /// and every stream's row and payload arenas, at capacity (dead rows
  /// and growth slack included). Unlike bytes(), which is logical.
  int64_t ResidentBytes() const;

  /// Serializes the full group (counters + all tuples) for spilling or
  /// relocation. Appends to `out`. v2 (default) is the compact segment
  /// format: varint/zigzag fields, one key header per key run instead
  /// of per tuple, and per-run delta-encoded seq/timestamps. v1 is the
  /// original fixed-width layout, kept for compatibility benchmarking.
  /// Keys are written in ascending order, each key's tuples in arrival
  /// order, so the bytes are a pure function of the logical state.
  void Serialize(std::string* out,
                 SegmentFormat format = SegmentFormat::kV2) const;

  /// Reconstructs a group from Serialize output of either format (the
  /// version is sniffed: the v2 magic decodes as a negative v1 partition
  /// id, which no v1 encoder produces).
  [[nodiscard]] static StatusOr<PartitionGroup> Deserialize(
      std::string_view data);

  /// Calls `fn(const Row&, std::string_view payload)` for each tuple of
  /// `stream` with join key `key`, in arrival order. The group must not
  /// change during the walk.
  template <typename Fn>
  void ForEachRow(StreamId stream, JoinKey key, Fn&& fn) const {
    const uint32_t tail = TailOf(stream, key);
    if (tail != kNoRow) WalkRun(arenas_[static_cast<size_t>(stream)], tail, fn);
  }

  /// One stream's join keys in ascending order. The streaming cleanup
  /// merge iterates memory-resident generations key-by-key alongside
  /// disk cursors, which decode segments in key-sorted section order.
  std::vector<JoinKey> SortedKeysForStream(StreamId stream) const;

  /// The keys that carry an access-clock entry, ascending. Every one of
  /// them has tuples in some stream: insertion sets the entry, and moving
  /// or evicting a key's last tuple drops it.
  std::vector<JoinKey> TouchedKeys() const;

  /// Timestamp width of one arrival-index bucket (see EvictBefore), 2048
  /// ticks: wide enough that a bucket's vector amortizes its overhead
  /// over many tuples, narrow against the default 10 s eviction period,
  /// so the one partly expired bucket a pass re-reads stays small.
  static constexpr int kIndexBucketShift = 11;
  static constexpr Tick kIndexBucketTicks = Tick{1} << kIndexBucketShift;

  PartitionId partition() const { return partition_; }
  int num_streams() const { return num_streams_; }
  int64_t bytes() const { return bytes_; }
  int64_t tuple_count() const { return tuple_count_; }
  int64_t outputs() const { return outputs_; }
  bool empty() const { return tuple_count_ == 0; }

  /// P_output / P_size (outputs per state byte); 0 for an empty group.
  double productivity() const {
    return bytes_ > 0 ? static_cast<double>(outputs_) /
                            static_cast<double>(bytes_)
                      : 0.0;
  }

  GroupStats Stats() const {
    return GroupStats{partition_, bytes_, outputs_, productivity(),
                      tuple_count_};
  }

 private:
  /// "No row": an empty per-stream tail, and the reason a stream arena
  /// holds fewer than 2^32 - 1 rows. Its payload arena is capped at
  /// 2^32 - 1 bytes the same way (uint32 payload offsets); crossing
  /// either limit fails a DCAPE_CHECK. Dead rows are reclaimed long
  /// before: an arena is compacted once half of it is dead.
  static constexpr uint32_t kNoRow = UINT32_MAX;
  static constexpr size_t kNoSlot = SIZE_MAX;

  /// One stream's resident tuples.
  struct StreamArena {
    std::vector<Row> rows;
    /// Payload bytes of every row (dead ones too), in row order.
    std::vector<char> payload;
    /// Rows no key links to any more (evicted or moved out), and their
    /// payload bytes.
    int64_t dead = 0;
    size_t dead_payload = 0;
  };

  // ---- Key table -------------------------------------------------------
  // A slot is slot_words_ uint32 words: the join key (2 words), the
  // access-clock entry `touch` (2 words; -1 marks an empty slot, 0 "no
  // entry") and one tail row index per stream (kNoRow when the stream
  // holds no row of the key). An all-ones slot is empty.
  JoinKey SlotKey(size_t slot) const;
  int64_t SlotTouch(size_t slot) const;
  void SetSlotTouch(size_t slot, int64_t touch);
  uint32_t* SlotTails(size_t slot) {
    return &slots_[slot * slot_words_ + 4];
  }
  const uint32_t* SlotTails(size_t slot) const {
    return &slots_[slot * slot_words_ + 4];
  }
  size_t SlotCapacity() const { return slots_.size() / slot_words_; }
  size_t HomeSlot(JoinKey key) const;
  /// The slot of `key`, or kNoSlot.
  size_t FindSlot(JoinKey key) const;
  /// The slot of `key`, inserting an empty entry (touch 0, no rows)
  /// when absent. May rehash, invalidating earlier slot indices.
  size_t FindOrInsertSlot(JoinKey key);
  /// Empties `slot` by backward shift; no tombstones.
  void EraseSlot(size_t slot);
  /// Rebuilds the table with `capacity` slots (a power of two, or 0).
  void Rehash(size_t capacity);
  /// Shrinks the table after mass deletion (load under 0.175).
  void MaybeShrinkTable();
  /// The tail row of `key` in `stream`, or kNoRow.
  uint32_t TailOf(StreamId stream, JoinKey key) const;

  // ---- Rows ------------------------------------------------------------
  static std::string_view PayloadOf(const StreamArena& arena, uint32_t row) {
    const uint32_t end = row + 1 < arena.rows.size()
                             ? arena.rows[row + 1].payload_off
                             : static_cast<uint32_t>(arena.payload.size());
    const uint32_t begin = arena.rows[row].payload_off;
    return std::string_view(arena.payload.data() + begin, end - begin);
  }
  /// Calls `fn(row, payload)` for the key run ending at `tail`, head
  /// first.
  template <typename Fn>
  static void WalkRun(const StreamArena& arena, uint32_t tail, Fn&& fn) {
    uint32_t r = arena.rows[tail].next;
    while (true) {
      fn(arena.rows[r], PayloadOf(arena, r));
      if (r == tail) break;
      r = arena.rows[r].next;
    }
  }
  /// Stream `s`'s (key, tail row) pairs, ascending by key.
  std::vector<std::pair<JoinKey, uint32_t>> SortedRuns(StreamId s) const;
  /// Appends a row for the key of `slot` to stream `s` — after the
  /// key's existing rows — with byte/tuple accounting and the arrival
  /// index. `fields` supplies seq, timestamp, value and category.
  void AppendRow(size_t slot, StreamId s, const Row& fields,
                 std::string_view payload);
  /// Rewrites stream `s`'s arenas without dead rows, in key-run order,
  /// once dead rows are at least half of the arena.
  void MaybeCompact(StreamId s);

  /// Moves every stream's rows of `key` into `dst`, with byte / tuple
  /// accounting and the key's access-clock entry. Returns the bytes
  /// moved.
  int64_t MoveKeyTo(JoinKey key, PartitionGroup* dst);

  /// One arrival-index bucket: the join key of every indexed tuple whose
  /// timestamp falls in [id, id + 1) * kIndexBucketTicks, one entry per
  /// tuple, in no particular order.
  struct ArrivalBucket {
    int64_t id;
    std::vector<JoinKey> keys;
  };
  bool indexed() const { return !arrivals_.empty(); }
  /// Builds the arrival index from the resident rows (first EvictBefore).
  void BuildArrivalIndex();
  /// Records a tuple of `key` with timestamp `ts` in stream `s`'s index,
  /// in the bucket of its timestamp — also when that bucket is older
  /// than the newest one (late relocation flushes, merges).
  void IndexArrival(StreamId s, JoinKey key, Tick ts);
  /// Moves (or, with null `evicted`, destroys) the rows of `key` in
  /// stream `s` older than `cutoff`, erasing the key's slot — and with
  /// it its access-clock entry — once no stream holds it. Returns the
  /// count.
  int64_t EvictKey(StreamId s, JoinKey key, Tick cutoff,
                   PartitionGroup* evicted);

  PartitionId partition_;
  int num_streams_;
  size_t slot_words_;
  /// The key table (see SlotKey); capacity 0 or a power of two.
  std::vector<uint32_t> slots_;
  /// 64 - log2(capacity): HomeSlot takes the hash's top bits, so the
  /// low bits SplitBySecondaryHashBit fixes leave the homes uniform.
  int slot_shift_ = 64;
  int64_t key_count_ = 0;
  std::vector<StreamArena> arenas_;
  int64_t bytes_ = 0;
  int64_t tuple_count_ = 0;
  int64_t outputs_ = 0;
  /// Deterministic per-key access clock: a logical counter advanced on
  /// every ProbeAndInsert; a key's slot `touch` is the arriving tuple's
  /// tick number. Never serialized — a restored generation starts cold.
  int64_t access_clock_ = 0;
  /// arrivals_[s] = stream s's arrival index, buckets ascending by id and
  /// never empty. Empty (no per-stream deques at all) until the first
  /// EvictBefore. May name keys that have since moved out or expired:
  /// eviction re-checks timestamps, so a stale entry costs one lookup.
  std::vector<std::deque<ArrivalBucket>> arrivals_;
  /// Reusable probe scratch: each stream's row array and the odometer
  /// (one row index per stream). Members so the per-tuple hot path
  /// never heap-allocates.
  std::vector<const Row*> probe_rows_;
  std::vector<uint32_t> probe_cursor_;
};

}  // namespace dcape

#endif  // DCAPE_STATE_PARTITION_GROUP_H_
