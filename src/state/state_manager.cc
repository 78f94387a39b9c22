#include "state/state_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dcape {

StateManager::StateManager(int num_streams,
                           std::optional<ResultProjection> projection,
                           Tick window_ticks, SegmentFormat segment_format)
    : num_streams_(num_streams),
      projection_(projection),
      window_ticks_(window_ticks),
      segment_format_(segment_format) {
  DCAPE_CHECK_GE(num_streams, 2);
  if (projection_.has_value()) {
    DCAPE_CHECK_GE(projection_->group_stream, 0);
    DCAPE_CHECK_LT(projection_->group_stream, num_streams);
  }
}

int64_t StateManager::ProcessTuple(PartitionId partition, const Tuple& tuple,
                                   std::vector<JoinResult>* results) {
  std::unique_ptr<PartitionGroup>& slot = Slot(partition);
  if (slot == nullptr) {
    slot = std::make_unique<PartitionGroup>(partition, num_streams_);
  }
  PartitionGroup& group = *slot;
  const int64_t bytes_before = group.bytes();
  const int64_t produced = group.ProbeAndInsert(
      tuple, results, projection_.has_value() ? &*projection_ : nullptr,
      window_ticks_);
  total_bytes_ += group.bytes() - bytes_before;
  total_tuples_ += 1;
  total_outputs_ += produced;
  if (produced == 0 && !disk_backed_.empty() &&
      disk_backed_.count(partition) > 0) {
    // The matching state may sit in a disk generation; record the miss
    // instead of blocking on a read — cleanup owes the deferred result.
    ++cold_probe_misses_;
  }
  return produced;
}

std::vector<StateManager::ExtractedGroup> StateManager::ExtractGroups(
    const std::vector<PartitionId>& partitions) {
  std::vector<ExtractedGroup> extracted;
  extracted.reserve(partitions.size());
  for (PartitionId partition : partitions) {
    if (Find(partition) == nullptr) continue;
    PartitionGroup& group = *Find(partition);
    ExtractedGroup out;
    out.partition = partition;
    out.bytes = group.bytes();
    out.raw_bytes = group.SerializedByteSize();
    out.tuple_count = group.tuple_count();
    group.Serialize(&out.blob, segment_format_);
    total_bytes_ -= group.bytes();
    total_tuples_ -= group.tuple_count();
    Slot(partition).reset();
    extracted.push_back(std::move(out));
  }
  return extracted;
}

StateManager::ExtractedGroup StateManager::SerializePiece(
    PartitionGroup&& piece, bool partial, int sub_depth) {
  ExtractedGroup out;
  out.partition = piece.partition();
  out.bytes = piece.bytes();
  out.raw_bytes = piece.SerializedByteSize();
  out.tuple_count = piece.tuple_count();
  out.partial = partial;
  out.sub_depth = sub_depth;
  piece.Serialize(&out.blob, segment_format_);
  return out;
}

namespace {

/// Recursively splits `piece` on successive secondary-hash bits until it
/// fits `max_piece_bytes` or the depth bound / single-key floor is hit.
/// Low slot recurses before high slot, so pieces emit in ascending
/// sub-partition slot order — a pure function of the key set.
void SplitToFit(PartitionGroup&& piece, int64_t max_piece_bytes,
                int max_depth, int depth,
                std::vector<std::pair<PartitionGroup, int>>* out) {
  if (piece.empty()) return;
  if (piece.bytes() <= max_piece_bytes || depth >= max_depth ||
      piece.DistinctKeyCount() < 2) {
    out->emplace_back(std::move(piece), depth);
    return;
  }
  PartitionGroup high = piece.SplitBySecondaryHashBit(depth);
  SplitToFit(std::move(piece), max_piece_bytes, max_depth, depth + 1, out);
  SplitToFit(std::move(high), max_piece_bytes, max_depth, depth + 1, out);
}

}  // namespace

std::vector<StateManager::ExtractedGroup> StateManager::ExtractColdState(
    PartitionId partition, int64_t target_bytes, int64_t max_piece_bytes,
    int max_depth) {
  if (target_bytes <= 0) return {};
  if (Find(partition) == nullptr || IsLocked(partition)) return {};
  PartitionGroup& group = *Find(partition);
  DCAPE_CHECK_GE(max_piece_bytes, 1);
  DCAPE_CHECK_GE(max_depth, 0);

  PartitionGroup cold(partition, num_streams_);
  bool partial = false;
  if (target_bytes < group.bytes() &&
      group.SplitColdest(target_bytes, &cold) > 0) {
    // Bucket-granular path: the hot residue stays resident (SplitColdest
    // never moves the hottest key, so the group cannot be empty here).
    DCAPE_CHECK(!group.empty());
    partial = true;
    total_bytes_ -= cold.bytes();
    total_tuples_ -= cold.tuple_count();
  } else {
    // Whole-group path: the target covers the group, or the group has a
    // single key and cannot split at bucket granularity.
    cold = std::move(group);
    total_bytes_ -= cold.bytes();
    total_tuples_ -= cold.tuple_count();
    Slot(partition).reset();
  }

  std::vector<std::pair<PartitionGroup, int>> pieces;
  SplitToFit(std::move(cold), max_piece_bytes, max_depth, 0, &pieces);
  std::vector<ExtractedGroup> extracted;
  extracted.reserve(pieces.size());
  for (auto& [piece, depth] : pieces) {
    extracted.push_back(SerializePiece(std::move(piece), partial, depth));
  }
  return extracted;
}

void StateManager::MarkDiskBacked(PartitionId partition) {
  disk_backed_.insert(partition);
}

void StateManager::ClearDiskBacked(PartitionId partition) {
  disk_backed_.erase(partition);
}

Status StateManager::InstallGroup(std::string_view blob) {
  DCAPE_ASSIGN_OR_RETURN(PartitionGroup group,
                         PartitionGroup::Deserialize(blob));
  if (group.num_streams() != num_streams_) {
    return Status::InvalidArgument(
        "installed group has mismatched stream count");
  }
  total_bytes_ += group.bytes();
  total_tuples_ += group.tuple_count();
  std::unique_ptr<PartitionGroup>& slot = Slot(group.partition());
  if (slot == nullptr) {
    slot = std::make_unique<PartitionGroup>(std::move(group));
  } else {
    slot->MergeFrom(std::move(group));
  }
  return Status::OK();
}

StateManager::EvictionPass StateManager::EvictExpired(
    Tick cutoff, const std::set<PartitionId>& preserve) {
  EvictionPass pass;
  for (auto& group : groups_) {
    if (group == nullptr) continue;
    const PartitionId partition = group->partition();
    const bool keep = preserve.count(partition) > 0;
    std::optional<PartitionGroup> expired;
    if (keep) expired.emplace(partition, num_streams_);
    const int64_t bytes_before = group->bytes();
    const int64_t moved =
        group->EvictBefore(cutoff, keep ? &*expired : nullptr);
    if (moved == 0) continue;
    total_bytes_ -= bytes_before - group->bytes();
    total_tuples_ -= moved;
    if (keep) {
      pass.preserved.push_back(
          SerializePiece(std::move(*expired), /*partial=*/false, 0));
    } else {
      ++pass.dropped_groups;
      pass.dropped_tuples += moved;
    }
    if (group->empty()) group.reset();
  }
  return pass;
}

void StateManager::LockGroups(const std::vector<PartitionId>& partitions) {
  for (PartitionId p : partitions) locked_[p] = true;
}

void StateManager::UnlockGroups(const std::vector<PartitionId>& partitions) {
  for (PartitionId p : partitions) locked_.erase(p);
}

bool StateManager::IsLocked(PartitionId partition) const {
  auto it = locked_.find(partition);
  return it != locked_.end() && it->second;
}

std::vector<GroupStats> StateManager::SnapshotStats(
    bool exclude_locked) const {
  std::vector<GroupStats> stats;
  for (const auto& group : groups_) {
    if (group == nullptr) continue;
    if (exclude_locked && IsLocked(group->partition())) continue;
    stats.push_back(group->Stats());
  }
  return stats;
}

const PartitionGroup* StateManager::FindGroup(PartitionId partition) const {
  return Find(partition);
}

std::vector<PartitionId> StateManager::PartitionIds() const {
  std::vector<PartitionId> ids;
  for (const auto& group : groups_) {
    if (group != nullptr) ids.push_back(group->partition());
  }
  return ids;
}

int64_t StateManager::group_count() const {
  return std::count_if(groups_.begin(), groups_.end(),
                       [](const auto& group) { return group != nullptr; });
}

std::unique_ptr<PartitionGroup>& StateManager::Slot(PartitionId partition) {
  DCAPE_CHECK_GE(partition, 0);
  const auto index = static_cast<size_t>(partition);
  if (index >= groups_.size()) groups_.resize(index + 1);
  return groups_[index];
}

}  // namespace dcape
