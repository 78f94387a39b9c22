#include "operators/split.h"

#include <algorithm>

#include "common/check.h"

namespace dcape {

Split::Split(StreamId stream_id, std::vector<EngineId> routing)
    : stream_id_(stream_id), routing_(std::move(routing)) {
  DCAPE_CHECK(!routing_.empty());
}

std::optional<EngineId> Split::Route(const Tuple& tuple) {
  DCAPE_CHECK_EQ(tuple.stream_id, stream_id_);
  const PartitionId partition = StreamGenerator::PartitionOfKey(tuple.join_key);
  DCAPE_CHECK_GE(partition, 0);
  DCAPE_CHECK_LT(static_cast<size_t>(partition), routing_.size());
  if (!paused_.empty() && paused_.count(partition) > 0) {
    buffered_.push_back(tuple);
    return std::nullopt;
  }
  return routing_[static_cast<size_t>(partition)];
}

void Split::Pause(const std::vector<PartitionId>& partitions) {
  for (PartitionId p : partitions) {
    DCAPE_CHECK_GE(p, 0);
    DCAPE_CHECK_LT(static_cast<size_t>(p), routing_.size());
    paused_.insert(p);
  }
}

std::vector<Tuple> Split::UpdateRoutingAndRelease(
    const std::vector<PartitionId>& partitions, EngineId new_owner) {
  std::set<PartitionId> releasing(partitions.begin(), partitions.end());
  for (PartitionId p : partitions) {
    DCAPE_CHECK_GE(p, 0);
    DCAPE_CHECK_LT(static_cast<size_t>(p), routing_.size());
    routing_[static_cast<size_t>(p)] = new_owner;
    paused_.erase(p);
  }

  std::vector<Tuple> released;
  std::vector<Tuple> still_buffered;
  released.reserve(buffered_.size());
  for (Tuple& t : buffered_) {
    const PartitionId partition = StreamGenerator::PartitionOfKey(t.join_key);
    if (releasing.count(partition) > 0) {
      released.push_back(std::move(t));
    } else {
      still_buffered.push_back(std::move(t));
    }
  }
  buffered_ = std::move(still_buffered);
  return released;
}

EngineId Split::OwnerOf(PartitionId partition) const {
  DCAPE_CHECK_GE(partition, 0);
  DCAPE_CHECK_LT(static_cast<size_t>(partition), routing_.size());
  return routing_[static_cast<size_t>(partition)];
}

}  // namespace dcape
