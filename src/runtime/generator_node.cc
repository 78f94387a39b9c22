#include "runtime/generator_node.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "net/message.h"

namespace dcape {

GeneratorNode::GeneratorNode(NodeId node_id,
                             std::unique_ptr<InputSource> source,
                             std::vector<NodeId> split_host_of_stream,
                             Transport* network, std::string* record_trace)
    : node_id_(node_id),
      source_(std::move(source)),
      split_host_of_stream_(std::move(split_host_of_stream)),
      network_(network) {
  DCAPE_CHECK(source_ != nullptr);
  DCAPE_CHECK(network_ != nullptr);
  DCAPE_CHECK_EQ(split_host_of_stream_.size(),
                 static_cast<size_t>(source_->num_streams()));
  if (record_trace != nullptr) {
    trace_writer_ =
        std::make_unique<TraceWriter>(source_->num_streams(), record_trace);
  }
  batches_.resize(split_host_of_stream_.size());
  for (StreamId s = 0; s < source_->num_streams(); ++s) {
    batches_[static_cast<size_t>(s)].stream_id = s;
    send_order_.push_back(s);
  }
  std::stable_sort(send_order_.begin(), send_order_.end(),
                   [this](StreamId a, StreamId b) {
                     return split_host_of_stream_[static_cast<size_t>(a)] <
                            split_host_of_stream_[static_cast<size_t>(b)];
                   });
}

void GeneratorNode::OnTick(Tick now, bool generate) {
  if (!generate) return;
  std::vector<Tuple> tuples = source_->EmitForTick(now);
  if (tuples.empty()) return;
  if (trace_writer_ != nullptr) {
    for (const Tuple& t : tuples) trace_writer_->Append(now, t);
  }

  for (Tuple& t : tuples) {
    batches_[static_cast<size_t>(t.stream_id)].tuples.push_back(std::move(t));
  }
  for (StreamId s : send_order_) {
    TupleBatch& batch = batches_[static_cast<size_t>(s)];
    if (batch.tuples.empty()) continue;
    batch.emit_wall_us = emit_wall_us_;
    // Moving the batch out leaves its tuple vector empty and its stream
    // id in place for the next tick.
    network_->Send(
        MakeTupleBatchMessage(node_id_,
                              split_host_of_stream_[static_cast<size_t>(s)],
                              std::move(batch)),
        now);
  }
}

void GeneratorNode::FinishTrace() {
  if (trace_writer_ != nullptr) {
    trace_writer_->Finish();
    trace_writer_.reset();
  }
}

}  // namespace dcape
