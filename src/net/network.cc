#include "net/network.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/check.h"

namespace dcape {
namespace {

/// Link-FIFO entry of a directed link that has carried nothing yet.
constexpr Tick kNoArrival = std::numeric_limits<Tick>::min();

}  // namespace

void Network::RegisterNode(NodeId node, Handler handler) {
  DCAPE_CHECK_GE(node, 0);
  if (static_cast<size_t>(node) >= handlers_.size()) {
    handlers_.resize(static_cast<size_t>(node) + 1);
  }
  handlers_[static_cast<size_t>(node)] = std::move(handler);
}

void Network::SetFaultHooks(std::function<Tick(const Message&)> extra_delay,
                            std::function<bool(const Message&)> duplicate) {
  fault_extra_delay_ = std::move(extra_delay);
  fault_duplicate_ = std::move(duplicate);
}

void Network::Send(Message message, Tick now) {
  DCAPE_CHECK_NE(message.from, kInvalidNode);
  DCAPE_CHECK_NE(message.to, kInvalidNode);
  if (buffered_) {
    // Parallel phase: park in the sender's outbox. Each outbox is owned
    // by the one task driving that node, so no locking is needed; all
    // global bookkeeping happens at FlushBuffered.
    auto& outbox = outboxes_[static_cast<size_t>(message.from)];
    outbox.push_back(BufferedSend{std::move(message), now});
    return;
  }
  Enqueue(std::move(message), now);
}

void Network::Enqueue(Message message, Tick now) {
  DCAPE_CHECK_GE(message.from, 0);
  DCAPE_CHECK_GE(message.to, 0);
  message.send_time = now;

  const int64_t bytes = message.ByteSize();
  Tick transfer = 0;
  if (config_.bytes_per_tick > 0) {
    transfer = (bytes + config_.bytes_per_tick - 1) / config_.bytes_per_tick;
  }
  Tick arrival = now + config_.latency_ticks + transfer;
  // Injected jitter lands before the FIFO clamp: a jittered message can
  // delay its link's successors but never overtake them.
  if (fault_extra_delay_) arrival += fault_extra_delay_(message);

  // FIFO per directed link: never schedule ahead of an earlier message on
  // the same link (TCP in-order delivery).
  const auto from = static_cast<size_t>(message.from);
  const auto to = static_cast<size_t>(message.to);
  if (from >= link_last_arrival_.size()) link_last_arrival_.resize(from + 1);
  std::vector<Tick>& links = link_last_arrival_[from];
  if (to >= links.size()) links.resize(to + 1, kNoArrival);
  Tick& last_arrival = links[to];
  arrival = std::max(arrival, last_arrival);
  last_arrival = arrival;

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  if (message.type == MessageType::kStateTransfer) {
    stats_.state_transfer_bytes += bytes;
  }

  const bool duplicate = fault_duplicate_ && fault_duplicate_(message);
  Message copy;
  if (duplicate) copy = message;
  Push(arrival, std::move(message));
  if (duplicate) {
    const Tick dup_arrival = arrival + 1;
    last_arrival = dup_arrival;
    stats_.messages_sent += 1;
    stats_.bytes_sent += bytes;
    Push(dup_arrival, std::move(copy));
  }
}

void Network::Push(Tick arrival, Message message) {
  // New arrivals are almost always at or past the newest bucket, so the
  // search runs from the back.
  auto it = calendar_.end();
  while (it != calendar_.begin() && std::prev(it)->arrival > arrival) --it;
  if (it != calendar_.begin() && std::prev(it)->arrival == arrival) {
    std::prev(it)->messages.push_back(std::move(message));
    return;
  }
  std::vector<Message> messages;
  if (!spare_.empty()) {
    messages = std::move(spare_.back());
    spare_.pop_back();
  }
  messages.push_back(std::move(message));
  calendar_.insert(it, Bucket{arrival, std::move(messages)});
}

std::vector<Message> Network::PopHead() {
  std::vector<Message> messages = std::move(calendar_.front().messages);
  calendar_.pop_front();
  return messages;
}

void Network::Recycle(std::vector<Message> messages) {
  messages.clear();
  spare_.push_back(std::move(messages));
}

const Network::Handler& Network::HandlerFor(NodeId node) const {
  DCAPE_CHECK(node >= 0 && static_cast<size_t>(node) < handlers_.size() &&
              handlers_[static_cast<size_t>(node)]);
  return handlers_[static_cast<size_t>(node)];
}

void Network::BeginBuffered() {
  DCAPE_CHECK(!buffered_);
  outboxes_.resize(handlers_.size());
  buffered_ = true;
}

void Network::FlushBuffered() {
  DCAPE_CHECK(buffered_);
  buffered_ = false;
  // The deterministic merge rule: source node id, then send order within
  // the node. Every run — serial or parallel — funnels through this exact
  // ordering, which is what makes thread count invisible to results.
  for (auto& outbox : outboxes_) {
    for (BufferedSend& send : outbox) {
      Enqueue(std::move(send.message), send.send_time);
    }
    outbox.clear();
  }
}

void Network::DeliverUntil(Tick now) {
  DCAPE_CHECK(!buffered_);
  while (!calendar_.empty() && calendar_.front().arrival <= now) {
    // The head bucket leaves the calendar before its first handler runs:
    // a handler sending into the same tick opens a fresh head bucket,
    // which the loop delivers next — after this bucket, as its sequence
    // numbers demand.
    const Tick arrival = calendar_.front().arrival;
    std::vector<Message> messages = PopHead();
    for (Message& message : messages) {
      HandlerFor(message.to)(arrival, message);
    }
    Recycle(std::move(messages));
  }
}

std::vector<Network::Inbox> Network::TakeArrivals(Tick now) {
  DCAPE_CHECK(!buffered_);
  size_t due = 0;
  size_t nodes = 0;
  for (; due < calendar_.size() && calendar_[due].arrival <= now; ++due) {
    for (const Message& m : calendar_[due].messages) {
      nodes = std::max(nodes, static_cast<size_t>(m.to) + 1);
    }
  }
  // Group by destination without sorting: count each node's deliveries,
  // open the inboxes in ascending node order, then move every message
  // once into its inbox. Walking the due buckets in order keeps each
  // inbox in (arrival, sequence) order.
  inbox_of_node_.assign(nodes, 0);
  for (size_t b = 0; b < due; ++b) {
    for (const Message& m : calendar_[b].messages) {
      ++inbox_of_node_[static_cast<size_t>(m.to)];
    }
  }
  std::vector<Inbox> inboxes;
  for (size_t node = 0; node < nodes; ++node) {
    const int32_t count = inbox_of_node_[node];
    if (count == 0) continue;
    inbox_of_node_[node] = static_cast<int32_t>(inboxes.size());
    inboxes.push_back(Inbox{static_cast<NodeId>(node), {}});
    inboxes.back().deliveries.reserve(static_cast<size_t>(count));
  }
  for (size_t b = 0; b < due; ++b) {
    const Tick arrival = calendar_.front().arrival;
    std::vector<Message> messages = PopHead();
    for (Message& m : messages) {
      Inbox& inbox = inboxes[static_cast<size_t>(
          inbox_of_node_[static_cast<size_t>(m.to)])];
      inbox.deliveries.push_back(Delivery{arrival, std::move(m)});
    }
    Recycle(std::move(messages));
  }
  return inboxes;
}

void Network::Deliver(Inbox& inbox) const {
  const Handler& handler = HandlerFor(inbox.node);
  for (Delivery& d : inbox.deliveries) {
    handler(d.arrival, d.message);
  }
}

Tick Network::NextArrival() const {
  if (calendar_.empty()) return -1;
  return calendar_.front().arrival;
}

}  // namespace dcape
