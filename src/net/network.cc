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

  if (fault_duplicate_ && fault_duplicate_(message)) {
    Message copy = message;
    Push(arrival, std::move(message));
    const Tick dup_arrival = arrival + 1;
    last_arrival = dup_arrival;
    stats_.messages_sent += 1;
    stats_.bytes_sent += bytes;
    Push(dup_arrival, std::move(copy));
    return;
  }
  Push(arrival, std::move(message));
}

void Network::Push(Tick arrival, Message&& message) {
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

void Network::Recycle(std::vector<Message> messages) {
  messages.clear();
  spare_.push_back(std::move(messages));
}

const Network::Handler& Network::HandlerFor(NodeId node) const {
  DCAPE_CHECK(node >= 0 && static_cast<size_t>(node) < handlers_.size() &&
              handlers_[static_cast<size_t>(node)]);
  return handlers_[static_cast<size_t>(node)];
}

void Network::DeliverUntil(Tick now) {
  for (Tick t = NextArrival(); t >= 0 && t <= now; t = NextArrival()) {
    DeliverWaves(t);
  }
}

bool Network::TakeWave(Tick now) {
  if (calendar_.empty() || calendar_.front().arrival > now) return false;
  node_slot_.assign(handlers_.size(), 0);
  size_t due = 0;
  while (!calendar_.empty() && calendar_.front().arrival <= now) {
    wave_.push_back(std::move(calendar_.front()));
    calendar_.pop_front();
    for (const Message& m : wave_.back().messages) {
      const auto to = static_cast<size_t>(m.to);
      if (to >= node_slot_.size()) node_slot_.resize(to + 1, 0);
      ++node_slot_[to];
    }
    due += wave_.back().messages.size();
  }
  // Group by destination without sorting: turn the per-node counts into
  // each node's first slot, then place every message at its node's next
  // slot. Walking the buckets in tick order and each bucket in send order
  // keeps every group in (arrival, sequence) order.
  uint32_t slot = 0;
  for (uint32_t& next : node_slot_) {
    const uint32_t count = next;
    next = slot;
    slot += count;
  }
  wave_order_.resize(due);
  for (Bucket& bucket : wave_) {
    for (Message& m : bucket.messages) {
      wave_order_[node_slot_[static_cast<size_t>(m.to)]++] =
          Due{bucket.arrival, &m};
    }
  }
  return true;
}

void Network::ReleaseWave() {
  for (Bucket& bucket : wave_) Recycle(std::move(bucket.messages));
  wave_.clear();
}

void Network::DeliverWaves(Tick now) {
  while (TakeWave(now)) {
    for (const Due& d : wave_order_) {
      HandlerFor(d.message->to)(d.arrival, *d.message);
    }
    ReleaseWave();
  }
}

std::vector<Network::Inbox> Network::TakeArrivals(Tick now) {
  std::vector<Inbox> inboxes;
  if (!TakeWave(now)) return inboxes;
  // After TakeWave, node_slot_[n] is one past node n's last slot.
  for (size_t i = 0; i < wave_order_.size();) {
    const NodeId node = wave_order_[i].message->to;
    const size_t end = node_slot_[static_cast<size_t>(node)];
    Inbox& inbox = inboxes.emplace_back();
    inbox.node = node;
    inbox.deliveries.reserve(end - i);
    for (; i < end; ++i) {
      inbox.deliveries.push_back(Delivery{
          wave_order_[i].arrival, std::move(*wave_order_[i].message)});
    }
  }
  ReleaseWave();
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
