#ifndef DCAPE_NET_NETWORK_H_
#define DCAPE_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "net/message.h"
#include "net/transport.h"

namespace dcape {

/// The simulated cluster interconnect (the Transport implementation the
/// deterministic virtual-clock driver uses).
///
/// Stands in for the paper's private gigabit Ethernet. Messages incur a
/// fixed per-message latency plus a size-proportional transfer time
/// (`bytes / bytes_per_tick`). Delivery is deterministic (see wave
/// delivery below), and each directed link (from → to) is FIFO — a later
/// message never overtakes an earlier one on the same link, exactly like
/// a TCP connection. The relocation protocol's drain markers rely on
/// that FIFO property.
///
/// The queue is a calendar queue: latencies are whole ticks, so every
/// queued message sits in the bucket of its arrival tick, and buckets are
/// kept in ascending tick order with no empty ones. A bucket is appended
/// in send order, which *is* sequence order, so (arrival, sequence)
/// delivery needs no comparisons at all: a send costs one bucket lookup
/// from the back (almost always the last or second-to-last bucket) and one
/// move, and delivery moves each message once more. An arrival earlier
/// than the head bucket — a short message behind a multi-tick state
/// transfer on an otherwise idle queue — opens a new head bucket. Drained
/// bucket vectors are recycled, so the queue itself stops allocating once
/// it has seen its busiest tick.
///
/// Wave delivery: all messages due by `now` leave the calendar together
/// as one *wave*, and are handed out grouped by destination in ascending
/// node id, each destination's messages in (arrival, sequence) order. A
/// send made while a wave is being delivered — even with zero latency —
/// queues for a later wave. Because a handler sends only on behalf of its
/// own node, the sends of one wave enter the calendar in (source node id,
/// send order) order. Delivery reuses the calendar's bucket storage and a
/// scratch index, so a wave allocates nothing once the queue has seen its
/// busiest tick.
class Network : public Transport {
 public:
  struct Config {
    /// Per-message propagation + protocol latency in ticks (virtual ms).
    Tick latency_ticks = 1;
    /// Link throughput in bytes per tick. 1 Gb/s ≈ 125 bytes per virtual
    /// microsecond ≈ 125000 bytes per virtual millisecond.
    int64_t bytes_per_tick = 125000;
  };

  /// Per-message delivery callback; `now` is the delivery tick. The
  /// message is mutable so handlers on the data-plane hot path can move
  /// the payload out instead of copying it; it is dead after the call.
  using Handler = Transport::Handler;

  /// Aggregate traffic statistics.
  struct Stats {
    int64_t messages_sent = 0;
    int64_t bytes_sent = 0;
    /// Bytes sent in kStateTransfer messages only (relocation traffic).
    int64_t state_transfer_bytes = 0;
  };

  /// One message due for delivery, as handed out by TakeArrivals.
  struct Delivery {
    Tick arrival = 0;
    Message message;
  };

  /// All messages due at one destination, in (arrival, sequence) order.
  struct Inbox {
    NodeId node = kInvalidNode;
    std::vector<Delivery> deliveries;
  };

  explicit Network(const Config& config) : config_(config) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the delivery handler for `node`. Must be called before any
  /// message addressed to `node` is delivered. Re-registering replaces the
  /// handler.
  void RegisterNode(NodeId node, Handler handler) override;

  /// Chaos hooks (sim/). `extra_delay` adds ticks to a message's arrival
  /// *before* the link-FIFO clamp — jitter is delay-only, so in-order
  /// delivery per link (which the drain markers rely on) is preserved
  /// while cross-link reordering emerges naturally. `duplicate` delivers
  /// the message a second time one tick later (a deliberate protocol
  /// violation, used to prove the harness catches one). Both hooks run
  /// inside Send, in send order.
  void SetFaultHooks(std::function<Tick(const Message&)> extra_delay,
                     std::function<bool(const Message&)> duplicate);

  /// Enqueues `message` for delivery. `message.from/to` must be set and
  /// `to` must name a registered node by delivery time.
  void Send(Message message, Tick now) override;

  /// Delivers every message due by `now`, wave by wave (see the class
  /// comment), until none is due. The cluster driver's delivery step.
  void DeliverWaves(Tick now);

  /// Catches up to `now` one arrival tick at a time: DeliverWaves at each
  /// queued arrival tick <= `now`, in tick order, so every handler runs
  /// at its message's own arrival tick. Handlers may send further
  /// messages; those are delivered too if they also arrive by `now`.
  void DeliverUntil(Tick now);

  /// Removes one wave — every queued message with arrival tick <= `now`
  /// — and returns it grouped by destination (ascending node id), each
  /// group in (arrival, sequence) order. Messages sent after the call,
  /// e.g. by handlers during the subsequent Deliver, queue for a later
  /// wave. TakeArrivals then Deliver on each inbox is one DeliverWaves
  /// wave, with the inboxes materialized.
  std::vector<Inbox> TakeArrivals(Tick now);

  /// Invokes `node`'s registered handler for each delivery in order.
  void Deliver(Inbox& inbox) const;

  /// True when no message is queued.
  bool idle() const { return calendar_.empty(); }

  /// Earliest queued arrival tick, or -1 when idle. Lets drivers fast-
  /// forward quiet periods.
  Tick NextArrival() const;

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  /// Every queued message with one arrival tick, in send order.
  struct Bucket {
    Tick arrival;
    std::vector<Message> messages;
  };
  /// One message of the current wave, in delivery order.
  struct Due {
    Tick arrival;
    Message* message;
  };

  /// Appends `message` to the bucket of `arrival`, opening the bucket in
  /// tick order if it does not exist yet.
  void Push(Tick arrival, Message&& message);
  /// Returns a drained bucket vector to the spare pool.
  void Recycle(std::vector<Message> messages);
  /// Moves every bucket due by `now` out of the calendar into wave_ and
  /// fills wave_order_ with their messages in wave order. Returns false
  /// (and takes nothing) when no message is due.
  bool TakeWave(Tick now);
  /// Returns the wave's bucket vectors to the spare pool.
  void ReleaseWave();
  const Handler& HandlerFor(NodeId node) const;

  Config config_;
  /// handlers_[node]; an empty function marks an unregistered node.
  std::vector<Handler> handlers_;
  std::function<Tick(const Message&)> fault_extra_delay_;
  std::function<bool(const Message&)> fault_duplicate_;
  /// The calendar: one bucket per queued arrival tick, ascending.
  std::deque<Bucket> calendar_;
  /// Drained bucket vectors kept for reuse (their capacity survives).
  std::vector<std::vector<Message>> spare_;
  /// link_last_arrival_[from][to] = last scheduled arrival on that
  /// directed link, for FIFO enforcement (kNoArrival when unused).
  std::vector<std::vector<Tick>> link_last_arrival_;
  /// The wave being delivered: its buckets, taken whole out of the
  /// calendar so that sends made during delivery cannot touch them, and
  /// pointers to their messages in delivery order. Both keep their
  /// capacity from wave to wave.
  std::vector<Bucket> wave_;
  std::vector<Due> wave_order_;
  /// TakeWave scratch: per destination node, its next slot in
  /// wave_order_.
  std::vector<uint32_t> node_slot_;
  Stats stats_;
};

}  // namespace dcape

#endif  // DCAPE_NET_NETWORK_H_
