#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/message.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

Message SmallMessage(NodeId from, NodeId to) {
  StatsReport report;
  report.engine = 0;
  return MakeStatsReportMessage(from, to, report);
}

Message BigTupleMessage(NodeId from, NodeId to, int payload_bytes) {
  TupleBatch batch;
  batch.stream_id = 0;
  Tuple t;
  t.payload.assign(static_cast<size_t>(payload_bytes), 'x');
  batch.tuples.push_back(t);
  return MakeTupleBatchMessage(from, to, std::move(batch));
}

class NetworkTest : public ::testing::Test {
 protected:
  void Register(Network* net, NodeId node) {
    net->RegisterNode(node, [this, node](Tick now, const Message& m) {
      deliveries_.push_back({node, now, m.type});
    });
  }
  struct Delivery {
    NodeId node;
    Tick at;
    MessageType type;
  };
  std::vector<Delivery> deliveries_;
};

TEST_F(NetworkTest, LatencyDelaysDelivery) {
  Network::Config config;
  config.latency_ticks = 5;
  config.bytes_per_tick = 1 << 30;  // effectively free transfer
  Network net(config);
  Register(&net, 1);

  // latency 5 + minimum 1 tick of transfer time for a non-empty message.
  net.Send(SmallMessage(0, 1), /*now=*/10);
  net.DeliverUntil(15);
  EXPECT_TRUE(deliveries_.empty());
  net.DeliverUntil(16);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 16);
}

TEST_F(NetworkTest, BandwidthAddsTransferTime) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 100;
  Network net(config);
  Register(&net, 1);

  // ~1000 bytes payload → ≈10 extra ticks.
  net.Send(BigTupleMessage(0, 1, 1000), /*now=*/0);
  net.DeliverUntil(9);
  EXPECT_TRUE(deliveries_.empty());
  net.DeliverUntil(30);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_GE(deliveries_[0].at, 11);
}

TEST_F(NetworkTest, LinkIsFifoEvenWhenLaterMessageIsSmaller) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 10;  // slow: big message takes long
  Network net(config);
  Register(&net, 1);

  net.Send(BigTupleMessage(0, 1, 2000), /*now=*/0);  // arrives late
  net.Send(SmallMessage(0, 1), /*now=*/1);           // would arrive early
  net.DeliverUntil(10000);
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(deliveries_[0].type, MessageType::kTupleBatch);
  EXPECT_EQ(deliveries_[1].type, MessageType::kStatsReport);
  EXPECT_GE(deliveries_[1].at, deliveries_[0].at);
}

TEST_F(NetworkTest, DistinctLinksDoNotBlockEachOther) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 10;
  Network net(config);
  Register(&net, 1);
  Register(&net, 2);

  net.Send(BigTupleMessage(0, 1, 5000), /*now=*/0);
  net.Send(SmallMessage(0, 2), /*now=*/1);
  net.DeliverUntil(10000);
  ASSERT_EQ(deliveries_.size(), 2u);
  // The small message on the other link overtakes.
  EXPECT_EQ(deliveries_[0].node, 2);
  EXPECT_EQ(deliveries_[1].node, 1);
}

TEST_F(NetworkTest, DeterministicTieBreakByDestination) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  Register(&net, 1);
  Register(&net, 2);

  // Same arrival tick: the lower destination id goes first, whatever
  // the send order.
  net.Send(SmallMessage(0, 2), 0);
  net.Send(SmallMessage(0, 1), 0);
  net.DeliverUntil(5);
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(deliveries_[0].node, 1);
  EXPECT_EQ(deliveries_[1].node, 2);
}

TEST_F(NetworkTest, StatsTrackMessagesAndBytes) {
  Network net(Network::Config{});
  Register(&net, 1);
  net.Send(SmallMessage(0, 1), 0);
  net.Send(BigTupleMessage(0, 1, 100), 0);
  EXPECT_EQ(net.stats().messages_sent, 2);
  EXPECT_GT(net.stats().bytes_sent, 100);
  EXPECT_EQ(net.stats().state_transfer_bytes, 0);
}

TEST_F(NetworkTest, StateTransferBytesTrackedSeparately) {
  Network net(Network::Config{});
  Register(&net, 1);
  Message m;
  m.type = MessageType::kStateTransfer;
  m.from = 0;
  m.to = 1;
  StateTransfer transfer;
  transfer.groups.push_back(SerializedGroup{0, std::string(1000, 'z')});
  m.payload = std::move(transfer);
  net.Send(std::move(m), 0);
  EXPECT_GT(net.stats().state_transfer_bytes, 1000);
}

TEST_F(NetworkTest, NextArrivalAndIdle) {
  Network::Config config;
  config.latency_ticks = 3;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  Register(&net, 1);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.NextArrival(), -1);
  net.Send(SmallMessage(0, 1), 4);
  EXPECT_FALSE(net.idle());
  EXPECT_EQ(net.NextArrival(), 8);  // latency 3 + 1 transfer tick
  net.DeliverUntil(8);
  EXPECT_TRUE(net.idle());
}

TEST_F(NetworkTest, HandlersCanSendDuringDelivery) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  int second_hop_at = -1;
  net.RegisterNode(1, [&](Tick now, const Message&) {
    net.Send(SmallMessage(1, 2), now);
  });
  net.RegisterNode(2, [&](Tick now, const Message&) {
    second_hop_at = static_cast<int>(now);
  });
  net.Send(SmallMessage(0, 1), 0);
  net.DeliverUntil(10);
  EXPECT_EQ(second_hop_at, 4);  // two hops of latency 1 + transfer 1
}

// ---- Calendar-queue ordering ----------------------------------------

/// A StatsReport whose `engine` field tags the message, so tests can
/// read the delivery order back.
Message TaggedMessage(NodeId from, NodeId to, int tag) {
  StatsReport report;
  report.engine = tag;
  return MakeStatsReportMessage(from, to, report);
}

int TagOf(const Message& m) { return std::get<StatsReport>(m.payload).engine; }

struct Arrival {
  NodeId node;
  Tick at;
  int tag;
  bool operator==(const Arrival& o) const {
    return node == o.node && at == o.at && tag == o.tag;
  }
};

void RegisterTagged(Network* net, NodeId node, std::vector<Arrival>* log) {
  net->RegisterNode(node, [log, node](Tick now, const Message& m) {
    log->push_back({node, now, TagOf(m)});
  });
}

TEST(NetworkCalendarTest, ArrivalEarlierThanHeadBucketAfterLargeTransfer) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 100;
  Network net(config);
  std::vector<Arrival> log;
  net.RegisterNode(1, [&log](Tick now, const Message& m) {
    log.push_back({1, now, m.type == MessageType::kStateTransfer ? -1
                                                                   : TagOf(m)});
  });
  RegisterTagged(&net, 3, &log);

  // A multi-tick state transfer is the only queued message ...
  Message transfer;
  transfer.type = MessageType::kStateTransfer;
  transfer.from = 0;
  transfer.to = 1;
  StateTransfer payload;
  payload.groups.push_back(SerializedGroup{0, std::string(5000, 'z')});
  transfer.payload = std::move(payload);
  net.Send(std::move(transfer), /*now=*/0);
  const Tick transfer_arrival = net.NextArrival();
  ASSERT_GT(transfer_arrival, 40);

  // ... when a short message on another link arrives long before it, and
  // a short message behind it on the same link waits for it (FIFO).
  net.Send(TaggedMessage(2, 3, 7), /*now=*/1);
  EXPECT_EQ(net.NextArrival(), 3);
  net.Send(TaggedMessage(0, 1, 8), /*now=*/2);
  EXPECT_EQ(net.NextArrival(), 3);

  net.DeliverUntil(2);
  EXPECT_TRUE(log.empty());
  net.DeliverUntil(transfer_arrival);
  EXPECT_EQ(log, (std::vector<Arrival>{{3, 3, 7},
                                       {1, transfer_arrival, -1},
                                       {1, transfer_arrival, 8}}));
  EXPECT_TRUE(net.idle());
}

TEST(NetworkCalendarTest, SameTickSendsGroupByDestinationInSequenceOrder) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  // Sends from three sources to two destinations, interleaved.
  const std::vector<std::pair<NodeId, NodeId>> sends = {
      {12, 2}, {10, 1}, {11, 2}, {12, 1}, {10, 2}, {11, 1}};

  Network batched(config);
  std::vector<Arrival> log;
  RegisterTagged(&batched, 1, &log);
  RegisterTagged(&batched, 2, &log);
  for (size_t i = 0; i < sends.size(); ++i) {
    batched.Send(TaggedMessage(sends[i].first, sends[i].second,
                               static_cast<int>(i)),
                 /*now=*/5);
  }
  std::vector<Network::Inbox> inboxes = batched.TakeArrivals(7);
  ASSERT_EQ(inboxes.size(), 2u);
  EXPECT_EQ(inboxes[0].node, 1);
  EXPECT_EQ(inboxes[1].node, 2);
  auto tags = [](const Network::Inbox& inbox) {
    std::vector<int> out;
    for (const auto& d : inbox.deliveries) out.push_back(TagOf(d.message));
    return out;
  };
  EXPECT_EQ(tags(inboxes[0]), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(tags(inboxes[1]), (std::vector<int>{0, 2, 4}));
  for (auto& inbox : inboxes) batched.Deliver(inbox);
  EXPECT_EQ(log.size(), sends.size());
  EXPECT_TRUE(batched.idle());

  // DeliverUntil hands out the same grouping.
  Network pumped(config);
  std::vector<Arrival> pumped_log;
  RegisterTagged(&pumped, 1, &pumped_log);
  RegisterTagged(&pumped, 2, &pumped_log);
  for (size_t i = 0; i < sends.size(); ++i) {
    pumped.Send(TaggedMessage(sends[i].first, sends[i].second,
                              static_cast<int>(i)),
                5);
  }
  pumped.DeliverUntil(7);
  EXPECT_EQ(pumped_log, log);
}

TEST(NetworkCalendarTest, TakeArrivalsSpansSeveralTicksInArrivalOrder) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  std::vector<Arrival> log;
  RegisterTagged(&net, 1, &log);
  net.Send(TaggedMessage(0, 1, 0), /*now=*/3);  // arrives 5
  net.Send(TaggedMessage(4, 1, 1), /*now=*/1);  // arrives 3
  net.Send(TaggedMessage(2, 1, 2), /*now=*/2);  // arrives 4
  std::vector<Network::Inbox> inboxes = net.TakeArrivals(5);
  ASSERT_EQ(inboxes.size(), 1u);
  net.Deliver(inboxes[0]);
  EXPECT_EQ(log, (std::vector<Arrival>{{1, 3, 1}, {1, 4, 2}, {1, 5, 0}}));
}

TEST(NetworkCalendarTest, FifoClampHoldsUnderJitterAndDuplicates) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  std::vector<Arrival> log;
  RegisterTagged(&net, 1, &log);
  RegisterTagged(&net, 2, &log);
  // Tag 0 is jittered by 6 ticks; tag 3 is duplicated.
  net.SetFaultHooks(
      [](const Message& m) -> Tick { return TagOf(m) == 0 ? 6 : 0; },
      [](const Message& m) { return TagOf(m) == 3; });

  net.Send(TaggedMessage(0, 1, 0), /*now=*/0);  // 2 + 6 jitter = 8
  net.Send(TaggedMessage(0, 1, 1), /*now=*/1);  // 3, clamped to 8
  net.Send(TaggedMessage(0, 2, 2), /*now=*/1);  // other link: 3
  net.Send(TaggedMessage(0, 2, 3), /*now=*/4);  // 6, duplicate at 7
  net.Send(TaggedMessage(0, 2, 4), /*now=*/4);  // 6, clamped behind the dup
  EXPECT_EQ(net.stats().messages_sent, 6);

  net.DeliverUntil(100);
  EXPECT_EQ(log, (std::vector<Arrival>{{2, 3, 2},
                                       {2, 6, 3},
                                       {2, 7, 3},
                                       {2, 7, 4},
                                       {1, 8, 0},
                                       {1, 8, 1}}));
}

TEST(NetworkCalendarTest, ZeroLatencyHandlersSendIntoTheTickBeingDelivered) {
  Network::Config config;
  config.latency_ticks = 0;
  config.bytes_per_tick = 0;  // no transfer time: arrival == send tick
  Network net(config);
  std::vector<Arrival> log;
  net.RegisterNode(1, [&](Tick now, const Message& m) {
    log.push_back({1, now, TagOf(m)});
    if (TagOf(m) < 100) net.Send(TaggedMessage(1, 2, TagOf(m) + 100), now);
  });
  RegisterTagged(&net, 2, &log);
  RegisterTagged(&net, 3, &log);

  net.Send(TaggedMessage(0, 1, 0), /*now=*/5);
  net.Send(TaggedMessage(0, 3, 1), /*now=*/5);
  net.Send(TaggedMessage(0, 1, 2), /*now=*/6);
  net.DeliverUntil(5);
  // The forwarded message joins tick 5 after everything already due.
  EXPECT_EQ(log, (std::vector<Arrival>{{1, 5, 0}, {3, 5, 1}, {2, 5, 100}}));
  EXPECT_EQ(net.NextArrival(), 6);
  net.DeliverUntil(6);
  EXPECT_EQ(log.back(), (Arrival{2, 6, 102}));
  EXPECT_TRUE(net.idle());
}

TEST(NetworkCalendarTest, NextArrivalAndIdleAcrossEmptyTicks) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  std::vector<Arrival> log;
  RegisterTagged(&net, 1, &log);
  net.Send(TaggedMessage(0, 1, 0), /*now=*/8);  // arrives 10
  net.Send(TaggedMessage(0, 1, 1), /*now=*/1);  // arrives 10 (FIFO clamp)
  net.Send(TaggedMessage(2, 1, 2), /*now=*/1);  // arrives 3
  EXPECT_EQ(net.NextArrival(), 3);
  EXPECT_EQ(net.TakeArrivals(2).size(), 0u);
  net.DeliverUntil(3);
  EXPECT_EQ(net.NextArrival(), 10);
  EXPECT_FALSE(net.idle());
  // Nothing is due over the empty ticks in between.
  EXPECT_TRUE(net.TakeArrivals(9).empty());
  EXPECT_EQ(net.NextArrival(), 10);
  std::vector<Network::Inbox> inboxes = net.TakeArrivals(10);
  ASSERT_EQ(inboxes.size(), 1u);
  EXPECT_EQ(inboxes[0].deliveries.size(), 2u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.NextArrival(), -1);
  // The queue keeps working after draining completely.
  net.Send(TaggedMessage(0, 1, 3), /*now=*/20);
  EXPECT_EQ(net.NextArrival(), 22);
}

// ---- Wave delivery ---------------------------------------------------

TEST(NetworkWaveTest, WaveGoesByAscendingDestinationInArrivalSequenceOrder) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  std::vector<Arrival> log;
  for (NodeId n = 1; n <= 3; ++n) RegisterTagged(&net, n, &log);
  // Interleaved sources and destinations over three send ticks, all due
  // by tick 5; the later send ticks come first in send order.
  net.Send(TaggedMessage(7, 3, 0), /*now=*/3);  // arrives 5
  net.Send(TaggedMessage(8, 1, 1), /*now=*/3);  // 5
  net.Send(TaggedMessage(9, 2, 2), /*now=*/1);  // 3
  net.Send(TaggedMessage(7, 1, 3), /*now=*/1);  // 3
  net.Send(TaggedMessage(9, 3, 4), /*now=*/2);  // 4
  net.Send(TaggedMessage(8, 2, 5), /*now=*/3);  // 5
  net.Send(TaggedMessage(9, 1, 6), /*now=*/2);  // 4
  net.Send(TaggedMessage(7, 1, 7), /*now=*/9);  // 11: not due
  net.DeliverWaves(5);
  EXPECT_EQ(log, (std::vector<Arrival>{{1, 3, 3},
                                       {1, 4, 6},
                                       {1, 5, 1},
                                       {2, 3, 2},
                                       {2, 5, 5},
                                       {3, 4, 4},
                                       {3, 5, 0}}));
  EXPECT_EQ(net.NextArrival(), 11);
}

TEST(NetworkWaveTest, SendsMadeInsideAWaveLandInALaterWave) {
  Network::Config config;
  config.latency_ticks = 0;
  config.bytes_per_tick = 0;  // no transfer time: arrival == send tick
  Network net(config);
  std::vector<Arrival> log;
  // Node 2 forwards to node 1, a lower id than its own: in one wave node
  // 1 would come first, so the forwarded message must wait for the next
  // wave, behind node 3's message of the current one.
  net.RegisterNode(2, [&](Tick now, const Message& m) {
    log.push_back({2, now, TagOf(m)});
    if (TagOf(m) < 100) net.Send(TaggedMessage(2, 1, TagOf(m) + 100), now);
  });
  RegisterTagged(&net, 1, &log);
  RegisterTagged(&net, 3, &log);
  net.Send(TaggedMessage(0, 3, 0), /*now=*/5);
  net.Send(TaggedMessage(0, 2, 1), /*now=*/5);
  net.Send(TaggedMessage(0, 1, 2), /*now=*/5);
  net.DeliverWaves(5);
  EXPECT_EQ(log, (std::vector<Arrival>{
                     {1, 5, 2}, {2, 5, 1}, {3, 5, 0}, {1, 5, 101}}));
  EXPECT_TRUE(net.idle());
}

TEST(NetworkWaveTest, DeliverWavesMatchesTakeArrivalsThenDeliver) {
  // A randomized multi-source schedule with forwarding handlers. Every
  // send arrives the tick it is made, delivery runs every third tick (so
  // a wave spans several arrival ticks) and forwarded messages fall due
  // at once (so one call holds several waves). The single-call drain and
  // the materialized TakeArrivals + Deliver loop must deliver the same
  // messages at the same ticks in the same order.
  constexpr NodeId kNodes = 6;
  struct Run {
    Network net;
    std::vector<Arrival> log;
    explicit Run(const Network::Config& config) : net(config) {}
  };
  Network::Config config;
  config.latency_ticks = 0;
  config.bytes_per_tick = 0;
  auto wire = [](Run* run) {
    for (NodeId n = 0; n < kNodes; ++n) {
      run->net.RegisterNode(n, [run, n](Tick now, const Message& m) {
        const int tag = TagOf(m);
        run->log.push_back({n, now, tag});
        // Forward a third of the messages once, chosen by tag.
        if (tag < 10000 && tag % 3 == 0) {
          const NodeId to = static_cast<NodeId>((tag / 3) % kNodes);
          run->net.Send(TaggedMessage(n, to, tag + 10000), now);
        }
      });
    }
  };
  Run waves(config);
  Run inboxes(config);
  wire(&waves);
  wire(&inboxes);

  uint64_t state = 12345;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  int tag = 0;
  for (Tick now = 0; now < 400; ++now) {
    const uint64_t sends = next(4);
    for (uint64_t i = 0; i < sends; ++i) {
      const auto from = static_cast<NodeId>(next(kNodes));
      const auto to = static_cast<NodeId>(next(kNodes));
      waves.net.Send(TaggedMessage(from, to, tag), now);
      inboxes.net.Send(TaggedMessage(from, to, tag), now);
      ++tag;
    }
    if (now % 3 != 2) continue;
    waves.net.DeliverWaves(now);
    while (inboxes.net.NextArrival() >= 0 &&
           inboxes.net.NextArrival() <= now) {
      std::vector<Network::Inbox> taken = inboxes.net.TakeArrivals(now);
      for (Network::Inbox& inbox : taken) inboxes.net.Deliver(inbox);
    }
  }
  EXPECT_GT(waves.log.size(), 500u);
  EXPECT_EQ(waves.log, inboxes.log);
  EXPECT_EQ(waves.net.stats().messages_sent,
            inboxes.net.stats().messages_sent);
}

TEST(MessageTest, TypeNamesAreStable) {
  EXPECT_STREQ(MessageTypeName(MessageType::kTupleBatch), "TupleBatch");
  EXPECT_STREQ(MessageTypeName(MessageType::kStateTransfer), "StateTransfer");
  EXPECT_STREQ(MessageTypeName(MessageType::kDrainMarker), "DrainMarker");
}

TEST(MessageTest, ByteSizeGrowsWithPayload) {
  Message small = BigTupleMessage(0, 1, 10);
  Message big = BigTupleMessage(0, 1, 1000);
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  EXPECT_GE(big.ByteSize() - small.ByteSize(), 990);
}

}  // namespace
}  // namespace dcape
