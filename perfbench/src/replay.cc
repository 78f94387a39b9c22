#include "replay.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cleanup/cleanup.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/taxonomy.h"
#include "operators/split.h"
#include "runs.h"
#include "state/partition_group.h"
#include "storage/disk_backend.h"
#include "storage/spill_store.h"
#include "stream/stream_generator.h"
#include "tuple/serde.h"

namespace perfbench {
namespace {

using dcape::Tick;
using Scope = SpanRecorder::Scope;

/// Repetitions of the untraced / phase-span pair behind
/// obs.trace_overhead_frac; the last phase-span run feeds the replay.
constexpr int kOverheadPairs = 3;
/// Spans written to the trace file (the totals cover every span).
constexpr size_t kMaxWrittenSpans = 20000;
/// Same cadence as the engines' window eviction (EngineConfig).
constexpr Tick kEvictPeriod = dcape::SecondsToTicks(10);

constexpr double kMiB = 1024.0 * 1024.0;

/// Work the replay did, printed beside the real run's counts.
struct ReplayCounts {
  int64_t tuples = 0;
  int64_t routed_tuples = 0;
  int64_t probed_tuples = 0;
  int64_t runtime_results = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t evicted_tuples = 0;
  int64_t spill_events = 0;
  int64_t segments_written = 0;
  int64_t encoded_bytes = 0;
  int64_t cleanup_results = 0;
  int64_t codec_raw_bytes = 0;
  int64_t codec_encoded_bytes = 0;
  bool codec_ok = true;
  dcape::Status cleanup_status;
};

/// The join half of the pipeline, shared by both drivers' replays: one
/// Split per stream (routing = the initial placement) and one
/// PartitionGroup per partition.
class JoinReplay {
 public:
  JoinReplay(const dcape::ClusterConfig& config, SpanRecorder* spans)
      : config_(config),
        spans_(spans),
        projection_(config.projection.has_value() ? &*config.projection
                                                  : nullptr) {
    const std::vector<dcape::EngineId> placement =
        dcape::Cluster::PlacementFor(config);
    for (int s = 0; s < config.workload.num_streams; ++s) {
      splits_.push_back(std::make_unique<dcape::Split>(s, placement));
    }
    for (int p = 0; p < config.workload.num_partitions; ++p) {
      groups_.push_back(std::make_unique<dcape::PartitionGroup>(
          p, config.workload.num_streams));
    }
  }

  /// Routes `tuples` and groups them into one batch per (engine, stream),
  /// as a split host does.
  std::map<std::pair<dcape::EngineId, dcape::StreamId>, dcape::TupleBatch>
  Route(std::vector<dcape::Tuple>&& tuples, ReplayCounts* counts) {
    Scope s(spans_, "operators.Split::Route");
    std::map<std::pair<dcape::EngineId, dcape::StreamId>, dcape::TupleBatch>
        batches;
    for (dcape::Tuple& t : tuples) {
      const std::optional<dcape::EngineId> engine =
          splits_[static_cast<size_t>(t.stream_id)]->Route(t);
      if (!engine.has_value()) continue;
      dcape::TupleBatch& batch = batches[{*engine, t.stream_id}];
      batch.stream_id = t.stream_id;
      batch.tuples.push_back(std::move(t));
      ++counts->routed_tuples;
    }
    return batches;
  }

  /// Probes and inserts every tuple; returns the results produced.
  std::vector<dcape::JoinResult> Probe(const std::vector<dcape::Tuple>& tuples,
                                       ReplayCounts* counts) {
    Scope s(spans_, "state.PartitionGroup::ProbeAndInsert");
    std::vector<dcape::JoinResult> results;
    for (const dcape::Tuple& t : tuples) {
      const dcape::PartitionId p =
          dcape::StreamGenerator::PartitionOfKey(t.join_key);
      groups_[static_cast<size_t>(p)]->ProbeAndInsert(
          t, &results, projection_, config_.join_window_ticks);
    }
    counts->probed_tuples += static_cast<int64_t>(tuples.size());
    counts->runtime_results += static_cast<int64_t>(results.size());
    return results;
  }

  /// Window eviction at the engines' cadence.
  void MaybeEvict(Tick now, ReplayCounts* counts) {
    const Tick window = config_.join_window_ticks;
    if (window <= 0 || now % kEvictPeriod != 0 || now <= window) return;
    Scope s(spans_, "state.PartitionGroup::EvictBefore");
    for (auto& group : groups_) {
      dcape::PartitionGroup expired(group->partition(),
                                    config_.workload.num_streams);
      counts->evicted_tuples += group->EvictBefore(now - window, &expired);
    }
  }

  /// Takes the state a real spill took out of memory: the coldest keys
  /// for a partial generation, the whole group otherwise, and serializes
  /// it. Keeps the replay's resident state close to the real run's.
  void Spill(const dcape::SpillSegmentMeta& meta) {
    std::unique_ptr<dcape::PartitionGroup>& group =
        groups_[static_cast<size_t>(meta.partition)];
    dcape::PartitionGroup piece(meta.partition, config_.workload.num_streams);
    if (meta.partial) {
      Scope s(spans_, "state.PartitionGroup::SplitColdest");
      group->SplitColdest(meta.raw_bytes, &piece);
    } else {
      piece = std::move(*group);
      group = std::make_unique<dcape::PartitionGroup>(
          meta.partition, config_.workload.num_streams);
    }
    Scope s(spans_, "tuple.PartitionGroup::Serialize");
    std::string blob;
    piece.Serialize(&blob, config_.segment_format);
  }

 private:
  const dcape::ClusterConfig& config_;
  SpanRecorder* spans_;
  const dcape::ResultProjection* projection_;
  std::vector<std::unique_ptr<dcape::Split>> splits_;
  std::vector<std::unique_ptr<dcape::PartitionGroup>> groups_;
};

std::vector<dcape::Tuple> Emit(dcape::StreamGenerator* generator, Tick t,
                               SpanRecorder* spans, ReplayCounts* counts) {
  Scope s(spans, "stream.StreamGenerator::EmitForTick");
  std::vector<dcape::Tuple> tuples = generator->EmitForTick(t);
  counts->tuples += static_cast<int64_t>(tuples.size());
  return tuples;
}

/// Simulator replay: generator → Network → Split → Network → probe and
/// insert → Network → sink, tick by tick, with the real run's spills
/// re-enacted at their spill ticks; then the real run's segments are
/// read back, written to fresh SpillStores and cleaned up against the
/// real run's resident state.
ReplayCounts ReplaySimulator(dcape::Cluster& real, SpanRecorder* spans) {
  const dcape::ClusterConfig& config = real.config();
  const int num_engines = config.num_engines;
  const int num_streams = config.workload.num_streams;
  const int num_hosts = std::clamp(config.num_split_hosts, 1, num_streams);
  const dcape::NodeId coordinator = num_engines;
  const dcape::NodeId sink = num_engines + 1;
  const dcape::NodeId generator_node = num_engines + 2;

  ReplayCounts counts;
  Scope replay_span(spans, "replay");
  std::unique_ptr<dcape::StreamGenerator> generator = MakeGenerator(config);
  JoinReplay join(config, spans);
  dcape::Network network(config.network);

  for (int h = 0; h < num_hosts; ++h) {
    const dcape::NodeId host = generator_node + 1 + h;
    network.RegisterNode(host, [&, host](Tick now, dcape::Message& m) {
      auto batches =
          join.Route(std::move(std::get<dcape::TupleBatch>(m.payload).tuples),
                     &counts);
      Scope s(spans, "net.Network::Send");
      for (auto& [key, batch] : batches) {
        network.Send(dcape::MakeTupleBatchMessage(host, key.first,
                                                  std::move(batch)),
                     now);
      }
    });
  }
  for (dcape::EngineId e = 0; e < num_engines; ++e) {
    network.RegisterNode(e, [&, e](Tick now, dcape::Message& m) {
      if (m.type != dcape::MessageType::kTupleBatch) return;
      std::vector<dcape::JoinResult> results =
          join.Probe(std::get<dcape::TupleBatch>(m.payload).tuples, &counts);
      if (results.empty()) return;
      Scope s(spans, "net.Network::Send");
      dcape::ResultBatch batch;
      batch.results = std::move(results);
      network.Send(dcape::MakeResultBatchMessage(e, sink, std::move(batch)),
                   now);
    });
  }
  network.RegisterNode(coordinator, [](Tick, dcape::Message&) {});
  network.RegisterNode(sink, [](Tick, dcape::Message&) {});

  auto deliver_due = [&](Tick now) {
    while (network.NextArrival() >= 0 && network.NextArrival() <= now) {
      std::vector<dcape::Network::Inbox> inboxes;
      {
        Scope s(spans, "net.Network::TakeArrivals");
        inboxes = network.TakeArrivals(now);
      }
      for (dcape::Network::Inbox& inbox : inboxes) {
        Scope s(spans, "net.Network::Deliver");
        network.Deliver(inbox);
      }
    }
  };

  // The real run's spills, in the order they happened.
  std::vector<dcape::SpillSegmentMeta> spills;
  for (dcape::EngineId e = 0; e < num_engines; ++e) {
    for (const dcape::SpillSegmentMeta& meta :
         real.engine(e).spill_store().segments()) {
      if (!meta.evicted) spills.push_back(meta);
    }
  }
  std::stable_sort(spills.begin(), spills.end(),
                   [](const dcape::SpillSegmentMeta& a,
                      const dcape::SpillSegmentMeta& b) {
                     return a.spill_time < b.spill_time;
                   });
  size_t next_spill = 0;
  Tick last_spill_tick = -1;
  dcape::EngineId last_spill_engine = -1;

  std::vector<dcape::NodeId> host_of_stream(static_cast<size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) {
    host_of_stream[static_cast<size_t>(s)] = generator_node + 1 + s % num_hosts;
  }
  std::string codec_buffer;
  Tick t = 0;
  for (; t <= config.run_duration; ++t) {
    std::vector<dcape::Tuple> tuples =
        Emit(generator.get(), t, spans, &counts);
    if (!tuples.empty()) {
      std::map<dcape::StreamId, dcape::TupleBatch> batches;
      for (dcape::Tuple& tuple : tuples) {
        dcape::TupleBatch& batch = batches[tuple.stream_id];
        batch.stream_id = tuple.stream_id;
        batch.tuples.push_back(std::move(tuple));
      }
      for (auto& [stream, batch] : batches) {
        // The simulator ships batches as objects; the codec pass runs
        // beside the pipeline and is not part of the accounted time.
        {
          Scope s(spans, "tuple.EncodeTupleBatch");
          codec_buffer.clear();
          dcape::EncodeTupleBatch(batch, &codec_buffer);
        }
        counts.codec_raw_bytes +=
            static_cast<int64_t>(dcape::TupleBatchSerializedSize(batch));
        counts.codec_encoded_bytes += static_cast<int64_t>(codec_buffer.size());
        {
          Scope s(spans, "tuple.DecodeTupleBatch");
          const dcape::StatusOr<dcape::TupleBatch> decoded =
              dcape::DecodeTupleBatch(codec_buffer);
          counts.codec_ok = counts.codec_ok && decoded.ok() &&
                            decoded->tuples.size() == batch.tuples.size();
        }
        Scope s(spans, "net.Network::Send");
        network.Send(
            dcape::MakeTupleBatchMessage(
                generator_node, host_of_stream[static_cast<size_t>(stream)],
                std::move(batch)),
            t);
      }
    }
    if (t > 0 && t % config.stats_period == 0) {
      Scope s(spans, "net.Network::Send");
      for (dcape::EngineId e = 0; e < num_engines; ++e) {
        network.Send(dcape::MakeStatsReportMessage(e, coordinator,
                                                   dcape::StatsReport{}),
                     t);
      }
    }
    deliver_due(t);
    join.MaybeEvict(t, &counts);
    while (next_spill < spills.size() && spills[next_spill].spill_time <= t) {
      const dcape::SpillSegmentMeta& meta = spills[next_spill++];
      join.Spill(meta);
      if (meta.spill_time != last_spill_tick ||
          meta.engine != last_spill_engine) {
        ++counts.spill_events;
        last_spill_tick = meta.spill_time;
        last_spill_engine = meta.engine;
      }
    }
  }
  while (!network.idle()) deliver_due(t++);
  counts.messages = network.stats().messages_sent;
  counts.bytes = network.stats().bytes_sent;

  // Storage and cleanup over the real run's generations.
  std::vector<std::unique_ptr<dcape::SpillStore>> stores;
  std::vector<const dcape::SpillStore*> store_ptrs;
  std::vector<const dcape::StateManager*> states;
  for (dcape::EngineId e = 0; e < num_engines; ++e) {
    const dcape::SpillStore& source = real.engine(e).spill_store();
    stores.push_back(std::make_unique<dcape::SpillStore>(
        e, config.disk, std::make_unique<dcape::MemoryDiskBackend>()));
    for (const dcape::SpillSegmentMeta& meta : source.segments()) {
      const int read_span = spans->Begin("storage.SpillStore::ReadSegmentRange");
      const dcape::StatusOr<std::string> blob =
          source.ReadSegmentRange(meta, 0, meta.bytes);
      spans->End(read_span);
      if (!blob.ok()) {
        counts.cleanup_status = blob.status();
        return counts;
      }
      Scope s(spans, "storage.SpillStore::WriteSegment");
      const dcape::StatusOr<Tick> written = stores.back()->WriteSegment(
          meta.partition, meta.spill_time, *blob, meta.tuple_count,
          meta.evicted, meta.raw_bytes, meta.partial, meta.sub_depth);
      if (!written.ok()) {
        counts.cleanup_status = written.status();
        return counts;
      }
      ++counts.segments_written;
      counts.encoded_bytes += static_cast<int64_t>(blob->size());
    }
    store_ptrs.push_back(stores.back().get());
    states.push_back(&real.engine(e).mjoin().state());
  }
  dcape::CleanupConfig cleanup_config = config.cleanup;
  cleanup_config.collect_results = false;
  cleanup_config.result_sink = nullptr;
  dcape::CleanupProcessor processor(cleanup_config, num_streams);
  Scope s(spans, "cleanup.CleanupProcessor::Run");
  const dcape::StatusOr<dcape::CleanupStats> cleanup =
      processor.Run(store_ptrs, states);
  counts.cleanup_status = cleanup.status();
  if (cleanup.ok()) counts.cleanup_results = cleanup->result_count;
  return counts;
}

/// Realtime replay: the same input (ticks 0..ticks_run) through the
/// generator, the splits and probe+insert. The realtime transport
/// replaces the simulator's Network, so no Network call is replayed.
ReplayCounts ReplayRealtime(const dcape::ClusterConfig& config,
                            Tick ticks_run, SpanRecorder* spans) {
  ReplayCounts counts;
  Scope replay_span(spans, "replay");
  std::unique_ptr<dcape::StreamGenerator> generator = MakeGenerator(config);
  JoinReplay join(config, spans);
  for (Tick t = 0; t <= ticks_run; ++t) {
    std::vector<dcape::Tuple> tuples =
        Emit(generator.get(), t, spans, &counts);
    if (tuples.empty()) continue;
    for (auto& [key, batch] : join.Route(std::move(tuples), &counts)) {
      join.Probe(batch.tuples, &counts);
    }
  }
  return counts;
}

int64_t SumEngines(const dcape::obs::MetricsRegistry& metrics,
                   const char* name, int num_engines) {
  int64_t sum = 0;
  for (int e = 0; e < num_engines; ++e) sum += metrics.Value(name, e);
  return sum;
}

JsonObject Counts(const ReplayCounts& replay, const dcape::RunResult& real,
                  bool realtime) {
  int64_t evicted_tuples = 0;
  for (const dcape::QueryEngine::Counters& c : real.engines) {
    evicted_tuples += c.evicted_tuples;
  }
  JsonObject real_counts;
  real_counts.Int("tuples", real.tuples_generated)
      .Int("runtime_results", real.runtime_results)
      .Int("messages", realtime ? 0 : real.network.messages_sent)
      .Int("bytes", realtime ? 0 : real.network.bytes_sent)
      .Int("evicted_tuples", evicted_tuples)
      .Int("spill_events", real.spill_events)
      .Int("segments_written", real.storage.segments_written)
      .Int("encoded_bytes", real.storage.encoded_bytes)
      .Int("cleanup_results", real.cleanup.result_count);
  JsonObject replay_counts;
  replay_counts.Int("tuples", replay.tuples)
      .Int("runtime_results", replay.runtime_results)
      .Int("messages", replay.messages)
      .Int("bytes", replay.bytes)
      .Int("evicted_tuples", replay.evicted_tuples)
      .Int("spill_events", replay.spill_events)
      .Int("segments_written", replay.segments_written)
      .Int("encoded_bytes", replay.encoded_bytes)
      .Int("cleanup_results", replay.cleanup_results);
  JsonObject out;
  out.Obj("real", real_counts).Obj("replay", replay_counts);
  return out;
}

}  // namespace

JsonObject Trace(const Workload& workload,
                 const dcape::ExperimentOptions& options,
                 const std::string& trace_out) {
  SpanRecorder spans;
  std::vector<double> untraced;
  std::vector<double> traced;
  SimRun sim;
  RtRun rt;
  // Phase spans (part 1), interleaved with untraced runs of the same
  // input for the overhead ratio.
  int phase_root = -1;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const bool last = i + 1 == kOverheadPairs;
    SpanRecorder scratch;
    SpanRecorder* recorder = last ? &spans : &scratch;
    // Destroy the previous run outside the spans.
    sim = SimRun();
    rt = RtRun();
    if (workload.realtime()) {
      untraced.push_back(RunRealtime(options, 1, nullptr).answer_s);
      const int root = recorder->Begin("run");
      rt = RunRealtime(options, 1, recorder);
      recorder->End(root);
      phase_root = root;
      traced.push_back(rt.answer_s);
    } else {
      untraced.push_back(RunSimulator(options.cluster, 1, nullptr).answer_s);
      const int root = recorder->Begin("run");
      sim = RunSimulator(options.cluster, 1, recorder);
      recorder->End(root);
      phase_root = root;
      traced.push_back(sim.answer_s);
    }
  }
  const dcape::RunResult& real = workload.realtime() ? rt.result : sim.result;
  const double phase_wall_s = spans.Seconds(phase_root);

  // Layer replay (part 2).
  const int replay_root = static_cast<int>(spans.size());
  const ReplayCounts replay =
      workload.realtime()
          ? ReplayRealtime(options.cluster, rt.driver->report().ticks_run,
                           &spans)
          : ReplaySimulator(*sim.cluster, &spans);
  const double replay_wall_s = spans.Seconds(replay_root);

  const std::map<std::string, SpanRecorder::Totals> totals =
      spans.TotalsByName();
  auto self = [&](const std::string& prefix) {
    return SelfSeconds(totals, prefix);
  };
  auto total = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const double codec_s =
      self("tuple.EncodeTupleBatch") + self("tuple.DecodeTupleBatch");

  // Counts (part 3) and per-layer metrics.
  JsonObject m;
  const double run_phase_s = total("runtime.Cluster::RunUntil");
  const double drain_s = total("runtime.Cluster::Drain");
  m.Num("runtime.run_phase_s", run_phase_s).Num("runtime.drain_s", drain_s);
  m.Num("stream.emit_s", self("stream.")).Int("stream.tuples", replay.tuples);
  m.Num("operators.route_s", self("operators."))
      .Int("operators.routed_tuples", replay.routed_tuples);
  const int64_t messages = workload.realtime() ? 0 : real.network.messages_sent;
  m.Num("net.send_deliver_s", self("net."))
      .Int("net.messages", messages)
      .Int("net.bytes", workload.realtime() ? 0 : real.network.bytes_sent)
      .Num("net.messages_per_tuple",
           real.tuples_generated > 0
               ? static_cast<double>(messages) /
                     static_cast<double>(real.tuples_generated)
               : 0);
  m.Num("tuple.batch_encode_s", self("tuple.EncodeTupleBatch"))
      .Num("tuple.batch_decode_s", self("tuple.DecodeTupleBatch"))
      .Num("tuple.group_serialize_s", self("tuple.PartitionGroup::Serialize"))
      .Num("tuple.encoded_raw_ratio",
           replay.codec_raw_bytes > 0
               ? static_cast<double>(replay.codec_encoded_bytes) /
                     static_cast<double>(replay.codec_raw_bytes)
               : 0);
  const double probe_s = self("state.PartitionGroup::ProbeAndInsert");
  int64_t evicted_tuples = 0;
  for (const dcape::QueryEngine::Counters& c : real.engines) {
    evicted_tuples += c.evicted_tuples;
  }
  m.Num("state.probe_insert_s", probe_s)
      .Num("state.probe_ns_per_tuple",
           replay.probed_tuples > 0
               ? probe_s * 1e9 / static_cast<double>(replay.probed_tuples)
               : 0)
      .Num("state.evict_s", self("state.PartitionGroup::EvictBefore"))
      .Int("state.evicted_tuples", evicted_tuples)
      .Num("state.split_coldest_s", self("state.PartitionGroup::SplitColdest"));
  m.Num("storage.write_s", self("storage.SpillStore::WriteSegment"))
      .Num("storage.read_s", self("storage.SpillStore::ReadSegmentRange"))
      .Int("storage.segments_written", real.storage.segments_written)
      .Num("storage.encoded_mib",
           static_cast<double>(real.storage.encoded_bytes) / kMiB);

  const double answer_s = workload.realtime() ? rt.answer_s : sim.answer_s;
  const dcape::rt::RealtimeReport* report =
      workload.realtime() ? &rt.driver->report() : nullptr;
  // The realtime driver cleans up inside Run(), after its node threads
  // are joined; that tail is its cleanup phase.
  const double cleanup_phase_s =
      report != nullptr ? std::max(0.0, answer_s - report->total_wall_sec)
                        : total("cleanup.Cluster::RunCleanup");
  const dcape::obs::MetricsRegistry& metrics =
      report != nullptr ? rt.driver->metrics() : sim.cluster->metrics();
  const int num_engines = options.cluster.num_engines;
  m.Num("cleanup.phase_s", cleanup_phase_s)
      .Int("cleanup.results", real.cleanup.result_count)
      .Int("cleanup.blocks_prefetched", real.cleanup.blocks_prefetched)
      .Int("cleanup.prefetch_stall_ticks", real.cleanup.prefetch_stalls)
      .Int("cleanup.peak_resident_bytes", real.cleanup.peak_resident_bytes);
  m.Int("core.spill_events", real.spill_events)
      .Int("core.forced_spills",
           SumEngines(metrics, dcape::obs::m::kForcedSpillEvents, num_engines))
      .Int("core.relocations",
           metrics.Value(dcape::obs::m::kRelocationsCompleted))
      .Num("core.state_transfer_mib",
           static_cast<double>(real.network.state_transfer_bytes) / kMiB);
  const double tuples_m = static_cast<double>(real.tuples_generated) / 1e6;
  m.Num("rt.generate_s", report != nullptr ? report->generate_wall_sec : 0)
      .Num("rt.drain_s",
           report != nullptr
               ? report->total_wall_sec - report->generate_wall_sec
               : 0)
      .Int("rt.backpressure_parks",
           report != nullptr ? report->backpressure_parks : 0)
      .Num("rt.parks_per_mtuple",
           report != nullptr && tuples_m > 0
               ? static_cast<double>(report->backpressure_parks) / tuples_m
               : 0)
      .Int("rt.latency_p50_us",
           report != nullptr ? report->latency_us.Quantile(0.5) : 0)
      .Int("rt.latency_p99_us",
           report != nullptr ? report->latency_us.Quantile(0.99) : 0)
      .Num("rt.latency_mean_us",
           report != nullptr ? report->latency_us.Mean() : 0);
  m.Num("obs.trace_overhead_frac", Median(traced) / Median(untraced) - 1.0);

  // How much of the real run's phase time the replay's layer self times
  // account for (the codec pass is off the real path and excluded).
  const double accounted_s = replay_wall_s - codec_s;
  const double real_phases_s =
      workload.realtime() ? answer_s : run_phase_s + drain_s + cleanup_phase_s;

  m.Num("obs.layer_accounted_frac",
        real_phases_s > 0 ? accounted_s / real_phases_s : 0);

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << spans.ToChromeJson(kMaxWrittenSpans);
  }
  JsonObject layers;
  for (const auto& [name, t] : totals) {
    JsonObject entry;
    entry.Int("count", t.count).Num("total_s", t.total_s).Num("self_s",
                                                             t.self_s);
    layers.Obj(name, entry);
  }
  JsonObject out;
  out.Bool("ok", replay.cleanup_status.ok() &&
                     replay.codec_ok &&
                     (workload.realtime() || sim.cleanup_status.ok()))
      .Obj("metrics", m)
      .Obj("work", Counts(replay, real, workload.realtime()))
      .Obj("spans", layers)
      .Num("answer_s", answer_s)
      .Num("real_phases_s", real_phases_s)
      .Num("replay_accounted_s", accounted_s)
      .Num("phase_wall_s", phase_wall_s)
      .Int("spans_recorded", static_cast<int64_t>(spans.size()));
  return out;
}

}  // namespace perfbench
