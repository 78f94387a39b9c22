#include "runtime/cluster.h"

#include <string>
#include <utility>

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "sim/faulty_backend.h"
#include "storage/disk_backend.h"

namespace dcape {

std::vector<EngineId> Cluster::PlacementFor(const ClusterConfig& config) {
  return ComputePlacement(config.workload.num_partitions, config.num_engines,
                          config.placement_fractions);
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      coordinator_node_(config.num_engines),
      sink_node_(config.num_engines + 1),
      generator_node_(config.num_engines + 2),
      pool_(std::max(1, config.num_threads)),
      network_(config.network),
      placement_(PlacementFor(config)),
      sink_(config.collect_results) {
  DCAPE_CHECK_GT(config_.num_engines, 0);
  const int num_streams = config_.workload.num_streams;
  const int num_hosts =
      std::clamp(config_.num_split_hosts, 1, num_streams);

  if (config_.trace) {
    // Lanes: engines 0..N-1, coordinator, sink, generator, split hosts,
    // plus one driver lane (cleanup spans, run-level events).
    const int highest_node = generator_node_ + num_hosts;
    tracer_ = std::make_unique<obs::Tracer>(highest_node + 2,
                                            config_.trace_verbose);
    for (EngineId e = 0; e < config_.num_engines; ++e) {
      tracer_->SetLaneName(e, "engine " + std::to_string(e));
    }
    tracer_->SetLaneName(coordinator_node_, "coordinator");
    tracer_->SetLaneName(sink_node_, "sink");
    tracer_->SetLaneName(generator_node_, "generator");
    for (int h = 0; h < num_hosts; ++h) {
      tracer_->SetLaneName(generator_node_ + 1 + h,
                           "split host " + std::to_string(h));
    }
    tracer_->SetLaneName(tracer_->driver_lane(), "cluster");
  }
  // The cleanup phase must project and window results identically to
  // the engines.
  config_.cleanup.projection = config_.projection;
  config_.cleanup.window_ticks = config_.join_window_ticks;

  // Default the fluctuation set to engine 0's partitions (the paper's
  // alternating-load setup toggles between the two machines' shares).
  if (config_.workload.fluctuation.enabled &&
      config_.workload.fluctuation.set_a.empty()) {
    config_.workload.fluctuation.set_a = PartitionsOfEngine(placement_, 0);
  }

  // Query engines.
  if (config_.async_spill_io) {
    io_executor_ = std::make_unique<IoExecutor>();
  }
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    EngineConfig engine_config;
    engine_config.engine_id = e;
    engine_config.node_id = e;
    engine_config.coordinator_node = coordinator_node_;
    engine_config.sink_node = sink_node_;
    engine_config.num_streams = num_streams;
    engine_config.num_split_hosts = num_hosts;
    engine_config.strategy = config_.strategy;
    engine_config.spill = config_.spill;
    engine_config.productivity = config_.productivity;
    engine_config.restore = config_.restore;
    engine_config.window_ticks = config_.join_window_ticks;
    if (!config_.per_engine_thresholds.empty()) {
      DCAPE_CHECK_EQ(config_.per_engine_thresholds.size(),
                     static_cast<size_t>(config_.num_engines));
      engine_config.spill.memory_threshold_bytes =
          config_.per_engine_thresholds[static_cast<size_t>(e)];
    }
    engine_config.stats_period = config_.stats_period;
    engine_config.projection = config_.projection;
    engine_config.segment_format = config_.segment_format;
    if (!config_.per_engine_segment_format.empty()) {
      DCAPE_CHECK_EQ(config_.per_engine_segment_format.size(),
                     static_cast<size_t>(config_.num_engines));
      engine_config.segment_format =
          config_.per_engine_segment_format[static_cast<size_t>(e)];
    }
    engine_config.seed = config_.seed + 1000 + static_cast<uint64_t>(e);
    engine_config.invariants = config_.invariants.get();
    engine_config.metrics = &metrics_;
    engine_config.tracer = tracer_.get();

    std::unique_ptr<DiskBackend> backend;
    if (config_.use_file_backend) {
      backend = MakeTempFileBackend(config_.file_backend_prefix + "_e" +
                                    std::to_string(e));
    } else {
      backend = std::make_unique<MemoryDiskBackend>();
    }
    if (config_.fault_plan != nullptr) {
      backend = std::make_unique<sim::FaultyBackend>(
          std::move(backend), config_.fault_plan.get(), e);
    }
    engines_.push_back(std::make_unique<QueryEngine>(
        engine_config, &network_, config_.disk, std::move(backend),
        io_executor_.get()));
  }
  if (config_.fault_plan != nullptr) {
    sim::FaultPlan* plan = config_.fault_plan.get();
    network_.SetFaultHooks(
        [plan](const Message& m) { return plan->SampleExtraDelay(m); },
        [plan](const Message& m) { return plan->SampleDuplicate(m); });
  }

  // Global coordinator.
  CoordinatorConfig coord_config;
  coord_config.node_id = coordinator_node_;
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    coord_config.engine_nodes.push_back(e);
    coord_config.engine_memory_thresholds.push_back(
        engines_[static_cast<size_t>(e)]->config().spill
            .memory_threshold_bytes);
  }
  for (int h = 0; h < num_hosts; ++h) {
    coord_config.split_hosts.push_back(generator_node_ + 1 + h);
  }
  coord_config.strategy = config_.strategy;
  coord_config.relocation = config_.relocation;
  coord_config.active = config_.active_disk;
  coord_config.invariants = config_.invariants.get();
  coord_config.metrics = &metrics_;
  coord_config.tracer = tracer_.get();
  coordinator_ = std::make_unique<GlobalCoordinator>(coord_config, &network_);

  // Split hosts: streams assigned round-robin over the hosts.
  if (!config_.select_per_stream.empty()) {
    DCAPE_CHECK_EQ(config_.select_per_stream.size(),
                   static_cast<size_t>(num_streams));
  }
  std::vector<NodeId> host_of_stream(static_cast<size_t>(num_streams));
  for (int h = 0; h < num_hosts; ++h) {
    SplitHostConfig split_config;
    split_config.node_id = generator_node_ + 1 + h;
    split_config.coordinator_node = coordinator_node_;
    for (StreamId s = h; s < num_streams; s += num_hosts) {
      split_config.streams.push_back(s);
      host_of_stream[static_cast<size_t>(s)] = split_config.node_id;
      if (!config_.select_per_stream.empty()) {
        split_config.select_per_stream.push_back(
            config_.select_per_stream[static_cast<size_t>(s)]);
      }
    }
    split_config.project_payload_to = config_.project_payload_to;
    split_config.invariants = config_.invariants.get();
    split_config.tracer = tracer_.get();
    split_hosts_.push_back(std::make_unique<SplitHost>(
        split_config, placement_, &network_));
  }

  // Stream generator node (synthetic workload or trace replay).
  std::unique_ptr<InputSource> source;
  if (config_.replay_trace != nullptr) {
    StatusOr<TraceSource> trace = TraceSource::FromBytes(*config_.replay_trace);
    DCAPE_CHECK(trace.ok());
    DCAPE_CHECK_EQ(trace->num_streams(), num_streams);
    source = std::make_unique<TraceSource>(*std::move(trace));
  } else {
    source = std::make_unique<StreamGenerator>(config_.workload);
  }
  generator_ = std::make_unique<GeneratorNode>(
      generator_node_, std::move(source), host_of_stream, &network_,
      config_.record_trace != nullptr ? config_.record_trace.get() : nullptr);

  // Wire delivery handlers. Data-plane messages (tuple batches, result
  // batches) are moved out of the delivered message instead of copied.
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    QueryEngine* engine = engines_[static_cast<size_t>(e)].get();
    network_.RegisterNode(e, [engine](Tick now, Message& m) {
      if (m.type == MessageType::kTupleBatch) {
        engine->OnTupleBatch(now, std::move(std::get<TupleBatch>(m.payload)));
      } else {
        engine->OnMessage(now, m);
      }
    });
  }
  network_.RegisterNode(coordinator_node_,
                        [this](Tick now, const Message& m) {
                          coordinator_->OnMessage(now, m);
                        });
  for (int h = 0; h < num_hosts; ++h) {
    SplitHost* host = split_hosts_[static_cast<size_t>(h)].get();
    network_.RegisterNode(generator_node_ + 1 + h,
                          [host](Tick now, Message& m) {
                            if (m.type == MessageType::kTupleBatch) {
                              host->OnTupleBatch(
                                  now,
                                  std::move(std::get<TupleBatch>(m.payload)));
                            } else {
                              host->OnMessage(now, m);
                            }
                          });
  }
  if (config_.aggregate_op.has_value()) {
    aggregate_ = std::make_unique<GroupByAggregate>(*config_.aggregate_op);
  }
  network_.RegisterNode(sink_node_, [this](Tick now, Message& m) {
    DCAPE_CHECK(m.type == MessageType::kResultBatch);
    auto& batch = std::get<ResultBatch>(m.payload);
    if (aggregate_ != nullptr) aggregate_->ConsumeAll(batch.results);
    union_op_.Add(std::move(batch.results));
    sink_.Consume(now, union_op_.Drain());
  });

  memory_series_.resize(static_cast<size_t>(config_.num_engines));
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    memory_series_[static_cast<size_t>(e)].set_name(
        "engine" + std::to_string(e) + "_bytes");
  }
  throughput_series_.set_name("cumulative_results");
}

void Cluster::StepTick(Tick now, bool generate) {
  network_.DeliverWaves(now);
  generator_->OnTick(now, generate);
  if (config_.fault_plan != nullptr) {
    for (EngineId e = 0; e < config_.num_engines; ++e) {
      const Tick stall = config_.fault_plan->SampleStall(e);
      if (stall > 0) engines_[static_cast<size_t>(e)]->InjectStall(now, stall);
    }
  }
  for (auto& engine : engines_) engine->OnTick(now);
  if (!draining_) coordinator_->OnTick(now);
}

void Cluster::SampleIfDue(Tick now, bool force) {
  // Precomputed next-due tick keeps the common (not due) case to one
  // comparison; RunUntil calls this every tick.
  if (!force && now < next_sample_) return;
  next_sample_ = now + config_.sample_period;
  throughput_series_.Add(now, static_cast<double>(sink_.total()));
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    memory_series_[static_cast<size_t>(e)].Add(
        now,
        static_cast<double>(engines_[static_cast<size_t>(e)]->state_bytes()));
  }
  // Sampled counter events ride the trace at the same cadence as the
  // series. This runs between ticks, so emitting on other nodes' lanes
  // honors the one-writer-per-lane contract.
  if (DCAPE_TRACE_ACTIVE(tracer_.get())) {
    for (EngineId e = 0; e < config_.num_engines; ++e) {
      const QueryEngine& engine = *engines_[static_cast<size_t>(e)];
      tracer_->EmitCounter(e, now, obs::ev::kStateBytes,
                           engine.state_bytes());
      tracer_->EmitCounter(e, now, obs::ev::kDiskResidentBytes,
                           engine.spill_store().resident_bytes());
    }
    tracer_->EmitCounter(sink_node_, now, obs::ev::kSinkResults,
                         sink_.total());
  }
}

void Cluster::RunUntil(Tick end) {
  for (; next_tick_ <= end; ++next_tick_) {
    clock_.AdvanceTo(next_tick_);
    StepTick(next_tick_, /*generate=*/true);
    SampleIfDue(next_tick_);
  }
}

bool Cluster::Quiescent(Tick now) const {
  // Ordered cheapest-first: the O(1) network check fails on almost every
  // mid-drain tick, short-circuiting the host/engine walks.
  if (!network_.idle()) return false;
  for (const auto& host : split_hosts_) {
    if (host->total_buffered() != 0) return false;
  }
  for (const auto& engine : engines_) {
    if (!engine->Idle(now)) return false;
  }
  return true;
}

void Cluster::Drain() {
  draining_ = true;
  const Tick start = clock_.now();
  const Tick cap = start + MinutesToTicks(30);
  Tick t = start;
  // No sampling inside the loop: the series get one forced point at the
  // quiescence tick below.
  while (t < cap) {
    ++t;
    clock_.AdvanceTo(t);
    StepTick(t, /*generate=*/false);
    if (Quiescent(t)) break;
  }
  DCAPE_CHECK_LT(t, cap);  // pipeline failed to quiesce
  next_tick_ = t + 1;
  SampleIfDue(clock_.now(), /*force=*/true);
  draining_ = false;
}

StatusOr<CleanupStats> Cluster::RunCleanup() {
  std::vector<const SpillStore*> stores;
  std::vector<const StateManager*> states;
  for (auto& engine : engines_) {
    stores.push_back(&engine->spill_store());
    states.push_back(&engine->mjoin().state());
  }
  CleanupProcessor processor(config_.cleanup, config_.workload.num_streams);
  StatusOr<CleanupStats> stats = processor.Run(stores, states, &pool_);
  if (stats.ok()) {
    // Streaming-pipeline observability. Peak and stalls depend on lane
    // interleaving / wall clock, so they live in the metrics plane only
    // — never in the trace, which must stay bit-identical.
    if (cleanup_peak_gauge_ == nullptr) {
      cleanup_peak_gauge_ =
          metrics_.AddGauge(obs::m::kCleanupPeakResidentBytes);
      cleanup_blocks_gauge_ =
          metrics_.AddGauge(obs::m::kCleanupBlocksPrefetched);
      cleanup_stalls_gauge_ =
          metrics_.AddGauge(obs::m::kCleanupPrefetchStallTicks);
    }
    cleanup_peak_gauge_->Set(stats->peak_resident_bytes);
    cleanup_blocks_gauge_->Set(stats->blocks_prefetched);
    cleanup_stalls_gauge_->Set(stats->prefetch_stalls);
  }
  // The cleanup pass has no per-node event loop; its spans are emitted
  // post-hoc from the driver lane out of the stats it reports.
  if (stats.ok() && DCAPE_TRACE_ACTIVE(tracer_.get())) {
    const Tick start = clock_.now();
    tracer_->EmitComplete(
        tracer_->driver_lane(), start, obs::ev::kCleanup, stats->total_ticks,
        {obs::TraceArg::Int("results", stats->result_count),
         obs::TraceArg::Int("segments_read", stats->segments_read),
         obs::TraceArg::Int("bytes_read", stats->bytes_read),
         obs::TraceArg::Int("partitions_cleaned",
                            stats->partitions_cleaned)});
    for (size_t e = 0; e < stats->engine_ticks.size(); ++e) {
      tracer_->EmitComplete(
          static_cast<int>(e), start, obs::ev::kCleanupEngine,
          stats->engine_ticks[e],
          {obs::TraceArg::Int("engine", static_cast<int64_t>(e))});
    }
  }
  return stats;
}

RunResult Cluster::Collect() {
  RunResult result;
  result.throughput = throughput_series_;
  result.engine_memory = memory_series_;
  result.runtime_results = sink_.total();
  result.runtime_latency = sink_.latency();
  result.tuples_generated = generator_->source().total_emitted();
  result.runtime_end = clock_.now();
  result.coordinator = coordinator_->counters();
  result.network = network_.stats();
  const int64_t queue_high_water =
      io_executor_ != nullptr ? io_executor_->queue_high_water() : 0;
  for (auto& engine : engines_) {
    QueryEngine::Counters ec = engine->counters();
    result.spilled_bytes += ec.spilled_bytes;
    result.spill_events += ec.spill_events + ec.forced_spill_events;
    result.engines.push_back(std::move(ec));
    const SpillStore& store = engine->spill_store();
    StorageCounters storage;
    storage.segments_written = store.segments_written();
    storage.segments_resident = store.segment_count();
    storage.resident_bytes = store.resident_bytes();
    storage.encoded_bytes = store.total_spilled_bytes();
    storage.raw_bytes = store.total_raw_bytes();
    storage.io_queue_high_water = queue_high_water;
    storage.partial_segments_written = store.partial_segments_written();
    storage.partial_encoded_bytes = store.partial_encoded_bytes();
    storage.partial_raw_bytes = store.partial_raw_bytes();
    result.engine_storage.push_back(storage);
    result.storage.segments_written += storage.segments_written;
    result.storage.segments_resident += storage.segments_resident;
    result.storage.resident_bytes += storage.resident_bytes;
    result.storage.encoded_bytes += storage.encoded_bytes;
    result.storage.raw_bytes += storage.raw_bytes;
    result.storage.partial_segments_written +=
        storage.partial_segments_written;
    result.storage.partial_encoded_bytes += storage.partial_encoded_bytes;
    result.storage.partial_raw_bytes += storage.partial_raw_bytes;
  }
  result.storage.io_queue_high_water = queue_high_water;
  if (config_.collect_results) {
    result.collected = sink_.collected();
  }
  return result;
}

RunResult Cluster::Run() {
  RunUntil(config_.run_duration);
  Drain();
  generator_->FinishTrace();
  RunResult result = Collect();
  if (config_.run_cleanup) {
    StatusOr<CleanupStats> cleanup = RunCleanup();
    DCAPE_CHECK(cleanup.ok());
    result.cleanup = std::move(cleanup).value();
  }
  return result;
}

}  // namespace dcape
