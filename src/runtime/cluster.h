#ifndef DCAPE_RUNTIME_CLUSTER_H_
#define DCAPE_RUNTIME_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/global_coordinator.h"
#include "engine/query_engine.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/aggregate.h"
#include "operators/sink.h"
#include "operators/union_op.h"
#include "runtime/cluster_config.h"
#include "runtime/exec_pool.h"
#include "runtime/run_result.h"
#include "runtime/generator_node.h"
#include "runtime/split_host.h"
#include "stream/stream_generator.h"

namespace dcape {

/// The assembled distributed system (paper Fig. 4): N query engines, the
/// global coordinator, the stream-generator node hosting the splits, and
/// the application-server node hosting union + sink, all wired over the
/// simulated network and driven by the virtual clock.
///
/// Node addressing convention: engine e is node e; then the coordinator,
/// the application server (sink), the stream generator, and the split
/// hosts occupy the following ids.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs the full experiment: run-time phase of `run_duration`, pipeline
  /// drain, then (if configured) the cleanup phase. Returns all series
  /// and counters.
  RunResult Run();

  /// Steps every tick from the first one not yet stepped through `end`
  /// with the generator on. May be called repeatedly (tests drive phases
  /// manually): RunUntil(a) then RunUntil(b) steps exactly the ticks
  /// RunUntil(b) alone would.
  void RunUntil(Tick end);

  /// Stops generation and advances time until the pipeline is quiescent
  /// (no queued messages, no queued batches, no buffered tuples).
  void Drain();

  /// Runs the cleanup phase over the engines' current disks and states.
  [[nodiscard]] StatusOr<CleanupStats> RunCleanup();

  /// Builds the RunResult from the current series/counters (Run() does
  /// this automatically).
  RunResult Collect();

  /// The initial partition placement this cluster uses; also available
  /// statically so benches can derive per-owner workload classes before
  /// construction.
  static std::vector<EngineId> PlacementFor(const ClusterConfig& config);

  QueryEngine& engine(EngineId e) { return *engines_[static_cast<size_t>(e)]; }
  const QueryEngine& engine(EngineId e) const {
    return *engines_[static_cast<size_t>(e)];
  }
  int num_engines() const { return static_cast<int>(engines_.size()); }
  GlobalCoordinator& coordinator() { return *coordinator_; }
  /// The first split host (hosts every stream when num_split_hosts == 1).
  SplitHost& split_host() { return *split_hosts_[0]; }
  SplitHost& split_host(int host) {
    return *split_hosts_[static_cast<size_t>(host)];
  }
  int num_split_hosts() const {
    return static_cast<int>(split_hosts_.size());
  }
  /// The split host carrying `stream`'s split operator.
  SplitHost& split_host_for_stream(StreamId stream) {
    return *split_hosts_[static_cast<size_t>(stream) % split_hosts_.size()];
  }
  /// The input source feeding the cluster (generator or trace).
  const InputSource& source() const { return generator_->source(); }
  ResultSink& sink() { return sink_; }
  /// The application server's grouped aggregate (null unless
  /// `aggregate_op` was configured). Note: runtime results only; fold the
  /// cleanup results in with ConsumeAll to get the final answer.
  GroupByAggregate* aggregate() { return aggregate_.get(); }
  Network& network() { return network_; }
  Tick now() const { return clock_.now(); }
  const std::vector<EngineId>& placement() const { return placement_; }
  const ClusterConfig& config() const { return config_; }

  NodeId coordinator_node() const { return coordinator_node_; }
  NodeId sink_node() const { return sink_node_; }
  NodeId generator_node() const { return generator_node_; }

  /// The unified metrics registry: every engine/coordinator/storage
  /// counter in the cluster lives here (single source for RunResult and
  /// the trace's sampled counter events).
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The structured trace, or null when `config.trace` is off.
  const obs::Tracer* tracer() const { return tracer_.get(); }

 private:
  /// One virtual tick: delivers every message due by `now`
  /// (Network::DeliverWaves), emits the generator's tuples, then runs the
  /// engines' OnTick in engine-id order and the coordinator's.
  void StepTick(Tick now, bool generate);
  void SampleIfDue(Tick now, bool force = false);
  /// True when the whole pipeline is idle: no queued messages, no
  /// buffered split tuples, no busy/backlogged engines.
  bool Quiescent(Tick now) const;

  ClusterConfig config_;
  NodeId coordinator_node_;
  NodeId sink_node_;
  NodeId generator_node_;
  /// Declared before the engines/coordinator, whose metric cells point
  /// into it (and are therefore destroyed first).
  obs::MetricsRegistry metrics_;
  /// Null unless config_.trace; lanes = every node + one driver lane.
  std::unique_ptr<obs::Tracer> tracer_;
  /// Cleanup fan-out workers (config_.num_threads); the run-time phase is
  /// serial.
  ExecPool pool_;
  Network network_;
  std::vector<EngineId> placement_;
  /// Background spill-write thread (config_.async_spill_io). Declared
  /// before engines_ so it outlives them: each engine's SpillStore
  /// drains its queued writes on destruction.
  std::unique_ptr<IoExecutor> io_executor_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::unique_ptr<GlobalCoordinator> coordinator_;
  std::unique_ptr<GeneratorNode> generator_;
  std::vector<std::unique_ptr<SplitHost>> split_hosts_;
  UnionOp union_op_;
  ResultSink sink_;
  std::unique_ptr<GroupByAggregate> aggregate_;
  VirtualClock clock_;
  /// The first tick RunUntil/Drain has not stepped yet.
  Tick next_tick_ = 0;
  /// cleanup.* gauges, registered on the first RunCleanup (streaming
  /// pipeline observability; all zero under --cleanup-mode=materialize).
  obs::Gauge* cleanup_peak_gauge_ = nullptr;
  obs::Gauge* cleanup_blocks_gauge_ = nullptr;
  obs::Gauge* cleanup_stalls_gauge_ = nullptr;
  Tick next_sample_ = 0;
  TimeSeries throughput_series_;
  std::vector<TimeSeries> memory_series_;
  bool draining_ = false;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_CLUSTER_H_
