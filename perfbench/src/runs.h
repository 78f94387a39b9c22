#ifndef DCAPE_PERFBENCH_RUNS_H_
#define DCAPE_PERFBENCH_RUNS_H_

#include <memory>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/status.h"
#include "rt/realtime_driver.h"
#include "runtime/cluster.h"
#include "runtime/experiment_flags.h"
#include "spans.h"
#include "stream/stream_generator.h"

namespace perfbench {

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// The generator a Cluster built from `config` would use, including the
/// default fluctuation set (engine 0's initial partitions).
std::unique_ptr<dcape::StreamGenerator> MakeGenerator(
    const dcape::ClusterConfig& config);

/// One simulator run through the public phase calls.
struct SimRun {
  std::unique_ptr<dcape::Cluster> cluster;
  dcape::RunResult result;
  dcape::Status cleanup_status;
  /// Median wall time of the `setup_repeats` Cluster constructions.
  double setup_s = 0;
  /// First generated tuple to complete answer: RunUntil, Drain, Collect
  /// and RunCleanup.
  double answer_s = 0;
};

/// Constructs the cluster `setup_repeats` times (keeping the last) and
/// runs it. With `spans`, every public call gets a span and the run-time
/// phase is driven in fixed virtual slices.
SimRun RunSimulator(const dcape::ClusterConfig& config, int setup_repeats,
                    SpanRecorder* spans);

/// One realtime run.
struct RtRun {
  std::unique_ptr<dcape::rt::RealtimeDriver> driver;
  dcape::RunResult result;
  double setup_s = 0;
  /// RealtimeDriver::Run: generation, drain, thread join and cleanup.
  double answer_s = 0;
};

RtRun RunRealtime(const dcape::ExperimentOptions& options, int setup_repeats,
                  SpanRecorder* spans);

}  // namespace perfbench

#endif  // DCAPE_PERFBENCH_RUNS_H_
