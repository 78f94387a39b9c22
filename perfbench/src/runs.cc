#include "runs.h"

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// RunUntil slice of the traced run, in virtual ticks. RunUntil(end)
/// steps every tick from the clock's current tick through `end`, so a
/// second call steps its first tick again. Slices therefore end on odd
/// ticks: with an even inter-arrival time the generator emits nothing
/// there, and the repeated tick only re-runs the idle housekeeping.
constexpr dcape::Tick kSliceTicks = 10000;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::unique_ptr<dcape::StreamGenerator> MakeGenerator(
    const dcape::ClusterConfig& config) {
  dcape::WorkloadConfig workload = config.workload;
  if (workload.fluctuation.enabled && workload.fluctuation.set_a.empty()) {
    workload.fluctuation.set_a = dcape::PartitionsOfEngine(
        dcape::Cluster::PlacementFor(config), 0);
  }
  return std::make_unique<dcape::StreamGenerator>(workload);
}

SimRun RunSimulator(const dcape::ClusterConfig& config, int setup_repeats,
                    SpanRecorder* spans) {
  SimRun run;
  std::vector<double> setups;
  for (int i = 0; i < std::max(1, setup_repeats); ++i) {
    run.cluster.reset();
    const Clock::time_point t0 = Clock::now();
    const int span = spans != nullptr ? spans->Begin("runtime.Cluster") : -1;
    run.cluster = std::make_unique<dcape::Cluster>(config);
    if (spans != nullptr) spans->End(span);
    setups.push_back(Seconds(t0, Clock::now()));
  }
  run.setup_s = Median(setups);
  dcape::Cluster& cluster = *run.cluster;

  const Clock::time_point t1 = Clock::now();
  dcape::StatusOr<dcape::CleanupStats> cleanup = dcape::CleanupStats{};
  if (spans == nullptr) {
    cluster.RunUntil(config.run_duration);
    cluster.Drain();
    run.result = cluster.Collect();
    cleanup = cluster.RunCleanup();
  } else {
    for (dcape::Tick end = kSliceTicks - 1; cluster.now() < config.run_duration;
         end += kSliceTicks) {
      SpanRecorder::Scope s(spans, "runtime.Cluster::RunUntil");
      cluster.RunUntil(std::min(end, config.run_duration));
    }
    {
      SpanRecorder::Scope s(spans, "runtime.Cluster::Drain");
      cluster.Drain();
    }
    {
      SpanRecorder::Scope s(spans, "runtime.Cluster::Collect");
      run.result = cluster.Collect();
    }
    SpanRecorder::Scope s(spans, "cleanup.Cluster::RunCleanup");
    cleanup = cluster.RunCleanup();
  }
  run.answer_s = Seconds(t1, Clock::now());
  run.cleanup_status = cleanup.status();
  if (cleanup.ok()) run.result.cleanup = std::move(cleanup).value();
  return run;
}

RtRun RunRealtime(const dcape::ExperimentOptions& options, int setup_repeats,
                  SpanRecorder* spans) {
  dcape::rt::RealtimeOptions rt_options;
  rt_options.duration_sec = options.rt_duration_sec;
  rt_options.rate = options.rt_rate;
  rt_options.link_capacity = options.rt_queue_capacity;

  RtRun run;
  std::vector<double> setups;
  for (int i = 0; i < std::max(1, setup_repeats); ++i) {
    run.driver.reset();
    const Clock::time_point t0 = Clock::now();
    const int span =
        spans != nullptr ? spans->Begin("rt.RealtimeDriver") : -1;
    run.driver = std::make_unique<dcape::rt::RealtimeDriver>(options.cluster,
                                                             rt_options);
    if (spans != nullptr) spans->End(span);
    setups.push_back(Seconds(t0, Clock::now()));
  }
  run.setup_s = Median(setups);
  const Clock::time_point t1 = Clock::now();
  {
    const int span =
        spans != nullptr ? spans->Begin("rt.RealtimeDriver::Run") : -1;
    run.result = run.driver->Run();
    if (spans != nullptr) spans->End(span);
  }
  run.answer_s = Seconds(t1, Clock::now());
  return run;
}

}  // namespace perfbench
