#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cluster.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::SmallClusterConfig;
using testing::ToMultiset;

/// Bit-level reproducibility: identical configs produce identical runs —
/// the property that makes every figure in EXPERIMENTS.md regenerable.

TEST(DeterminismTest, IdenticalConfigsProduceIdenticalRuns) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.strategy = AdaptationStrategy::kLazyDisk;
  config.placement_fractions = {0.7, 0.3};

  RunResult a = Cluster(config).Run();
  RunResult b = Cluster(config).Run();

  EXPECT_EQ(a.runtime_results, b.runtime_results);
  EXPECT_EQ(a.cleanup.result_count, b.cleanup.result_count);
  EXPECT_EQ(a.tuples_generated, b.tuples_generated);
  EXPECT_EQ(a.spill_events, b.spill_events);
  EXPECT_EQ(a.coordinator.relocations_completed,
            b.coordinator.relocations_completed);
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
  EXPECT_EQ(a.network.bytes_sent, b.network.bytes_sent);
  EXPECT_EQ(ToMultiset(AllResults(a)), ToMultiset(AllResults(b)));
  // The sampled series match point for point.
  ASSERT_EQ(a.throughput.size(), b.throughput.size());
  for (size_t i = 0; i < a.throughput.size(); ++i) {
    EXPECT_EQ(a.throughput.samples()[i], b.throughput.samples()[i]);
  }
}

TEST(DeterminismTest, SeedChangesTheRun) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(30);
  RunResult a = Cluster(config).Run();
  config.workload.seed = config.workload.seed + 1;
  RunResult b = Cluster(config).Run();
  EXPECT_NE(a.runtime_results, b.runtime_results);
}

TEST(DeterminismTest, FileAndMemoryBackendsProduceIdenticalResults) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.strategy = AdaptationStrategy::kSpillOnly;

  ClusterConfig file_config = config;
  file_config.use_file_backend = true;
  file_config.file_backend_prefix = "dcape_det_test";

  RunResult memory_backed = Cluster(config).Run();
  RunResult file_backed = Cluster(file_config).Run();
  EXPECT_GT(memory_backed.spill_events, 0);
  EXPECT_EQ(ToMultiset(AllResults(memory_backed)),
            ToMultiset(AllResults(file_backed)));
}

/// A run driven in RunUntil slices: every call steps only the ticks the
/// previous calls have not, so slicing is invisible in the output.
struct SlicedRun {
  RunResult result;
  std::string trace;
};

SlicedRun RunInSlices(const ClusterConfig& config,
                      const std::vector<Tick>& ends) {
  Cluster cluster(config);
  for (Tick end : ends) cluster.RunUntil(end);
  cluster.Drain();
  SlicedRun run;
  run.result = cluster.Collect();
  StatusOr<CleanupStats> cleanup = cluster.RunCleanup();
  EXPECT_TRUE(cleanup.ok());
  if (cleanup.ok()) run.result.cleanup = std::move(cleanup).value();
  run.trace = cluster.tracer()->ToChromeJson();
  return run;
}

TEST(DeterminismTest, RepeatedRunUntilStepsEveryTickOnce) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.strategy = AdaptationStrategy::kLazyDisk;
  config.placement_fractions = {0.7, 0.3};
  config.spill.memory_threshold_bytes = 48 * kKiB;
  config.trace = true;
  // Slice ends fall on ticks where the generator emits (every 10 ticks),
  // and one slice is requested twice.
  const Tick a = SecondsToTicks(15);
  ASSERT_EQ(a % config.workload.inter_arrival_ticks, 0);
  const SlicedRun whole = RunInSlices(config, {config.run_duration});
  const SlicedRun sliced =
      RunInSlices(config, {a, a, SecondsToTicks(30), config.run_duration});

  EXPECT_EQ(sliced.result.tuples_generated, whole.result.tuples_generated);
  EXPECT_EQ(sliced.result.runtime_results, whole.result.runtime_results);
  EXPECT_EQ(ToMultiset(AllResults(sliced.result)),
            ToMultiset(AllResults(whole.result)));
  EXPECT_EQ(sliced.trace, whole.trace);
  // And the sliced driver agrees with Run() itself.
  EXPECT_EQ(whole.result.tuples_generated,
            Cluster(config).Run().tuples_generated);
}

TEST(RunResultTest, SummaryMentionsAllHeadlineNumbers) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(30);
  config.strategy = AdaptationStrategy::kSpillOnly;
  RunResult result = Cluster(config).Run();
  std::ostringstream os;
  result.PrintSummary(os);
  const std::string summary = os.str();
  EXPECT_NE(summary.find(std::to_string(result.runtime_results)),
            std::string::npos);
  EXPECT_NE(summary.find(std::to_string(result.cleanup.result_count)),
            std::string::npos);
  EXPECT_NE(summary.find("spill events"), std::string::npos);
  EXPECT_NE(summary.find("relocations"), std::string::npos);
  EXPECT_EQ(result.TotalResults(),
            result.runtime_results + result.cleanup.result_count);
}

}  // namespace
}  // namespace dcape
