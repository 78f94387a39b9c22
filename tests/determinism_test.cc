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
/// Execution details that must never change the output — cleanup worker
/// count, background spill I/O, the disk backend, the segment format —
/// are checked against the same yardstick.

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b,
                         const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.runtime_results, b.runtime_results);
  EXPECT_EQ(a.cleanup.result_count, b.cleanup.result_count);
  EXPECT_EQ(a.tuples_generated, b.tuples_generated);
  EXPECT_EQ(a.runtime_end, b.runtime_end);
  EXPECT_EQ(a.spill_events, b.spill_events);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.coordinator.relocations_completed,
            b.coordinator.relocations_completed);
  EXPECT_EQ(a.coordinator.relocations_started,
            b.coordinator.relocations_started);
  EXPECT_EQ(a.coordinator.bytes_relocated, b.coordinator.bytes_relocated);
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
  EXPECT_EQ(a.network.bytes_sent, b.network.bytes_sent);
  EXPECT_EQ(a.network.state_transfer_bytes, b.network.state_transfer_bytes);
  ASSERT_EQ(a.engines.size(), b.engines.size());
  for (size_t e = 0; e < a.engines.size(); ++e) {
    EXPECT_EQ(a.engines[e].tuples_processed, b.engines[e].tuples_processed);
    EXPECT_EQ(a.engines[e].results_produced, b.engines[e].results_produced);
    EXPECT_EQ(a.engines[e].spill_events, b.engines[e].spill_events);
    EXPECT_EQ(a.engines[e].relocations_out, b.engines[e].relocations_out);
    EXPECT_EQ(a.engines[e].relocations_in, b.engines[e].relocations_in);
  }
  ASSERT_EQ(a.throughput.size(), b.throughput.size());
  for (size_t i = 0; i < a.throughput.size(); ++i) {
    EXPECT_EQ(a.throughput.samples()[i], b.throughput.samples()[i]);
  }
  ASSERT_EQ(a.engine_memory.size(), b.engine_memory.size());
  for (size_t e = 0; e < a.engine_memory.size(); ++e) {
    ASSERT_EQ(a.engine_memory[e].size(), b.engine_memory[e].size());
    for (size_t i = 0; i < a.engine_memory[e].size(); ++i) {
      EXPECT_EQ(a.engine_memory[e].samples()[i],
                b.engine_memory[e].samples()[i]);
    }
  }
  EXPECT_EQ(ToMultiset(AllResults(a)), ToMultiset(AllResults(b)));
}

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

/// Configurations covering every adaptation path: spills, the full
/// relocation protocol (pause, drain markers, state transfer, routing
/// updates), one split host per stream, and active-disk forced spills.
std::vector<std::pair<std::string, ClusterConfig>> AdaptationConfigs() {
  std::vector<std::pair<std::string, ClusterConfig>> configs;
  ClusterConfig spill = SmallClusterConfig();
  spill.run_duration = SecondsToTicks(40);
  spill.strategy = AdaptationStrategy::kSpillOnly;
  configs.emplace_back("spill-only", spill);

  ClusterConfig relocation = SmallClusterConfig();
  relocation.run_duration = SecondsToTicks(60);
  relocation.num_engines = 3;
  relocation.strategy = AdaptationStrategy::kLazyDisk;
  relocation.placement_fractions = {0.6, 0.2, 0.2};
  configs.emplace_back("lazy-disk 3 engines", relocation);

  ClusterConfig hosts = spill;
  hosts.num_split_hosts = 3;
  configs.emplace_back("spill-only 3 split hosts", hosts);

  ClusterConfig active = SmallClusterConfig();
  active.run_duration = SecondsToTicks(20);
  active.strategy = AdaptationStrategy::kActiveDisk;
  configs.emplace_back("active-disk", active);
  return configs;
}

TEST(DeterminismTest, RerunsAndCleanupWorkerCountsAreInvisible) {
  // The run-time phase is serial; num_threads sizes only the cleanup
  // fan-out, whose per-partition results merge in fixed partition order.
  for (auto& [label, config] : AdaptationConfigs()) {
    config.num_threads = 1;
    const RunResult serial = Cluster(config).Run();
    ExpectIdenticalRuns(serial, Cluster(config).Run(), label + " rerun");
    for (int workers : {4, 16}) {
      config.num_threads = workers;
      ExpectIdenticalRuns(serial, Cluster(config).Run(),
                          label + " cleanup workers=" +
                              std::to_string(workers));
    }
  }
}

TEST(DeterminismTest, AsyncSpillIoMatchesSynchronous) {
  // Background disk I/O moves the physical write off the caller thread
  // but charges the identical virtual io cost, so a run with async I/O
  // is byte-identical to the synchronous run — including with real
  // files and several cleanup workers in the mix.
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.strategy = AdaptationStrategy::kSpillOnly;

  config.num_threads = 1;
  config.async_spill_io = false;
  RunResult sync_run = Cluster(config).Run();
  EXPECT_GT(sync_run.spill_events, 0);

  config.async_spill_io = true;
  RunResult async_run = Cluster(config).Run();
  ExpectIdenticalRuns(sync_run, async_run, "async-io");

  config.num_threads = 4;
  RunResult async_workers = Cluster(config).Run();
  ExpectIdenticalRuns(sync_run, async_workers, "async-io cleanup workers=4");

  config.use_file_backend = true;
  RunResult async_file = Cluster(config).Run();
  ExpectIdenticalRuns(sync_run, async_file,
                      "async-io file-backend cleanup workers=4");
}

TEST(DeterminismTest, SegmentFormatDoesNotChangeResults) {
  // v1 and v2 blobs restore identical state, so the format choice only
  // changes encoded byte counts, never results or relocation decisions.
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.num_threads = 2;

  config.segment_format = SegmentFormat::kV2;
  RunResult v2 = Cluster(config).Run();
  EXPECT_GT(v2.spill_events, 0);

  config.segment_format = SegmentFormat::kV1;
  RunResult v1 = Cluster(config).Run();

  EXPECT_EQ(v1.runtime_results, v2.runtime_results);
  EXPECT_EQ(v1.cleanup.result_count, v2.cleanup.result_count);
  EXPECT_EQ(v1.spill_events, v2.spill_events);
  EXPECT_EQ(ToMultiset(AllResults(v1)), ToMultiset(AllResults(v2)));
  // The compact format strictly shrinks what lands on disk.
  EXPECT_LT(v2.storage.encoded_bytes, v1.storage.encoded_bytes);
  EXPECT_EQ(v1.storage.raw_bytes, v2.storage.raw_bytes);
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
