#include "check.h"

#include <map>
#include <memory>
#include <utility>

#include "runs.h"
#include "sim/oracle.h"
#include "state/partition_group.h"
#include "stream/stream_generator.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  return dcape::SecondaryKeyHash(static_cast<dcape::JoinKey>(h ^ v));
}

uint64_t HashResult(const dcape::JoinResult& r) {
  uint64_t h = Mix(0x243f6a8885a308d3ULL, static_cast<uint64_t>(r.partition));
  h = Mix(h, static_cast<uint64_t>(r.join_key));
  for (int64_t seq : r.member_seqs) h = Mix(h, static_cast<uint64_t>(seq));
  return h;
}

/// The all-memory reference join: the generator's output for ticks
/// [0, run_duration] probed into one PartitionGroup per partition in
/// timestamp order, with the engines' window semantics. Nothing is ever
/// spilled or moved, so every result is produced exactly once.
ResultDigest ReferenceDigest(const dcape::ClusterConfig& config) {
  const dcape::WorkloadConfig& workload = config.workload;
  std::unique_ptr<dcape::StreamGenerator> generator = MakeGenerator(config);
  std::vector<std::unique_ptr<dcape::PartitionGroup>> groups;
  for (int p = 0; p < workload.num_partitions; ++p) {
    groups.push_back(
        std::make_unique<dcape::PartitionGroup>(p, workload.num_streams));
  }
  const dcape::ResultProjection* projection =
      config.projection.has_value() ? &*config.projection : nullptr;
  const dcape::Tick window = config.join_window_ticks;
  ResultDigest digest;
  std::vector<dcape::JoinResult> results;
  for (dcape::Tick t = 0; t <= config.run_duration; ++t) {
    for (const dcape::Tuple& tuple : generator->EmitForTick(t)) {
      const dcape::PartitionId p =
          dcape::StreamGenerator::PartitionOfKey(tuple.join_key);
      groups[static_cast<size_t>(p)]->ProbeAndInsert(tuple, &results,
                                                     projection, window);
      for (const dcape::JoinResult& r : results) digest.Add(r);
      results.clear();
    }
    // Tuples older than the window can join nothing that arrives later;
    // dropping them keeps the reference's memory at one window.
    if (window > 0 && t % window == 0 && t > window) {
      for (auto& group : groups) {
        dcape::PartitionGroup expired(group->partition(),
                                      workload.num_streams);
        group->EvictBefore(t - window, &expired);
      }
    }
  }
  return digest;
}

}  // namespace

ResultDigest::ResultDigest()
    : bucket_count_(kBuckets, 0), bucket_sum_(kBuckets, 0) {}

void ResultDigest::Add(const dcape::JoinResult& result) {
  const uint64_t h = HashResult(result);
  const size_t b = static_cast<size_t>(h % kBuckets);
  ++count_;
  ++bucket_count_[b];
  bucket_sum_[b] += h;
}

int64_t ResultDigest::WrongCount(const ResultDigest& got,
                                 const ResultDigest& want) {
  int64_t wrong = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const int64_t diff = got.bucket_count_[b] - want.bucket_count_[b];
    if (diff != 0) {
      wrong += diff > 0 ? diff : -diff;
    } else if (got.bucket_sum_[b] != want.bucket_sum_[b]) {
      wrong += 2;
    }
  }
  return wrong;
}

CheckOutcome CheckSimulator(dcape::ExperimentOptions options) {
  dcape::ClusterConfig config = options.cluster;
  config.collect_results = true;
  config.cleanup.collect_results = false;
  ResultDigest got;
  // Cleanup lanes call the sink under the processor's mutex; the digest
  // is order-independent, so lane interleaving cannot change it.
  config.cleanup.result_sink = [&got](const dcape::JoinResult& r) {
    got.Add(r);
  };
  CheckOutcome outcome;
  {
    const SimRun run = RunSimulator(config, 1, nullptr);
    for (const dcape::JoinResult& r : run.result.collected) got.Add(r);
    outcome.tuples = run.result.tuples_generated;
    outcome.runtime_results = run.result.runtime_results;
    outcome.cleanup_results = run.result.cleanup.result_count;
    if (!run.cleanup_status.ok()) {
      outcome.detail = "cleanup failed: " + run.cleanup_status.ToString();
    }
  }
  const ResultDigest want = ReferenceDigest(config);
  outcome.reference_results = want.count();
  outcome.got_results = got.count();
  outcome.wrong_results = outcome.detail.empty()
                              ? ResultDigest::WrongCount(got, want)
                              : want.count();
  if (outcome.detail.empty() && outcome.wrong_results > 0) {
    outcome.detail = "digest mismatch against the all-memory reference";
  }
  return outcome;
}

CheckOutcome CheckRealtime(dcape::ExperimentOptions options) {
  dcape::ClusterConfig config = options.cluster;
  config.collect_results = true;
  config.cleanup.collect_results = true;
  options.cluster = config;
  CheckOutcome outcome;
  dcape::RunResult result;
  dcape::Tick ticks_run = 0;
  {
    RtRun run = RunRealtime(options, 1, nullptr);
    result = std::move(run.result);
    ticks_run = run.driver->report().ticks_run;
  }
  dcape::ClusterConfig golden_config = config;
  golden_config.strategy = dcape::AdaptationStrategy::kNoAdaptation;
  golden_config.num_threads = 1;
  golden_config.run_duration = ticks_run;
  dcape::Cluster golden_cluster(golden_config);
  const dcape::RunResult golden = golden_cluster.Run();

  const std::map<std::string, int> got = dcape::sim::ResultMultiset(result);
  const std::map<std::string, int> want = dcape::sim::ResultMultiset(golden);
  int64_t wrong = 0;
  for (const auto& [key, count] : want) {
    auto it = got.find(key);
    const int have = it == got.end() ? 0 : it->second;
    wrong += have > count ? have - count : count - have;
  }
  for (const auto& [key, count] : got) {
    if (want.find(key) == want.end()) wrong += count;
  }
  std::vector<std::string> violations;
  dcape::sim::DiffOutputs(got, want, &violations);
  const int num_streams = config.workload.num_streams;
  if (dcape::sim::PerStreamProcessed(result, num_streams) !=
      dcape::sim::PerStreamProcessed(golden, num_streams)) {
    violations.push_back("per-stream processed counts differ");
    if (wrong == 0) wrong = 1;
  }
  outcome.reference_results = golden.TotalResults();
  outcome.got_results = result.TotalResults();
  outcome.wrong_results = wrong;
  outcome.tuples = result.tuples_generated;
  outcome.runtime_results = result.runtime_results;
  outcome.cleanup_results = result.cleanup.result_count;
  for (const std::string& v : violations) {
    outcome.detail += (outcome.detail.empty() ? "" : "; ") + v;
  }
  return outcome;
}

}  // namespace perfbench
