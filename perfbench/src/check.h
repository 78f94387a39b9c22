#ifndef DCAPE_PERFBENCH_CHECK_H_
#define DCAPE_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/experiment_flags.h"
#include "tuple/tuple.h"

namespace perfbench {

/// Order-independent digest of a result multiset: the count plus, per
/// hash bucket, the count and the wrapping sum of result hashes. Two
/// multisets with equal digests are equal up to a 64-bit hash collision
/// inside one bucket.
class ResultDigest {
 public:
  ResultDigest();
  void Add(const dcape::JoinResult& result);
  int64_t count() const { return count_; }

  /// Missing + extra results of `got` against `want`. Exact when the
  /// differences fall into distinct buckets; a bucket whose counts agree
  /// but whose sums differ counts as one missing and one extra result.
  static int64_t WrongCount(const ResultDigest& got, const ResultDigest& want);

 private:
  static constexpr size_t kBuckets = 4096;
  int64_t count_ = 0;
  std::vector<int64_t> bucket_count_;
  std::vector<uint64_t> bucket_sum_;
};

/// Outcome of one workload's output check.
struct CheckOutcome {
  int64_t reference_results = 0;
  int64_t got_results = 0;
  /// Missing + extra results; a run that fails with a non-OK Status
  /// counts every reference result as wrong.
  int64_t wrong_results = 0;
  /// Counts of the checked run, for comparison with the timed runs.
  int64_t tuples = 0;
  int64_t runtime_results = 0;
  int64_t cleanup_results = 0;
  std::string detail;
  double WrongFrac() const {
    return reference_results > 0
               ? static_cast<double>(wrong_results) /
                     static_cast<double>(reference_results)
               : (wrong_results > 0 ? 1.0 : 0.0);
  }
};

/// Runs the simulator workload once with its results streamed into a
/// digest (runtime results retained by the sink, cleanup results through
/// CleanupConfig::result_sink), and compares it with the all-memory
/// reference join of the same generated input.
CheckOutcome CheckSimulator(dcape::ExperimentOptions options);

/// Runs the realtime workload once with result retention on, then
/// replays its `ticks_run` ticks on the simulator without adaptation and
/// compares the output multisets and per-stream accounting
/// (sim/oracle.h), as `dcape_run --realtime --check-oracle` does.
CheckOutcome CheckRealtime(dcape::ExperimentOptions options);

}  // namespace perfbench

#endif  // DCAPE_PERFBENCH_CHECK_H_
