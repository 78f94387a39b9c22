#ifndef DCAPE_PERFBENCH_WORKLOADS_H_
#define DCAPE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/experiment_flags.h"

namespace perfbench {

/// One benchmark workload: a `dcape_run` command line plus the length of
/// one repetition. WORKLOADS.md records why each one exists.
struct Workload {
  std::string name;
  /// Flags handed to ParseExperimentFlags (the seed is appended).
  std::vector<std::string> flags;
  /// Simulator: virtual length of the run-time phase of one repetition.
  /// The realtime workload's length is its --duration-sec flag.
  dcape::Tick run_ticks = 0;
  bool realtime() const;
};

/// The workload called `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// Every workload name, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Parses the workload's flags with `seed`, then applies the benchmark's
/// fixed settings: the repetition length scaled by `scale`, and no result
/// retention (the timed path never collects results).
[[nodiscard]] dcape::StatusOr<dcape::ExperimentOptions> MakeOptions(
    const Workload& workload, uint64_t seed, double scale);

}  // namespace perfbench

#endif  // DCAPE_PERFBENCH_WORKLOADS_H_
