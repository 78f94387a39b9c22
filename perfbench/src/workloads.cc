#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// Flag lists use dcape_run's spelling, so `dcape_run <flags> --seed=N`
// runs the same configuration (for a whole number of minutes; the
// repetition length here is set in ticks).
const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"sim-window",
       {"--strategy=lazy-disk", "--engines=4", "--window-sec=30",
        "--inter-arrival-ms=2", "--threads=1", "--quiet"},
       dcape::SecondsToTicks(90)},
      {"sim-adapt",
       {"--strategy=active-disk", "--engines=3", "--fluctuation",
        "--phase-min=1", "--threshold-kib=2048", "--inter-arrival-ms=2",
        "--threads=1", "--quiet"},
       dcape::SecondsToTicks(150)},
      {"rt-freerun",
       {"--realtime", "--strategy=all-mem", "--engines=1", "--split-hosts=1",
        "--join-rate=1", "--tuple-range=1000000", "--inter-arrival-ms=1",
        "--duration-sec=1", "--quiet"},
       0},
  };
  return kWorkloads;
}

}  // namespace

bool Workload::realtime() const {
  return std::find(flags.begin(), flags.end(), "--realtime") != flags.end();
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

dcape::StatusOr<dcape::ExperimentOptions> MakeOptions(const Workload& workload,
                                                      uint64_t seed,
                                                      double scale) {
  std::vector<std::string> flags = workload.flags;
  flags.push_back("--seed=" + std::to_string(seed));
  DCAPE_ASSIGN_OR_RETURN(dcape::ExperimentOptions options,
                         dcape::ParseExperimentFlags(flags));
  if (!workload.realtime()) {
    options.cluster.run_duration = std::max<dcape::Tick>(
        1, static_cast<dcape::Tick>(
               std::llround(static_cast<double>(workload.run_ticks) * scale)));
  }
  options.cluster.collect_results = false;
  options.cluster.cleanup.collect_results = false;
  return options;
}

}  // namespace perfbench
