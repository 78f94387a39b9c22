#ifndef DCAPE_PERFBENCH_REPLAY_H_
#define DCAPE_PERFBENCH_REPLAY_H_

#include <string>

#include "json.h"
#include "runtime/experiment_flags.h"
#include "workloads.h"

namespace perfbench {

/// The traced run: the real run under phase spans, then a layer replay
/// of the same input, then the counts from RunResult and MetricsRegistry.
/// Returns the per-layer metrics; writes the spans to `trace_out` when
/// it is non-empty.
JsonObject Trace(const Workload& workload,
                 const dcape::ExperimentOptions& options,
                 const std::string& trace_out);

}  // namespace perfbench

#endif  // DCAPE_PERFBENCH_REPLAY_H_
