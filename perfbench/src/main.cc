// dcape_perfbench — one repetition of a benchmark workload, as JSON.
//
//   dcape_perfbench --workload=sim-window --seed=7 --mode=timed
//   dcape_perfbench --workload=sim-adapt --seed=7 --mode=check
//   dcape_perfbench --workload=rt-freerun --seed=7 --mode=trace
//       --trace-out=trace.json
//
// `timed` measures set-up and time-to-answer with no result retention
// and nothing else in the process. `check` compares the workload's
// output with a reference. `trace` runs the workload once under phase
// spans and then replays its input through each layer (replay.h). The
// orchestrator (run.py) starts one process per repetition, so the peak
// resident set of one run is not mixed with another's.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "check.h"
#include "json.h"
#include "replay.h"
#include "runs.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

#ifdef __clang__
constexpr char kCompiler[] = "clang " __clang_version__;
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif

/// Constructions per repetition; set-up is reported as their median.
constexpr int kSetupRepeats = 15;

/// End-to-end figures of one repetition. `answer_s` runs from the first
/// generated tuple to the complete answer: run-time phase, drain and
/// cleanup.
JsonObject Timed(const Workload& workload,
                 const dcape::ExperimentOptions& options) {
  JsonObject out;
  if (workload.realtime()) {
    const RtRun run = RunRealtime(options, kSetupRepeats, nullptr);
    out.Bool("ok", true)
        .Num("setup_s", run.setup_s)
        .Num("answer_s", run.answer_s)
        .Int("tuples", run.result.tuples_generated)
        .Int("runtime_results", run.result.runtime_results)
        .Int("cleanup_results", run.result.cleanup.result_count)
        .Num("peak_rss_mib", PeakRssMib());
    return out;
  }
  const SimRun run = RunSimulator(options.cluster, kSetupRepeats, nullptr);
  out.Bool("ok", run.cleanup_status.ok())
      .Num("setup_s", run.setup_s)
      .Num("answer_s", run.answer_s)
      .Int("tuples", run.result.tuples_generated)
      .Int("runtime_results", run.result.runtime_results)
      .Int("cleanup_results", run.result.cleanup.result_count)
      .Num("peak_rss_mib", PeakRssMib());
  if (!run.cleanup_status.ok()) {
    out.Str("error", run.cleanup_status.ToString());
  }
  return out;
}

JsonObject Check(const Workload& workload,
                 const dcape::ExperimentOptions& options) {
  const CheckOutcome outcome = workload.realtime() ? CheckRealtime(options)
                                                   : CheckSimulator(options);
  JsonObject out;
  out.Bool("ok", outcome.wrong_results == 0)
      .Int("reference_results", outcome.reference_results)
      .Int("got_results", outcome.got_results)
      .Int("wrong_results", outcome.wrong_results)
      .Num("wrong_result_frac", outcome.WrongFrac())
      .Int("tuples", outcome.tuples)
      .Int("runtime_results", outcome.runtime_results)
      .Int("cleanup_results", outcome.cleanup_results)
      .Str("detail", outcome.detail);
  return out;
}

std::optional<std::string> FlagValue(const std::string& arg,
                                      const std::string& key) {
  const std::string prefix = "--" + key + "=";
  if (arg.rfind(prefix, 0) != 0) return std::nullopt;
  return arg.substr(prefix.size());
}

int Main(const std::vector<std::string>& args) {
  std::string workload_name;
  std::string mode = "timed";
  std::string trace_out;
  uint64_t seed = 0;
  double scale = 1.0;
  bool have_seed = false;
  for (const std::string& arg : args) {
    if (auto v = FlagValue(arg, "workload")) {
      workload_name = *v;
    } else if (auto v = FlagValue(arg, "mode")) {
      mode = *v;
    } else if (auto v = FlagValue(arg, "seed")) {
      char* end = nullptr;
      seed = std::strtoull(v->c_str(), &end, 10);
      have_seed = !v->empty() && *end == '\0';
    } else if (auto v = FlagValue(arg, "scale")) {
      char* end = nullptr;
      scale = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0') scale = 0;
    } else if (auto v = FlagValue(arg, "trace-out")) {
      trace_out = *v;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr || !have_seed || scale <= 0 ||
      (mode != "timed" && mode != "check" && mode != "trace")) {
    std::cerr << "usage: dcape_perfbench --workload=NAME --seed=N "
                 "[--mode=timed|check|trace] [--scale=F] [--trace-out=PATH]\n";
    return 2;
  }
  dcape::StatusOr<dcape::ExperimentOptions> options =
      MakeOptions(*workload, seed, scale);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 2;
  }
  JsonObject out;
  if (mode == "timed") {
    out = Timed(*workload, *options);
  } else if (mode == "check") {
    out = Check(*workload, *options);
  } else {
    out = Trace(*workload, *options, trace_out);
  }
  out.Str("workload", workload->name)
      .Bool("realtime", workload->realtime())
      .Int("seed", static_cast<int64_t>(seed))
      .Str("compiler", kCompiler)
      .Str("build_type", DCAPE_PERFBENCH_BUILD_TYPE);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(std::vector<std::string>(argv + 1, argv + argc));
}
