#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/experiment_flags.h"

namespace dcape {
namespace {

/// Pins the simulator's observable output to fixed digests: the verbose
/// Chrome trace (every delivered batch, span and counter sample, stamped
/// with its virtual tick) and the run summary of three short `dcape_run`
/// configurations. Any change to delivery order, routing, state handling
/// or accounting moves at least one digest, so a refactor meant to keep
/// behaviour must leave all six unchanged.
///
/// Regenerating after an intended behaviour change: build, run
/// `./build/tests/golden_trace_test`, and copy the `actual` digests the
/// failures print into kGolden below. Say in the commit why they moved.

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

struct GoldenRun {
  const char* name;
  std::vector<std::string> flags;
  uint64_t trace_digest;
  uint64_t summary_digest;
};

const GoldenRun kGolden[] = {
    {"windowed lazy-disk, 4 engines (spills and a relocation)",
     {"--strategy=lazy-disk", "--engines=4", "--duration-min=1",
      "--window-sec=20", "--threshold-kib=1024",
      "--placement=0.55,0.15,0.15,0.15", "--theta=0.5", "--tau-sec=5",
      "--inter-arrival-ms=3", "--seed=11"},
     0x49140ff27d68b5f7ULL,
     0x5b772284f9e06748ULL},
    {"active-disk --fluctuation, 2 split hosts",
     {"--strategy=active-disk", "--engines=3", "--split-hosts=2",
      "--duration-min=1", "--fluctuation", "--phase-min=1",
      "--threshold-kib=256", "--tau-sec=5", "--inter-arrival-ms=3",
      "--seed=5"},
     0xf6bc98de853561c1ULL,
     0x9fa6c0dd6ee9ba35ULL},
    {"windowed spill-only, 3 split hosts (spills eviction generations)",
     {"--strategy=spill-only", "--engines=2", "--split-hosts=3",
      "--duration-min=1", "--window-sec=20", "--threshold-kib=192",
      "--inter-arrival-ms=3", "--seed=3"},
     0xe6bb42b43eb3342aULL,
     0x66d878b4bdb783ebULL},
};

TEST(GoldenTraceTest, TraceAndSummaryMatchRecordedDigests) {
  for (const GoldenRun& golden : kGolden) {
    SCOPED_TRACE(golden.name);
    std::vector<std::string> flags = golden.flags;
    flags.push_back("--trace");
    flags.push_back("--trace-verbose");
    StatusOr<ExperimentOptions> options = ParseExperimentFlags(flags);
    ASSERT_TRUE(options.ok()) << options.status();

    Cluster cluster(options->cluster);
    const RunResult result = cluster.Run();
    ASSERT_GT(result.spill_events, 0) << "the run must exercise spilling";

    std::ostringstream summary;
    result.PrintSummary(summary);
    summary << "network: " << result.network.messages_sent << " messages, "
            << result.network.bytes_sent << " bytes, "
            << result.network.state_transfer_bytes
            << " state-transfer bytes\n";
    EXPECT_EQ(Hex(Fnv1a(cluster.tracer()->ToChromeJson())),
              Hex(golden.trace_digest))
        << "trace digest moved (actual on the left)";
    EXPECT_EQ(Hex(Fnv1a(summary.str())), Hex(golden.summary_digest))
        << "summary digest moved (actual on the left):\n"
        << summary.str();
  }
}

}  // namespace
}  // namespace dcape
