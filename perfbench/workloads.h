// The benchmark's three workloads over one generated history (a Dataset 2
// analogue: 60k growth events plus 30k add/delete churn, seeded from the
// command line):
//
//   cold-reads      one analyst, snapshot / node-history / 2-hop
//                   neighborhood reads with both cache tiers at 1 MiB, so
//                   nearly every read pays fetch, checksum and decode;
//   warm-analytics  one analyst over a fixed, pre-warmed working set (16
//                   timepoints, a Zipf-skewed 64-node set) plus TAF jobs;
//   live-append     one writer appending the second half of the history
//                   batch by batch while two readers keep reading the
//                   first half.
//
// Loops are closed (each client waits for its answer) and the cluster's
// simulated latency model is off: the regime is CPU-only. See README.md.

#ifndef HGS_PERFBENCH_WORKLOADS_H_
#define HGS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace hgs::perfbench {

struct BenchConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test input size (a few thousand events instead of 90k).
  bool tiny = false;
  /// Self-test: one expected answer is deliberately wrong.
  bool sabotage_oracle = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample counts behind a percentile, etc.
};

struct BenchResult {
  uint64_t attempted = 0;  ///< timed operations plus answer checks
  uint64_t failed = 0;     ///< non-ok statuses plus wrong answers
  std::vector<Metric> metrics;
};

/// Runs one workload end to end: inputs, set-up, warm-up, the timed loop,
/// answer checks, metrics. An unknown workload name is InvalidArgument; a
/// failed set-up is returned as its Status.
Result<BenchResult> RunWorkload(const BenchConfig& cfg);

}  // namespace hgs::perfbench

#endif  // HGS_PERFBENCH_WORKLOADS_H_
