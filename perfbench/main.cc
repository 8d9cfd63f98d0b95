// hgs_perfbench: runs one benchmark workload and prints its metrics.
//
//   hgs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--sabotage-oracle]
//
// Output (stdout): comment lines starting with '#', one line per metric,
//   metric <name> <value> <unit> [note]
// and a last line
//   result correct=<0|1> attempted=<n> failed=<n>
// The exit code is 0 only when every operation succeeded and every answer
// check matched. run.py turns this into the benchmark's JSON result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: hgs_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--sabotage-oracle]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hgs::perfbench::BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (flag == "--sabotage-oracle") {
      cfg.sabotage_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.workload.empty() || cfg.seconds <= 0) {
    return Usage("--workload and a positive --seconds are required");
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d%s%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? " tiny" : "",
              cfg.sabotage_oracle ? " sabotage-oracle" : "");
  auto result = hgs::perfbench::RunWorkload(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const auto& m : result->metrics) {
    std::printf("metric %s %.9g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : " ", m.note.c_str());
  }
  bool correct = result->failed == 0;
  std::printf("result correct=%d attempted=%llu failed=%llu\n", correct ? 1 : 0,
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed));
  return correct ? 0 : 1;
}
