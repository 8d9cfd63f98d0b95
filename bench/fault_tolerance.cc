// Fault-tolerance curves for the replicated kvstore (ROADMAP item 4):
//
//   Phase A — tail latency vs hedging. One of four nodes is degraded (a
//   uniformly slow disk plus p99 GC-pause spikes, injected via the scripted
//   fault profiles). The same random point-read workload runs with hedged
//   reads off and on; hedging should leave p50 alone and collapse the p99 /
//   p999 tail to roughly the hedge delay, because the slow replica's answer
//   is raced against the healthy one.
//
//   Phase B — recovery time vs replication factor. For r in {1,2,3}: load a
//   base set, kill a node, write a live delta (quorum-surviving writes hint
//   the dead replica), rejoin, then time hint replay and a full anti-entropy
//   repair. After recovery the rejoined node must be byte-identical to its
//   twin in a never-faulted cluster — the bench aborts if not.
//
// `--json=<path>` adds machine-readable rows for CI trending.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace hgs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double PercentileMs(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ms.size()));
  if (idx >= sorted_ms.size()) idx = sorted_ms.size() - 1;
  return sorted_ms[idx];
}

// Keys and values are built by appending: `"k" + std::to_string(i)` trips
// GCC 12's -Wrestrict false positive (GCC bug 105329).
std::string RowKey(uint64_t i) {
  return std::string("k").append(std::to_string(i));
}

std::string RowValue(uint64_t i) {
  std::string v;
  v.reserve(256);
  while (v.size() < 256) {
    v.append("v").append(std::to_string(i * 2654435761u)).append("|");
  }
  v.resize(256);
  return v;
}

std::vector<PutRow> MakeRows(uint64_t begin, uint64_t count,
                             uint64_t partitions) {
  std::vector<PutRow> rows;
  rows.reserve(count);
  for (uint64_t i = begin; i < begin + count; ++i) {
    rows.push_back({i % partitions, RowKey(i), RowValue(i)});
  }
  return rows;
}

// -- Phase A: hedged reads vs a degraded replica ----------------------------

struct TailOutcome {
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
};

TailOutcome RunTail(bool hedge, uint64_t keys, uint64_t reads,
                    uint64_t partitions) {
  ClusterOptions opts = MakeClusterOptions(4, 2);
  if (hedge) opts.hedge_after_micros = 3'000;
  Cluster cluster(opts);

  if (!cluster.MultiPut("tail", MakeRows(0, keys, partitions)).ok()) {
    std::abort();
  }

  // Node 0 degrades after the load: an 8ms-slow disk with 40ms stalls on
  // 5% of requests — the tail profile hedged reads exist for.
  FaultProfile slow;
  slow.added_latency_micros = 8'000;
  slow.spike_prob = 0.05;
  slow.spike_latency_micros = 40'000;
  cluster.SetFaultProfile(0, slow);

  Rng rng(hedge ? 71 : 17);
  std::vector<double> lat_ms;
  lat_ms.reserve(reads);
  for (uint64_t q = 0; q < reads; ++q) {
    uint64_t i = rng.Uniform(keys);
    auto t0 = Clock::now();
    auto got = cluster.Get("tail", i % partitions, RowKey(i));
    if (!got.ok()) std::abort();
    lat_ms.push_back(MsSince(t0));
  }
  std::sort(lat_ms.begin(), lat_ms.end());

  TailOutcome out;
  out.p50_ms = PercentileMs(lat_ms, 0.50);
  out.p99_ms = PercentileMs(lat_ms, 0.99);
  out.p999_ms = PercentileMs(lat_ms, 0.999);
  out.hedges = cluster.resilience().hedges.load();
  out.hedge_wins = cluster.resilience().hedge_wins.load();
  return out;
}

// -- Phase B: recovery time vs replication factor ---------------------------

void RunRecovery(size_t r, uint64_t base, uint64_t delta,
                 uint64_t partitions) {
  const size_t kNodes = 4;
  const size_t victim = 1;
  ClusterOptions opts = MakeClusterOptions(kNodes, r);
  opts.write_ack = WriteAck::kOne;  // keep committing with the victim dead
  Cluster cluster(opts);
  Cluster twin(opts);

  if (!cluster.MultiPut("rec", MakeRows(0, base, partitions)).ok() ||
      !twin.MultiPut("rec", MakeRows(0, base, partitions)).ok()) {
    std::abort();
  }

  cluster.SetNodeDown(victim, true);
  // The live delta: rows whose only replica is the victim (possible at
  // r=1) fail loudly and are hinted; everything else commits and hints
  // the victim's missed copy.
  Status delta_status =
      cluster.MultiPut("rec", MakeRows(base, delta, partitions));
  if (!twin.MultiPut("rec", MakeRows(base, delta, partitions)).ok()) {
    std::abort();
  }

  const size_t hints = cluster.PendingHints(victim);
  cluster.SetNodeDown(victim, false);

  auto t0 = Clock::now();
  if (!cluster.ReplayHints(victim).ok()) std::abort();
  double replay_ms = MsSince(t0);

  t0 = Clock::now();
  if (!cluster.RepairNode(victim).ok()) std::abort();
  double repair_ms = MsSince(t0);

  for (size_t n = 0; n < kNodes; ++n) {
    if (cluster.NodeContentFingerprint(n) != twin.NodeContentFingerprint(n)) {
      std::fprintf(stderr, "r=%zu: node %zu diverged from twin\n", r, n);
      std::abort();
    }
  }

  std::printf("r=%zu hints=%zu replay_ms=%.1f repair_ms=%.1f "
              "delta_write=%s failed_rows=%" PRIu64 "\n",
              r, hints, replay_ms, repair_ms,
              delta_status.ok() ? "ok" : "degraded",
              cluster.resilience().failed_writes.load());
  std::string suffix = "_r" + std::to_string(r);
  JsonRow("fault_tolerance", "hints" + suffix, static_cast<double>(hints),
          "rows");
  JsonRow("fault_tolerance", "replay_ms" + suffix, replay_ms, "ms");
  JsonRow("fault_tolerance", "repair_ms" + suffix, repair_ms, "ms");
}

int Main(int argc, char** argv) {
  InitBenchTelemetry(&argc, argv);
  PrintPreamble("fault_tolerance",
                "hedging trims read p99/p999 to ~hedge delay under a slow "
                "replica; recovery time grows with replication factor");

  const uint64_t partitions = 64;
  const uint64_t keys = std::max<uint64_t>(Scaled(4'000), 256);
  const uint64_t reads = std::max<uint64_t>(Scaled(3'000), 400);

  std::printf("# phase A: m=4 r=2, node 0 slow (+8ms, 5%% 40ms spikes), "
              "%" PRIu64 " keys, %" PRIu64 " reads\n", keys, reads);
  for (bool hedge : {false, true}) {
    TailOutcome o = RunTail(hedge, keys, reads, partitions);
    const char* mode = hedge ? "hedge_on" : "hedge_off";
    std::printf("%s: p50=%.2fms p99=%.2fms p999=%.2fms hedges=%" PRIu64
                " hedge_wins=%" PRIu64 "\n",
                mode, o.p50_ms, o.p99_ms, o.p999_ms, o.hedges, o.hedge_wins);
    std::string suffix = std::string("_") + mode;
    JsonRow("fault_tolerance", "read_p50_ms" + suffix, o.p50_ms, "ms");
    JsonRow("fault_tolerance", "read_p99_ms" + suffix, o.p99_ms, "ms");
    JsonRow("fault_tolerance", "read_p999_ms" + suffix, o.p999_ms, "ms");
    JsonRow("fault_tolerance", "hedges" + suffix,
            static_cast<double>(o.hedges), "count");
    JsonRow("fault_tolerance", "hedge_wins" + suffix,
            static_cast<double>(o.hedge_wins), "count");
  }

  const uint64_t base = std::max<uint64_t>(Scaled(6'000), 512);
  const uint64_t delta = std::max<uint64_t>(Scaled(1'500), 128);
  std::printf("# phase B: m=4, kill node 1, %" PRIu64 " base + %" PRIu64
              " delta rows, rejoin, replay hints, full repair\n",
              base, delta);
  for (size_t r : {1, 2, 3}) {
    RunRecovery(r, base, delta, partitions);
  }
  return 0;
}

}  // namespace
}  // namespace hgs::bench

int main(int argc, char** argv) { return hgs::bench::Main(argc, argv); }
