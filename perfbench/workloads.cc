#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "taf/context.h"
#include "tgi/tgi.h"
#include "trace.h"
#include "workload/generators.h"

namespace hgs::perfbench {
namespace {

// -- Inputs -------------------------------------------------------------------

constexpr uint64_t kGrowthEvents = 60'000;  // Dataset 1 analogue
constexpr uint64_t kChurnEvents = 30'000;   // plus ~50% churn = Dataset 2
constexpr double kTinyScale = 0.03;
constexpr int kSetupRepeats = 3;
constexpr size_t kFetchParallelism = 1;  // the library's default
constexpr size_t kTafWorkers = 1;
constexpr size_t kColdNodeSample = 2'000;
constexpr size_t kWarmTimes = 16;
constexpr size_t kWarmNodes = 64;
constexpr size_t kTafJobs = 4;
constexpr size_t kTafSeeds = 8;
constexpr size_t kTafMaxSeedDegree = 32;
constexpr size_t kAppendBatches = 32;
constexpr size_t kLiveReaders = 2;
constexpr int kHops = 2;
/// Host probe: a fixed kernel timed in the load thread between rounds (see
/// ProbeMs), and the probe times the end-to-end timings are scaled to (see
/// Settle): roughly the probe's calm-host time in each kind of load thread
/// on the VM this benchmark was tuned on. The analyst is the main thread,
/// whose malloc arena also served the index builds; the live-append
/// readers allocate from fresh per-thread arenas, where the probe runs
/// about four times faster.
constexpr int kProbeInserts = 20'000;
constexpr double kAnalystReferenceProbeMs = 5.0;
constexpr double kReaderReferenceProbeMs = 1.3;

/// Independent sub-seed `stream` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + stream);
  return rng.Next();
}

struct History {
  std::vector<Event> events;
  Timestamp start = 0;  ///< first event time
  Timestamp end = 0;    ///< last event time
  /// Arrival time of every node (the generators never remove nodes, so a
  /// node is live from here on).
  std::unordered_map<NodeId, Timestamp> born;
};

History MakeHistory(const BenchConfig& cfg) {
  double scale = cfg.tiny ? kTinyScale : 1.0;
  auto n = [scale](uint64_t base) {
    return static_cast<uint64_t>(static_cast<double>(base) * scale);
  };
  History h;
  h.events = workload::AugmentWithChurn(
      workload::GenerateWikiGrowth(
          {.num_events = n(kGrowthEvents), .seed = SubSeed(cfg.seed, 1)}),
      {.num_events = n(kChurnEvents), .seed = SubSeed(cfg.seed, 2)});
  h.start = h.events.front().time;
  h.end = h.events.back().time;
  for (const Event& e : h.events) {
    if (e.type == EventType::kAddNode) h.born.try_emplace(e.u, e.time);
  }
  return h;
}

/// Ids of the nodes live at `t`, ascending.
std::vector<NodeId> NodesBornBy(const History& h, Timestamp t) {
  std::vector<NodeId> out;
  for (const auto& [id, born] : h.born) {
    if (born <= t) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// `n` distinct ids drawn uniformly from `pool` (all of it, shuffled, when
/// it is smaller), in draw order.
std::vector<NodeId> SampleDistinct(std::vector<NodeId> pool, size_t n,
                                   Rng* rng) {
  n = std::min(n, pool.size());
  for (size_t i = 0; i < n; ++i) {
    std::swap(pool[i], pool[i + rng->Uniform(pool.size() - i)]);
  }
  pool.resize(n);
  return pool;
}

/// Golden-ratio additive recurrence in [0, 1): uniform like independent
/// draws, but every prefix covers the range evenly, so the percentiles of
/// a cost that grows over the history stay put from run to run.
class Golden {
 public:
  /// Step of a second sequence that stays uncorrelated with the default
  /// one when both pick coordinates of the same query (sqrt(2) - 1).
  static constexpr double kSilverStep = 0.41421356237309515;

  explicit Golden(double start, double step = 0.6180339887498949)
      : u_(start), step_(step) {}
  double Next() {
    u_ += step_;
    u_ -= std::floor(u_);
    return u_;
  }

 private:
  double u_;
  double step_;
};

/// The timestamp a fraction `u` of the way from `lo` to `hi`.
Timestamp Lerp(Timestamp lo, Timestamp hi, double u) {
  auto t = lo + static_cast<Timestamp>(u * static_cast<double>(hi - lo));
  return std::clamp(t, lo, hi);
}

// -- The system under test ----------------------------------------------------

/// Columnar codecs on all three row families and 10k-event timespans; the
/// cache budgets are the library defaults unless a workload overrides them.
TGIOptions IndexOptions(const BenchConfig& cfg) {
  TGIOptions o;
  o.events_per_timespan = cfg.tiny ? 1'000 : 10'000;
  o.row_compression = CompressionKind::kColumnar;
  o.eventlist_compression = CompressionKind::kColumnar;
  o.versions_compression = CompressionKind::kColumnar;
  return o;
}

/// Four storage nodes, no replication, simulated latency off (CPU-only).
ClusterOptions ClusterOpts() {
  ClusterOptions c;
  c.num_nodes = 4;
  c.replication = 1;
  c.server_threads_per_node = 4;
  c.latency.enabled = false;
  return c;
}

struct Index {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TGI> tgi;
  std::unique_ptr<TGIQueryManager> qm;
};

/// Builds an index over `events` on a fresh cluster and opens its query
/// manager. `*seconds` receives the wall time: the set-up a user waits for
/// before the first query.
Result<Index> BuildIndex(const std::vector<Event>& events,
                         const TGIOptions& opts, double* seconds) {
  int64_t t0 = NowNs();
  Index ix;
  ix.cluster = std::make_unique<Cluster>(ClusterOpts());
  ix.tgi = std::make_unique<TGI>(ix.cluster.get(), opts);
  HGS_RETURN_NOT_OK(ix.tgi->BuildFrom(events));
  HGS_ASSIGN_OR_RETURN(ix.qm, ix.tgi->OpenQueryManager(kFetchParallelism));
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return ix;
}

/// Builds the index kSetupRepeats times, keeping the last build.
Result<Index> SetUp(const std::vector<Event>& events, const TGIOptions& opts,
                    std::vector<double>* setup_seconds) {
  Index ix;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double s = 0;
    HGS_ASSIGN_OR_RETURN(Index built, BuildIndex(events, opts, &s));
    setup_seconds->push_back(s);
    ix = std::move(built);
  }
  return ix;
}

/// Library counters the per-layer metrics are diffed from.
struct LayerCounters {
  LruCacheCounters byte_tier;
  LruCacheCounters decoded_tier;
  uint64_t read_requests = 0;
  uint64_t bytes_read = 0;
  uint64_t rows_put = 0;
  uint64_t bytes_put = 0;
  uint64_t put_batches = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t refresh_entries = 0;  ///< cache entries retained + invalidated
};

LayerCounters ReadCounters(const Index& ix) {
  LayerCounters c;
  c.byte_tier = ix.qm->ReadCacheCounters();
  c.decoded_tier = ix.qm->DecodedCacheCounters();
  c.read_requests = ix.cluster->TotalReadRequests();
  c.bytes_read = ix.cluster->TotalBytesRead();
  c.rows_put = ix.cluster->TotalRowsPut();
  c.bytes_put = ix.cluster->TotalBytesPut();
  c.put_batches = ix.cluster->TotalPutBatches();
  c.retries = ix.cluster->resilience().retries.load();
  c.failovers = ix.cluster->resilience().failovers.load();
  c.refresh_entries =
      ix.qm->CacheEntriesRetained() + ix.qm->CacheEntriesInvalidated();
  return c;
}

/// Adds the window (before, after] to `acc`; cache occupancy is taken at
/// the window's end.
void AddWindow(const LayerCounters& before, const LayerCounters& after,
               LayerCounters* acc) {
  auto tier = [](const LruCacheCounters& b, const LruCacheCounters& a,
                 LruCacheCounters* sum) {
    sum->hits += a.hits - b.hits;
    sum->misses += a.misses - b.misses;
    sum->evictions += a.evictions - b.evictions;
    sum->bytes_used = a.bytes_used;
  };
  tier(before.byte_tier, after.byte_tier, &acc->byte_tier);
  tier(before.decoded_tier, after.decoded_tier, &acc->decoded_tier);
  acc->read_requests += after.read_requests - before.read_requests;
  acc->bytes_read += after.bytes_read - before.bytes_read;
  acc->rows_put += after.rows_put - before.rows_put;
  acc->bytes_put += after.bytes_put - before.bytes_put;
  acc->put_batches += after.put_batches - before.put_batches;
  acc->retries += after.retries - before.retries;
  acc->failovers += after.failovers - before.failovers;
  acc->refresh_entries += after.refresh_entries - before.refresh_entries;
}

// -- Operations ---------------------------------------------------------------

enum OpKind : size_t {
  kSnapshot,
  kHistory,
  kNeighborhood,
  kTaf,
  kAppend,
  kProbe,
  kNumKinds
};
constexpr std::array<const char*, kNumKinds> kRootSpan = {
    "op.snapshot", "op.history", "op.neighborhood",
    "op.taf",      "op.append",  "op.refresh_probe"};

/// One load thread's record of its timed operations.
struct Recorder {
  std::array<std::vector<double>, kNumKinds> ms;         ///< untraced ops
  std::array<std::vector<double>, kNumKinds> traced_ms;  ///< traced ops
  FetchStats fetch;  ///< summed over every read
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t appended_events = 0;

  size_t Done(OpKind k) const { return ms[k].size() + traced_ms[k].size(); }
  size_t AnalystOps() const {
    return Done(kSnapshot) + Done(kHistory) + Done(kNeighborhood) + Done(kTaf);
  }

  void Merge(const Recorder& o) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      ms[k].insert(ms[k].end(), o.ms[k].begin(), o.ms[k].end());
      traced_ms[k].insert(traced_ms[k].end(), o.traced_ms[k].begin(),
                          o.traced_ms[k].end());
    }
    fetch.Merge(o.fetch);
    attempted += o.attempted;
    failed += o.failed;
    appended_events += o.appended_events;
  }
};

/// Runs `body(ctx, stats)` as one timed operation. `tracer` (null for an
/// untraced op) records a root span plus whatever `body` nests in it. A
/// non-ok Status counts as a failed operation, with no latency sample.
template <typename Body>
void TimedOp(Recorder* rec, OpKind kind, Tracer* tracer, uint64_t op_id,
             Body&& body) {
  FetchStats stats;
  Status s;
  int64_t t0 = NowNs();
  {
    ScopedSpan root(TraceCtx{tracer, op_id, -1}, kRootSpan[kind]);
    s = body(root.Child(), &stats);
  }
  double ms = static_cast<double>(NowNs() - t0) / 1e6;
  ++rec->attempted;
  rec->fetch.Merge(stats);
  if (!s.ok()) {
    if (rec->failed++ == 0) {
      std::fprintf(stderr, "%s failed: %s\n", kRootSpan[kind],
                   s.ToString().c_str());
    }
    return;
  }
  (tracer != nullptr ? rec->traced_ms : rec->ms)[kind].push_back(ms);
}

/// GetSnapshot, as the library composes it: GetSnapshotDelta then
/// Delta::ToGraph, each in its own span.
Status SnapshotOp(TGIQueryManager* qm, Timestamp t, const TraceCtx& ctx,
                  FetchStats* stats, Graph* out = nullptr) {
  Delta d;
  {
    ScopedSpan span(ctx, "tgi.query.snapshot_delta");
    HGS_ASSIGN_OR_RETURN(d, qm->GetSnapshotDelta(t, stats));
  }
  ScopedSpan span(ctx, "delta.to_graph");
  Graph g = d.ToGraph();
  if (out != nullptr) *out = std::move(g);
  return Status::OK();
}

Status HistoryOp(TGIQueryManager* qm, NodeId id, Timestamp from, Timestamp to,
                 const TraceCtx& ctx, FetchStats* stats,
                 NodeHistory* out = nullptr) {
  ScopedSpan span(ctx, "tgi.query.history");
  HGS_ASSIGN_OR_RETURN(NodeHistory h, qm->GetNodeHistory(id, from, to, stats));
  if (out != nullptr) *out = std::move(h);
  return Status::OK();
}

Status NeighborhoodOp(TGIQueryManager* qm, NodeId id, Timestamp t,
                      const TraceCtx& ctx, FetchStats* stats,
                      Graph* out = nullptr) {
  ScopedSpan span(ctx, "tgi.query.neighborhood");
  HGS_ASSIGN_OR_RETURN(Graph g, qm->GetKHopNeighborhood(id, t, kHops, stats));
  if (out != nullptr) *out = std::move(g);
  return Status::OK();
}

struct TafJob {
  std::vector<NodeId> seeds;
  Timestamp from = 0;
  Timestamp to = 0;
};

/// A TAF job: 1-hop subgraphs of the seeds over the window, then the
/// triangle count of every version of every subgraph.
Status TafOp(const taf::TAFContext& taf, const TafJob& job,
             const TraceCtx& ctx, FetchStats* stats) {
  taf::SoTS sots;
  {
    ScopedSpan span(ctx, "taf.fetch");
    HGS_ASSIGN_OR_RETURN(sots, taf.Subgraphs(1)
                                   .TimeRange(job.from, job.to)
                                   .WithSeeds(job.seeds)
                                   .Fetch(stats));
  }
  ScopedSpan span(ctx, "taf.compute");
  const TraceCtx inner = span.Child();
  auto series = sots.NodeComputeTemporal<uint64_t>([&inner](const Graph& g) {
    ScopedSpan algo_span(inner, "graph.algo");
    return algo::TriangleCount(g);
  });
  if (series.size() != job.seeds.size()) {
    return Status::FailedPrecondition("TAF job lost a subgraph");
  }
  return Status::OK();
}

Status AppendOp(TGI* tgi, const std::vector<Event>& batch,
                const TraceCtx& ctx) {
  ScopedSpan span(ctx, "tgi.builder.append");
  return tgi->AppendBatch(batch);
}

/// A cheap warm read issued right after a publish: its latency is the
/// refresh (metadata reload and cache sweep) the publish costs readers.
Status ProbeOp(TGIQueryManager* qm, NodeId id, Timestamp t,
               const TraceCtx& ctx, FetchStats* stats) {
  ScopedSpan span(ctx, "tgi.query.refresh_probe");
  return qm->GetNodeStateDelta(id, t, stats).status();
}

/// Tracing alternates by block in the traced run, so traced and untraced
/// ops have the same mix and their difference is the tracing overhead. A
/// block is a round, or a whole cycle of a round-robin schedule.
Tracer* TracerFor(const BenchConfig& cfg, Tracer* tracer, uint64_t block) {
  return cfg.trace && block % 2 == 1 ? tracer : nullptr;
}

/// Milliseconds a fixed allocation- and memory-bound kernel takes in the
/// calling thread: 20,000 inserts into a fresh std::unordered_map, the kind
/// of work delta replay and Delta::ToGraph do. On the 4-vCPU VM this
/// benchmark was tuned on, the same thread's time for it swung between
/// 4.5 and 12 ms within seconds, a pure-compute loop stayed within 4%,
/// neither steal time nor thread CPU time showed the swings, and the
/// latency of a warm snapshot run next to the probe moved with it
/// (correlation 0.88). A walk over a preallocated table did not track the
/// ops, so the probe allocates, as they do; it shares the thread's malloc
/// arena with the program, so a change to the program's heap use can move
/// it a little.
double ProbeMs() {
  static std::atomic<uint64_t> sink{0};
  int64_t t0 = NowNs();
  std::unordered_map<uint64_t, uint64_t> m;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kProbeInserts; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    m[x >> 40] += static_cast<uint64_t>(i);
  }
  sink.fetch_add(m.size(), std::memory_order_relaxed);
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// One round of a closed loop, with the geometric mean of the host probes
/// run in the same thread just before and just after it.
struct Round {
  Recorder rec;
  double seconds = 0;  ///< the round's ops, probes excluded
  double probe_ms = 0;
};

/// The closed loop of one client: runs `round_ops(round, tracer, rec)`,
/// probing the host between rounds, until `stop()`. Tracing alternates in
/// blocks of `block` rounds.
template <typename StopFn, typename RoundFn>
void RunRounds(const BenchConfig& cfg, Tracer* tracer, uint64_t block,
               StopFn&& stop, RoundFn&& round_ops, std::vector<Round>* out) {
  double before = ProbeMs();
  for (uint64_t round = 0; !stop(); ++round) {
    Round r;
    int64_t t0 = NowNs();
    round_ops(round, TracerFor(cfg, tracer, round / block), &r.rec);
    r.seconds = static_cast<double>(NowNs() - t0) / 1e9;
    double after = ProbeMs();
    r.probe_ms = std::sqrt(before * after);
    before = after;
    out->push_back(std::move(r));
  }
}

/// The closed loop of one analyst for cfg.seconds; returns the elapsed
/// seconds.
template <typename RoundFn>
double TimedRounds(const BenchConfig& cfg, Tracer* tracer, uint64_t block,
                   RoundFn&& round_ops, std::vector<Round>* out) {
  int64_t t0 = NowNs();
  auto elapsed = [t0] { return static_cast<double>(NowNs() - t0) / 1e9; };
  RunRounds(cfg, tracer, block, [&] { return elapsed() >= cfg.seconds; },
            round_ops, out);
  return elapsed();
}

// -- Answer checks ------------------------------------------------------------

/// Reference answers computed from the event log alone.
class Oracle {
 public:
  Oracle(const std::vector<Event>* events, bool sabotage)
      : events_(events), sabotage_(sabotage) {}

  /// Replay of the log up to t (cached per t).
  const Graph& GraphAt(Timestamp t) {
    auto it = replays_.find(t);
    if (it == replays_.end()) {
      it = replays_.emplace(t, workload::ReplayToGraph(*events_, t)).first;
    }
    return it->second;
  }

  /// The snapshot expected at t. With sabotage on, the first one asked for
  /// carries a node that never existed.
  Graph ExpectedSnapshot(Timestamp t) {
    Graph g = GraphAt(t);
    if (sabotage_) {
      sabotage_ = false;
      g.AddNode(kInvalidNodeId - 1);
    }
    return g;
  }

  /// Events touching `id` in (from, to]: a filter of the log.
  std::vector<Event> HistoryOf(NodeId id, Timestamp from, Timestamp to) const {
    std::vector<Event> out;
    for (const Event& e : *events_) {
      if (e.time > from && e.time <= to && e.Touches(id)) out.push_back(e);
    }
    return out;
  }

 private:
  const std::vector<Event>* events_;
  bool sabotage_;
  std::map<Timestamp, Graph> replays_;
};

void Check(BenchResult* r, bool ok, const char* what, uint64_t key) {
  ++r->attempted;
  if (ok) return;
  ++r->failed;
  std::fprintf(stderr, "answer check failed: %s (%llu)\n", what,
               static_cast<unsigned long long>(key));
}

/// Compares a seeded sample of snapshots, node histories over (from, to]
/// and 2-hop neighborhoods against the oracle. Runs outside the timed
/// region; `nodes` must be live at every time in `times`.
void CheckAnswers(TGIQueryManager* qm, Oracle* oracle,
                  const std::vector<Timestamp>& times,
                  const std::vector<NodeId>& nodes, Timestamp from,
                  Timestamp to, BenchResult* r) {
  for (Timestamp t : times) {
    Graph got;
    Status s = SnapshotOp(qm, t, {}, nullptr, &got);
    Check(r, s.ok() && got == oracle->ExpectedSnapshot(t), "snapshot", t);
  }
  for (NodeId id : nodes) {
    NodeHistory got;
    Status s = HistoryOp(qm, id, from, to, {}, nullptr, &got);
    bool ok = s.ok() && got.events.events() == oracle->HistoryOf(id, from, to);
    if (ok) {
      const auto* rec = got.initial.FindNode(id);
      ok = (rec != nullptr && rec->has_value()) ==
           oracle->GraphAt(from).HasNode(id);
    }
    Check(r, ok, "node history", id);
  }
  for (size_t i = 0; i < times.size() && i < nodes.size(); ++i) {
    Graph got;
    Status s = NeighborhoodOp(qm, nodes[i], times[i], {}, nullptr, &got);
    bool ok = s.ok();
    if (ok) {
      auto want =
          algo::BfsDistances(oracle->GraphAt(times[i]), nodes[i], kHops);
      ok = got.NumNodes() == want.size();
      for (const auto& [id, d] : want) ok = ok && got.HasNode(id);
    }
    Check(r, ok, "2-hop neighborhood", nodes[i]);
  }
}

// -- Metrics ------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Adds `name` = the q-quantile (nearest rank) of `samples`. A tail
/// quantile is reported only when at least ten samples lie beyond it.
void AddQuantile(std::vector<Metric>* out, const char* name,
                 std::vector<double> samples, double q) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  size_t beyond = n - rank;
  char note[64];
  std::snprintf(note, sizeof(note), "n=%zu beyond=%zu", n, beyond);
  if (q > 0.5 && beyond < 10) {
    std::printf("# %s omitted: %s, fewer than 10 samples beyond it\n", name,
                note);
    return;
  }
  out->push_back({name, samples[rank - 1], "ms", note});
}

struct RunSummary {
  Recorder rec;  ///< every timed op (writer included), for counts and layers
  /// The rounds of each closed-loop client (one per analyst; one per
  /// reader and cycle in live-append), `clients` of them at a time.
  std::vector<std::vector<Round>> loops;
  size_t clients = 1;
  double reference_probe_ms = kAnalystReferenceProbeMs;
  /// The untraced latencies of the rounds' ops, and each round's reads
  /// per second, scaled to the reference host speed (see Settle).
  std::array<std::vector<double>, kNumKinds> scaled_ms;
  std::vector<double> scaled_reads_per_s;
  LayerCounters counters;  ///< summed over the timed windows
  std::vector<double> setup_seconds;
  double measured_seconds = 0;  ///< wall time of the timed windows
  /// Peak RSS by the end of the timed windows, before the answer checks
  /// allocate their replays.
  double peak_rss_mib = 0;
  uint64_t publishes = 0;
  uint64_t stored_bytes = 0;
  uint64_t indexed_events = 0;
};

/// The q-quantile (nearest rank) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Folds every round into run->rec, and into the host-scaled samples the
/// end-to-end latencies and throughput are taken from: a round's times are
/// multiplied by run->reference_probe_ms / (its probe time), i.e. expressed
/// in probe times and scaled back to milliseconds at a fixed probe speed.
/// Over two sets of ten 15 s runs per workload, the unscaled snapshot p50
/// medians of the second set were 23-44% above the first's, the scaled
/// ones 1-9%. The unscaled medians are printed as comments, and the
/// per-layer metrics stay unscaled.
void Settle(RunSummary* run) {
  std::vector<double> probes;
  for (const auto& loop : run->loops) {
    for (const Round& round : loop) {
      run->rec.Merge(round.rec);
      probes.push_back(round.probe_ms);
      double speed = run->reference_probe_ms / round.probe_ms;
      for (size_t k = 0; k < kNumKinds; ++k) {
        for (double ms : round.rec.ms[k]) {
          run->scaled_ms[k].push_back(ms * speed);
        }
      }
      // Reads per second of reading: a TAF job's time is its own metric,
      // and its four seed-drawn jobs would add their spread to this one.
      const Recorder& r = round.rec;
      double read_seconds = round.seconds;
      for (const auto* taf : {&r.ms[kTaf], &r.traced_ms[kTaf]}) {
        for (double ms : *taf) read_seconds -= ms / 1e3;
      }
      run->scaled_reads_per_s.push_back(
          static_cast<double>(r.Done(kSnapshot) + r.Done(kHistory) +
                              r.Done(kNeighborhood)) /
          (read_seconds * speed));
    }
  }
  std::printf("# host probe: %zu rounds, p10 %.3f ms, median %.3f ms, "
              "p90 %.3f ms (reference %.1f ms)\n",
              probes.size(), Quantile(probes, 0.1), Quantile(probes, 0.5),
              Quantile(probes, 0.9), run->reference_probe_ms);
}

void AddEndToEnd(const RunSummary& run, BenchResult* r) {
  const Recorder& rec = run.rec;
  const auto& ms = run.scaled_ms;
  auto& m = r->metrics;
  char note[32];
  std::snprintf(note, sizeof(note), "n=%zu", run.setup_seconds.size());
  m.push_back({"setup_s", Median(run.setup_seconds), "s", note});
  m.push_back({"reads_per_s",
               Median(run.scaled_reads_per_s) *
                   static_cast<double>(run.clients),
               "1/s", "median over rounds"});
  std::printf("# unscaled: %.3f reads/s over the whole window\n",
              static_cast<double>(rec.Done(kSnapshot) + rec.Done(kHistory) +
                                  rec.Done(kNeighborhood)) /
                  run.measured_seconds);
  for (OpKind k : {kSnapshot, kHistory, kNeighborhood, kTaf}) {
    if (rec.ms[k].empty()) continue;
    std::printf("# unscaled: %s p50 %.3f ms\n", kRootSpan[k],
                Median(rec.ms[k]));
  }
  AddQuantile(&m, "snapshot_p50_ms", ms[kSnapshot], 0.50);
  AddQuantile(&m, "snapshot_p90_ms", ms[kSnapshot], 0.90);
  AddQuantile(&m, "history_p50_ms", ms[kHistory], 0.50);
  AddQuantile(&m, "history_p99_ms", ms[kHistory], 0.99);
  AddQuantile(&m, "neighborhood_p50_ms", ms[kNeighborhood], 0.50);
  AddQuantile(&m, "neighborhood_p90_ms", ms[kNeighborhood], 0.90);
  AddQuantile(&m, "taf_p50_ms", ms[kTaf], 0.50);
  AddQuantile(&m, "taf_p90_ms", ms[kTaf], 0.90);
  if (rec.appended_events > 0) {
    m.push_back({"append_events_per_s",
                 static_cast<double>(rec.appended_events) /
                     run.measured_seconds,
                 "1/s", ""});
  }
  m.push_back({"stored_bytes_per_event",
               static_cast<double>(run.stored_bytes) /
                   static_cast<double>(run.indexed_events),
               "B", ""});
  m.push_back({"peak_rss_mib", run.peak_rss_mib, "MiB", ""});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddPerLayer(const RunSummary& run, const std::vector<Span>& spans,
                 BenchResult* r) {
  const Recorder& rec = run.rec;
  const LayerCounters& c = run.counters;
  auto summary = Summarize(spans);
  auto mean_ms = [&summary](const char* name) {
    auto it = summary.find(name);
    return it == summary.end()
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  auto find = [&summary](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() ? SpanSummary{} : it->second;
  };
  double ops = static_cast<double>(rec.AnalystOps());
  double appends = static_cast<double>(rec.Done(kAppend));
  double appended = static_cast<double>(rec.appended_events);
  const FetchStats& f = rec.fetch;
  auto hit_rate = [](const LruCacheCounters& t) {
    return Ratio(static_cast<double>(t.hits),
                 static_cast<double>(t.hits + t.misses));
  };
  SpanSummary compute = find("taf.compute");
  std::vector<Metric> layer = {
      {"common.codec.decodes_per_op", Ratio(f.decodes, ops), "count", ""},
      {"common.codec.decoded_bytes_per_op", Ratio(f.decoded_bytes, ops), "B",
       ""},
      {"common.codec.value_copies_per_op", Ratio(f.value_copies, ops), "count",
       ""},
      {"kvstore.read_requests_per_op", Ratio(c.read_requests, ops), "count",
       ""},
      {"kvstore.bytes_read_per_op", Ratio(c.bytes_read, ops), "B", ""},
      {"tgi.query.round_trips_per_op", Ratio(f.kv_batches, ops), "count", ""},
      {"common.cache.evictions",
       static_cast<double>(c.byte_tier.evictions + c.decoded_tier.evictions),
       "count", ""},
      {"delta.to_graph_ms", mean_ms("delta.to_graph"), "ms", ""},
      {"tgi.query.snapshot_delta_ms", mean_ms("tgi.query.snapshot_delta"),
       "ms", ""},
      {"tgi.query.history_ms", mean_ms("tgi.query.history"), "ms", ""},
      {"tgi.query.neighborhood_ms", mean_ms("tgi.query.neighborhood"), "ms",
       ""},
      {"tgi.query.eventlist_fetch_ratio",
       Ratio(f.eventlist_fetches, f.eventlist_refs), "ratio", ""},
      {"common.cache.byte_hit_rate", hit_rate(c.byte_tier), "ratio", ""},
      {"common.cache.decoded_hit_rate", hit_rate(c.decoded_tier), "ratio", ""},
      {"common.cache.bytes_used",
       static_cast<double>(c.byte_tier.bytes_used + c.decoded_tier.bytes_used),
       "B", ""},
      {"tgi.query.refresh_ms", mean_ms("tgi.query.refresh_probe"), "ms", ""},
      {"tgi.query.refresh_entries_checked",
       Ratio(c.refresh_entries, run.publishes), "count", ""},
      {"tgi.builder.append_ms", mean_ms("tgi.builder.append"), "ms", ""},
      {"kvstore.rows_put_per_event", Ratio(c.rows_put, appended), "count", ""},
      {"kvstore.bytes_put_per_event", Ratio(c.bytes_put, appended), "B", ""},
      {"kvstore.put_batches_per_append", Ratio(c.put_batches, appends),
       "count", ""},
      {"taf.fetch_ms", mean_ms("taf.fetch"), "ms", ""},
      {"taf.compute_self_ms",
       compute.count == 0
           ? 0.0
           : compute.self_ms / static_cast<double>(compute.count),
       "ms", ""},
      {"graph.algo_ms",
       compute.count == 0 ? 0.0
                          : find("graph.algo").total_ms /
                                static_cast<double>(compute.count),
       "ms", "per TAF job, summed over workers"},
      {"kvstore.retries", static_cast<double>(c.retries), "count", ""},
      {"kvstore.failovers", static_cast<double>(c.failovers), "count", ""},
  };
  // Tracing overhead: traced minus untraced median latency per kind,
  // weighted by the traced op count.
  double extra_ms = 0;
  double traced_ops = 0;
  for (size_t k = 0; k < kNumKinds; ++k) {
    if (rec.ms[k].empty() || rec.traced_ms[k].empty()) continue;
    double n = static_cast<double>(rec.traced_ms[k].size());
    extra_ms += n * (Median(rec.traced_ms[k]) - Median(rec.ms[k]));
    traced_ops += n;
  }
  layer.push_back({"trace.overhead_ms_per_op", Ratio(extra_ms, traced_ops),
                   "ms", "traced minus untraced"});
  r->metrics.insert(r->metrics.end(), layer.begin(), layer.end());
}

// -- Workloads ----------------------------------------------------------------

/// cold-reads: caches far smaller than the index, so reads go to storage.
Result<RunSummary> ColdReads(const BenchConfig& cfg, const History& h,
                             Oracle* oracle, Tracer* tracer, BenchResult* r) {
  RunSummary run;
  TGIOptions opts = IndexOptions(cfg);
  opts.read_cache_bytes = 1u << 20;
  opts.decoded_cache_bytes = 1u << 20;
  HGS_ASSIGN_OR_RETURN(Index ix, SetUp(h.events, opts, &run.setup_seconds));
  run.stored_bytes = ix.cluster->TotalStoredBytes();
  run.indexed_events = h.events.size();

  Rng rng(SubSeed(cfg.seed, 3));
  std::vector<NodeId> sample =
      SampleDistinct(NodesBornBy(h, h.end), kColdNodeSample, &rng);
  Golden snap_u(rng.NextDouble());
  Golden hood_u(rng.NextDouble());
  size_t cursor = 0;
  auto next_node = [&] { return sample[cursor++ % sample.size()]; };

  TGIQueryManager* qm = ix.qm.get();
  uint64_t op_id = 0;
  /// One analyst round: twice a snapshot, a neighborhood and eight node
  /// histories.
  auto round_ops = [&](uint64_t, Tracer* tr, Recorder* into) {
    for (int i = 0; i < 2; ++i) {
      Timestamp t = Lerp(h.start, h.end, snap_u.Next());
      TimedOp(into, kSnapshot, tr, op_id++,
              [&](const TraceCtx& c, FetchStats* s) {
                return SnapshotOp(qm, t, c, s);
              });
      NodeId id = next_node();
      Timestamp th = Lerp(h.born.at(id), h.end, hood_u.Next());
      TimedOp(into, kNeighborhood, tr, op_id++,
              [&](const TraceCtx& c, FetchStats* s) {
                return NeighborhoodOp(qm, id, th, c, s);
              });
      for (int j = 0; j < 8; ++j) {
        NodeId hid = next_node();
        TimedOp(into, kHistory, tr, op_id++,
                [&](const TraceCtx& c, FetchStats* s) {
                  return HistoryOp(qm, hid, h.start - 1, h.end, c, s);
                });
      }
    }
  };

  // Warm-up (untimed): two rounds, so the heap and the small caches reach
  // their steady state.
  Recorder warm;
  for (uint64_t round = 0; round < 2; ++round) round_ops(round, nullptr, &warm);
  r->attempted += warm.attempted;
  r->failed += warm.failed;

  LayerCounters before = ReadCounters(ix);
  run.measured_seconds =
      TimedRounds(cfg, tracer, 1, round_ops, &run.loops.emplace_back());
  AddWindow(before, ReadCounters(ix), &run.counters);
  run.peak_rss_mib = PeakRssMib();

  std::vector<Timestamp> check_times;
  std::vector<NodeId> check_nodes;
  for (int i = 0; i < 4; ++i) {
    check_times.push_back(Lerp(h.start, h.end, (i + rng.NextDouble()) / 4));
  }
  for (NodeId id : SampleDistinct(NodesBornBy(h, check_times[0]), 8, &rng)) {
    check_nodes.push_back(id);
  }
  CheckAnswers(qm, oracle, check_times, check_nodes, h.start - 1, h.end, r);
  return run;
}

/// The fixed working set of the warm workloads: kWarmTimes timepoints, the
/// middle of each slice of [start, hi], and kWarmNodes nodes live from the
/// middle timepoint on, ranked for Zipf picks in draw order. Neighborhoods
/// and TAF windows use the later half of the timepoints, where every hot
/// node is live.
struct WorkingSet {
  std::vector<Timestamp> times;
  std::vector<NodeId> hot;

  Timestamp AnyTime(Golden* g) const {
    return times[static_cast<size_t>(g->Next() *
                                     static_cast<double>(times.size()))];
  }
  Timestamp LateTime(Golden* g) const {
    size_t half = times.size() / 2;
    double late = static_cast<double>(times.size() - half);
    return times[half + static_cast<size_t>(g->Next() * late)];
  }
  /// A Zipf-skewed pick: the popular nodes of node histories and TAF.
  NodeId Pick(Rng* rng) const { return hot[rng->Zipf(hot.size())]; }
  /// An even pick, for neighborhoods: with Zipf picks their median followed
  /// a handful of top-ranked nodes and moved with the seed.
  NodeId Spread(Golden* g) const {
    return hot[static_cast<size_t>(g->Next() *
                                   static_cast<double>(hot.size()))];
  }
};

WorkingSet MakeWorkingSet(const History& h, Timestamp hi, Rng* rng) {
  WorkingSet ws;
  for (size_t i = 0; i < kWarmTimes; ++i) {
    ws.times.push_back(Lerp(h.start, hi,
                            (static_cast<double>(i) + 0.5) /
                                static_cast<double>(kWarmTimes)));
  }
  ws.hot = SampleDistinct(NodesBornBy(h, ws.times[kWarmTimes / 2]),
                          kWarmNodes, rng);
  return ws;
}

/// Untimed warm-up of a working set: every timepoint's snapshot and every
/// hot node's history over (from, to].
Recorder WarmUp(TGIQueryManager* qm, const WorkingSet& ws, Timestamp from,
                Timestamp to) {
  Recorder warm;
  for (Timestamp t : ws.times) {
    TimedOp(&warm, kSnapshot, nullptr, 0,
            [&](const TraceCtx& c, FetchStats* s) {
              return SnapshotOp(qm, t, c, s);
            });
  }
  for (NodeId id : ws.hot) {
    TimedOp(&warm, kHistory, nullptr, 0,
            [&](const TraceCtx& c, FetchStats* s) {
              return HistoryOp(qm, id, from, to, c, s);
            });
  }
  return warm;
}

/// Degrees of `ids` at time t, from a scan of the log that keeps only the
/// edges touching them.
std::unordered_map<NodeId, size_t> HotDegreesAt(const History& h,
                                                const std::vector<NodeId>& ids,
                                                Timestamp t) {
  std::unordered_map<NodeId, size_t> degree;
  for (NodeId id : ids) degree[id] = 0;
  std::set<std::pair<NodeId, NodeId>> edges;
  for (const Event& e : h.events) {
    if (e.time > t) break;
    if (e.type != EventType::kAddEdge && e.type != EventType::kRemoveEdge) {
      continue;
    }
    if (!degree.contains(e.u) && !degree.contains(e.v)) continue;
    std::pair<NodeId, NodeId> key = std::minmax(e.u, e.v);
    if (e.type == EventType::kAddEdge) {
      edges.insert(key);
    } else {
      edges.erase(key);
    }
  }
  for (const auto& [u, v] : edges) {
    if (degree.contains(u)) ++degree[u];
    if (degree.contains(v)) ++degree[v];
  }
  return degree;
}

/// warm-analytics: a fixed working set, warmed before the timed loop.
Result<RunSummary> WarmAnalytics(const BenchConfig& cfg, const History& h,
                                 Oracle* oracle, Tracer* tracer,
                                 BenchResult* r) {
  RunSummary run;
  HGS_ASSIGN_OR_RETURN(Index ix,
                       SetUp(h.events, IndexOptions(cfg), &run.setup_seconds));
  run.stored_bytes = ix.cluster->TotalStoredBytes();
  run.indexed_events = h.events.size();

  Rng rng(SubSeed(cfg.seed, 3));
  const WorkingSet ws = MakeWorkingSet(h, h.end, &rng);
  // TAF jobs: Zipf-drawn seeds over short windows that start at a late
  // timepoint. Seeds are hot nodes of degree at most kTafMaxSeedDegree at
  // the window start: every version of a hub's 1-hop subgraph is a large
  // graph, and one such job would take seconds.
  Golden job_u(rng.NextDouble());
  const Timestamp window = std::max<Timestamp>(1, (h.end - h.start) / 512);
  std::vector<TafJob> jobs(kTafJobs);
  for (TafJob& job : jobs) {
    job.from = ws.LateTime(&job_u);
    job.to = std::min(h.end, job.from + window);
    auto degree = HotDegreesAt(h, ws.hot, job.from);
    std::vector<NodeId> eligible;
    for (NodeId id : ws.hot) {
      if (degree[id] <= kTafMaxSeedDegree) eligible.push_back(id);
    }
    while (job.seeds.size() < std::min(kTafSeeds, eligible.size())) {
      NodeId id = eligible[rng.Zipf(eligible.size())];
      if (std::find(job.seeds.begin(), job.seeds.end(), id) ==
          job.seeds.end()) {
        job.seeds.push_back(id);
      }
    }
  }

  TGIQueryManager* qm = ix.qm.get();
  taf::TAFContext taf(qm, kTafWorkers);
  Golden snap_u(rng.NextDouble());
  Golden hood_u(rng.NextDouble());
  Golden hood_node_u(rng.NextDouble(), Golden::kSilverStep);
  uint64_t op_id = 0;
  /// One analyst round: twice a snapshot, a neighborhood and eight node
  /// histories; then a TAF job.
  auto round_ops = [&](uint64_t round, Tracer* tr, Recorder* into) {
    for (int i = 0; i < 2; ++i) {
      Timestamp t = ws.AnyTime(&snap_u);
      TimedOp(into, kSnapshot, tr, op_id++,
              [&](const TraceCtx& c, FetchStats* s) {
                return SnapshotOp(qm, t, c, s);
              });
      NodeId id = ws.Spread(&hood_node_u);
      Timestamp th = ws.LateTime(&hood_u);
      TimedOp(into, kNeighborhood, tr, op_id++,
              [&](const TraceCtx& c, FetchStats* s) {
                return NeighborhoodOp(qm, id, th, c, s);
              });
      for (int j = 0; j < 8; ++j) {
        NodeId hid = ws.Pick(&rng);
        TimedOp(into, kHistory, tr, op_id++,
                [&](const TraceCtx& c, FetchStats* s) {
                  return HistoryOp(qm, hid, h.start - 1, h.end, c, s);
                });
      }
    }
    const TafJob& job = jobs[round % jobs.size()];
    TimedOp(into, kTaf, tr, op_id++, [&](const TraceCtx& c, FetchStats* s) {
      return TafOp(taf, job, c, s);
    });
  };

  // Warm-up (untimed): the working set, then every TAF job in rounds of
  // the timed mix.
  Recorder warm = WarmUp(qm, ws, h.start - 1, h.end);
  for (uint64_t round = 0; round < kTafJobs; ++round) {
    round_ops(round, nullptr, &warm);
  }
  r->attempted += warm.attempted;
  r->failed += warm.failed;

  LayerCounters before = ReadCounters(ix);
  run.measured_seconds =
      TimedRounds(cfg, tracer, kTafJobs, round_ops, &run.loops.emplace_back());
  AddWindow(before, ReadCounters(ix), &run.counters);
  run.peak_rss_mib = PeakRssMib();

  std::vector<Timestamp> check_times(ws.times.end() - 4, ws.times.end());
  std::vector<NodeId> check_nodes(
      ws.hot.begin(), ws.hot.begin() + std::min<size_t>(8, ws.hot.size()));
  CheckAnswers(qm, oracle, check_times, check_nodes, h.start - 1, h.end, r);
  return run;
}

/// live-append: one writer appends the second half of the history while
/// two readers read the first half. Each cycle rebuilds the first half (a
/// set-up sample) and appends the whole second half; cycles repeat until
/// the timed append phases add up to the run length.
Result<RunSummary> LiveAppend(const BenchConfig& cfg, const History& h,
                              Oracle* oracle, Tracer* tracer, BenchResult* r) {
  RunSummary run;
  run.clients = kLiveReaders;
  run.reference_probe_ms = kReaderReferenceProbeMs;
  const size_t half = h.events.size() / 2;
  const std::vector<Event> prefix(h.events.begin(), h.events.begin() + half);
  const Timestamp prefix_end = prefix.back().time;
  std::vector<std::vector<Event>> batches;
  const size_t per_batch =
      (h.events.size() - half + kAppendBatches - 1) / kAppendBatches;
  for (size_t b = half; b < h.events.size(); b += per_batch) {
    batches.emplace_back(
        h.events.begin() + b,
        h.events.begin() + std::min(h.events.size(), b + per_batch));
  }

  Rng rng(SubSeed(cfg.seed, 3));
  const WorkingSet ws = MakeWorkingSet(h, prefix_end, &rng);

  std::atomic<uint64_t> op_id{0};
  /// One reader round: a snapshot, two neighborhoods, eight histories.
  auto reader_round = [&](TGIQueryManager* qm, Golden* snap_u, Golden* hood_u,
                          Golden* hood_node_u, Rng* g, Tracer* tr,
                          Recorder* into) {
    Timestamp t = ws.AnyTime(snap_u);
    TimedOp(into, kSnapshot, tr, op_id++,
            [&](const TraceCtx& c, FetchStats* s) {
              return SnapshotOp(qm, t, c, s);
            });
    for (int i = 0; i < 2; ++i) {
      NodeId id = ws.Spread(hood_node_u);
      Timestamp th = ws.LateTime(hood_u);
      TimedOp(into, kNeighborhood, tr, op_id++,
              [&](const TraceCtx& c, FetchStats* s) {
                return NeighborhoodOp(qm, id, th, c, s);
              });
      for (int j = 0; j < 4; ++j) {
        NodeId hid = ws.Pick(g);
        TimedOp(into, kHistory, tr, op_id++,
                [&](const TraceCtx& c, FetchStats* s) {
                  return HistoryOp(qm, hid, h.start - 1, prefix_end, c, s);
                });
      }
    }
  };

  const TGIOptions opts = IndexOptions(cfg);
  Index ix;
  for (uint64_t cycle = 0; run.measured_seconds < cfg.seconds; ++cycle) {
    double setup = 0;
    HGS_ASSIGN_OR_RETURN(ix, BuildIndex(prefix, opts, &setup));
    run.setup_seconds.push_back(setup);
    TGIQueryManager* qm = ix.qm.get();

    Recorder warm = WarmUp(qm, ws, h.start - 1, prefix_end);
    r->attempted += warm.attempted;
    r->failed += warm.failed;

    LayerCounters before = ReadCounters(ix);
    std::atomic<bool> done{false};
    Recorder writer_rec;
    std::vector<std::vector<Round>> reader_rounds(kLiveReaders);
    int64_t t0 = NowNs();
    std::thread writer([&] {
      for (size_t b = 0; b < batches.size(); ++b) {
        Tracer* tr = TracerFor(cfg, tracer, b);
        TimedOp(&writer_rec, kAppend, tr, op_id++,
                [&](const TraceCtx& c, FetchStats*) {
                  return AppendOp(ix.tgi.get(), batches[b], c);
                });
        writer_rec.appended_events += batches[b].size();
        TimedOp(&writer_rec, kProbe, tr, op_id++,
                [&](const TraceCtx& c, FetchStats* s) {
                  return ProbeOp(qm, ws.hot[0], ws.times.back(), c, s);
                });
      }
      done.store(true);
    });
    std::vector<std::thread> readers;
    for (size_t i = 0; i < kLiveReaders; ++i) {
      readers.emplace_back([&, i] {
        Rng g(SubSeed(cfg.seed, 100 + cycle * kLiveReaders + i));
        Golden snap_u(g.NextDouble());
        Golden hood_u(g.NextDouble());
        Golden hood_node_u(g.NextDouble(), Golden::kSilverStep);
        RunRounds(
            cfg, tracer, 1, [&done] { return done.load(); },
            [&](uint64_t, Tracer* tr, Recorder* into) {
              reader_round(qm, &snap_u, &hood_u, &hood_node_u, &g, tr, into);
            },
            &reader_rounds[i]);
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    run.measured_seconds += static_cast<double>(NowNs() - t0) / 1e9;
    AddWindow(before, ReadCounters(ix), &run.counters);
    run.publishes += batches.size();
    run.rec.Merge(writer_rec);
    for (auto& rounds : reader_rounds) run.loops.push_back(std::move(rounds));
  }
  run.peak_rss_mib = PeakRssMib();
  run.stored_bytes = ix.cluster->TotalStoredBytes();
  run.indexed_events = h.events.size();

  // After the live half, the index must equal a replay of the full stream,
  // and reads over the prefix must be unaffected by the appends.
  Graph final_state;
  Status s = SnapshotOp(ix.qm.get(), h.end, {}, nullptr, &final_state);
  Check(r, s.ok() && final_state == oracle->ExpectedSnapshot(h.end),
        "final snapshot after live append", h.end);
  std::vector<Timestamp> check_times(ws.times.end() - 4, ws.times.end());
  std::vector<NodeId> check_nodes(
      ws.hot.begin(), ws.hot.begin() + std::min<size_t>(8, ws.hot.size()));
  CheckAnswers(ix.qm.get(), oracle, check_times, check_nodes, h.start - 1,
               prefix_end, r);
  return run;
}

using WorkloadFn = Result<RunSummary> (*)(const BenchConfig&, const History&,
                                          Oracle*, Tracer*, BenchResult*);

constexpr std::pair<const char*, WorkloadFn> kWorkloads[] = {
    {"cold-reads", &ColdReads},
    {"warm-analytics", &WarmAnalytics},
    {"live-append", &LiveAppend},
};

}  // namespace

Result<BenchResult> RunWorkload(const BenchConfig& cfg) {
  WorkloadFn fn = nullptr;
  for (const auto& [name, f] : kWorkloads) {
    if (name == cfg.workload) fn = f;
  }
  if (fn == nullptr) {
    return Status::InvalidArgument("unknown workload " + cfg.workload);
  }
  History h = MakeHistory(cfg);
  std::printf("# history: %zu events, %zu nodes, times [%lld, %lld]\n",
              h.events.size(), h.born.size(),
              static_cast<long long>(h.start), static_cast<long long>(h.end));
  Oracle oracle(&h.events, cfg.sabotage_oracle);
  Tracer tracer;
  BenchResult r;
  HGS_ASSIGN_OR_RETURN(RunSummary run, fn(cfg, h, &oracle, &tracer, &r));
  Settle(&run);
  r.attempted += run.rec.attempted;
  r.failed += run.rec.failed;
  std::printf(
      "# timed: %.3f s, %zu analyst ops, %zu appends, %zu traced spans\n",
      run.measured_seconds, run.rec.AnalystOps(), run.rec.Done(kAppend),
      tracer.Spans().size());
  if (cfg.trace) {
    AddPerLayer(run, tracer.Spans(), &r);
  } else {
    AddEndToEnd(run, &r);
  }
  r.metrics.push_back({"failed_ops_ratio",
                       Ratio(static_cast<double>(r.failed),
                             static_cast<double>(r.attempted)),
                       "ratio", ""});
  return r;
}

}  // namespace hgs::perfbench
