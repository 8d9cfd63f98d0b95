// Span recording for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a library module: a root span per operation, a span per public
// call (GetSnapshotDelta, Delta::ToGraph, AppendBatch, TAF Fetch/compute,
// the algorithm callback). Each span carries its name, start, end, parent
// span and the id of the operation it belongs to. Spans stay in memory until
// the run ends; Summarize() then turns them into per-name totals and self
// times (a span's duration minus the part of its interval that its children
// cover, children on other threads included).
//
// With tracing off, callers pass a TraceCtx whose tracer is null and every
// ScopedSpan is a no-op.

#ifndef HGS_PERFBENCH_TRACE_H_
#define HGS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace hgs::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< static string, e.g. "tgi.query.history"
  uint64_t op = 0;             ///< root operation id
  int64_t parent = -1;         ///< index of the parent span; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< 0 while the span is open
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  /// Opens a span and returns its id.
  int64_t Begin(const char* name, uint64_t op, int64_t parent);
  void End(int64_t id);
  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

 private:
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// Where the next span goes: the tracer (null when tracing is off), the
/// operation it belongs to and its parent span.
struct TraceCtx {
  Tracer* tracer = nullptr;
  uint64_t op = 0;
  int64_t parent = -1;
};

/// RAII span; a no-op when ctx.tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(const TraceCtx& ctx, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Context for spans nested inside this one.
  TraceCtx Child() const { return TraceCtx{ctx_.tracer, ctx_.op, id_}; }

 private:
  TraceCtx ctx_;
  int64_t id_ = -1;
};

struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;  ///< sum of durations
  double self_ms = 0;   ///< sum of durations minus time covered by children
};

/// Per-name aggregate of closed spans.
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

}  // namespace hgs::perfbench

#endif  // HGS_PERFBENCH_TRACE_H_
