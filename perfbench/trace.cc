#include "trace.h"

#include <algorithm>
#include <utility>

namespace hgs::perfbench {

int64_t Tracer::Begin(const char* name, uint64_t op, int64_t parent) {
  int64_t start = NowNs();
  MutexLock lock(mu_);
  spans_.push_back(Span{name, op, parent, start, 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  int64_t end = NowNs();
  MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

std::vector<Span> Tracer::Spans() const {
  MutexLock lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(const TraceCtx& ctx, const char* name) : ctx_(ctx) {
  if (ctx_.tracer != nullptr) {
    id_ = ctx_.tracer->Begin(name, ctx_.op, ctx_.parent);
  }
}

ScopedSpan::~ScopedSpan() {
  if (ctx_.tracer != nullptr) ctx_.tracer->End(id_);
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.end_ns == 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = p.end_ns == 0 ? s.end_ns : std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;
    // Union of the children's intervals: parallel children (TAF callbacks
    // on pool workers) may overlap each other.
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.total_ms += dur_ms;
    sum.self_ms += dur_ms - static_cast<double>(covered) / 1e6;
  }
  return out;
}

}  // namespace hgs::perfbench
