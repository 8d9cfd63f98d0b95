#include "tgi/query.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "tgi/layout.h"

namespace hgs {

namespace {

class WallTimer {
 public:
  explicit WallTimer(FetchStats* stats) : stats_(stats) {}
  ~WallTimer() {
    if (stats_ == nullptr) return;
    auto end = std::chrono::steady_clock::now();
    stats_->wall_seconds +=
        std::chrono::duration<double>(end - start_).count();
  }

 private:
  FetchStats* stats_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Runs fn(i, &local_stats) for i in [0, n) on the shared pool, merges
// every task's local FetchStats into `stats` after the loop, and returns
// the failure with the lowest index (remaining iterations are skipped once
// a task fails). Each task owns one stats slot, so counting takes no lock.
Status ParallelStatusFor(
    size_t n, size_t parallelism, FetchStats* stats,
    const std::function<Status(size_t, FetchStats*)>& fn) {
  std::vector<FetchStats> local(n);
  std::atomic<bool> failed{false};
  Status status = StatusParallelFor(n, parallelism, [&](size_t i) {
    if (failed.load(std::memory_order_relaxed)) return Status::OK();
    Status s = fn(i, &local[i]);
    if (!s.ok()) failed.store(true, std::memory_order_relaxed);
    return s;
  });
  if (stats != nullptr) {
    for (const FetchStats& l : local) stats->Merge(l);
  }
  return status;
}

// Lock shards of a cache tier: one per 64 KiB of budget, at most 16. A
// shard admits no entry larger than its slice of the budget, so a small
// budget split 16 ways would reject entries that fit in the whole of it.
size_t ShardsFor(size_t budget_bytes) {
  return std::clamp<size_t>(budget_bytes / (64u << 10), 1, 16);
}

// Approximate heap footprint of a cache entry, for byte-budget eviction.
// SharedValue entries charge their viewed size: the window is what the
// cache logically holds (the shared owner is charged where it lives).
size_t CacheCharge(const CacheKey& key, const SharedValue& value) {
  return key.Bytes() + value.size() + 64;
}

// -- decoded tier ----------------------------------------------------------

// Decoded heap footprint estimates for byte-budget eviction. Delta and
// EventList charge their wire size (the paper's Σ|Δ| currency, and a close
// proxy for the decoded maps' payload).
size_t DecodedCharge(const Delta& d) { return d.SerializedSizeBytes(); }
size_t DecodedCharge(const EventList& e) { return e.SerializedSizeBytes(); }

// Decodes one raw value according to its cache kind. Returns the shared
// immutable object plus its eviction charge.
Result<std::pair<std::shared_ptr<const void>, size_t>> DecodeByKind(
    CacheKind kind, std::string_view raw) {
  switch (kind) {
    case CacheKind::kDelta: {
      HGS_ASSIGN_OR_RETURN(Delta d, Delta::Deserialize(raw));
      size_t charge = DecodedCharge(d);
      return std::pair<std::shared_ptr<const void>, size_t>(
          std::make_shared<Delta>(std::move(d)), charge);
    }
    case CacheKind::kEventList: {
      HGS_ASSIGN_OR_RETURN(EventList e, EventList::Deserialize(raw));
      size_t charge = DecodedCharge(e);
      return std::pair<std::shared_ptr<const void>, size_t>(
          std::make_shared<EventList>(std::move(e)), charge);
    }
    default:
      return Status::InvalidArgument("unknown decoded kind");
  }
}

// Replays one decoded EventList row onto `acc`: its events in (after, upto].
//
// The row is consumed only when ownership is statically exclusive: with
// the decoded cache disabled, every decode is private to this query
// (`exclusive`), and use_count() == 1 then rules out the same object
// appearing twice in this query's own row lists. With the cache enabled a
// decoded object may be shared with a concurrent query, and observing
// use_count() == 1 cannot prove otherwise: the count is a relaxed load
// with no synchronizes-with edge to a releasing reader, so mutating after
// reading 1 would race with that reader's prior accesses (TSan-visible now
// that the flat representation moves individual entries). Cache-managed
// objects are therefore always applied by const reference. make_shared
// allocates the pointee as a mutable object, so the const_cast on an
// exclusively owned value is well-defined.
void ApplyRow(Delta* acc, std::shared_ptr<const void>&& row, Timestamp after,
              Timestamp upto, bool exclusive) {
  if (row == nullptr) return;
  const auto& e = *static_cast<const EventList*>(row.get());
  if (exclusive && row.use_count() == 1) {
    acc->ApplyEvents(std::move(const_cast<EventList&>(e)), after, upto);
  } else {
    acc->ApplyEvents(e, after, upto);
  }
  row.reset();
}

// Sums decoded Delta rows in order with one k-way merge (the root-to-leaf
// delta sum of Algorithm 1) and releases them. The rows are moved out only
// when every one of them is consumable under ApplyRow's ownership rule;
// otherwise all are copied, and the copying overload only reads them
// through the cast pointers. Null rows (absent micro-partitions) are
// skipped.
Delta SumDeltaRows(std::vector<std::shared_ptr<const void>> rows,
                   bool exclusive) {
  std::erase(rows, nullptr);
  bool consume = exclusive;
  std::vector<Delta*> parts;
  parts.reserve(rows.size());
  for (const auto& row : rows) {
    consume = consume && row.use_count() == 1;
    parts.push_back(const_cast<Delta*>(static_cast<const Delta*>(row.get())));
  }
  if (consume) return Delta::SumOrdered(std::span<Delta* const>(parts));
  return Delta::SumOrdered(std::span<const Delta* const>(parts));
}

// Merges eventlist rows into one chronological sequence in which each
// stored event appears once, keeping the events in (from, to] that `keep`
// accepts. chunks[c] holds the rows of one chunk: a consecutive slice of
// the ingest stream, split across micro-partition rows, with an edge event
// stored in both endpoints' rows. Chunks come in stream order, so merged
// chunks concatenate already globally ordered. Returns the number of
// chunks merged, each one a whole-chunk comparison sort skipped.
template <typename Keep>
size_t MergeEventChunks(
    const std::vector<std::vector<const EventList*>>& chunks, Timestamp from,
    Timestamp to, size_t parallelism, const Keep& keep,
    std::vector<Event>* out) {
  // Each row's kept events, picked in parallel. An eventlist is
  // time-sorted, so every pick is chronological.
  std::vector<std::vector<std::vector<const Event*>>> picked(chunks.size());
  ParallelFor(chunks.size(), parallelism, [&](size_t c) {
    picked[c].resize(chunks[c].size());
    for (size_t r = 0; r < chunks[c].size(); ++r) {
      for (const Event& e : chunks[c][r]->events()) {
        if (e.time > from && e.time <= to && keep(e)) {
          picked[c][r].push_back(&e);
        }
      }
    }
  });
  // Within a chunk a k-way merge by time replaces the whole-chunk
  // comparison sort. Time is EventTotalOrder's primary key, so merging by
  // time and sorting only the runs of equal timestamps yields exactly the
  // order the full sort would — and unique only needs to see those runs,
  // because duplicates (an edge event arriving via both endpoints' rows)
  // share a timestamp. A run may continue into the next chunk, so it is
  // flushed only when a later timestamp starts.
  struct RowCursor {
    const Event* const* cur;
    const Event* const* end;
  };
  std::vector<Event> run;
  auto flush_run = [&run, out] {
    std::sort(run.begin(), run.end(), EventTotalOrder);
    run.erase(std::unique(run.begin(), run.end()), run.end());
    for (Event& e : run) out->push_back(std::move(e));
    run.clear();
  };
  size_t merged = 0;
  std::vector<RowCursor> cursors;
  for (const auto& rows : picked) {
    cursors.clear();
    for (const std::vector<const Event*>& p : rows) {
      if (!p.empty()) cursors.push_back({p.data(), p.data() + p.size()});
    }
    if (!cursors.empty()) ++merged;
    while (!cursors.empty()) {
      Timestamp t = (*cursors[0].cur)->time;
      for (size_t c = 1; c < cursors.size(); ++c) {
        t = std::min(t, (*cursors[c].cur)->time);
      }
      if (!run.empty() && run.front().time != t) flush_run();
      for (size_t c = 0; c < cursors.size();) {
        RowCursor& rc = cursors[c];
        while (rc.cur != rc.end && (*rc.cur)->time == t) {
          run.push_back(**rc.cur);
          ++rc.cur;
        }
        if (rc.cur == rc.end) {
          cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(c));
        } else {
          ++c;
        }
      }
    }
  }
  flush_run();
  return merged;
}

}  // namespace

size_t CacheKey::Hash::operator()(const CacheKey& k) const {
  uint64_t h = std::hash<std::string_view>{}(k.row);
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(k.kind));
  mix(k.sub_epoch);
  mix(std::hash<std::string_view>{}(k.table));
  mix(k.partition);
  return static_cast<size_t>(h);
}

std::vector<std::pair<Timestamp, Delta>> NodeHistory::Materialize() const {
  std::vector<std::pair<Timestamp, Delta>> out;
  Delta state = initial;
  out.emplace_back(from, state);
  for (const Event& e : events.events()) {
    state.ApplyEvent(e);
    out.emplace_back(e.time, state);
  }
  return out;
}

TGIQueryManager::TGIQueryManager(Cluster* cluster, size_t fetch_parallelism,
                                 CacheBudgets budgets)
    : cluster_(cluster),
      fetch_parallelism_(fetch_parallelism == 0 ? 1 : fetch_parallelism) {
  if (budgets.read_bytes > 0) {
    read_cache_ = std::make_unique<ReadCache>(budgets.read_bytes,
                                              ShardsFor(budgets.read_bytes));
  }
  if (budgets.decoded_bytes > 0) {
    decoded_cache_ = std::make_unique<DecodedCache>(
        budgets.decoded_bytes, ShardsFor(budgets.decoded_bytes));
  }
}

Result<std::vector<tgi::TimespanMeta>> TGIQueryManager::LoadSpans() const {
  auto spans_raw = cluster_->Scan(tgi::kTimespansTable, 0, "");
  if (!spans_raw.ok()) return spans_raw.status();
  std::vector<tgi::TimespanMeta> spans;
  spans.reserve(spans_raw->size());
  for (const KVPair& kv : *spans_raw) {
    BinaryReader r(kv.value);
    HGS_RETURN_NOT_OK(r.VerifyChecksum());
    HGS_ASSIGN_OR_RETURN(tgi::TimespanMeta meta,
                         tgi::TimespanMeta::DeserializeFrom(&r));
    spans.push_back(std::move(meta));
  }
  std::sort(spans.begin(), spans.end(),
            [](const tgi::TimespanMeta& a, const tgi::TimespanMeta& b) {
              return a.tsid < b.tsid;
            });
  return spans;
}

Result<TGIQueryManager::MetaRef> TGIQueryManager::LoadMetadata(
    EpochVectorRef epochs) const {
  auto meta_raw = cluster_->Get(tgi::kGraphTable, 0, "meta");
  if (!meta_raw.ok()) return meta_raw.status();
  auto state = std::make_shared<MetaState>();
  state->epoch = epochs->global;
  state->epochs = std::move(epochs);
  HGS_ASSIGN_OR_RETURN(state->graph, tgi::GraphMeta::Deserialize(*meta_raw));
  HGS_ASSIGN_OR_RETURN(state->spans, LoadSpans());
  return MetaRef(std::move(state));
}

Status TGIQueryManager::Open() {
  HGS_ASSIGN_OR_RETURN(MetaRef meta, LoadMetadata(cluster_->epochs()));
  {
    MutexLock lock(meta_mu_);
    meta_ = std::move(meta);
  }
  opened_.store(true, std::memory_order_release);
  return Status::OK();
}

TGIQueryManager::MetaRef TGIQueryManager::CurrentMeta() const {
  MutexLock lock(meta_mu_);
  if (meta_ != nullptr) return meta_;
  static const MetaRef kEmpty = std::make_shared<MetaState>();
  return kEmpty;
}

Result<TGIQueryManager::MetaRef> TGIQueryManager::EnsureFresh(
    FetchStats* stats) {
  if (!opened_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Open() not called");
  }
  {
    MetaRef current = CurrentMeta();
    if (cluster_->publish_epoch() == current->epoch) return current;
  }
  MutexLock lock(refresh_mu_);
  // Re-read under the refresh lock so concurrent stale readers converge on
  // one reload instead of racing each other backwards.
  EpochVectorRef epochs = cluster_->epochs();
  MetaRef current = CurrentMeta();
  if (epochs->global == current->epoch) return current;
  // Metadata was re-published (AppendBatch). The new epoch map tells us
  // exactly which (table, partition) scopes the writer touched: a scope
  // whose sub-epoch is unchanged between the pinned old map and the new
  // one was not written, so its metadata rows and cache entries are still
  // valid. In-flight queries keep their old snapshot alive through the
  // shared_ptr, and their sub-epoch-tagged cache inserts can't be served
  // to queries running at the new epochs.
  auto scope_stale = [&](std::string_view table, uint64_t partition) {
    if (current->epochs == nullptr) return true;  // pre-map snapshot
    EpochKey key = MakeEpochKey(table, partition);
    return current->epochs->SubEpoch(key) != epochs->SubEpoch(key);
  };
  MetaRef fresh;
  if (scope_stale(tgi::kGraphTable, 0)) {
    HGS_ASSIGN_OR_RETURN(fresh, LoadMetadata(epochs));
  } else {
    auto state = std::make_shared<MetaState>();
    state->epoch = epochs->global;
    state->epochs = epochs;
    state->graph = current->graph;
    if (scope_stale(tgi::kTimespansTable, 0)) {
      HGS_ASSIGN_OR_RETURN(state->spans, LoadSpans());
    } else {
      state->spans = current->spans;
    }
    fresh = std::move(state);
  }
  uint64_t retained = 0;
  uint64_t invalidated = 0;
  {
    MutexLock mlock(micropart_mu_);
    for (auto it = micropart_cache_.begin(); it != micropart_cache_.end();) {
      uint64_t sub =
          epochs->SubEpoch(MakeEpochKey(tgi::kMicropartsTable, it->first));
      if (it->second.epoch == sub) {
        ++retained;
        ++it;
      } else {
        it = micropart_cache_.erase(it);
        ++invalidated;
      }
    }
  }
  // An entry of either LRU tier is still valid iff its key's sub-epoch
  // matches its scope's sub-epoch under the new map; everything else is
  // swept. Entries from scopes a publish didn't touch keep their keys and
  // stay warm.
  auto entry_valid = [&](const CacheKey& key) {
    return key.sub_epoch ==
           epochs->SubEpoch(MakeEpochKey(key.table, key.partition));
  };
  if (read_cache_ != nullptr) {
    auto swept = read_cache_->RetainIf(entry_valid);
    retained += swept.retained;
    invalidated += swept.evicted;
  }
  if (decoded_cache_ != nullptr) {
    auto swept = decoded_cache_->RetainIf(entry_valid);
    retained += swept.retained;
    invalidated += swept.evicted;
  }
  entries_retained_.fetch_add(retained, std::memory_order_relaxed);
  entries_invalidated_.fetch_add(invalidated, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->cache_entries_retained += retained;
    stats->cache_entries_invalidated += invalidated;
  }
  {
    MutexLock mlock(meta_mu_);
    meta_ = fresh;
  }
  return fresh;
}

Timestamp TGIQueryManager::HistoryStart() const {
  return CurrentMeta()->graph.start;
}

Timestamp TGIQueryManager::HistoryEnd() const {
  return CurrentMeta()->graph.end;
}

uint64_t TGIQueryManager::EventCount() const {
  return CurrentMeta()->graph.event_count;
}

const tgi::TimespanMeta* TGIQueryManager::SpanFor(const MetaState& meta,
                                                  Timestamp t) {
  const tgi::TimespanMeta* best = nullptr;
  for (const auto& span : meta.spans) {
    if (span.start <= t) {
      best = &span;
    } else {
      break;
    }
  }
  return best;
}

Result<std::vector<std::optional<SharedValue>>> TGIQueryManager::FetchValues(
    const MetaState& meta, std::string_view table,
    const std::vector<MultiGetKey>& keys, FetchStats* stats) {
  std::vector<std::optional<SharedValue>> out(keys.size());
  if (stats != nullptr) stats->kv_requests += keys.size();
  if (keys.empty()) return out;

  // Serve what we can from the partition-delta cache (including cached
  // "absent" results), then batch the misses into one MultiGet. A hit
  // hands out a view of the cached shared buffer — no bytes move.
  std::vector<size_t> miss_index;
  std::vector<MultiGetKey> misses;
  std::vector<CacheKey> miss_ckeys;
  if (read_cache_ != nullptr) {
    for (size_t i = 0; i < keys.size(); ++i) {
      CacheKey ckey = meta.Key(CacheKind::kPoint, table, keys[i].partition,
                               keys[i].key);
      auto entry = read_cache_->Get(ckey);
      if (entry.has_value()) {
        if (stats != nullptr) ++stats->cache_hits;
        if ((*entry)->found) out[i] = (*entry)->value;
        continue;
      }
      if (stats != nullptr) ++stats->cache_misses;
      miss_index.push_back(i);
      misses.push_back(keys[i]);
      miss_ckeys.push_back(std::move(ckey));
    }
    if (misses.empty()) return out;
  }

  // The call's resilience work is folded in before its status is looked
  // at, so a failed query still reports the retries it ran.
  size_t batches = 0;
  size_t copies = 0;
  ReadCallStats call;
  auto fetched = cluster_->MultiGet(
      table, read_cache_ != nullptr ? misses : keys, &batches, &copies, &call);
  if (stats != nullptr) {
    stats->Merge(call);
    stats->kv_batches += batches;
    stats->value_copies += copies;
  }
  if (!fetched.ok()) return fetched.status();
  if (read_cache_ == nullptr) return std::move(*fetched);
  for (size_t j = 0; j < misses.size(); ++j) {
    std::optional<SharedValue>& value = (*fetched)[j];
    CacheKey& ckey = miss_ckeys[j];
    auto entry = std::make_shared<ReadCacheEntry>();
    entry->found = value.has_value();
    if (value.has_value()) entry->value = *value;  // shares the buffer
    size_t charge = CacheCharge(ckey, entry->value);
    read_cache_->Put(std::move(ckey), std::move(entry), charge);
    out[miss_index[j]] = std::move(value);
  }
  return out;
}

Result<std::optional<SharedValue>> TGIQueryManager::FetchValue(
    const MetaState& meta, std::string_view table, uint64_t partition,
    std::string_view key, FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(std::vector<std::optional<SharedValue>> values,
                       FetchValues(meta, table,
                                   {MultiGetKey{partition, std::string(key)}},
                                   stats));
  if (stats != nullptr && values[0].has_value()) {
    ++stats->micro_deltas;
    stats->bytes += values[0]->size();
  }
  return std::move(values[0]);
}

Result<std::shared_ptr<const TGIQueryManager::ReadCacheEntry>>
TGIQueryManager::CachedScan(const MetaState& meta, std::string_view table,
                            uint64_t partition, std::string_view prefix,
                            FetchStats* stats) {
  if (stats != nullptr) ++stats->kv_requests;
  CacheKey ckey;
  if (read_cache_ != nullptr) {
    ckey = meta.Key(CacheKind::kScan, table, partition, prefix);
    auto entry = read_cache_->Get(ckey);
    if (entry.has_value()) {
      if (stats != nullptr) ++stats->cache_hits;
      return std::move(*entry);
    }
    if (stats != nullptr) ++stats->cache_misses;
  }
  size_t copies = 0;
  ReadCallStats call;
  auto res = cluster_->Scan(table, partition, prefix, &copies, &call);
  if (stats != nullptr) {
    stats->Merge(call);
    ++stats->kv_batches;
    stats->value_copies += copies;
  }
  if (!res.ok()) return res.status();
  auto entry = std::make_shared<ReadCacheEntry>();
  entry->pairs = std::move(*res);
  if (read_cache_ != nullptr) {
    size_t charge = ckey.Bytes() + 64;
    for (const KVPair& kv : entry->pairs) {
      charge += kv.key.size() + kv.value.size() + 32;
    }
    read_cache_->Put(std::move(ckey), entry, charge);
  }
  return std::shared_ptr<const ReadCacheEntry>(std::move(entry));
}

Result<std::vector<TGIQueryManager::DecodedEntry>>
TGIQueryManager::FetchDecodedRows(const MetaState& meta,
                                  std::string_view table,
                                  const std::vector<MultiGetKey>& keys,
                                  const std::vector<CacheKind>& kinds,
                                  FetchStats* stats) {
  std::vector<DecodedEntry> out(keys.size());
  if (keys.empty()) return out;

  // Probe the decoded tier first: a hit needs neither the raw bytes nor a
  // decode, so it skips the byte-cache/MultiGet machinery entirely.
  std::vector<size_t> miss_index;
  std::vector<MultiGetKey> miss_keys;
  if (decoded_cache_ != nullptr) {
    for (size_t i = 0; i < keys.size(); ++i) {
      CacheKey ckey = meta.Key(kinds[i], table, keys[i].partition, keys[i].key);
      auto hit = decoded_cache_->Get(ckey);
      if (hit.has_value()) {
        if (stats != nullptr) {
          // A decoded hit still counts as one logical request and one
          // consumed value, so Table 1's logical columns are identical
          // between cold and warm runs.
          ++stats->kv_requests;
          ++stats->decode_hits;
          if (hit->obj != nullptr) {
            ++stats->micro_deltas;
            stats->bytes += hit->raw_bytes;
          }
        }
        out[i] = std::move(*hit);
        continue;
      }
      miss_index.push_back(i);
      miss_keys.push_back(keys[i]);
    }
    if (miss_keys.empty()) return out;
  } else {
    miss_index.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) miss_index[i] = i;
    miss_keys = keys;
  }

  // Byte tier + cluster for the misses (one batched MultiGet), then decode
  // each present row exactly once, in parallel — BinaryReader runs directly
  // over the shared view — and publish the decoded object for every later
  // consumer.
  HGS_ASSIGN_OR_RETURN(std::vector<std::optional<SharedValue>> values,
                       FetchValues(meta, table, miss_keys, stats));
  HGS_RETURN_NOT_OK(ParallelStatusFor(
      miss_keys.size(), fetch_parallelism_, stats,
      [&](size_t j, FetchStats* local) -> Status {
        const size_t i = miss_index[j];
        const MultiGetKey& key = miss_keys[j];
        if (values[j].has_value()) {
          HGS_ASSIGN_OR_RETURN(
              out[i], DecodeShared(meta, kinds[i], table, key.partition,
                                   key.key, values[j]->view(),
                                   /*probe=*/false, local));
        } else if (decoded_cache_ != nullptr) {
          // Negative entry: the row's absence is knowledge too.
          CacheKey ckey = meta.Key(kinds[i], table, key.partition, key.key);
          size_t charge = ckey.Bytes() + 64;
          decoded_cache_->Put(std::move(ckey), DecodedEntry{}, charge);
        }
        return Status::OK();
      }));
  return out;
}

Result<TGIQueryManager::DecodedEntry> TGIQueryManager::DecodeShared(
    const MetaState& meta, CacheKind kind, std::string_view table,
    uint64_t partition, std::string_view row, std::string_view raw,
    bool probe, FetchStats* stats) {
  if (stats != nullptr) {
    ++stats->micro_deltas;
    stats->bytes += raw.size();
  }
  CacheKey ckey;
  if (decoded_cache_ != nullptr) {
    ckey = meta.Key(kind, table, partition, row);
    if (probe) {
      auto hit = decoded_cache_->Get(ckey);
      if (hit.has_value() && hit->obj != nullptr) {
        if (stats != nullptr) ++stats->decode_hits;
        return std::move(*hit);
      }
    }
  }
  HGS_ASSIGN_OR_RETURN(auto decoded, DecodeByKind(kind, raw));
  if (stats != nullptr) {
    ++stats->decodes;
    stats->decoded_bytes += raw.size();
  }
  DecodedEntry entry{std::move(decoded.first), raw.size()};
  if (decoded_cache_ != nullptr) {
    size_t charge = ckey.Bytes() + decoded.second + 64;
    decoded_cache_->Put(std::move(ckey), entry, charge);
  }
  return entry;
}

Result<TGIQueryManager::DecodedScanRef> TGIQueryManager::FetchDecodedScan(
    const MetaState& meta, std::string_view table, uint64_t partition,
    std::string_view prefix, CacheKind row_kind, FetchStats* stats) {
  CacheKey ckey;
  if (decoded_cache_ != nullptr) {
    ckey = meta.Key(CacheKind::kDecodedScan, table, partition, prefix);
    auto hit = decoded_cache_->Get(ckey);
    if (hit.has_value() && hit->obj != nullptr) {
      auto scan =
          std::static_pointer_cast<const DecodedScan>(std::move(hit->obj));
      if (stats != nullptr) {
        // One probe served the whole prefix. The logical accounting
        // matches the cold path exactly: one scan request, every row
        // consumed ready-to-apply.
        ++stats->kv_requests;
        ++stats->cache_hits;
        stats->decode_hits += scan->rows.size();
        stats->micro_deltas += scan->rows.size();
        stats->bytes += hit->raw_bytes;
      }
      return scan;
    }
  }

  // Cold: bytes through the cached scan, each row decoded (or decode-hit)
  // through the row-level tier — so point-read paths can reuse the rows —
  // then the assembled vector is published under the scan's own key.
  HGS_ASSIGN_OR_RETURN(std::shared_ptr<const ReadCacheEntry> res,
                       CachedScan(meta, table, partition, prefix, stats));
  auto scan = std::make_shared<DecodedScan>();
  scan->rows.reserve(res->pairs.size());
  size_t total_raw = 0;
  for (const KVPair& kv : res->pairs) {
    HGS_ASSIGN_OR_RETURN(DecodedEntry row,
                         DecodeShared(meta, row_kind, table, partition, kv.key,
                                      kv.value, /*probe=*/true, stats));
    total_raw += kv.value.size();
    scan->rows.push_back(std::move(row));
  }
  if (decoded_cache_ != nullptr) {
    // Charged at the full row-byte sum even though the row-level entries
    // carry the same objects: warm scans touch only this entry, so the
    // untouched row entries age out of the LRU and the scan entry becomes
    // the objects' sole in-cache owner — the full charge is the honest
    // steady-state accounting (the overlap is transient, and the safe
    // direction is over- rather than under-charging the budget).
    size_t charge = ckey.Bytes() + 64;
    for (const KVPair& kv : res->pairs) charge += kv.value.size() + 32;
    decoded_cache_->Put(std::move(ckey), DecodedEntry{scan, total_raw},
                        charge);
  }
  return DecodedScanRef(std::move(scan));
}

Result<std::vector<std::shared_ptr<const TGIQueryManager::MergedVersionChain>>>
TGIQueryManager::FetchVersionChains(const MetaState& meta,
                                    const std::vector<NodeId>& ids,
                                    FetchStats* stats) {
  std::vector<std::shared_ptr<const MergedVersionChain>> out(ids.size());

  // Probe the decoded tier per node first: a warm node — hub or not —
  // costs exactly one probe and no scan.
  std::vector<CacheKey> ckeys(ids.size());
  std::vector<bool> hit_of(ids.size(), false);
  for (size_t u = 0; u < ids.size(); ++u) {
    if (decoded_cache_ != nullptr) {
      ckeys[u] = meta.Key(CacheKind::kVersionChain, tgi::kVersionsTable,
                          tgi::NodePlacement(ids[u]),
                          tgi::VersionScanPrefix(ids[u]));
      auto hit = decoded_cache_->Get(ckeys[u]);
      if (hit.has_value() && hit->obj != nullptr) {
        out[u] = std::static_pointer_cast<const MergedVersionChain>(
            std::move(hit->obj));
        hit_of[u] = true;
        if (stats != nullptr) {
          ++stats->decode_hits;
          stats->micro_deltas += out[u]->segment_count;
          stats->bytes += out[u]->raw_bytes;
        }
      }
    }
  }

  // Group ALL requested nodes by versions-table placement: partitions with
  // a missing member are scanned (one scan each, not one per node);
  // partitions fully served by merged-chain hits count one logical scan
  // request served from cache, so warm and cold runs report identical
  // logical counters.
  struct ScanGroup {
    uint64_t partition;
    std::vector<size_t> members;  ///< indices into `ids` placed here
    bool any_miss = false;
  };
  std::vector<ScanGroup> groups;
  {
    std::unordered_map<uint64_t, size_t> group_of;
    for (size_t u = 0; u < ids.size(); ++u) {
      uint64_t partition = tgi::NodePlacement(ids[u]);
      auto [it, inserted] = group_of.emplace(partition, groups.size());
      if (inserted) groups.push_back(ScanGroup{partition, {}});
      groups[it->second].members.push_back(u);
      if (!hit_of[u]) groups[it->second].any_miss = true;
    }
  }
  std::vector<size_t> scan_groups;  // indices of groups needing a scan
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].any_miss) {
      scan_groups.push_back(g);
    } else if (stats != nullptr) {
      ++stats->kv_requests;
      ++stats->cache_hits;
    }
  }
  if (scan_groups.empty()) return out;

  std::vector<std::shared_ptr<const ReadCacheEntry>> scans(groups.size());
  HGS_RETURN_NOT_OK(ParallelStatusFor(
      scan_groups.size(), fetch_parallelism_, stats,
      [&](size_t i, FetchStats* local) -> Status {
        const size_t g = scan_groups[i];
        HGS_ASSIGN_OR_RETURN(
            scans[g], CachedScan(meta, tgi::kVersionsTable,
                                 groups[g].partition, /*prefix=*/"", local));
        return Status::OK();
      }));
  if (stats != nullptr) stats->version_scans += scan_groups.size();

  // Rebuild each missing node's merged chain: its segments arrive in key
  // (= tsid) order from the scan, decoded straight off the shared views,
  // and are concatenated unfiltered so every later time window shares the
  // one cached object.
  for (size_t g : scan_groups) {
    for (size_t u : groups[g].members) {
      if (hit_of[u]) continue;  // served decoded above
      const std::string prefix = tgi::VersionScanPrefix(ids[u]);
      auto chain = std::make_shared<MergedVersionChain>();
      for (const KVPair& kv : scans[g]->pairs) {
        // A partition scan returns every node hashed to this placement
        // (virtually always just this node); keep only its segments.
        if (kv.key.compare(0, prefix.size(), prefix) != 0) continue;
        HGS_ASSIGN_OR_RETURN(tgi::VersionChainSegment seg,
                             tgi::VersionChainSegment::Deserialize(kv.value));
        if (stats != nullptr) {
          ++stats->decodes;
          stats->decoded_bytes += kv.value.size();
          ++stats->micro_deltas;
          stats->bytes += kv.value.size();
        }
        ++chain->segment_count;
        chain->raw_bytes += kv.value.size();
        chain->entries.insert(chain->entries.end(), seg.entries.begin(),
                              seg.entries.end());
      }
      if (decoded_cache_ != nullptr) {
        size_t charge = ckeys[u].Bytes() + 48 +
                        chain->entries.size() * sizeof(tgi::VersionEntry) +
                        64;
        decoded_cache_->Put(std::move(ckeys[u]),
                            DecodedEntry{chain, chain->raw_bytes}, charge);
      }
      out[u] = std::move(chain);
    }
  }
  return out;
}

Result<TGIQueryManager::ChainEventlists>
TGIQueryManager::FetchChainEventlists(
    const MetaState& meta,
    const std::vector<std::shared_ptr<const MergedVersionChain>>& chains,
    Timestamp from, Timestamp to, FetchStats* stats) {
  const size_t ns = meta.graph.num_horizontal_partitions;
  const auto order = static_cast<ClusteringOrder>(meta.graph.clustering_order);
  ChainEventlists out;
  out.refs.resize(chains.size());
  std::vector<MultiGetKey> keys;
  std::unordered_map<std::string, size_t> key_index;  // placement \0 row key
  uint64_t total_refs = 0;
  for (size_t u = 0; u < chains.size(); ++u) {
    for (const tgi::VersionEntry& e : chains[u]->entries) {
      if (e.last_time <= from || e.first_time > to) continue;
      ++total_refs;
      PartitionId sid = tgi::SidOf(e.pid, ns);
      MultiGetKey key{
          tgi::DeltaPlacement(e.tsid, sid, ns),
          tgi::DeltaRowKey(order, tgi::EventlistDid(e.eventlist_index),
                           e.pid, false)};
      std::string dedup;
      dedup.reserve(8 + 1 + key.key.size());
      AppendOrdered64(&dedup, key.partition);
      dedup.push_back('\0');
      dedup.append(key.key);
      auto [it, inserted] = key_index.emplace(std::move(dedup), keys.size());
      if (inserted) {
        keys.push_back(std::move(key));
        out.chunk.emplace_back(e.tsid, e.eventlist_index);
      }
      out.refs[u].push_back(it->second);
    }
  }
  if (stats != nullptr) {
    stats->eventlist_refs += total_refs;
    stats->eventlist_fetches += keys.size();
  }

  // One decode-first batched fetch for every referenced eventlist: rows
  // already decoded (this query or a previous one) come straight from the
  // decoded cache; the rest ride one MultiGet and decode exactly once.
  HGS_ASSIGN_OR_RETURN(
      std::vector<DecodedEntry> rows,
      FetchDecodedRows(meta, tgi::kDeltasTable, keys,
                       std::vector<CacheKind>(keys.size(),
                                              CacheKind::kEventList),
                       stats));
  out.rows.reserve(rows.size());
  for (DecodedEntry& row : rows) {
    out.rows.push_back(
        std::static_pointer_cast<const EventList>(std::move(row.obj)));
  }
  return out;
}

Result<MicroPartitionId> TGIQueryManager::PidOf(const MetaState& meta,
                                                NodeId id,
                                                const tgi::TimespanMeta& span,
                                                FetchStats* stats) {
  if (span.strategy == static_cast<uint8_t>(PartitionStrategy::kRandom)) {
    return Partitioning::Random(span.num_micro_partitions).Of(id);
  }
  size_t buckets = std::max<uint32_t>(1, meta.graph.micropartition_buckets);
  uint64_t bucket = tgi::NodePlacement(id) % buckets;
  uint64_t cache_key = static_cast<uint64_t>(span.tsid) * buckets + bucket;
  const uint64_t sub = meta.SubEpochFor(tgi::kMicropartsTable, cache_key);
  {
    MutexLock lock(micropart_mu_);
    auto it = micropart_cache_.find(cache_key);
    if (it != micropart_cache_.end() && it->second.epoch == sub) {
      // The bucket's decoded node→pid map is already in memory at this
      // scope's sub-epoch: a decoded-tier hit with zero fetch and zero
      // deserialization. A stale-epoch bucket (filled by an in-flight
      // old-snapshot query) is treated as a miss and overwritten below.
      if (stats != nullptr) ++stats->decode_hits;
      auto hit = it->second.map.find(id);
      if (hit != it->second.map.end()) return hit->second;
      return Partitioning::Random(span.num_micro_partitions).HashFallback(id);
    }
  }
  std::string key = tgi::MicropartBucketRowKey(static_cast<uint32_t>(bucket));
  HGS_ASSIGN_OR_RETURN(
      std::optional<SharedValue> raw,
      FetchValue(meta, tgi::kMicropartsTable, cache_key, key, stats));
  std::unordered_map<NodeId, MicroPartitionId> map;
  if (raw.has_value()) {
    HGS_ASSIGN_OR_RETURN(auto entries, tgi::DeserializeMicropartBucket(*raw));
    if (stats != nullptr) {
      ++stats->decodes;
      stats->decoded_bytes += raw->size();
    }
    map.reserve(entries.size());
    for (const auto& [nid, pid] : entries) map[nid] = pid;
  }
  MicroPartitionId result;
  auto hit = map.find(id);
  if (hit != map.end()) {
    result = hit->second;
  } else {
    result = Partitioning::Random(span.num_micro_partitions).HashFallback(id);
  }
  {
    MutexLock lock(micropart_mu_);
    micropart_cache_[cache_key] = MicropartBucket{sub, std::move(map)};
  }
  return result;
}

Result<Delta> TGIQueryManager::GetSnapshotDelta(Timestamp t,
                                                FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  return GetSnapshotDeltaWith(*meta, t, stats);
}

std::vector<TGIQueryManager::Slot> TGIQueryManager::SnapshotSlots(
    const tgi::TimespanMeta& span, Timestamp t) {
  const int32_t cpi = std::max(span.CheckpointBefore(t), 0);
  std::vector<Slot> slots;
  for (DeltaId did : span.PathToCheckpoint(cpi)) {
    slots.push_back(Slot{&span, did, CacheKind::kDelta});
  }
  const size_t evl_from =
      static_cast<size_t>(cpi) * span.checkpoint_interval / span.eventlist_size;
  AppendEventlistSlots(span, static_cast<int64_t>(evl_from),
                       span.EventlistCovering(t), &slots);
  return slots;
}

void TGIQueryManager::AppendEventlistSlots(const tgi::TimespanMeta& span,
                                           int64_t first, int64_t last,
                                           std::vector<Slot>* slots) {
  for (int64_t j = first; j <= last; ++j) {
    slots->push_back(Slot{&span, tgi::EventlistDid(static_cast<size_t>(j)),
                          CacheKind::kEventList});
  }
}

Result<TGIQueryManager::SlotRows> TGIQueryManager::FetchSlots(
    const MetaState& meta, const std::vector<Slot>& slots, FetchStats* stats) {
  const size_t ns = meta.graph.num_horizontal_partitions;
  const auto order = static_cast<ClusteringOrder>(meta.graph.clustering_order);
  SlotRows rows(slots.size());
  // There is no raw-byte staging anywhere on this path: partition-major rows
  // decode straight out of the MultiGet values, delta-major rows straight
  // out of the shared scan result, and a decoded-cache hit skips bytes
  // entirely.
  if (order == ClusteringOrder::kPartitionMajor) {
    // Every (slot, pid) row rides one decode-first batched fetch.
    std::vector<MultiGetKey> keys;
    std::vector<CacheKind> kinds;
    std::vector<size_t> slot_of;
    for (size_t i = 0; i < slots.size(); ++i) {
      const tgi::TimespanMeta& span = *slots[i].span;
      for (MicroPartitionId pid = 0; pid < span.num_micro_partitions; ++pid) {
        keys.push_back(MultiGetKey{
            tgi::DeltaPlacement(span.tsid, tgi::SidOf(pid, ns), ns),
            tgi::DeltaRowKey(order, slots[i].did, pid, false)});
        kinds.push_back(slots[i].kind);
        slot_of.push_back(i);
      }
    }
    HGS_ASSIGN_OR_RETURN(
        std::vector<DecodedEntry> fetched,
        FetchDecodedRows(meta, tgi::kDeltasTable, keys, kinds, stats));
    for (size_t k = 0; k < fetched.size(); ++k) {
      // An absent row is an empty micro-partition.
      if (fetched[k].obj != nullptr) {
        rows[slot_of[k]].push_back(std::move(fetched[k].obj));
      }
    }
    return rows;
  }
  // Delta-major: one scan-granularity decoded fetch per (slot, sid) — a
  // warm scan is a single decoded-tier probe for the whole prefix; a cold
  // one decodes in place from the shared scan result, in parallel (the
  // paper's query processors "process the raw deltas" in parallel; only
  // the ordered apply is sequential). Each task fills its own scan cell.
  std::vector<DecodedScanRef> scans(slots.size() * ns);
  HGS_RETURN_NOT_OK(ParallelStatusFor(
      scans.size(), fetch_parallelism_, stats,
      [&](size_t c, FetchStats* local) -> Status {
        const Slot& slot = slots[c / ns];
        const uint64_t placement = tgi::DeltaPlacement(
            slot.span->tsid, static_cast<PartitionId>(c % ns), ns);
        HGS_ASSIGN_OR_RETURN(
            scans[c],
            FetchDecodedScan(meta, tgi::kDeltasTable, placement,
                             tgi::DeltaScanPrefix(slot.did), slot.kind, local));
        return Status::OK();
      }));
  for (size_t c = 0; c < scans.size(); ++c) {
    for (const DecodedEntry& row : scans[c]->rows) {
      rows[c / ns].push_back(row.obj);
    }
    scans[c].reset();  // rows now hold the only query-side references
  }
  return rows;
}

Result<Delta> TGIQueryManager::GetSnapshotDeltaWith(const MetaState& meta,
                                                    Timestamp t,
                                                    FetchStats* stats) {
  const tgi::TimespanMeta* span = SpanFor(meta, t);
  if (span == nullptr) return Delta();  // before all history
  const std::vector<Slot> slots = SnapshotSlots(*span, t);
  HGS_ASSIGN_OR_RETURN(SlotRows rows, FetchSlots(meta, slots, stats));
  // The tree deltas root-to-leaf (the slot prefix) in one sum, then the
  // eventlists replayed in order, up to t.
  const bool exclusive = decoded_cache_ == nullptr;
  size_t i = 0;
  std::vector<std::shared_ptr<const void>> tree;
  for (; i < slots.size() && slots[i].kind == CacheKind::kDelta; ++i) {
    std::move(rows[i].begin(), rows[i].end(), std::back_inserter(tree));
  }
  Delta acc = SumDeltaRows(std::move(tree), exclusive);
  for (; i < slots.size(); ++i) {
    for (auto& row : rows[i]) {
      ApplyRow(&acc, std::move(row), kMinTimestamp, t, exclusive);
    }
  }
  return acc;
}

Result<Graph> TGIQueryManager::GetSnapshot(Timestamp t, FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(Delta d, GetSnapshotDelta(t, stats));
  return d.ToGraph();
}

Result<std::vector<Graph>> TGIQueryManager::GetMultipointSnapshots(
    const std::vector<Timestamp>& times, FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  std::vector<Timestamp> sorted = times;
  std::sort(sorted.begin(), sorted.end());

  std::vector<Graph> by_sorted_index;
  by_sorted_index.reserve(sorted.size());
  Delta state;
  const tgi::TimespanMeta* state_span = nullptr;
  Timestamp state_time = kMinTimestamp;
  int32_t state_cpi = -1;

  for (Timestamp t : sorted) {
    const tgi::TimespanMeta* span = SpanFor(meta, t);
    bool can_roll_forward = span != nullptr && span == state_span &&
                            t >= state_time &&
                            span->CheckpointBefore(t) == state_cpi;
    if (!can_roll_forward) {
      FetchStats inner;
      auto delta = GetSnapshotDeltaWith(meta, t, &inner);
      if (stats != nullptr) stats->Merge(inner);
      if (!delta.ok()) return delta.status();
      state = std::move(*delta);
      state_span = span;
      state_cpi = span == nullptr ? -1 : span->CheckpointBefore(t);
    } else {
      // Same span, same checkpoint: replay only the eventlists covering
      // (state_time, t], skipping events already applied.
      std::vector<Slot> slots;
      AppendEventlistSlots(*span,
                           std::max(span->EventlistCovering(state_time), 0),
                           span->EventlistCovering(t), &slots);
      HGS_ASSIGN_OR_RETURN(SlotRows rows, FetchSlots(meta, slots, stats));
      const bool exclusive = decoded_cache_ == nullptr;
      for (auto& slot_rows : rows) {
        for (auto& row : slot_rows) {
          ApplyRow(&state, std::move(row), state_time, t, exclusive);
        }
      }
    }
    state_time = t;
    by_sorted_index.push_back(state.ToGraph());
  }

  // Restore the caller's ordering: each materialized graph is moved into
  // its last output slot and copied only for duplicate timestamps.
  std::vector<size_t> slot_of(times.size());
  std::vector<size_t> last_user(by_sorted_index.size());
  for (size_t i = 0; i < times.size(); ++i) {
    auto it = std::lower_bound(sorted.begin(), sorted.end(), times[i]);
    slot_of[i] = static_cast<size_t>(it - sorted.begin());
    last_user[slot_of[i]] = i;
  }
  std::vector<Graph> out(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    const size_t s = slot_of[i];
    if (i == last_user[s]) {
      out[i] = std::move(by_sorted_index[s]);
    } else {
      out[i] = by_sorted_index[s];
    }
  }
  return out;
}

Result<std::vector<Delta>> TGIQueryManager::FetchMicroStatesAt(
    const MetaState& meta, const tgi::TimespanMeta& span,
    const std::vector<MicroPartitionId>& pids, Timestamp t, bool include_aux,
    FetchStats* stats) {
  std::vector<Delta> out(pids.size());
  if (pids.empty()) return out;

  const size_t ns = meta.graph.num_horizontal_partitions;
  const auto order =
      static_cast<ClusteringOrder>(meta.graph.clustering_order);
  // The slot sequence is shared by every requested micro-partition.
  const std::vector<Slot> slots = SnapshotSlots(span, t);
  const size_t nd = slots.size();

  // Decoded values per (pid, did): regular row + optional aux replication
  // row, flattened as p * nd + i. Shared with the decoded cache; the
  // per-pid merge below never sees raw bytes.
  std::vector<std::shared_ptr<const void>> regular(pids.size() * nd);
  std::vector<std::shared_ptr<const void>> aux(pids.size() * nd);

  if (order == ClusteringOrder::kPartitionMajor) {
    // One contiguous scan per micro-partition yields every did it has;
    // filter to the ones we need (Section 4.4's entity-centric clustering
    // payoff). The scans run as parallel cached requests, and each row
    // decodes in place from the shared scan result.
    std::unordered_map<DeltaId, size_t> want;
    for (size_t i = 0; i < nd; ++i) want[slots[i].did] = i;
    HGS_RETURN_NOT_OK(ParallelStatusFor(
        pids.size(), fetch_parallelism_, stats,
        [&](size_t p, FetchStats* local) -> Status {
          const MicroPartitionId pid = pids[p];
          const uint64_t placement =
              tgi::DeltaPlacement(span.tsid, tgi::SidOf(pid, ns), ns);
          HGS_ASSIGN_OR_RETURN(
              std::shared_ptr<const ReadCacheEntry> res,
              CachedScan(meta, tgi::kDeltasTable, placement,
                         tgi::PartitionScanPrefix(pid), local));
          for (const KVPair& kv : res->pairs) {
            DeltaId did;
            MicroPartitionId parsed_pid;
            bool is_aux;
            if (!tgi::ParseDeltaRowKey(order, kv.key, &did, &parsed_pid,
                                       &is_aux)) {
              continue;
            }
            if (is_aux) continue;  // aux rows are fetched separately below
            auto it = want.find(did);
            if (it == want.end()) continue;
            const size_t i = it->second;
            HGS_ASSIGN_OR_RETURN(
                DecodedEntry row,
                DecodeShared(meta, slots[i].kind, tgi::kDeltasTable,
                             placement, kv.key, kv.value, /*probe=*/true,
                             local));
            regular[p * nd + i] = std::move(row.obj);
          }
          return Status::OK();
        }));
    if (include_aux) {
      std::vector<MultiGetKey> keys;
      std::vector<CacheKind> kinds;
      keys.reserve(pids.size() * nd);
      kinds.reserve(pids.size() * nd);
      for (size_t p = 0; p < pids.size(); ++p) {
        const uint64_t placement =
            tgi::DeltaPlacement(span.tsid, tgi::SidOf(pids[p], ns), ns);
        for (size_t i = 0; i < nd; ++i) {
          keys.push_back(MultiGetKey{
              placement,
              tgi::DeltaRowKey(order, slots[i].did, pids[p], true)});
          kinds.push_back(slots[i].kind);
        }
      }
      HGS_ASSIGN_OR_RETURN(
          std::vector<DecodedEntry> rows,
          FetchDecodedRows(meta, tgi::kDeltasTable, keys, kinds, stats));
      for (size_t k = 0; k < rows.size(); ++k) aux[k] = std::move(rows[k].obj);
    }
  } else {
    // Delta-major order: every (pid, did) pair is an independent point
    // read — exactly the shape the decode-first batch serves best. One
    // request covers the regular and aux rows of all requested
    // micro-partitions; decoded hits never touch the byte tier.
    std::vector<MultiGetKey> keys;
    std::vector<CacheKind> kinds;
    keys.reserve(pids.size() * nd * (include_aux ? 2 : 1));
    kinds.reserve(keys.capacity());
    // Regular rows for every (pid, did), then — when replication is on —
    // the aux rows in the same order, so the flattened offsets line up.
    for (bool aux_pass : {false, true}) {
      if (aux_pass && !include_aux) break;
      for (size_t p = 0; p < pids.size(); ++p) {
        const uint64_t placement =
            tgi::DeltaPlacement(span.tsid, tgi::SidOf(pids[p], ns), ns);
        for (size_t i = 0; i < nd; ++i) {
          keys.push_back(MultiGetKey{
              placement,
              tgi::DeltaRowKey(order, slots[i].did, pids[p], aux_pass)});
          kinds.push_back(slots[i].kind);
        }
      }
    }
    HGS_ASSIGN_OR_RETURN(
        std::vector<DecodedEntry> rows,
        FetchDecodedRows(meta, tgi::kDeltasTable, keys, kinds, stats));
    for (size_t k = 0; k < pids.size() * nd; ++k) {
      regular[k] = std::move(rows[k].obj);
    }
    if (include_aux) {
      for (size_t k = 0; k < pids.size() * nd; ++k) {
        aux[k] = std::move(rows[pids.size() * nd + k].obj);
      }
    }
  }

  // Merge per pid: the tree deltas root-to-leaf in one sum (each slot's
  // regular row before its aux row), then eventlist replay to t. All values
  // are already decoded; exclusively owned ones are consumed.
  const bool exclusive = decoded_cache_ == nullptr;
  ParallelFor(pids.size(), fetch_parallelism_, [&](size_t p) {
    size_t i = 0;
    std::vector<std::shared_ptr<const void>> tree;
    for (; i < nd && slots[i].kind == CacheKind::kDelta; ++i) {
      tree.push_back(std::move(regular[p * nd + i]));
      tree.push_back(std::move(aux[p * nd + i]));
    }
    Delta acc = SumDeltaRows(std::move(tree), exclusive);
    for (; i < nd; ++i) {
      ApplyRow(&acc, std::move(regular[p * nd + i]), kMinTimestamp, t,
               exclusive);
      ApplyRow(&acc, std::move(aux[p * nd + i]), kMinTimestamp, t, exclusive);
    }
    out[p] = std::move(acc);
  });
  return out;
}

Result<Delta> TGIQueryManager::GetNodeStateDelta(NodeId id, Timestamp t,
                                                 FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  const tgi::TimespanMeta* span = SpanFor(*meta, t);
  if (span == nullptr) return Delta();
  HGS_ASSIGN_OR_RETURN(MicroPartitionId pid, PidOf(*meta, id, *span, stats));
  HGS_ASSIGN_OR_RETURN(
      std::vector<Delta> micro,
      FetchMicroStatesAt(*meta, *span, {pid}, t, false, stats));
  return micro[0].FilterById(id);
}

Result<NodeHistory> TGIQueryManager::GetNodeHistory(NodeId id, Timestamp from,
                                                    Timestamp to,
                                                    FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  // Single retrieval = bulk retrieval of one id, so the two stay
  // result-identical by construction.
  HGS_ASSIGN_OR_RETURN(std::vector<NodeHistory> hists,
                       GetNodeHistoriesWith(*meta, {id}, from, to, stats));
  return std::move(hists[0]);
}

Result<std::vector<NodeHistory>> TGIQueryManager::GetNodeHistories(
    const std::vector<NodeId>& ids, Timestamp from, Timestamp to,
    FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta, EnsureFresh(stats));
  return GetNodeHistoriesWith(*meta, ids, from, to, stats);
}

Result<std::vector<NodeHistory>> TGIQueryManager::GetNodeHistoriesWith(
    const MetaState& meta, const std::vector<NodeId>& ids, Timestamp from,
    Timestamp to, FetchStats* stats) {
  std::vector<NodeHistory> out(ids.size());
  if (stats != nullptr) stats->node_requests += ids.size();
  if (ids.empty()) return out;

  // Work on the deduplicated id set; duplicates share one retrieval.
  std::vector<NodeId> uniq;
  std::unordered_map<NodeId, size_t> uniq_index;
  uniq.reserve(ids.size());
  for (NodeId id : ids) {
    if (uniq_index.emplace(id, uniq.size()).second) uniq.push_back(id);
  }

  // ---- Initial states (node + incident edges at `from`), batched: all
  // requested ids resolve to micro-partitions first, then every touched
  // micro-partition is reconstructed exactly once.
  std::vector<Delta> initials(uniq.size());
  const tgi::TimespanMeta* span0 = SpanFor(meta, from);
  if (span0 != nullptr) {
    // Placement lookups overlap across the fetch clients: a cold
    // Micropartitions bucket costs a round trip, and distinct ids can hit
    // distinct buckets (repeats are served by the micropart cache).
    std::vector<MicroPartitionId> pid_of_uniq(uniq.size());
    HGS_RETURN_NOT_OK(ParallelStatusFor(
        uniq.size(), fetch_parallelism_, stats,
        [&](size_t u, FetchStats* local) -> Status {
          HGS_ASSIGN_OR_RETURN(pid_of_uniq[u],
                               PidOf(meta, uniq[u], *span0, local));
          return Status::OK();
        }));
    std::vector<MicroPartitionId> pids = pid_of_uniq;
    std::sort(pids.begin(), pids.end());
    pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
    HGS_ASSIGN_OR_RETURN(
        std::vector<Delta> states,
        FetchMicroStatesAt(meta, *span0, pids, from, false, stats));
    std::unordered_map<MicroPartitionId, size_t> state_of;
    state_of.reserve(pids.size());
    for (size_t p = 0; p < pids.size(); ++p) state_of[pids[p]] = p;
    for (size_t u = 0; u < uniq.size(); ++u) {
      initials[u] = states[state_of[pid_of_uniq[u]]].FilterById(uniq[u]);
    }
  }

  // ---- Version chains: one merged decoded chain per node (hub nodes with
  // many segments cost one decoded entry, not one per segment). Warm nodes
  // skip the versions-table scans entirely; cold ones share one partition
  // scan per touched placement, run as parallel cached requests.
  HGS_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<const MergedVersionChain>> chains,
      FetchVersionChains(meta, uniq, stats));

  // ---- Every referenced eventlist, fetched and decoded once however many
  // nodes share it.
  HGS_ASSIGN_OR_RETURN(ChainEventlists evls,
                       FetchChainEventlists(meta, chains, from, to, stats));

  // ---- Demultiplex. Each decoded eventlist is scanned once — not once per
  // referencing node — bucketing its in-range events by requested member
  // (members_of[k]); each node then drains its buckets in chain order, so
  // per-node event order matches the per-node path exactly.
  const size_t nrows = evls.rows.size();
  std::vector<std::unordered_map<NodeId, size_t>> members_of(nrows);
  for (size_t u = 0; u < uniq.size(); ++u) {
    for (size_t k : evls.refs[u]) members_of[k].emplace(uniq[u], u);
  }
  // buckets[k]: per referencing member, pointers to its events in order.
  std::vector<std::unordered_map<size_t, std::vector<const Event*>>> buckets(
      nrows);
  ParallelFor(nrows, fetch_parallelism_, [&](size_t k) {
    if (evls.rows[k] == nullptr) return;
    auto& bucket = buckets[k];
    const auto& members = members_of[k];
    for (const Event& e : evls.rows[k]->events()) {
      if (e.time <= from || e.time > to) continue;
      auto it = members.find(e.u);
      if (it != members.end()) bucket[it->second].push_back(&e);
      if (e.IsEdgeEvent() && e.v != e.u) {
        it = members.find(e.v);
        if (it != members.end()) bucket[it->second].push_back(&e);
      }
    }
  });

  std::vector<NodeHistory> hist_of(uniq.size());
  for (size_t u = 0; u < uniq.size(); ++u) {
    NodeHistory& history = hist_of[u];
    history.node = uniq[u];
    history.from = from;
    history.to = to;
    history.initial = std::move(initials[u]);
    history.events.SetScope(from, to);
    for (size_t k : evls.refs[u]) {
      auto it = buckets[k].find(u);
      if (it == buckets[k].end()) continue;
      for (const Event* e : it->second) history.events.Append(*e);
    }
    history.events.Sort();
  }
  if (uniq.size() == ids.size()) {
    out = std::move(hist_of);  // no duplicates: uniq order == input order
  } else {
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = hist_of[uniq_index.at(ids[i])];
    }
  }
  return out;
}

Result<std::vector<Event>> TGIQueryManager::GetMergedMemberEvents(
    const std::vector<NodeId>& ids, Timestamp from, Timestamp to,
    FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  std::vector<Event> out;
  if (ids.empty()) return out;
  if (stats != nullptr) stats->node_requests += ids.size();

  std::vector<NodeId> uniq(ids);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  std::unordered_set<NodeId> members(uniq.begin(), uniq.end());

  HGS_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<const MergedVersionChain>> chains,
      FetchVersionChains(meta, uniq, stats));

  HGS_ASSIGN_OR_RETURN(ChainEventlists evls,
                       FetchChainEventlists(meta, chains, from, to, stats));
  // Rows of one chunk differ only in micro-partition; together they cover
  // the chunk's member-touching events. An event touching two members
  // through one row is still picked once.
  std::map<std::pair<TimespanId, uint32_t>, std::vector<const EventList*>>
      by_chunk;
  for (size_t k = 0; k < evls.rows.size(); ++k) {
    if (evls.rows[k] != nullptr) {
      by_chunk[evls.chunk[k]].push_back(evls.rows[k].get());
    }
  }
  std::vector<std::vector<const EventList*>> chunks;
  chunks.reserve(by_chunk.size());
  for (auto& [chunk, rows] : by_chunk) chunks.push_back(std::move(rows));
  const size_t merged = MergeEventChunks(
      chunks, from, to, fetch_parallelism_,
      [&members](const Event& e) {
        return members.contains(e.u) ||
               (e.IsEdgeEvent() && members.contains(e.v));
      },
      &out);
  if (stats != nullptr) stats->taf_merge_skipped_sorts += merged;
  return out;
}

Result<std::vector<std::pair<Timestamp, Delta>>>
TGIQueryManager::GetNodeVersions(NodeId id, Timestamp from, Timestamp to,
                                 FetchStats* stats) {
  HGS_ASSIGN_OR_RETURN(NodeHistory history,
                       GetNodeHistory(id, from, to, stats));
  return history.Materialize();
}

Result<Graph> TGIQueryManager::GetKHopNeighborhood(NodeId id, Timestamp t,
                                                   int k, FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  const tgi::TimespanMeta* span = SpanFor(meta, t);
  if (span == nullptr) return Graph();
  const bool replicated = meta.graph.replicate_one_hop;

  HGS_ASSIGN_OR_RETURN(MicroPartitionId center_pid,
                       PidOf(meta, id, *span, stats));
  HGS_ASSIGN_OR_RETURN(
      std::vector<Delta> center,
      FetchMicroStatesAt(meta, *span, {center_pid}, t, replicated, stats));
  Delta acc = std::move(center[0]);

  std::unordered_set<MicroPartitionId> fetched_pids{center_pid};
  std::unordered_set<NodeId> visited{id};
  std::vector<NodeId> frontier{id};

  for (int hop = 1; hop <= k && !frontier.empty(); ++hop) {
    // Discover the next ring from edges incident to the frontier.
    std::unordered_set<NodeId> next;
    for (NodeId u : frontier) {
      acc.ForEachEdgeEntry([&](const EdgeKey& key,
                               const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        NodeId other;
        if (key.u == u) {
          other = key.v;
        } else if (key.v == u) {
          other = key.u;
        } else {
          return;
        }
        if (!visited.contains(other)) next.insert(other);
      });
    }
    const bool last_hop = hop == k;
    // Records for the new ring. On the last hop, nodes whose records are
    // already known — via their own partition or via aux replication rows —
    // need no further fetches (the paper's early termination).
    std::vector<MicroPartitionId> missing;
    for (NodeId n : next) {
      const auto* rec = acc.FindNode(n);
      bool have_record = rec != nullptr && rec->has_value();
      if (last_hop && have_record) continue;
      HGS_ASSIGN_OR_RETURN(MicroPartitionId pid, PidOf(meta, n, *span, stats));
      if (!fetched_pids.contains(pid)) missing.push_back(pid);
    }
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
    // The whole expansion ring is fetched as one batched request.
    HGS_ASSIGN_OR_RETURN(
        std::vector<Delta> fetched,
        FetchMicroStatesAt(meta, *span, missing, t, replicated, stats));
    // The ring's states are this query's own, so they are summed by move.
    std::vector<Delta*> parts{&acc};
    for (size_t i = 0; i < missing.size(); ++i) {
      parts.push_back(&fetched[i]);
      fetched_pids.insert(missing[i]);
    }
    acc = Delta::SumOrdered(std::span<Delta* const>(parts));
    for (NodeId n : next) visited.insert(n);
    frontier.assign(next.begin(), next.end());
  }

  // Induced subgraph on the visited set, from whatever the fetch saw.
  Graph out;
  for (NodeId n : visited) {
    const auto* rec = acc.FindNode(n);
    if (rec != nullptr && rec->has_value()) out.AddNode(n, (*rec)->attrs);
  }
  acc.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        if (visited.contains(key.u) && visited.contains(key.v) &&
            out.HasNode(key.u) && out.HasNode(key.v)) {
          out.AddEdge(rec->src, rec->dst, rec->directed, rec->attrs);
        }
      });
  return out;
}

Result<std::vector<Event>> TGIQueryManager::GetEventsInRange(
    Timestamp from, Timestamp to, FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  // One slot per eventlist overlapping the range; each is a chunk of the
  // ingest stream, and spans and eventlists come in stream order.
  std::vector<Slot> slots;
  for (const auto& span : meta.spans) {
    if (span.end <= from || span.start > to) continue;
    for (size_t j = 0; j < span.eventlist_bounds.size(); ++j) {
      const auto& [first, last] = span.eventlist_bounds[j];
      if (last <= from || first > to) continue;
      slots.push_back(
          Slot{&span, tgi::EventlistDid(j), CacheKind::kEventList});
    }
  }
  HGS_ASSIGN_OR_RETURN(SlotRows rows, FetchSlots(meta, slots, stats));
  std::vector<std::vector<const EventList*>> chunks(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const auto& row : rows[i]) {
      chunks[i].push_back(static_cast<const EventList*>(row.get()));
    }
  }
  std::vector<Event> out;
  MergeEventChunks(chunks, from, to, fetch_parallelism_,
                   [](const Event&) { return true; }, &out);
  return out;
}

Result<OneHopHistory> TGIQueryManager::GetOneHopHistory(NodeId id,
                                                        Timestamp from,
                                                        Timestamp to,
                                                        FetchStats* stats) {
  WallTimer timer(stats);
  HGS_ASSIGN_OR_RETURN(MetaRef meta_ref, EnsureFresh(stats));
  const MetaState& meta = *meta_ref;
  HGS_ASSIGN_OR_RETURN(std::vector<NodeHistory> center,
                       GetNodeHistoriesWith(meta, {id}, from, to, stats));
  OneHopHistory out;
  out.center = std::move(center[0]);

  // Neighbor activity intervals: initial edges are active from `from`; edge
  // events extend / bound them (Algorithm 5's UpdateNeighborInfo).
  std::unordered_map<NodeId, std::pair<Timestamp, Timestamp>> active;
  out.center.initial.ForEachEdgeEntry(
      [&](const EdgeKey& key, const std::optional<EdgeRecord>& rec) {
        if (!rec.has_value()) return;
        NodeId nbr = key.u == id ? key.v : key.u;
        active[nbr] = {from, to};
      });
  for (const Event& e : out.center.events.events()) {
    if (!e.IsEdgeEvent()) continue;
    NodeId nbr = e.u == id ? e.v : e.u;
    if (e.type == EventType::kAddEdge) {
      auto it = active.find(nbr);
      if (it == active.end()) {
        active[nbr] = {e.time, to};
      } else {
        it->second.second = to;  // re-activated: extend to the end
      }
    } else if (e.type == EventType::kRemoveEdge) {
      auto it = active.find(nbr);
      if (it != active.end()) it->second.second = e.time;
    }
  }

  std::vector<std::pair<NodeId, std::pair<Timestamp, Timestamp>>> nbrs(
      active.begin(), active.end());
  std::sort(nbrs.begin(), nbrs.end());
  out.neighbors.resize(nbrs.size());
  HGS_RETURN_NOT_OK(ParallelStatusFor(
      nbrs.size(), fetch_parallelism_, stats,
      [&](size_t i, FetchStats* local) -> Status {
        const auto& [nbr, active_range] = nbrs[i];
        HGS_ASSIGN_OR_RETURN(std::vector<NodeHistory> hist,
                             GetNodeHistoriesWith(meta, {nbr},
                                                  active_range.first,
                                                  active_range.second, local));
        out.neighbors[i] = std::move(hist[0]);
        return Status::OK();
      }));
  return out;
}

}  // namespace hgs
