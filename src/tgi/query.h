// TGIQueryManager: the read side of the Temporal Graph Index (Section 4.6).
// Implements the paper's retrieval primitives:
//   * GetSnapshot            — Algorithm 1 (graph as of time t)
//   * GetNodeStateDelta      — static vertex (node + incident edges at t)
//   * GetNodeHistory         — Algorithm 2 (version chains + eventlists)
//   * GetNodeHistories       — set-at-a-time Algorithm 2 (bulk retrieval)
//   * GetKHopNeighborhood    — Algorithm 4 (expansion; replication-aware)
//   * GetOneHopHistory       — Algorithm 5
//
// GetNodeHistories is the set-at-a-time primitive behind TAF's parallel
// fetch protocol (Fig 10): instead of one version-chain scan and one
// eventlist fetch per node, it groups the requested ids by placement, runs
// one scan per touched versions partition, unions every version-chain
// reference into a single deduplicated eventlist batch (an eventlist shared
// by many members is fetched and deserialized once, then demultiplexed per
// node), and batches the initial-state fetches per micro-partition. Its
// cost is therefore bounded by partitions touched, not nodes requested.
//
// Every reconstruction runs one row pipeline: plan the merge slots (tree
// deltas along the checkpoint path, then eventlists), fetch every slot's
// micro-delta rows decoded (FetchSlots), sum the tree deltas in one k-way
// merge (Delta::SumOrdered), and replay the eventlists after it in slot
// order (ApplyRow). Event retrievals (GetEventsInRange, GetMergedMemberEvents)
// merge the fetched eventlist rows chunk by chunk instead: the result is
// chronological, each stored event appears once, and events sharing a
// timestamp come out in EventTotalOrder.
//
// All fetches are decomposed into independent micro-delta reads. Point
// reads are batched per query through Cluster::MultiGet (one node round
// trip per storage node instead of one per key); partition scans run on
// `fetch_parallelism` concurrent clients (the paper's c). Both kinds of
// read pass through a sharded LRU partition-delta cache, so overlapping
// retrievals skip the simulated fetch round trips entirely. Both cache
// tiers key entries by one typed CacheKey that carries the sub-epoch of its
// (table, partition) scope. When AppendBatch re-publishes some scopes, the
// next query's refresh evicts only entries of those scopes; every other
// scope's entries stay warm.

#ifndef HGS_TGI_QUERY_H_
#define HGS_TGI_QUERY_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/result.h"
#include "delta/eventlist.h"
#include "graph/graph.h"
#include "kvstore/cluster.h"
#include "tgi/metadata.h"
#include "tgi/options.h"

namespace hgs {

// clang-format off
/// FetchStats' counters, in one list: Merge and the struct's fields are
/// generated from it, so a new counter is added here and nowhere else.
/// Logical counters (kv_requests, micro_deltas, bytes) count every value
/// the query consumed whether it came from the cluster or the read cache;
/// kv_batches counts the physical node round trips actually issued, which
/// is what batching and caching reduce.
#define HGS_FETCH_COUNTERS(X)                                                 \
  X(kv_requests)    /* logical point gets + scans requested */                \
  X(kv_batches)     /* physical node round trips issued */                    \
  X(cache_hits)     /* reads served by the partition-delta cache */           \
  X(cache_misses)   /* reads that had to go to the cluster */                 \
  X(micro_deltas)   /* values deserialized */                                 \
  X(bytes)          /* raw value bytes fetched */                             \
  /* Node-history retrieval accounting (GetNodeHistory / GetNodeHistories).   \
     The logical/physical split shows the set-at-a-time win: node_requests    \
     and eventlist_refs count what the query asked for, version_scans and     \
     eventlist_fetches what actually hit the index after grouping + dedup. */ \
  X(node_requests)      /* logical node histories requested */                \
  X(version_scans)      /* versions-table partition scans issued */           \
  X(eventlist_refs)     /* version-chain eventlist references */              \
  X(eventlist_fetches)  /* deduplicated eventlist rows fetched */             \
  /* Decoded-tier accounting. Every value the query consumes is either        \
     decoded from raw bytes (decodes; decoded_bytes counts the input) or      \
     served as a ready-to-apply object from the decoded cache                 \
     (decode_hits, zero deserialization). A fully warm decoded cache          \
     drives decodes to 0. */                                                  \
  X(decode_hits)    /* values served decoded (incl. micropart buckets and     \
                       cached "absent" rows) */                               \
  X(decodes)        /* Deserialize calls actually performed */                \
  X(decoded_bytes)  /* raw bytes those decodes consumed */                    \
  /* Zero-copy accounting: `bytes` above counts bytes *viewed* (every value   \
     byte the query consumed, wherever it came from); value_copies counts     \
     values whose bytes actually *moved* into a fresh buffer. On the          \
     shared-buffer path the only copies left are LZ-block materializations,   \
     so uncompressed reads — and every warm read — report 0. */               \
  X(value_copies)   /* values materialized rather than viewed */              \
  /* Set-at-a-time merge accounting (GetMergedMemberEvents): per-eventlist    \
     chunks combined by the k-way merge — which exploits that each            \
     member's picked events are already chronological — instead of a          \
     whole-chunk re-sort. Same-timestamp runs still sort, so the count is     \
     chunks whose full comparison sort was skipped. */                        \
  X(taf_merge_skipped_sorts)                                                  \
  /* Invalidation precision: when this query observed a re-publish and        \
     refreshed, how many cache entries (both tiers + micropart buckets) the   \
     sweep kept warm vs evicted. A partition-scoped publish retains every     \
     scope it didn't touch; the old global bump evicted everything. */        \
  X(cache_entries_retained)                                                   \
  X(cache_entries_invalidated)                                                \
  /* Resilience accounting, surfaced from the cluster client (see             \
     HGS_READ_CALL_COUNTERS): what the fault-tolerance machinery did on       \
     this query's behalf. All zero on a healthy cluster. */                   \
  HGS_READ_CALL_COUNTERS(X)
// clang-format on

/// Read-cost accounting for one retrieval call (the currency of Table 1).
/// Every field but wall_seconds is declared by HGS_FETCH_COUNTERS.
struct FetchStats {
  HGS_FETCH_COUNTERS(HGS_COUNTER_FIELD)
  double wall_seconds = 0.0;

  double CacheHitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }

#define HGS_ADD_COUNTER(name) name += o.name;
  void Merge(const FetchStats& o) {
    HGS_FETCH_COUNTERS(HGS_ADD_COUNTER)
    wall_seconds += o.wall_seconds;
  }

  /// Folds one cluster read's resilience accounting into these stats.
  void Merge(const ReadCallStats& o) {
    HGS_READ_CALL_COUNTERS(HGS_ADD_COUNTER)
  }
#undef HGS_ADD_COUNTER
};

/// What a read-cache entry holds. Part of its key, so two kinds of object
/// never alias under one set of coordinates, and an entry's object is
/// always cast back to the type that produced it.
enum class CacheKind : uint8_t {
  kPoint,         ///< byte tier: one point-read value, or its absence
  kScan,          ///< byte tier: the pairs of one partition prefix scan
  kDelta,         ///< decoded tier: one Delta row
  kEventList,     ///< decoded tier: one EventList row
  kDecodedScan,   ///< decoded tier: every decoded row of one scan prefix
  kVersionChain,  ///< decoded tier: one node's merged version chain
};

/// Key of one entry in either read-cache tier: the (table, partition, row)
/// coordinates of a row or scan prefix, tagged with the sub-epoch of its
/// (table, partition) scope under the epoch map the filling query pinned.
/// A late insert from an old-epoch query is therefore invisible to queries
/// at newer epochs, and a publish that touched other scopes leaves the key
/// valid.
struct CacheKey {
  CacheKind kind = CacheKind::kPoint;
  uint64_t sub_epoch = 0;
  std::string_view table;  ///< a tgi::k*Table constant (static storage)
  uint64_t partition = 0;
  std::string row;  ///< row key, or scan prefix

  bool operator==(const CacheKey&) const = default;

  /// The key's share of an entry's byte charge: the packed width of its
  /// fields (kind, sub-epoch, table, separator, partition, row).
  size_t Bytes() const { return 18 + table.size() + row.size(); }

  struct Hash {
    size_t operator()(const CacheKey& k) const;
  };
};

/// A node's evolution over (from, to]: its state at `from` plus every event
/// touching it afterwards. This is also the wire format TAF's NodeT wraps.
struct NodeHistory {
  NodeId node = kInvalidNodeId;
  Timestamp from = 0;
  Timestamp to = 0;
  Delta initial;     ///< node record + incident edges as of `from`
  EventList events;  ///< events touching the node, chronological

  /// Change-point count (the paper's "version changes").
  size_t VersionCount() const { return events.size(); }

  /// Materialized per-version states: (time, node+edges delta), starting
  /// with the initial state at `from`.
  std::vector<std::pair<Timestamp, Delta>> Materialize() const;
};

/// Result of Algorithm 5: the center's history plus the histories of every
/// node that was a neighbor at some point in the interval.
struct OneHopHistory {
  NodeHistory center;
  std::vector<NodeHistory> neighbors;
};

/// Byte budgets of the two read-cache tiers; 0 disables a tier. Passed by
/// field name, so a budget can never land in the wrong parameter.
struct CacheBudgets {
  size_t read_bytes = 0;     ///< partition-delta (raw byte) cache
  size_t decoded_bytes = 0;  ///< decoded-object cache
};

class TGIQueryManager {
 public:
  /// `budgets` sizes the two read-cache tiers (TGI::OpenQueryManager passes
  /// the TGIOptions knobs). The tiers are independent: bytes serve
  /// re-fetches without round trips, decoded objects serve repeats without
  /// deserialization. Each tier splits its budget into one lock shard per
  /// 64 KiB, at most 16, so a small budget still admits entries that fit in
  /// the whole of it.
  explicit TGIQueryManager(Cluster* cluster, size_t fetch_parallelism = 1,
                           CacheBudgets budgets = {});

  /// Loads graph + timespan metadata. Metadata and the read cache refresh
  /// automatically when the cluster's publish epoch changes (AppendBatch).
  Status Open();

  // -- retrieval primitives (Section 4.6) ---------------------------------
  Result<Graph> GetSnapshot(Timestamp t, FetchStats* stats = nullptr);
  Result<Delta> GetSnapshotDelta(Timestamp t, FetchStats* stats = nullptr);

  /// Multipoint snapshot retrieval (Fig 1): the graph at each timepoint.
  /// Consecutive points within one timespan reuse the previous state and
  /// replay only the eventlists in between, rather than re-walking the tree.
  Result<std::vector<Graph>> GetMultipointSnapshots(
      const std::vector<Timestamp>& times, FetchStats* stats = nullptr);

  /// The state of one node (record + incident edges) as of t. The returned
  /// delta is empty if the node does not exist at t.
  Result<Delta> GetNodeStateDelta(NodeId id, Timestamp t,
                                  FetchStats* stats = nullptr);

  Result<NodeHistory> GetNodeHistory(NodeId id, Timestamp from, Timestamp to,
                                     FetchStats* stats = nullptr);

  /// Set-at-a-time node-history retrieval (the TAF parallel fetch
  /// primitive). Returns one NodeHistory per input id, in input order;
  /// ids absent from the history yield an empty history (no initial state,
  /// no events), and duplicated ids yield duplicated results. Results are
  /// identical to per-id GetNodeHistory calls, but the physical work is
  /// bounded by partitions touched: one versions-table scan per touched
  /// placement partition, one deduplicated eventlist batch shared by all
  /// requested nodes, and batched initial-state fetches. FetchStats
  /// reports the grouping win as node_requests / eventlist_refs (logical)
  /// vs. version_scans / eventlist_fetches (physical).
  Result<std::vector<NodeHistory>> GetNodeHistories(
      const std::vector<NodeId>& ids, Timestamp from, Timestamp to,
      FetchStats* stats = nullptr);

  /// The union of the member set's events in (from, to], globally
  /// time-ordered and deduplicated — the retrieval behind TAF's subgraph
  /// histories. Reuses GetNodeHistories' set-at-a-time machinery (merged
  /// version chains, one deduplicated eventlist batch, each row scanned
  /// once), but instead of demultiplexing per node it merges by eventlist:
  /// rows are grouped by (timespan, eventlist index) — a chunk of the
  /// original chronological stream — and each chunk's rows are k-way
  /// merged by time, with equal-timestamp runs sorted by EventTotalOrder
  /// and deduplicated (duplicates of an internal edge event all live in
  /// the same chunk). No global sort over the union, and no initial-state
  /// fetches.
  Result<std::vector<Event>> GetMergedMemberEvents(
      const std::vector<NodeId>& ids, Timestamp from, Timestamp to,
      FetchStats* stats = nullptr);

  /// Materialized node versions in (from, to]: GetNodeHistory + replay.
  Result<std::vector<std::pair<Timestamp, Delta>>> GetNodeVersions(
      NodeId id, Timestamp from, Timestamp to, FetchStats* stats = nullptr);

  /// k-hop neighborhood at time t (Algorithm 4: iterative expansion): the
  /// subgraph induced by the nodes within k hops of `id`. With 1-hop
  /// replication enabled in the index, the last expansion level is served
  /// from auxiliary micro-deltas without extra partition fetches. The node
  /// set, every node's attributes and every returned edge are then still
  /// exact, and so is every edge with an endpoint closer than k hops, but
  /// an edge between two nodes exactly k hops out may be missing: neither
  /// endpoint's own partition was fetched.
  Result<Graph> GetKHopNeighborhood(NodeId id, Timestamp t, int k,
                                    FetchStats* stats = nullptr);

  Result<OneHopHistory> GetOneHopHistory(NodeId id, Timestamp from,
                                         Timestamp to,
                                         FetchStats* stats = nullptr);

  /// Every event in (from, to], across all timespans and partitions, in
  /// chronological order, each stored event once (an edge event stored in
  /// both endpoints' rows included); events sharing a timestamp come out
  /// in EventTotalOrder. This is the full-log scan primitive (used by the
  /// DeltaGraph baseline's version queries and by whole-graph evolution
  /// analyses); its cost is proportional to the range's change volume.
  Result<std::vector<Event>> GetEventsInRange(Timestamp from, Timestamp to,
                                              FetchStats* stats = nullptr);

  // -- metadata ------------------------------------------------------------
  Timestamp HistoryStart() const;
  Timestamp HistoryEnd() const;
  uint64_t EventCount() const;
  size_t fetch_parallelism() const {
    return fetch_parallelism_.load(std::memory_order_relaxed);
  }
  /// Safe to call concurrently with running queries: each query reads the
  /// parallelism once per fetch loop through the atomic.
  void set_fetch_parallelism(size_t c) {
    fetch_parallelism_.store(c == 0 ? 1 : c, std::memory_order_relaxed);
  }

  /// Lifetime counters of the partition-delta cache (zeros when disabled).
  LruCacheCounters ReadCacheCounters() const {
    return read_cache_ != nullptr ? read_cache_->Counters()
                                  : LruCacheCounters{};
  }

  /// Lifetime counters of the decoded-object cache (zeros when disabled).
  LruCacheCounters DecodedCacheCounters() const {
    return decoded_cache_ != nullptr ? decoded_cache_->Counters()
                                     : LruCacheCounters{};
  }

  /// Lifetime invalidation-precision counters: cache entries kept warm vs
  /// evicted across every publish-triggered refresh this manager ran.
  uint64_t CacheEntriesRetained() const {
    return entries_retained_.load(std::memory_order_relaxed);
  }
  uint64_t CacheEntriesInvalidated() const {
    return entries_invalidated_.load(std::memory_order_relaxed);
  }

 private:
  /// One cached read: either a point-read value (possibly a cached
  /// "absent") or the pairs of a partition scan. Values are SharedValues —
  /// the cache shares the storage node's buffer on fill and hands out
  /// views on hit, so neither direction copies value bytes.
  struct ReadCacheEntry {
    bool found = false;          ///< point reads: value present
    SharedValue value;           ///< point-read payload (zero-copy view)
    std::vector<KVPair> pairs;   ///< scan payload (zero-copy views)
  };
  using ReadCache =
      ShardedLruCache<CacheKey, std::shared_ptr<const ReadCacheEntry>,
                      CacheKey::Hash>;

  /// One decoded-tier entry: an immutable decoded object shared between the
  /// cache and every in-flight query that fetched it (nullptr caches a
  /// known-absent row), plus the raw byte size it was decoded from so the
  /// logical byte accounting is identical between decode hits and misses.
  /// The concrete type behind `obj` is fixed by the CacheKind of the cache
  /// key (one kind per decoded type), so a cast back can never mismatch.
  struct DecodedEntry {
    std::shared_ptr<const void> obj;
    size_t raw_bytes = 0;
  };
  using DecodedCache = ShardedLruCache<CacheKey, DecodedEntry, CacheKey::Hash>;

  /// Scan-granularity decoded entry (CacheKind::kDecodedScan): every decoded
  /// row of one (table, partition, prefix) scan, in key order. A warm
  /// delta-major scan costs exactly one decoded-tier probe for the whole
  /// prefix instead of one byte-cache probe plus one decoded probe per row.
  /// The row type (Delta vs EventList) is fixed by the scan prefix's did, so
  /// one kind cannot alias two row types under one key.
  struct DecodedScan {
    std::vector<DecodedEntry> rows;
  };
  using DecodedScanRef = std::shared_ptr<const DecodedScan>;

  /// Per-node merged version chain (CacheKind::kVersionChain): the
  /// concatenation of every VersionChainSegment of one node, in chain (tsid)
  /// order and unfiltered by time, so hub nodes with many segments cost one
  /// decoded entry — and one probe — instead of one per segment.
  /// segment_count and raw_bytes carry the logical accounting a rebuild
  /// would have reported.
  struct MergedVersionChain {
    std::vector<tgi::VersionEntry> entries;
    size_t segment_count = 0;
    size_t raw_bytes = 0;
  };

  /// An immutable snapshot of the index metadata at one publish epoch,
  /// pinning the whole epoch map (`epochs`). Every query grabs one
  /// shared_ptr at entry and runs entirely against it, so a concurrent
  /// refresh (AppendBatch in another thread) can swap in new metadata
  /// without invalidating in-flight queries. Each cache key the query
  /// writes embeds its scope's sub-epoch, so late inserts from an
  /// old-epoch query can never be served to a new-epoch one — and a
  /// publish leaves every untouched scope's entries valid.
  struct MetaState {
    uint64_t epoch = 0;     ///< global epoch (== epochs->global when set)
    EpochVectorRef epochs;  ///< pinned sub-epoch map of this snapshot
    tgi::GraphMeta graph;
    std::vector<tgi::TimespanMeta> spans;

    /// Sub-epoch of one (table, partition) scope under the pinned map.
    uint64_t SubEpochFor(std::string_view table, uint64_t partition) const {
      return epochs == nullptr
                 ? epoch
                 : epochs->SubEpoch(MakeEpochKey(table, partition));
    }

    /// Cache key of `row` in (table, partition) at this snapshot's epochs.
    CacheKey Key(CacheKind kind, std::string_view table, uint64_t partition,
                 std::string_view row) const {
      return CacheKey{kind, SubEpochFor(table, partition), table, partition,
                      std::string(row)};
    }
  };
  using MetaRef = std::shared_ptr<const MetaState>;

  /// Timespan of `meta` whose range covers t (last span with start <= t),
  /// or nullptr when t precedes all history.
  static const tgi::TimespanMeta* SpanFor(const MetaState& meta, Timestamp t);

  /// Loads graph + timespan metadata from the cluster, pinned to `epochs`.
  Result<MetaRef> LoadMetadata(EpochVectorRef epochs) const;

  /// Timespans-table rows, parsed and sorted by tsid.
  Result<std::vector<tgi::TimespanMeta>> LoadSpans() const;

  /// Fails before Open(); otherwise returns the metadata snapshot to run
  /// the query against. When the cluster's publish epoch moved
  /// (AppendBatch) it reloads only the re-published metadata rows and
  /// sweeps the cache tiers entry-by-entry, evicting exactly the entries
  /// whose (table, partition) sub-epoch changed; the retain/evict counts
  /// land in `stats` and the lifetime counters.
  Result<MetaRef> EnsureFresh(FetchStats* stats = nullptr);

  /// The current metadata snapshot (for the metadata accessors).
  MetaRef CurrentMeta() const;

  /// Micro-partition of `id` during a span (Micropartitions table lookup for
  /// locality spans, hash for random spans).
  Result<MicroPartitionId> PidOf(const MetaState& meta, NodeId id,
                                 const tgi::TimespanMeta& span,
                                 FetchStats* stats);

  /// One merge slot of a reconstruction: the rows of delta `did` in `span`
  /// across its micro-partitions, all of decoded type `kind`
  /// (CacheKind::kDelta for tree deltas, kEventList for eventlists).
  struct Slot {
    const tgi::TimespanMeta* span = nullptr;
    DeltaId did = 0;
    CacheKind kind = CacheKind::kDelta;
  };
  /// Decoded rows of each slot, in slot order; absent rows are dropped.
  using SlotRows = std::vector<std::vector<std::shared_ptr<const void>>>;

  /// The slots that rebuild `span`'s state at t: the tree deltas on the
  /// path to the checkpoint before t, root to leaf, then the eventlists
  /// from that checkpoint through the one covering t.
  static std::vector<Slot> SnapshotSlots(const tgi::TimespanMeta& span,
                                         Timestamp t);

  /// Appends the slots of `span`'s eventlists first..last (inclusive).
  static void AppendEventlistSlots(const tgi::TimespanMeta& span,
                                   int64_t first, int64_t last,
                                   std::vector<Slot>* slots);

  /// Fetches every slot's rows, decoded. Delta-major: one FetchDecodedScan
  /// per (slot, horizontal partition), run on the fetch clients;
  /// partition-major: one FetchDecodedRows batch over every (slot,
  /// micro-partition) row.
  Result<SlotRows> FetchSlots(const MetaState& meta,
                              const std::vector<Slot>& slots,
                              FetchStats* stats);

  /// Reconstructed state of micro-partitions at time t (one Delta per input
  /// pid): the SnapshotSlots rows of each pid, optionally with their aux
  /// replication rows. Partition-major runs one scan per pid and keeps the
  /// slots' rows; delta-major batches every row into one decoded fetch.
  Result<std::vector<Delta>> FetchMicroStatesAt(
      const MetaState& meta, const tgi::TimespanMeta& span,
      const std::vector<MicroPartitionId>& pids, Timestamp t, bool include_aux,
      FetchStats* stats);

  /// Batched, cached point reads: cache lookups first, then one MultiGet
  /// for the misses. One entry per input key; NotFound maps to nullopt.
  /// Values are zero-copy views shared with the byte cache.
  Result<std::vector<std::optional<SharedValue>>> FetchValues(
      const MetaState& meta, std::string_view table,
      const std::vector<MultiGetKey>& keys, FetchStats* stats);

  /// Fetches one value; NotFound is mapped to "absent" (nullopt).
  Result<std::optional<SharedValue>> FetchValue(const MetaState& meta,
                                                std::string_view table,
                                                uint64_t partition,
                                                std::string_view key,
                                                FetchStats* stats);

  /// Cached partition prefix scan. The returned entry is shared with the
  /// cache; callers must not mutate it.
  Result<std::shared_ptr<const ReadCacheEntry>> CachedScan(
      const MetaState& meta, std::string_view table, uint64_t partition,
      std::string_view prefix, FetchStats* stats);

  // -- decoded tier --------------------------------------------------------
  // All Delta / EventList / VersionChainSegment deserialization on the read
  // path funnels through these two helpers, so a decoded object is produced
  // at most once per epoch and shared (immutable, by shared_ptr) between
  // the cache and every consumer. Micropart buckets keep their own decoded
  // map in micropart_cache_ (always on — PidOf is called per node and must
  // not re-decode a bucket even when the byte-budgeted tiers are disabled).

  /// Decoded-tier batched point reads ("decode-first" pipeline): probe the
  /// decoded cache per row — a hit skips the byte fetch and the decode
  /// entirely — then fetch the missing rows' bytes in one batched
  /// FetchValues and decode each miss exactly once, in parallel. kinds[i]
  /// is the decoded type of keys[i] (CacheKind::kDelta or kEventList).
  /// An absent row yields a null obj (and is negatively cached).
  Result<std::vector<DecodedEntry>> FetchDecodedRows(
      const MetaState& meta, std::string_view table,
      const std::vector<MultiGetKey>& keys,
      const std::vector<CacheKind>& kinds, FetchStats* stats);

  /// Decodes one present row whose raw bytes are in hand as `kind`, counts
  /// it as consumed, and publishes the shared object under the row's
  /// decoded-tier key. With `probe`, a decoded-tier hit on that key is
  /// returned instead and nothing is decoded; callers that already probed
  /// (FetchDecodedRows' misses) pass false.
  Result<DecodedEntry> DecodeShared(const MetaState& meta, CacheKind kind,
                                    std::string_view table,
                                    uint64_t partition, std::string_view row,
                                    std::string_view raw, bool probe,
                                    FetchStats* stats);

  /// Scan-granularity decoded fetch: one decoded-tier probe serves every
  /// row of the (table, partition, prefix) scan as ready-to-apply objects.
  /// On a miss the scan's bytes come through CachedScan, each row decodes
  /// (or decode-hits) through DecodeShared — publishing row-level entries
  /// for the point-read paths — and the assembled row vector is published
  /// under the scan's own key. `row_kind` is the decoded type of every row
  /// (scans here are per-did, so one scan is single-typed).
  Result<DecodedScanRef> FetchDecodedScan(const MetaState& meta,
                                          std::string_view table,
                                          uint64_t partition,
                                          std::string_view prefix,
                                          CacheKind row_kind,
                                          FetchStats* stats);

  /// Per-node merged version chains for `ids` (see MergedVersionChain):
  /// probes the decoded tier per node, scans only the versions partitions
  /// that still have a node missing, and publishes rebuilt chains. One
  /// entry per input id, never null (a node without version rows yields an
  /// empty chain, negatively cached).
  Result<std::vector<std::shared_ptr<const MergedVersionChain>>>
  FetchVersionChains(const MetaState& meta, const std::vector<NodeId>& ids,
                     FetchStats* stats);

  /// The eventlist rows that version chains reference in (from, to].
  struct ChainEventlists {
    /// Deduplicated rows, decoded; null where the row is absent.
    std::vector<std::shared_ptr<const EventList>> rows;
    /// (timespan, eventlist index) chunk of the ingest stream per row.
    std::vector<std::pair<TimespanId, uint32_t>> chunk;
    /// Per chain: its rows (indices into `rows`) in chain order.
    std::vector<std::vector<size_t>> refs;
  };

  /// Unions every in-range reference of `chains` into one deduplicated
  /// eventlist batch and fetches it decoded, so an eventlist shared by
  /// many chains is fetched and decoded once. Counts eventlist_refs and
  /// eventlist_fetches.
  Result<ChainEventlists> FetchChainEventlists(
      const MetaState& meta,
      const std::vector<std::shared_ptr<const MergedVersionChain>>& chains,
      Timestamp from, Timestamp to, FetchStats* stats);

  // Internal (no-refresh) bodies of the public primitives, so composite
  // queries run every leg against one metadata snapshot.
  Result<Delta> GetSnapshotDeltaWith(const MetaState& meta, Timestamp t,
                                     FetchStats* stats);
  /// Bulk body shared by GetNodeHistories and (with one id) GetNodeHistory,
  /// so single and set retrievals are the same code path by construction.
  Result<std::vector<NodeHistory>> GetNodeHistoriesWith(
      const MetaState& meta, const std::vector<NodeId>& ids, Timestamp from,
      Timestamp to, FetchStats* stats);

  Cluster* cluster_;
  /// Atomic so set_fetch_parallelism can race in-flight queries (each fetch
  /// loop samples it once); plain size_t here was a data race under TSan.
  std::atomic<size_t> fetch_parallelism_;
  /// Atomic for the same reason: Open() may race EnsureFresh readers.
  std::atomic<bool> opened_{false};

  mutable Mutex meta_mu_;  ///< guards meta_ swaps/reads
  MetaRef meta_ GUARDED_BY(meta_mu_);

  /// Partition-delta cache over point reads and scans of the immutable
  /// index tables (CacheKind::kPoint and kScan keys).
  std::unique_ptr<ReadCache> read_cache_;
  /// Decoded-object cache over the same coordinates (the decoded kinds),
  /// holding immutable shared Delta / EventList / VersionChainSegment
  /// values charged by their decoded footprint.
  std::unique_ptr<DecodedCache> decoded_cache_;
  /// Serializes publish-triggered refreshes (metadata reload + cache
  /// sweep). Acquired before meta_mu_ / cache shard locks, never inside
  /// them — see the lock hierarchy in common/mutex.h.
  Mutex refresh_mu_;

  Mutex micropart_mu_;
  /// One decoded Micropartitions bucket, tagged with the sub-epoch of its
  /// partition at fill time so a stale fill (an in-flight old-epoch query
  /// racing a publish) is treated as a miss rather than served.
  struct MicropartBucket {
    uint64_t epoch = 0;
    std::unordered_map<NodeId, MicroPartitionId> map;
  };
  // (tsid * buckets + bucket) -> decoded bucket; the key is the bucket
  // row's Micropartitions-table partition.
  std::unordered_map<uint64_t, MicropartBucket> micropart_cache_
      GUARDED_BY(micropart_mu_);

  std::atomic<uint64_t> entries_retained_{0};
  std::atomic<uint64_t> entries_invalidated_{0};
};

}  // namespace hgs

#endif  // HGS_TGI_QUERY_H_
