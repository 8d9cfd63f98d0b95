#include "kvstore/cluster.h"

#include <future>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace hgs {

namespace {

/// Granularity of the hedged-read race. Coarse enough to stay off the
/// scheduler's back, fine relative to the millisecond-scale latencies the
/// simulation deals in.
constexpr auto kPollQuantum = std::chrono::microseconds(100);

/// Verifies and decompresses one stored value, bumping `*value_copies`
/// when the codec forced a materialization. A checksum failure comes back
/// as ChecksumMismatch.
Result<SharedValue> OpenStored(const SharedValue& stored,
                               size_t* value_copies) {
  HGS_ASSIGN_OR_RETURN(SharedValue unsealed, UnsealValue(stored));
  HGS_ASSIGN_OR_RETURN(SharedValue plain, DecompressShared(unsealed));
  if (value_copies != nullptr && plain.owner() != stored.owner()) {
    ++*value_copies;
  }
  return plain;
}

/// Recovers the placement token embedded in a physical key
/// (table \0 token(8B ordered) key), so repair can re-derive a stored
/// row's replica set without knowing which logical table wrote it.
std::optional<uint64_t> TokenOfPhysicalKey(std::string_view phys) {
  size_t z = phys.find('\0');
  if (z == std::string_view::npos || z + 1 + 8 > phys.size()) {
    return std::nullopt;
  }
  return ReadOrdered64(phys.data() + z + 1);
}

/// Sums one per-node counter across the cluster.
uint64_t SumNodeStat(const std::vector<std::unique_ptr<StorageNode>>& nodes,
                     std::atomic<uint64_t> StorageNodeStats::*counter) {
  uint64_t total = 0;
  for (const auto& n : nodes) {
    total += (n->stats().*counter).load(std::memory_order_relaxed);
  }
  return total;
}

bool Contains(const ReplicaSet& replicas, size_t node) {
  for (uint32_t r : replicas) {
    if (r == node) return true;
  }
  return false;
}

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

bool DeadlinePassed(const Deadline& d) {
  return d.has_value() && std::chrono::steady_clock::now() >= *d;
}

template <typename T>
bool IsReady(const std::future<T>& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Waits until `fut` is ready (true) or `until` passes (false); without
/// `until` it waits as long as it takes.
template <typename T>
bool WaitReady(const std::future<T>& fut, const Deadline& until) {
  if (!until.has_value()) {
    fut.wait();
    return true;
  }
  return fut.wait_until(*until) == std::future_status::ready;
}

/// The hedge trigger: `fut` is still not ready `hedge_us` after the call.
/// False when hedging is off (`hedge_us` <= 0) or the deadline came first.
template <typename T>
bool SlowPastHedge(const std::future<T>& fut, int64_t hedge_us,
                   const Deadline& deadline) {
  if (hedge_us <= 0) return false;
  auto at = std::chrono::steady_clock::now() +
            std::chrono::microseconds(hedge_us);
  if (deadline.has_value()) at = std::min(at, *deadline);
  return !WaitReady(fut, at) && !DeadlinePassed(deadline);
}

/// Polls a hedged request's primary against its hedge side: whether
/// `hedge_ready()` held before the primary was ready, or nullopt when the
/// deadline passed first.
template <typename T, typename HedgeReadyFn>
std::optional<bool> RaceHedge(const std::future<T>& primary,
                              HedgeReadyFn&& hedge_ready,
                              const Deadline& deadline) {
  while (true) {
    if (primary.wait_for(kPollQuantum) == std::future_status::ready) {
      return false;
    }
    if (hedge_ready()) return true;
    if (DeadlinePassed(deadline)) return std::nullopt;
  }
}

/// A replica's answer settles the read when it is a value or an (authori-
/// tative) absence; hard errors keep the race open.
template <typename T>
bool UsableAnswer(const Result<T>& res) {
  return res.ok() || res.status().IsNotFound();
}

/// The first usable answer of a request and, when `hedge` is valid, its
/// hedge. A hard error from the first side to answer waits out the other;
/// the losing future is abandoned (its task completes harmlessly in the
/// node's server pool). nullopt when the deadline passes first.
template <typename T>
std::optional<Result<T>> FirstUsable(std::future<Result<T>>& primary,
                                     std::future<Result<T>>& hedge,
                                     const Deadline& deadline,
                                     bool* hedge_won) {
  if (!hedge.valid()) {
    if (!WaitReady(primary, deadline)) return std::nullopt;
    return primary.get();
  }
  std::optional<bool> hedge_first =
      RaceHedge(primary, [&hedge] { return IsReady(hedge); }, deadline);
  if (!hedge_first.has_value()) return std::nullopt;
  Result<T> first = (*hedge_first ? hedge : primary).get();
  if (UsableAnswer(first)) {
    *hedge_won = *hedge_first;
    return first;
  }
  std::future<Result<T>>& other = *hedge_first ? primary : hedge;
  if (!WaitReady(other, deadline)) return std::nullopt;
  Result<T> second = other.get();
  if (!UsableAnswer(second)) return first;
  *hedge_won = !*hedge_first;
  return second;
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(options) {
  if (options_.num_nodes == 0) options_.num_nodes = 1;
  if (options_.replication == 0) options_.replication = 1;
  options_.replication =
      std::min({options_.replication, options_.num_nodes, kMaxReplicas});
  nodes_.reserve(options_.num_nodes);
  node_state_.reserve(options_.num_nodes);
  for (size_t i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<StorageNode>(
        static_cast<int>(i), options_.server_threads_per_node,
        options_.latency, options_.fault_seed));
    node_state_.push_back(std::make_unique<NodeClientState>());
  }
}

std::string Cluster::PhysicalKey(std::string_view table, uint64_t partition,
                                 std::string_view key) const {
  // table \0 token(8B ordered) key — scanning a (table, token) prefix yields
  // the clustered rows of one partition in key order.
  std::string out;
  out.reserve(table.size() + 1 + 8 + key.size());
  out.append(table);
  out.push_back('\0');
  AppendOrdered64(&out, PlacementToken(table, partition));
  out.append(key);
  return out;
}

ReplicaSet Cluster::Replicas(uint64_t token) const {
  ReplicaSet out;
  size_t primary = static_cast<size_t>(token % nodes_.size());
  for (size_t i = 0; i < options_.replication; ++i) {
    out.nodes[out.count++] =
        static_cast<uint32_t>((primary + i) % nodes_.size());
  }
  return out;
}

size_t Cluster::RequiredAcks(size_t n_replicas) const {
  switch (options_.write_ack) {
    case WriteAck::kOne:
      return n_replicas == 0 ? 0 : 1;
    case WriteAck::kQuorum:
      return n_replicas / 2 + 1;
    case WriteAck::kAll:
      return n_replicas;
  }
  return n_replicas;
}

Cluster::Deadline Cluster::MakeDeadline() const {
  if (options_.request_deadline_micros <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(options_.request_deadline_micros);
}

Status Cluster::DeadlineError(const Status& last) const {
  std::string msg = "request deadline exceeded (" +
                    std::to_string(options_.request_deadline_micros) + "us)";
  if (!last.ok()) msg += "; last replica error: " + last.ToString();
  return Status::IOError(std::move(msg));
}

void Cluster::Backoff(size_t attempt, const Deadline& deadline) const {
  int64_t us = options_.retry_backoff_micros;
  for (size_t i = 1; i < attempt && us < options_.retry_backoff_cap_micros;
       ++i) {
    us *= 2;
  }
  us = std::min(us, options_.retry_backoff_cap_micros);
  auto wake = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  if (deadline.has_value()) wake = std::min(wake, *deadline);
  std::this_thread::sleep_until(wake);
}

void Cluster::Count(uint64_t ReadCallStats::*counter, ReadCallStats* s) {
#define HGS_BUMP_LIFETIME(name)                               \
  if (counter == &ReadCallStats::name) {                      \
    resilience_.name.fetch_add(1, std::memory_order_relaxed); \
  }
  HGS_READ_CALL_COUNTERS(HGS_BUMP_LIFETIME)
#undef HGS_BUMP_LIFETIME
  if (s != nullptr) ++(s->*counter);
}

std::shared_ptr<const std::string> Cluster::SealForStorage(
    std::string_view value, ValueSchema schema,
    std::optional<CompressionKind> codec) const {
  return std::make_shared<const std::string>(SealValue(
      Compress(value, codec.value_or(options_.compression), schema)));
}

// -- Hinted handoff ----------------------------------------------------------

void Cluster::EnqueueHint(size_t node, std::string phys,
                          std::shared_ptr<const std::string> value) {
  NodeClientState& st = *node_state_[node];
  MutexLock lock(st.mu);
  if (st.hints.size() >= options_.hint_limit_per_node) {
    // Bounded queue: drop the oldest hint. The node can no longer be made
    // whole by replay alone — only RepairNode clears the overflow.
    st.hints.pop_front();
    st.overflowed = true;
    resilience_.hints_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  st.hints.push_back(Hint{std::move(phys), std::move(value)});
  st.dirty.store(true, std::memory_order_relaxed);
  resilience_.hints_queued.fetch_add(1, std::memory_order_relaxed);
}

void Cluster::SupersedeHints(size_t node, const std::string& phys) {
  NodeClientState& st = *node_state_[node];
  if (!st.dirty.load(std::memory_order_relaxed)) return;
  MutexLock lock(st.mu);
  st.hints.erase(std::remove_if(st.hints.begin(), st.hints.end(),
                                [&phys](const Hint& h) {
                                  return h.key == phys;
                                }),
                 st.hints.end());
  if (st.hints.empty() && !st.overflowed) {
    st.dirty.store(false, std::memory_order_relaxed);
  }
}

bool Cluster::NodeDirty(size_t node) const {
  return node < node_state_.size() &&
         node_state_[node]->dirty.load(std::memory_order_relaxed);
}

size_t Cluster::PendingHints(size_t node) const {
  if (node >= node_state_.size()) return 0;
  MutexLock lock(node_state_[node]->mu);
  return node_state_[node]->hints.size();
}

Status Cluster::ReplayHints(size_t node) {
  if (node >= nodes_.size()) return Status::InvalidArgument("no such node");
  if (nodes_[node]->IsDown()) {
    return Status::FailedPrecondition(
        "node is down; rejoin it before replaying hints");
  }
  NodeClientState& st = *node_state_[node];
  while (true) {
    Hint hint;
    {
      MutexLock lock(st.mu);
      if (st.hints.empty()) break;
      hint = std::move(st.hints.front());
      st.hints.pop_front();
    }
    // Hints replay in queue order, so a later write of the same key lands
    // last and the node converges to the newest value.
    Status applied = hint.value == nullptr
                         ? DeleteRowFromNode(node, hint.key)
                         : WriteRowToNode(node, hint.key, hint.value);
    if (!applied.ok()) {
      // Node unreachable again mid-replay: put the hint back and report.
      MutexLock lock(st.mu);
      st.hints.push_front(std::move(hint));
      return applied;
    }
    resilience_.hints_replayed.fetch_add(1, std::memory_order_relaxed);
  }
  MutexLock lock(st.mu);
  if (st.hints.empty() && !st.overflowed) {
    st.dirty.store(false, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Cluster::RepairNode(size_t target) {
  if (target >= nodes_.size()) return Status::InvalidArgument("no such node");
  if (nodes_[target]->IsDown()) {
    return Status::FailedPrecondition(
        "node is down; rejoin it before repairing");
  }
  NodeClientState& st = *node_state_[target];
  {
    // Full reconciliation supersedes any queued hints (and recovers from
    // hint overflow — this is the only path that clears it).
    MutexLock lock(st.mu);
    st.hints.clear();
    st.overflowed = false;
  }

  // Authoritative contents the target should hold, assembled from live
  // peers. Replicas store identical sealed buffers, so any live holder is
  // authoritative; the first live peer holding a row wins.
  std::unordered_map<std::string, std::shared_ptr<const std::string>> expected;
  for (size_t peer = 0; peer < nodes_.size(); ++peer) {
    if (peer == target || nodes_[peer]->IsDown()) continue;
    for (auto& [key, value] : nodes_[peer]->SnapshotContents()) {
      std::optional<uint64_t> token = TokenOfPhysicalKey(key);
      if (!token.has_value()) continue;
      if (!Contains(Replicas(*token), target)) continue;
      expected.emplace(key, value);
    }
  }

  uint64_t streamed = 0;
  // Rows the target holds that no live peer says it should hold were
  // deleted while the target was away. Erase only when some live peer is
  // itself a replica for the row (so an authoritative view existed);
  // otherwise the target may be the sole surviving holder — keep the row.
  for (auto& [key, value] : nodes_[target]->SnapshotContents()) {
    auto it = expected.find(key);
    if (it != expected.end()) {
      if (*it->second == *value) {
        expected.erase(it);  // already correct; nothing to stream
      }
      continue;  // differs: restored below
    }
    std::optional<uint64_t> token = TokenOfPhysicalKey(key);
    if (!token.has_value()) continue;
    for (uint32_t r : Replicas(*token)) {
      if (r != target && !nodes_[r]->IsDown()) {
        nodes_[target]->EraseRow(key);
        ++streamed;
        break;
      }
    }
  }
  // Stream in missing and differing rows, sharing the peer's exact buffer
  // so the repaired node ends byte-identical to a never-faulted twin.
  for (auto& [key, value] : expected) {
    nodes_[target]->RestoreRow(key, value);
    ++streamed;
  }
  resilience_.repair_rows.fetch_add(streamed, std::memory_order_relaxed);
  st.dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

// -- Writes ------------------------------------------------------------------

Status Cluster::WriteRowToNode(
    size_t node, const std::string& phys,
    const std::shared_ptr<const std::string>& value) {
  StorageNode* n = nodes_[node].get();
  for (size_t attempt = 0;; ++attempt) {
    std::vector<NodePutRow> rows;
    rows.push_back(NodePutRow{phys, value});
    Status st = n->PutBatch(std::move(rows));
    if (st.ok()) return st;
    if (n->IsDown() || attempt >= options_.max_retries) return st;
    Count(&ReadCallStats::retries, nullptr);
    Backoff(attempt + 1, std::nullopt);
  }
}

Status Cluster::DeleteRowFromNode(size_t node, const std::string& phys,
                                  bool* existed) {
  StorageNode* n = nodes_[node].get();
  for (size_t attempt = 0;; ++attempt) {
    Status st = n->Delete(phys, existed);
    if (st.ok()) return st;
    if (n->IsDown() || attempt >= options_.max_retries) return st;
    Count(&ReadCallStats::retries, nullptr);
    Backoff(attempt + 1, std::nullopt);
  }
}

Status Cluster::FinishWrite(size_t acks, size_t replicas, const char* what) {
  size_t required = RequiredAcks(replicas);
  if (acks < required) {
    resilience_.failed_writes.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError(std::string(what) + " acked by " +
                           std::to_string(acks) + " of " +
                           std::to_string(replicas) + " replicas (" +
                           std::to_string(required) +
                           " required); missed replicas hinted");
  }
  if (acks < replicas) {
    resilience_.degraded_writes.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Cluster::Put(std::string_view table, uint64_t partition,
                    std::string_view key, std::string_view value,
                    ValueSchema schema, std::optional<CompressionKind> codec) {
  std::string phys = PhysicalKey(table, partition, key);
  std::shared_ptr<const std::string> stored =
      SealForStorage(value, schema, codec);
  ReplicaSet replicas = Replicas(PlacementToken(table, partition));
  size_t acks = 0;
  for (uint32_t node : replicas) {
    Status st = WriteRowToNode(node, phys, stored);
    if (st.ok()) {
      ++acks;
      // A committed write makes any hint queued for this key obsolete.
      SupersedeHints(node, phys);
    } else {
      EnqueueHint(node, phys, stored);
    }
  }
  return FinishWrite(acks, replicas.size(), "put");
}

Status Cluster::MultiPut(std::string_view table, std::vector<PutRow> rows,
                         size_t* put_batches) {
  if (put_batches != nullptr) *put_batches = 0;
  if (rows.empty()) return Status::OK();

  // Seal each row once and fan the shared buffer out to its replicas'
  // node groups.
  struct SealedRow {
    std::string phys;
    std::shared_ptr<const std::string> value;
    uint8_t replicas;
  };
  std::vector<SealedRow> sealed;
  sealed.reserve(rows.size());
  std::unordered_map<size_t, std::vector<size_t>> by_node;  // node -> rows
  for (PutRow& row : rows) {
    ReplicaSet replicas = Replicas(PlacementToken(table, row.partition));
    sealed.push_back(SealedRow{PhysicalKey(table, row.partition, row.key),
                               SealForStorage(row.value, row.schema, row.codec),
                               static_cast<uint8_t>(replicas.size())});
    for (uint32_t node : replicas) by_node[node].push_back(sealed.size() - 1);
  }

  auto build_batch = [&sealed](const std::vector<size_t>& idxs) {
    std::vector<NodePutRow> batch;
    batch.reserve(idxs.size());
    for (size_t i : idxs) {
      batch.push_back(NodePutRow{sealed[i].phys, sealed[i].value});
    }
    return batch;
  };

  // One concurrent batched submission per node: group commit.
  std::vector<
      std::tuple<size_t, std::vector<size_t>, std::future<Status>>>
      inflight;
  inflight.reserve(by_node.size());
  for (auto& [node, idxs] : by_node) {
    std::future<Status> fut = nodes_[node]->SubmitPutBatch(build_batch(idxs));
    inflight.emplace_back(node, std::move(idxs), std::move(fut));
  }
  if (put_batches != nullptr) *put_batches = inflight.size();

  std::vector<uint32_t> acks(sealed.size(), 0);
  for (auto& [node, idxs, fut] : inflight) {
    Status st = fut.get();
    // A failed node batch is retried synchronously with backoff (the other
    // nodes have already committed by now), then hinted row by row.
    for (size_t attempt = 0;
         !st.ok() && !nodes_[node]->IsDown() && attempt < options_.max_retries;
         ++attempt) {
      Count(&ReadCallStats::retries, nullptr);
      Backoff(attempt + 1, std::nullopt);
      st = nodes_[node]->PutBatch(build_batch(idxs));
    }
    if (st.ok()) {
      if (node_state_[node]->dirty.load(std::memory_order_relaxed)) {
        for (size_t i : idxs) SupersedeHints(node, sealed[i].phys);
      }
      for (size_t i : idxs) ++acks[i];
    } else {
      for (size_t i : idxs) EnqueueHint(node, sealed[i].phys, sealed[i].value);
    }
  }

  size_t failed_rows = 0;
  size_t degraded_rows = 0;
  for (size_t i = 0; i < sealed.size(); ++i) {
    size_t required = RequiredAcks(sealed[i].replicas);
    if (acks[i] < required) {
      ++failed_rows;
    } else if (acks[i] < sealed[i].replicas) {
      ++degraded_rows;
    }
  }
  if (degraded_rows > 0) {
    resilience_.degraded_writes.fetch_add(degraded_rows,
                                          std::memory_order_relaxed);
  }
  if (failed_rows > 0) {
    resilience_.failed_writes.fetch_add(failed_rows,
                                        std::memory_order_relaxed);
    return Status::IOError("multiput: " + std::to_string(failed_rows) +
                           " of " + std::to_string(sealed.size()) +
                           " rows missed their ack level; missed replicas "
                           "hinted");
  }
  return Status::OK();
}

Result<bool> Cluster::Delete(std::string_view table, uint64_t partition,
                             std::string_view key) {
  std::string phys = PhysicalKey(table, partition, key);
  ReplicaSet replicas = Replicas(PlacementToken(table, partition));
  size_t acks = 0;
  bool any = false;
  for (uint32_t node : replicas) {
    bool existed = false;
    Status st = DeleteRowFromNode(node, phys, &existed);
    if (st.ok()) {
      ++acks;
      any |= existed;
      // The delete also obsoletes any queued (older) write hint for the key.
      SupersedeHints(node, phys);
    } else {
      // Tombstone hint: replay must delete, or the key would resurrect on
      // rejoin.
      EnqueueHint(node, phys, nullptr);
    }
  }
  HGS_RETURN_NOT_OK(FinishWrite(acks, replicas.size(), "delete"));
  return any;
}

// -- Reads -------------------------------------------------------------------

size_t Cluster::ServingOrder(const ReplicaSet& replicas,
                             std::array<uint32_t, kMaxReplicas>* order) const {
  size_t n = replicas.size();
  size_t start = read_counter_.fetch_add(1, std::memory_order_relaxed) % n;
  // Snapshot each replica's state once so a concurrent dirty-flag flip
  // can't make a node appear in both passes (or neither).
  std::array<uint8_t, kMaxReplicas> state{};  // 0 live+clean, 1 dirty, 2 down
  for (size_t i = 0; i < n; ++i) {
    uint32_t node = replicas[i];
    state[i] = nodes_[node]->IsDown() ? 2 : (NodeDirty(node) ? 1 : 0);
  }
  size_t count = 0;
  // Clean live replicas first (rotated for load balancing), then dirty live
  // replicas as a last resort: they may be missing writes, so they only
  // serve when no clean replica is available.
  for (uint8_t pass : {0, 1}) {
    for (size_t i = 0; i < n; ++i) {
      size_t slot = (start + i) % n;
      if (state[slot] == pass) (*order)[count++] = replicas[slot];
    }
  }
  return count;
}

std::optional<size_t> Cluster::HedgeTarget(const ReplicaSet& replicas,
                                           size_t primary) const {
  for (uint32_t r : replicas) {
    if (r != primary && !nodes_[r]->IsDown() && !NodeDirty(r)) return r;
  }
  return std::nullopt;
}

template <typename T, typename SubmitFn, typename AcceptFn>
Result<T> Cluster::ReadReplicas(uint64_t token, SubmitFn&& submit,
                                AcceptFn&& accept, const Deadline& deadline,
                                ReadCallStats* call_stats) {
  ReplicaSet replicas = Replicas(token);
  std::array<uint32_t, kMaxReplicas> order;
  size_t candidates = ServingOrder(replicas, &order);
  if (candidates == 0) return Status::IOError("no replica available");
  Status last;  // the latest replica failure
  for (size_t i = 0; i < candidates; ++i) {
    size_t node = order[i];
    if (i > 0) Count(&ReadCallStats::failovers, call_stats);
    for (size_t attempt = 0;; ++attempt) {
      if (DeadlinePassed(deadline)) return DeadlineError(last);
      std::future<Result<T>> fut = submit(node);
      std::future<Result<T>> hedge;
      std::optional<size_t> alt;
      if (SlowPastHedge(fut, options_.hedge_after_micros, deadline)) {
        alt = HedgeTarget(replicas, node);
      }
      if (alt.has_value()) {
        Count(&ReadCallStats::hedges, call_stats);
        hedge = submit(*alt);
      }
      bool hedge_won = false;
      std::optional<Result<T>> res =
          FirstUsable(fut, hedge, deadline, &hedge_won);
      if (!res.has_value()) return DeadlineError(last);
      if (hedge_won) Count(&ReadCallStats::hedge_wins, call_stats);
      size_t winner = hedge_won ? *alt : node;
      if (res->ok()) {
        Result<T> accepted = accept(**res);
        if (!accepted.status().IsChecksumMismatch()) return accepted;
        // Corrupt bytes are a replica failure, not a query error.
        Count(&ReadCallStats::checksum_failures, call_stats);
        last = accepted.status();
        break;
      }
      last = res->status();
      if (last.IsNotFound()) {
        // NotFound from a clean replica is authoritative. From a dirty
        // replica (rejoined with hints pending) the key may simply have
        // missed it — fall through to the next replica.
        if (!NodeDirty(winner)) return last;
        break;
      }
      // Crashed mid-flight or out of retries: fail over.
      if (nodes_[node]->IsDown() || attempt >= options_.max_retries) break;
      Count(&ReadCallStats::retries, call_stats);
      Backoff(attempt + 1, deadline);
    }
  }
  return last;
}

Result<SharedValue> Cluster::Get(std::string_view table, uint64_t partition,
                                 std::string_view key, size_t* value_copies,
                                 ReadCallStats* call_stats) {
  if (value_copies != nullptr) *value_copies = 0;
  if (call_stats != nullptr) *call_stats = ReadCallStats{};
  return ReadKey(table, partition, key, MakeDeadline(), value_copies,
                 call_stats);
}

Result<SharedValue> Cluster::ReadKey(std::string_view table,
                                     uint64_t partition, std::string_view key,
                                     const Deadline& deadline,
                                     size_t* value_copies,
                                     ReadCallStats* call_stats) {
  std::string phys = PhysicalKey(table, partition, key);
  return ReadReplicas<SharedValue>(
      PlacementToken(table, partition),
      [this, &phys](size_t node) { return nodes_[node]->SubmitGet(phys); },
      [value_copies](SharedValue& stored) {
        return OpenStored(stored, value_copies);
      },
      deadline, call_stats);
}

Result<std::vector<std::optional<SharedValue>>> Cluster::MultiGet(
    std::string_view table, const std::vector<MultiGetKey>& keys,
    size_t* node_batches, size_t* value_copies, ReadCallStats* call_stats) {
  std::vector<std::optional<SharedValue>> out(keys.size());
  if (node_batches != nullptr) *node_batches = 0;
  if (value_copies != nullptr) *value_copies = 0;
  if (call_stats != nullptr) *call_stats = ReadCallStats{};
  Deadline deadline = MakeDeadline();

  struct NodeBatch {
    size_t node;
    std::vector<size_t> idxs;  // indices into `keys`
    std::future<std::vector<Result<SharedValue>>> fut;
  };
  using KeysByNode = std::unordered_map<size_t, std::vector<size_t>>;
  auto submit = [&](KeysByNode groups) {
    std::vector<NodeBatch> sent;
    sent.reserve(groups.size());
    for (auto& [node, idxs] : groups) {
      std::vector<std::string> phys;
      phys.reserve(idxs.size());
      for (size_t i : idxs) {
        phys.push_back(PhysicalKey(table, keys[i].partition, keys[i].key));
      }
      std::future<std::vector<Result<SharedValue>>> fut =
          nodes_[node]->SubmitMultiGet(std::move(phys));
      sent.push_back(NodeBatch{node, std::move(idxs), std::move(fut)});
    }
    if (node_batches != nullptr) *node_batches += sent.size();
    return sent;
  };

  // The batched first attempt: each key goes to the head of its serving
  // order, and each serving node gets one request.
  KeysByNode by_node;
  for (size_t i = 0; i < keys.size(); ++i) {
    std::array<uint32_t, kMaxReplicas> order;
    if (ServingOrder(Replicas(PlacementToken(table, keys[i].partition)),
                     &order) == 0) {
      return Status::IOError("no live replica for key");
    }
    by_node[order[0]].push_back(i);
  }
  std::vector<NodeBatch> batches = submit(std::move(by_node));

  // Settles the keys of one node batch. A key the batch leaves unresolved
  // (its node failed mid-flight, served corrupt bytes, or answered NotFound
  // while dirty) goes through the replica loop.
  auto resolve = [&](NodeBatch& from) -> Status {
    std::vector<Result<SharedValue>> answers = from.fut.get();
    for (size_t j = 0; j < from.idxs.size(); ++j) {
      size_t i = from.idxs[j];
      if (answers[j].ok()) {
        Result<SharedValue> plain = OpenStored(*answers[j], value_copies);
        if (plain.ok()) {
          out[i] = std::move(*plain);
          continue;
        }
        if (plain.status().IsChecksumMismatch()) {
          Count(&ReadCallStats::checksum_failures, call_stats);
        }
      } else if (answers[j].status().IsNotFound() && !NodeDirty(from.node)) {
        continue;  // authoritative absence -> nullopt
      }
      if (node_batches != nullptr) ++*node_batches;
      Result<SharedValue> got = ReadKey(table, keys[i].partition, keys[i].key,
                                        deadline, value_copies, call_stats);
      if (got.ok()) {
        out[i] = std::move(*got);
      } else if (!got.status().IsNotFound()) {
        return got.status();
      }
    }
    return Status::OK();
  };

  for (NodeBatch& b : batches) {
    // A slow batch is hedged when every one of its keys has a hedge target:
    // the keys regroup by target, one batch per target node. A key without
    // a target would hold the call until the slow batch answers anyway.
    std::vector<NodeBatch> hedges;
    if (SlowPastHedge(b.fut, options_.hedge_after_micros, deadline)) {
      KeysByNode by_alt;
      for (size_t i : b.idxs) {
        std::optional<size_t> alt = HedgeTarget(
            Replicas(PlacementToken(table, keys[i].partition)), b.node);
        if (!alt.has_value()) {
          by_alt.clear();
          break;
        }
        by_alt[*alt].push_back(i);
      }
      hedges = submit(std::move(by_alt));
      for (size_t h = 0; h < hedges.size(); ++h) {
        Count(&ReadCallStats::hedges, call_stats);
      }
    }
    // Whichever side is fully ready first serves the batch's keys.
    std::optional<bool> hedges_won = false;
    if (!hedges.empty()) {
      hedges_won = RaceHedge(
          b.fut,
          [&hedges] {
            return std::all_of(hedges.begin(), hedges.end(),
                               [](NodeBatch& h) { return IsReady(h.fut); });
          },
          deadline);
      if (!hedges_won.has_value()) return DeadlineError(Status::OK());
    }
    if (*hedges_won) {
      for (NodeBatch& h : hedges) {
        Count(&ReadCallStats::hedge_wins, call_stats);
        HGS_RETURN_NOT_OK(resolve(h));
      }
    } else {
      if (!WaitReady(b.fut, deadline)) return DeadlineError(Status::OK());
      HGS_RETURN_NOT_OK(resolve(b));
    }
  }
  return out;
}

Result<std::vector<KVPair>> Cluster::Scan(std::string_view table,
                                          uint64_t partition,
                                          std::string_view key_prefix,
                                          size_t* value_copies,
                                          ReadCallStats* call_stats) {
  if (value_copies != nullptr) *value_copies = 0;
  if (call_stats != nullptr) *call_stats = ReadCallStats{};
  std::string phys_prefix = PhysicalKey(table, partition, key_prefix);
  size_t strip = table.size() + 1 + 8;  // logical key offset
  return ReadReplicas<std::vector<KVPair>>(
      PlacementToken(table, partition),
      [this, &phys_prefix](size_t node) {
        return nodes_[node]->SubmitScan(phys_prefix);
      },
      [&](std::vector<KVPair>& pairs) -> Result<std::vector<KVPair>> {
        // Fresh, exactly sized pairs: callers cache them by their size.
        std::vector<KVPair> out;
        out.reserve(pairs.size());
        for (KVPair& kv : pairs) {
          // One corrupt row spoils the replica's whole answer.
          HGS_ASSIGN_OR_RETURN(SharedValue plain,
                               OpenStored(kv.value, value_copies));
          out.push_back(KVPair{kv.key.substr(strip), std::move(plain)});
        }
        return out;
      },
      MakeDeadline(), call_stats);
}

// -- Administration and telemetry --------------------------------------------

void Cluster::SetNodeDown(size_t node, bool down) {
  // Rejoining does NOT clear pending hints: the node stays dirty until
  // ReplayHints or RepairNode reconciles it.
  if (node < nodes_.size()) nodes_[node]->SetDown(down);
}

void Cluster::SetFaultProfile(size_t node, const FaultProfile& profile) {
  if (node < nodes_.size()) nodes_[node]->SetFaultProfile(profile);
}

uint64_t Cluster::TotalStoredBytes() const {
  return SumNodeStat(nodes_, &StorageNodeStats::bytes_stored);
}

uint64_t Cluster::TotalKeys() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n->NumKeys();
  return total;
}

uint64_t Cluster::TotalReadRequests() const {
  return SumNodeStat(nodes_, &StorageNodeStats::get_requests) +
         SumNodeStat(nodes_, &StorageNodeStats::scan_requests);
}

uint64_t Cluster::TotalBytesRead() const {
  return SumNodeStat(nodes_, &StorageNodeStats::bytes_read);
}

uint64_t Cluster::TotalPutBatches() const {
  return SumNodeStat(nodes_, &StorageNodeStats::put_batches);
}

uint64_t Cluster::TotalRowsPut() const {
  return SumNodeStat(nodes_, &StorageNodeStats::rows_put);
}

uint64_t Cluster::TotalBytesPut() const {
  return SumNodeStat(nodes_, &StorageNodeStats::bytes_put);
}

uint64_t Cluster::ContentFingerprint() const {
  uint64_t h = 1469598103934665603ull;
  for (const auto& n : nodes_) {
    h ^= n->ContentFingerprint();
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Cluster::NodeContentFingerprint(size_t node) const {
  return node < nodes_.size() ? nodes_[node]->ContentFingerprint() : 0;
}

void Cluster::ResetStats() {
  for (auto& n : nodes_) n->ResetStats();
#define HGS_ZERO_COUNTER(name) resilience_.name.store(0);
  HGS_READ_CALL_COUNTERS(HGS_ZERO_COUNTER)
  HGS_CLUSTER_WRITE_COUNTERS(HGS_ZERO_COUNTER)
#undef HGS_ZERO_COUNTER
}

void Cluster::PublishTouched(std::vector<EpochKey> touched) {
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  MutexLock lock(epoch_mu_);
  auto next = std::make_shared<EpochVector>(*epochs_);
  next->global += 1;
  for (EpochKey key : touched) {
    auto it = std::lower_bound(
        next->sub.begin(), next->sub.end(), key,
        [](const std::pair<EpochKey, uint64_t>& e, EpochKey k) {
          return e.first < k;
        });
    if (it != next->sub.end() && it->first == key) {
      it->second = next->global;
    } else {
      next->sub.insert(it, {key, next->global});
    }
  }
  epochs_ = std::move(next);
}

void Cluster::BumpPublishEpoch() {
  MutexLock lock(epoch_mu_);
  auto next = std::make_shared<EpochVector>();
  next->global = epochs_->global + 1;
  next->base = next->global;
  epochs_ = std::move(next);
}

}  // namespace hgs
