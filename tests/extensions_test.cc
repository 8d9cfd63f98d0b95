// Tests for the extension features beyond the minimal paper core:
// multipoint snapshot retrieval, the attribute-dimension Filter operator,
// incremental triangle counting (the paper's pattern-matching example),
// closeness centrality, and GetEventsInRange.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "taf/context.h"
#include "taf/metrics.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace hgs {
namespace {

ClusterOptions FastCluster() {
  ClusterOptions opts;
  opts.num_nodes = 2;
  opts.latency.enabled = false;
  return opts;
}

TGIOptions SmallOptions() {
  TGIOptions opts;
  opts.events_per_timespan = 2'000;
  opts.eventlist_size = 100;
  opts.checkpoint_interval = 400;
  opts.micro_delta_size = 64;
  opts.num_horizontal_partitions = 2;
  return opts;
}

std::vector<Event> History(uint64_t seed, uint64_t n = 5'000) {
  workload::WikiGrowthOptions w;
  w.num_events = n / 2;
  w.seed = seed;
  auto events = workload::GenerateWikiGrowth(w);
  return workload::AugmentWithChurn(std::move(events),
                                    {.num_events = n / 2, .seed = seed + 3});
}

TEST(MultipointSnapshotTest, MatchesIndividualSnapshots) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(201);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp end = workload::EndTime(events);
  // Mixed points: clustered within one checkpoint window, spread across
  // spans, and out of order.
  std::vector<Timestamp> times = {end / 2,       end / 2 + 17, end / 2 + 39,
                                  end / 4,       end,          end / 2 + 5,
                                  end * 3 / 4};
  auto multi = qm->GetMultipointSnapshots(times);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->size(), times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Graph expected = workload::ReplayToGraph(events, times[i]);
    EXPECT_TRUE((*multi)[i] == expected) << "t=" << times[i];
  }
}

TEST(MultipointSnapshotTest, RollForwardIsCheaperThanIndependentFetches) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(203);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp base = workload::EndTime(events) / 2;
  std::vector<Timestamp> times;
  for (int i = 0; i < 8; ++i) times.push_back(base + i * 5);

  FetchStats multi_stats;
  ASSERT_TRUE(qm->GetMultipointSnapshots(times, &multi_stats).ok());
  FetchStats single_stats;
  for (Timestamp t : times) {
    ASSERT_TRUE(qm->GetSnapshot(t, &single_stats).ok());
  }
  EXPECT_LT(multi_stats.kv_requests, single_stats.kv_requests);
}

TEST(MultipointSnapshotTest, DuplicateTimestampsShareMaterialization) {
  // Order restoration moves each materialized graph into its last output
  // slot and copies only for duplicate timestamps — every slot, duplicate
  // or not, must still hold the full correct snapshot.
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(209, 3'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();

  Timestamp end = workload::EndTime(events);
  std::vector<Timestamp> times = {end / 2, end,     end / 2, end / 4,
                                  end,     end / 2, end / 4};
  auto multi = qm->GetMultipointSnapshots(times);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->size(), times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Graph expected = workload::ReplayToGraph(events, times[i]);
    EXPECT_TRUE((*multi)[i] == expected) << "slot " << i << " t=" << times[i];
  }
}

TEST(MultipointSnapshotTest, EmptyAndSingleInput) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(205, 2'000);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager().value();
  auto empty = qm->GetMultipointSnapshots({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto one = qm->GetMultipointSnapshots({workload::EndTime(events)});
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE((*one)[0] ==
              workload::ReplayToGraph(events, workload::EndTime(events)));
}

TEST(EventsInRangeTest, MatchesLogSlice) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(207);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  Timestamp from = events[events.size() / 3].time;
  Timestamp to = events[events.size() * 2 / 3].time;
  auto got = qm->GetEventsInRange(from, to);
  ASSERT_TRUE(got.ok());
  std::vector<Event> expected;
  for (const Event& e : events) {
    if (e.time > from && e.time <= to) expected.push_back(e);
  }
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i], expected[i]) << "index " << i;
  }
}

// Equal event sequences, or the sizes or first index at which they differ.
::testing::AssertionResult SameEvents(const std::vector<Event>& got,
                                      const std::vector<Event>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " events, want " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(got[i] == want[i])) {
      return ::testing::AssertionFailure()
             << "first difference at index " << i << " (t=" << want[i].time
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(EventsInRangeTest, SameTimestampBurstReturnsEachEventOnce) {
  // 400 node arrivals, then one 798-event burst at t=500 that links a
  // chain across micro-partitions: every edge event is stored in both
  // endpoints' rows, and a sort by time alone leaves its copies apart.
  std::vector<Event> events;
  for (NodeId n = 1; n <= 400; ++n) {
    events.push_back(Event::AddNode(static_cast<Timestamp>(n), n));
  }
  for (NodeId n = 1; n < 400; ++n) {
    events.push_back(Event::AddEdge(500, n, n + 1));
    events.push_back(Event::SetNodeAttr(500, n, "k", std::to_string(n)));
  }
  ASSERT_EQ(events.size(), 1198u);
  // Event retrievals return equal-timestamp runs in EventTotalOrder.
  std::vector<Event> want = events;
  std::sort(want.begin(), want.end(), EventTotalOrder);
  std::vector<NodeId> ids;
  for (NodeId n = 1; n <= 400; ++n) ids.push_back(n);

  for (ClusteringOrder order :
       {ClusteringOrder::kDeltaMajor, ClusteringOrder::kPartitionMajor}) {
    SCOPED_TRACE(order == ClusteringOrder::kDeltaMajor ? "delta-major"
                                                       : "partition-major");
    Cluster cluster(FastCluster());
    TGIOptions opts = SmallOptions();
    opts.clustering_order = order;
    TGI tgi(&cluster, opts);
    ASSERT_TRUE(tgi.BuildFrom(events).ok());
    auto qm = tgi.OpenQueryManager(2).value();

    auto got = qm->GetEventsInRange(0, 1000);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameEvents(*got, want)) << "GetEventsInRange";

    auto merged = qm->GetMergedMemberEvents(ids, 0, 1000);
    ASSERT_TRUE(merged.ok());
    EXPECT_TRUE(SameEvents(*merged, want)) << "GetMergedMemberEvents";

    std::vector<Timestamp> times = {499, 500, 501};
    auto multi = qm->GetMultipointSnapshots(times);
    ASSERT_TRUE(multi.ok());
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_TRUE((*multi)[i] == workload::ReplayToGraph(events, times[i]))
          << "t=" << times[i];
    }
  }
}

TEST(FilterAttributesTest, ProjectsAttributeDimension) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(211);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  taf::TAFContext ctx(qm.get(), 2);
  Timestamp end = workload::EndTime(events);
  auto son = ctx.Nodes().TimeRange(0, end).Fetch().value();

  // The wiki generator sets "kind" on every node and churns "views".
  taf::SoN filtered = son.FilterAttributes({"kind"});
  ASSERT_EQ(filtered.size(), son.size());
  for (const taf::NodeT& n : filtered.nodes()) {
    taf::StaticNodeView v = n.GetStateAt(end);
    if (!v.exists) continue;
    EXPECT_FALSE(v.attrs.Has("views")) << "node " << n.id();
    // Structure is untouched.
    EXPECT_EQ(v.Degree(), son.nodes()[&n - filtered.nodes().data()]
                              .GetStateAt(end)
                              .Degree());
  }
  // Events on projected-away keys are dropped.
  size_t views_events = 0;
  for (const taf::NodeT& n : filtered.nodes()) {
    for (const Event& e : n.history().events.events()) {
      if (e.type == EventType::kSetNodeAttr && e.key == "views") {
        ++views_events;
      }
    }
  }
  EXPECT_EQ(views_events, 0u);
}

TEST(IncrementalTriangleTest, DeltaEqualsFreshOnSubgraphVersions) {
  Cluster cluster(FastCluster());
  TGI tgi(&cluster, SmallOptions());
  auto events = History(213);
  ASSERT_TRUE(tgi.BuildFrom(events).ok());
  auto qm = tgi.OpenQueryManager(2).value();
  taf::TAFContext ctx(qm.get(), 2);
  Timestamp end = workload::EndTime(events);

  Graph final_state = workload::ReplayToGraph(events, end);
  std::vector<NodeId> seeds;
  for (NodeId id : final_state.NodeIds()) {
    if (final_state.Neighbors(id).size() >= 4) seeds.push_back(id);
    if (seeds.size() == 6) break;
  }
  ASSERT_FALSE(seeds.empty());
  auto sots =
      ctx.Subgraphs(1).TimeRange(end / 2, end).WithSeeds(seeds).Fetch()
          .value();

  std::function<double(const Graph&)> fresh = taf::metrics::TriangleCount;
  std::function<double(const Graph&, const double&, const Event&)> inc =
      taf::metrics::TriangleCountDelta;
  auto fresh_series = sots.NodeComputeTemporal(fresh);
  auto inc_series = sots.NodeComputeDelta(fresh, inc);
  ASSERT_EQ(fresh_series.size(), inc_series.size());
  for (size_t i = 0; i < fresh_series.size(); ++i) {
    ASSERT_EQ(fresh_series[i].size(), inc_series[i].size());
    for (size_t j = 0; j < fresh_series[i].size(); ++j) {
      EXPECT_DOUBLE_EQ(fresh_series[i][j].second, inc_series[i][j].second)
          << "subgraph " << i << " version " << j;
    }
  }
}

TEST(ClosenessCentralityTest, StarCenterIsMostCentral) {
  Graph star;
  for (NodeId i = 2; i <= 6; ++i) star.AddEdge(1, i);
  double center = algo::ClosenessCentrality(star, 1);
  double leaf = algo::ClosenessCentrality(star, 2);
  EXPECT_GT(center, leaf);
  EXPECT_DOUBLE_EQ(center, 1.0);  // distance 1 to everyone
}

TEST(ClosenessCentralityTest, DisconnectedAndDegenerate) {
  Graph g;
  g.AddEdge(1, 2);
  g.AddNode(3);  // isolated
  EXPECT_DOUBLE_EQ(algo::ClosenessCentrality(g, 3), 0.0);
  EXPECT_DOUBLE_EQ(algo::ClosenessCentrality(g, 99), 0.0);
  // Connected pair in a 3-node graph: reachable fraction penalizes.
  double c = algo::ClosenessCentrality(g, 1);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);
}

TEST(ClosenessCentralityTest, PathEndpointsLessCentralThanMiddle) {
  Graph path;
  for (NodeId i = 1; i < 5; ++i) path.AddEdge(i, i + 1);
  EXPECT_GT(algo::ClosenessCentrality(path, 3),
            algo::ClosenessCentrality(path, 1));
}

}  // namespace
}  // namespace hgs
