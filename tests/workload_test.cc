// Workload generator: op mixes match Table 1, namespaces match the §7.2
// shape statistics, the bulk loader produces the same layout the client API
// produces, and the closed-loop driver runs both systems.
#include <gtest/gtest.h>

#include "workload/driver.h"
#include "workload/trace.h"

namespace hops::wl {
namespace {

TEST(OpMixTest, SpotifyMatchesTable1) {
  OpMix mix = OpMix::Spotify();
  EXPECT_NEAR(mix.TotalPct(), 100.0, 0.5);
  double reads = 0;
  for (const auto& e : mix.entries) {
    if (e.op == OpType::kList || e.op == OpType::kStat || e.op == OpType::kRead ||
        e.op == OpType::kContentSummary) {
      reads += e.pct;
    }
  }
  EXPECT_NEAR(reads, 94.74, 0.1) << "Table 1: total read ops = 94.74%";
}

TEST(OpMixTest, WriteIntensiveRaisesCreates) {
  for (double pct : {5.0, 10.0, 20.0}) {
    OpMix mix = OpMix::WriteIntensive(pct);
    double create = 0, addblk = 0, append = 0, read = 0;
    for (const auto& e : mix.entries) {
      if (e.op == OpType::kCreateFile) create = e.pct;
      if (e.op == OpType::kAddBlock) addblk = e.pct;
      if (e.op == OpType::kAppendFile) append = e.pct;
      if (e.op == OpType::kRead) read = e.pct;
    }
    EXPECT_NEAR(create + addblk + append, pct, 0.01) << "file-write share";
    EXPECT_NEAR(mix.TotalPct(), 100.0, 0.5);
    EXPECT_GT(read, 0);
  }
}

TEST(OpMixTest, SamplerMatchesFrequencies) {
  OpMix mix = OpMix::Spotify();
  OpSampler sampler(mix);
  hops::Rng rng(42);
  std::map<OpType, int> counts;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) counts[sampler.Sample(rng).first]++;
  EXPECT_NEAR(counts[OpType::kRead] / double(kSamples), 0.6873, 0.01);
  EXPECT_NEAR(counts[OpType::kStat] / double(kSamples), 0.17, 0.01);
  EXPECT_NEAR(counts[OpType::kList] / double(kSamples), 0.09, 0.01);
  EXPECT_NEAR(counts[OpType::kCreateFile] / double(kSamples), 0.012, 0.005);
}

TEST(OpMixTest, DirFractionRespected) {
  OpMix mix = OpMix::Single(OpType::kList, 0.945);
  OpSampler sampler(mix);
  hops::Rng rng(7);
  int dirs = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sampler.Sample(rng).second) dirs++;
  }
  EXPECT_NEAR(dirs / 10000.0, 0.945, 0.02);
}

TEST(NamespaceGenTest, ShapeApproximatelyHolds) {
  NamespaceShape shape;
  auto ns = PlanNamespace(shape, 2000, 1);
  EXPECT_EQ(ns.files.size(), 2000u);
  double files_per_dir = double(ns.files.size()) / double(ns.dirs.size());
  EXPECT_NEAR(files_per_dir, shape.files_per_dir, 2.0);
  // Average path depth (components) of files should be several levels.
  double total_depth = 0;
  for (const auto& f : ns.files) {
    total_depth += std::count(f.begin(), f.end(), '/');
  }
  double avg_depth = total_depth / double(ns.files.size());
  EXPECT_GE(avg_depth, 4.0);
  EXPECT_LE(avg_depth, 10.0);
  // Name length statistic.
  std::string last = ns.files.back();
  EXPECT_EQ(last.substr(last.rfind('/') + 1).size(), shape.name_length);
}

TEST(NamespaceGenTest, DeterministicForSeed) {
  NamespaceShape shape;
  auto a = PlanNamespace(shape, 500, 9);
  auto b = PlanNamespace(shape, 500, 9);
  EXPECT_EQ(a.dirs, b.dirs);
  EXPECT_EQ(a.files, b.files);
}

TEST(NamespaceGenTest, HotspotVariantSharesAncestor) {
  NamespaceShape shape;
  auto ns = PlanNamespaceUnder("/shared-dir", shape, 200, 2);
  for (const auto& d : ns.dirs) EXPECT_EQ(d.rfind("/shared-dir/", 0), 0u) << d;
  for (const auto& f : ns.files) EXPECT_EQ(f.rfind("/shared-dir/", 0), 0u) << f;
}

class WorkloadClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hops::fs::MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(300);
    options.num_namenodes = 1;
    options.num_datanodes = 3;
    auto cluster = hops::fs::MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = *std::move(cluster);
  }

  std::unique_ptr<hops::fs::MiniCluster> cluster_;
};

TEST_F(WorkloadClusterTest, MaterializeBuildsNamespaceViaApi) {
  NamespaceShape shape;
  auto ns = PlanNamespace(shape, 64, 3);
  auto client = cluster_->NewClient(hops::fs::NamenodePolicy::kSticky, "mat");
  ASSERT_TRUE(Materialize(client, ns, shape, 3).ok());
  for (const auto& f : {ns.files.front(), ns.files.back()}) {
    EXPECT_TRUE(client.Stat(f).ok()) << f;
  }
}

TEST_F(WorkloadClusterTest, BulkLoaderMatchesClientLayout) {
  NamespaceShape shape;
  auto ns = PlanNamespace(shape, 128, 4);
  BulkLoader loader(&cluster_->db(), &cluster_->schema(), &cluster_->fs_config());
  auto loaded = loader.Load(ns, 1.3, 0, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, static_cast<int64_t>(ns.dirs.size() + ns.files.size()));
  // Everything bulk-loaded is visible through the ordinary client path.
  auto client = cluster_->NewClient(hops::fs::NamenodePolicy::kSticky, "bulk");
  EXPECT_TRUE(client.Stat(ns.files.front()).ok());
  EXPECT_TRUE(client.Stat(ns.files.back()).ok());
  EXPECT_TRUE(client.Read(ns.files.front()).ok());
  auto listing = client.List(ns.dirs.front());
  ASSERT_TRUE(listing.ok());
  EXPECT_GT(listing->size(), 0u);
  // And ordinary operations work on top of it.
  EXPECT_TRUE(client.Delete(ns.files.back(), false).ok());
  EXPECT_TRUE(client.Rename(ns.files.front(), ns.dirs.front() + "/renamed").ok());
}

TEST_F(WorkloadClusterTest, DriverRunsSpotifyMixOnHopsFs) {
  NamespaceShape shape;
  auto ns = PlanNamespace(shape, 100, 5);
  BulkLoader loader(&cluster_->db(), &cluster_->schema(), &cluster_->fs_config());
  ASSERT_TRUE(loader.Load(ns, 1.3, 0, 5).ok());
  DriverOptions opts;
  opts.num_threads = 2;
  opts.ops_per_thread = 150;
  auto report = RunDriver(
      [&](int t) {
        return MakeHopsAdapter(cluster_->NewClient(hops::fs::NamenodePolicy::kSticky,
                                                   "drv" + std::to_string(t), 50 + t));
      },
      ns, OpMix::Spotify(), opts);
  EXPECT_EQ(report.ops, 300u);
  EXPECT_EQ(report.failures, 0u) << "driver ops must all succeed";
  EXPECT_GT(report.ops_per_second, 0);
  // Read-dominated mix: reads sampled most.
  EXPECT_GT(report.counts[OpType::kRead], report.counts[OpType::kCreateFile]);
  const hops::Histogram* read_lat = report.LatencyOf(OpType::kRead);
  ASSERT_NE(read_lat, nullptr);
  EXPECT_GT(read_lat->count(), 0u);
}

TEST_F(WorkloadClusterTest, DriverRunsOnHdfsBaseline) {
  hops::hdfs::EditLog journal(3);
  hops::hdfs::Namesystem hdfs(hops::hdfs::HdfsConfig{}, &journal);
  NamespaceShape shape;
  auto ns = PlanNamespace(shape, 100, 6);
  for (const auto& d : ns.dirs) ASSERT_TRUE(hdfs.Mkdirs(d).ok());
  for (const auto& f : ns.files) {
    ASSERT_TRUE(hdfs.Create(f, "init").ok());
    ASSERT_TRUE(hdfs.AddBlock(f, "init", 1024).ok());
    ASSERT_TRUE(hdfs.CompleteFile(f, "init").ok());
  }
  DriverOptions opts;
  opts.num_threads = 2;
  opts.ops_per_thread = 150;
  auto report = RunDriver(
      [&](int t) { return MakeHdfsAdapter(&hdfs, "h" + std::to_string(t)); }, ns,
      OpMix::Spotify(), opts);
  EXPECT_EQ(report.ops, 300u);
  EXPECT_EQ(report.failures, 0u);
}

// Deterministic-seed stress mode: the closed-loop driver pushed through a
// namenode handler pool, under a fixed RNG seed. Two runs on identical
// clusters must sample the identical op stream (the per-op counts
// fingerprint) and complete without a single failure, however the handlers
// interleave the concurrent transactions.
TEST(WorkloadStressTest, DriverDeterministicSeedStressThroughHandlerPool) {
  constexpr uint64_t kSeed = 77;
  auto run_once = [&] {
    hops::fs::MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(500);
    options.fs.num_handlers = 4;
    options.num_namenodes = 2;
    options.num_datanodes = 3;
    auto cluster = *hops::fs::MiniCluster::Start(options);
    NamespaceShape shape;
    auto ns = PlanNamespace(shape, 120, kSeed);
    BulkLoader loader(&cluster->db(), &cluster->schema(), &cluster->fs_config());
    EXPECT_TRUE(loader.Load(ns, 1.3, 0, kSeed).ok());
    DriverOptions opts;
    opts.num_threads = 4;
    opts.ops_per_thread = 150;
    opts.seed = kSeed;
    auto report = RunDriver(
        [&](int t) {
          return MakeHopsAdapter(cluster->NewClient(hops::fs::NamenodePolicy::kRoundRobin,
                                                    "st" + std::to_string(t), 50 + t));
        },
        ns, OpMix::Spotify(), opts);
    // The handler pools really served the requests.
    uint64_t served = 0;
    for (int i = 0; i < cluster->num_namenodes(); ++i) {
      served += cluster->namenode(i).handler_pool()->requests_served();
    }
    EXPECT_GT(served, 0u);
    EXPECT_EQ(cluster->db().StatsSnapshot().lock_timeouts, 0u);
    return report;
  };

  auto first = run_once();
  EXPECT_EQ(first.ops, 600u);
  EXPECT_EQ(first.failures, 0u) << "stress ops must all succeed through the pool";

  auto second = run_once();
  EXPECT_EQ(second.ops, first.ops);
  EXPECT_EQ(second.failures, 0u);
  EXPECT_EQ(second.counts, first.counts)
      << "a fixed seed samples the identical op stream on every run";
}

TEST_F(WorkloadClusterTest, TraceCaptureCoversMixAndShowsLocality) {
  NamespaceShape shape;
  auto ns = PlanNamespace(shape, 100, 7);
  BulkLoader loader(&cluster_->db(), &cluster_->schema(), &cluster_->fs_config());
  ASSERT_TRUE(loader.Load(ns, 1.3, 0, 7).ok());
  auto pools = CollectTraces(*cluster_, ns, OpMix::Spotify(), 10, 7);
  EXPECT_EQ(pools.num_partitions, cluster_->db().num_partitions());
  // Every op with weight gets a pool.
  for (auto op : {OpType::kRead, OpType::kStat, OpType::kList, OpType::kCreateFile,
                  OpType::kDelete, OpType::kMove, OpType::kMkdirs}) {
    const auto& pool = pools.PoolFor(op);
    ASSERT_FALSE(pool.empty()) << OpTypeName(op);
    for (const auto& t : pool) {
      EXPECT_GT(t.RoundTrips(), 0u);
      EXPECT_GT(t.Rows(), 0u);
    }
  }
  // A read touches the file's shard (PPIS for blocks + replicas): its trace
  // must include pruned scans, not index scans.
  for (const auto& t : pools.PoolFor(OpType::kRead)) {
    for (const auto& a : t.accesses) {
      EXPECT_NE(a.kind, ndb::AccessKind::kFullTableScan);
    }
  }
  // Writes commit: create traces include a commit access.
  bool saw_commit = false;
  for (const auto& t : pools.PoolFor(OpType::kCreateFile)) {
    for (const auto& a : t.accesses) {
      if (a.kind == ndb::AccessKind::kCommit) saw_commit = true;
    }
  }
  EXPECT_TRUE(saw_commit);
}

}  // namespace
}  // namespace hops::wl
