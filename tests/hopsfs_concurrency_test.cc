// Multi-threaded, multi-namenode behaviour: parallel non-conflicting ops,
// serialization of conflicting ops, client failover with zero downtime,
// database-node failure handling (§7.6), and the handler-pool stress
// offensive: many concurrent clients funneled through a bounded pool of
// handler threads, verified against a single-threaded oracle replay of the
// same deterministic op scripts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "hopsfs/mini_cluster.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hops::fs {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(250);
    options.num_namenodes = 3;
    options.num_datanodes = 3;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
  }

  std::unique_ptr<MiniCluster> cluster_;
};

TEST_F(ConcurrencyTest, ParallelCreatesInDistinctDirs) {
  constexpr int kThreads = 4;
  constexpr int kFilesEach = 25;
  {
    Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(setup.Mkdirs("/w" + std::to_string(t)).ok());
    }
  }
  hops::ThreadPool pool(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      Client c = cluster_->NewClient(NamenodePolicy::kRoundRobin,
                                     "c" + std::to_string(t), 100 + t);
      for (int i = 0; i < kFilesEach; ++i) {
        std::string path = "/w" + std::to_string(t) + "/f" + std::to_string(i);
        if (!c.WriteFile(path, 1, 10).ok()) failures.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(failures.load(), 0);
  Client check = cluster_->NewClient(NamenodePolicy::kRandom, "check");
  for (int t = 0; t < kThreads; ++t) {
    auto listing = check.List("/w" + std::to_string(t));
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing->size(), static_cast<size_t>(kFilesEach));
  }
}

TEST_F(ConcurrencyTest, ConflictingCreatesExactlyOneWins) {
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/race").ok());
  constexpr int kThreads = 4;
  hops::ThreadPool pool(kThreads);
  std::atomic<int> wins{0};
  std::atomic<int> already{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      // Each contender uses a different namenode when possible.
      Namenode& nn = cluster_->namenode(t % cluster_->num_namenodes());
      auto st = nn.Create("/race/same", "client" + std::to_string(t));
      if (st.ok()) {
        wins.fetch_add(1);
      } else if (st.code() == hops::StatusCode::kAlreadyExists ||
                 st.code() == hops::StatusCode::kLeaseConflict) {
        already.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_EQ(already.load(), kThreads - 1);
}

TEST_F(ConcurrencyTest, ConcurrentRenamesOfSameSourceOneWins) {
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/mv").ok());
  ASSERT_TRUE(setup.WriteFile("/mv/f", 1, 1).ok());
  std::atomic<int> wins{0};
  std::thread t1([&] {
    if (cluster_->namenode(0).Rename("/mv/f", "/mv/a").ok()) wins.fetch_add(1);
  });
  std::thread t2([&] {
    if (cluster_->namenode(1).Rename("/mv/f", "/mv/b").ok()) wins.fetch_add(1);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(wins.load(), 1);
  int present = 0;
  present += setup.Stat("/mv/a").ok() ? 1 : 0;
  present += setup.Stat("/mv/b").ok() ? 1 : 0;
  EXPECT_EQ(present, 1);
  EXPECT_FALSE(setup.Stat("/mv/f").ok());
}

TEST_F(ConcurrencyTest, CrossingRenamesSerializeWithoutDeadlock) {
  // Two renames whose lock sets cross: /x/a -> /y/pa while /y/b -> /x/pb.
  // Each transaction's batched lock phase must wait in the left-ordered
  // path total order (kStagedOrder), so the two lock sets conflict in the
  // same sequence and queue instead of deadlocking into lock timeouts.
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/x").ok());
  ASSERT_TRUE(setup.Mkdirs("/y").ok());
  constexpr int kIters = 20;
  std::atomic<int> failures{0};
  auto flip = [&](Namenode& nn, const std::string& from_dir, const std::string& to_dir,
                  const std::string& name) {
    for (int i = 0; i < kIters; ++i) {
      std::string src = from_dir + "/" + name + std::to_string(i);
      std::string dst = to_dir + "/" + name + std::to_string(i);
      if (!nn.Create(src, "c").ok() || !nn.CompleteFile(src, "c").ok() ||
          !nn.Rename(src, dst).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  std::thread t1([&] { flip(cluster_->namenode(0), "/x", "/y", "pa"); });
  std::thread t2([&] { flip(cluster_->namenode(1), "/y", "/x", "pb"); });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  // The renames retried past any transient conflict without a single lock
  // timeout: the crossing lock phases queued, they never cycled.
  EXPECT_EQ(cluster_->db().StatsSnapshot().lock_timeouts, 0u);
  auto in_x = setup.List("/x");
  auto in_y = setup.List("/y");
  ASSERT_TRUE(in_x.ok());
  ASSERT_TRUE(in_y.ok());
  EXPECT_EQ(in_x->size(), static_cast<size_t>(kIters));  // pb files landed in /x
  EXPECT_EQ(in_y->size(), static_cast<size_t>(kIters));  // pa files landed in /y
}

TEST_F(ConcurrencyTest, MixedReadWriteLoadKeepsNamespaceConsistent) {
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/mix/a").ok());
  ASSERT_TRUE(setup.Mkdirs("/mix/b").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(setup.WriteFile("/mix/a/f" + std::to_string(i), 1, 10).ok());
  }
  hops::ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> hard_failures{0};
  // Two readers...
  for (int t = 0; t < 2; ++t) {
    pool.Submit([&, t] {
      Client c = cluster_->NewClient(NamenodePolicy::kSticky, "r" + std::to_string(t),
                                     200 + t);
      while (!stop.load()) {
        (void)c.List("/mix/a");
        (void)c.Stat("/mix/a/f3");
        (void)c.Read("/mix/a/f3");
      }
    });
  }
  // ...against a renamer and a create/delete churner.
  pool.Submit([&] {
    Client c = cluster_->NewClient(NamenodePolicy::kSticky, "mv", 300);
    for (int i = 0; i < 30; ++i) {
      if (!c.Rename("/mix/a/f0", "/mix/b/f0").ok()) hard_failures.fetch_add(1);
      if (!c.Rename("/mix/b/f0", "/mix/a/f0").ok()) hard_failures.fetch_add(1);
    }
    stop.store(true);
  });
  pool.Submit([&] {
    Client c = cluster_->NewClient(NamenodePolicy::kSticky, "churn", 400);
    int i = 0;
    while (!stop.load()) {
      std::string path = "/mix/b/tmp" + std::to_string(i++);
      if (c.WriteFile(path, 1, 5).ok()) {
        if (!c.Delete(path, false).ok()) hard_failures.fetch_add(1);
      }
    }
  });
  pool.Wait();
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_TRUE(setup.Stat("/mix/a/f0").ok());
  auto listing = setup.List("/mix/a");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 10u);
}

TEST_F(ConcurrencyTest, ClientFailsOverWhenNamenodeDies) {
  Client c = cluster_->NewClient(NamenodePolicy::kSticky, "c1");
  ASSERT_TRUE(c.Mkdirs("/ha").ok());
  ASSERT_TRUE(c.WriteFile("/ha/f", 1, 10).ok());
  // Kill namenodes one at a time; the sticky client keeps working with no
  // downtime as long as one namenode survives (§7.6.1).
  for (int killed = 0; killed + 1 < cluster_->num_namenodes(); ++killed) {
    cluster_->KillNamenode(killed);
    auto st = c.Stat("/ha/f");
    EXPECT_TRUE(st.ok()) << "after killing nn" << killed << ": "
                         << st.status().ToString();
    EXPECT_TRUE(c.WriteFile("/ha/g" + std::to_string(killed), 1, 5).ok());
  }
  EXPECT_GT(c.failovers(), 0u);
  // All namenodes dead: unavailable.
  cluster_->KillNamenode(cluster_->num_namenodes() - 1);
  EXPECT_EQ(c.Stat("/ha/f").status().code(), hops::StatusCode::kUnavailable);
  // A restarted namenode restores service.
  ASSERT_TRUE(cluster_->RestartNamenode(0).ok());
  EXPECT_TRUE(c.Stat("/ha/f").ok());
}

TEST_F(ConcurrencyTest, OperationsSurviveNdbDatanodeFailure) {
  Client c = cluster_->NewClient(NamenodePolicy::kRoundRobin, "c1");
  ASSERT_TRUE(c.Mkdirs("/ndb").ok());
  ASSERT_TRUE(c.WriteFile("/ndb/f", 1, 10).ok());
  // Kill one NDB datanode per node group: every partition still has a
  // replica, so the file system keeps working (§7.6.2).
  cluster_->db().KillDatanode(0);
  cluster_->db().KillDatanode(2);
  EXPECT_TRUE(cluster_->db().Available());
  EXPECT_TRUE(c.Stat("/ndb/f").ok());
  EXPECT_TRUE(c.WriteFile("/ndb/g", 1, 10).ok());
  // Kill the second member of group 0: the cluster is down.
  cluster_->db().KillDatanode(1);
  EXPECT_FALSE(cluster_->db().Available());
  bool saw_unavailable = false;
  for (int i = 0; i < 20 && !saw_unavailable; ++i) {
    auto st = c.Stat("/ndb/probe" + std::to_string(i));
    if (st.status().code() == hops::StatusCode::kUnavailable) saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable);
  // Recovery: restart the NDB node; the namespace is intact.
  cluster_->db().RestartDatanode(1);
  EXPECT_TRUE(c.Stat("/ndb/f").ok());
}

TEST_F(ConcurrencyTest, HotspotDirectoryStillCorrectUnderContention) {
  // All operations hammer one directory (§7.2.1): throughput is bounded by
  // one shard but correctness must hold.
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/shared-dir").ok());
  hops::ThreadPool pool(4);
  std::atomic<int> created{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&, t] {
      Client c = cluster_->NewClient(NamenodePolicy::kRoundRobin,
                                     "hot" + std::to_string(t), 500 + t);
      for (int i = 0; i < 20; ++i) {
        std::string path = "/shared-dir/t" + std::to_string(t) + "_" + std::to_string(i);
        if (c.WriteFile(path, 1, 1).ok()) created.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(created.load(), 80);
  auto listing = setup.List("/shared-dir");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 80u);
}

// ---------------------------------------------------------------------------
// Multi-namenode hint staleness: a rename / subtree-rename on NN-A must be
// survivable on NN-B immediately (lazy repair through the stale hint) and
// *invalidated* on NN-B within one heartbeat drain of the invalidation log.
// ---------------------------------------------------------------------------

TEST_F(ConcurrencyTest, CrossNamenodeRenameStalenessRepairsLazilyBeforeTheTick) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/stale").ok());
  ASSERT_TRUE(a.Create("/stale/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/stale/f", "c").ok());
  // NN-B caches the full chain for /stale/f.
  ASSERT_TRUE(b.GetFileInfo("/stale/f").ok());
  ASSERT_EQ(b.hint_cache().PeekChain({"stale", "f"}).hints.size(), 2u);
  // Rename on NN-A. No heartbeat has run: NN-B still holds the stale hints.
  ASSERT_TRUE(a.Rename("/stale/f", "/stale/g").ok());
  ASSERT_EQ(b.hint_cache().PeekChain({"stale", "f"}).hints.size(), 2u);
  // Lazy repair: NN-B must resolve correctly THROUGH the stale hint.
  EXPECT_EQ(b.GetFileInfo("/stale/f").status().code(), hops::StatusCode::kNotFound);
  EXPECT_TRUE(b.GetFileInfo("/stale/g").ok());
  // Regression (stale-hint fallback): the NotFound resolution must have
  // evicted the dead target hint -- the next resolution is not doomed to
  // re-lock the same dead key.
  EXPECT_LT(b.hint_cache().PeekChain({"stale", "f"}).hints.size(), 2u);
}

TEST_F(ConcurrencyTest, SubtreeRenameInvalidatesPeerHintsWithinOneTick) {
  Namenode& a = cluster_->namenode(0);
  ASSERT_TRUE(a.Mkdirs("/pro/dir").ok());
  ASSERT_TRUE(a.Create("/pro/dir/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/pro/dir/f", "c").ok());
  // Every peer namenode caches the 3-deep chain.
  for (int i = 1; i < cluster_->num_namenodes(); ++i) {
    ASSERT_TRUE(cluster_->namenode(i).GetFileInfo("/pro/dir/f").ok());
    ASSERT_EQ(cluster_->namenode(i).hint_cache().PeekChain({"pro", "dir", "f"}).hints.size(),
              3u);
  }
  // /pro/dir has a child, so this goes through the subtree protocol (§6).
  ASSERT_TRUE(a.Rename("/pro/dir", "/pro/dir2").ok());
  // Peers are stale until they drain the invalidation log...
  ASSERT_EQ(cluster_->namenode(1).hint_cache().PeekChain({"pro", "dir", "f"}).hints.size(),
            3u);
  // ...and clean within ONE heartbeat tick.
  cluster_->TickHeartbeats();
  for (int i = 1; i < cluster_->num_namenodes(); ++i) {
    Namenode& peer = cluster_->namenode(i);
    EXPECT_LE(peer.hint_cache().PeekChain({"pro", "dir"}).hints.size(), 1u)
        << "nn" << i << " must have dropped the /pro/dir prefix";
    EXPECT_GT(peer.proactive_invalidations_applied(), 0u);
    EXPECT_TRUE(peer.GetFileInfo("/pro/dir2/f").ok());
    EXPECT_EQ(peer.GetFileInfo("/pro/dir/f").status().code(),
              hops::StatusCode::kNotFound);
  }
  EXPECT_GT(cluster_->AggregateHintStats().proactive_applied, 0u);
}

TEST_F(ConcurrencyTest, DeleteOnOneNamenodeInvalidatesPeersWithinOneTick) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/gone/sub").ok());
  ASSERT_TRUE(a.Create("/gone/sub/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/gone/sub/f", "c").ok());
  ASSERT_TRUE(b.GetFileInfo("/gone/sub/f").ok());
  ASSERT_TRUE(a.Delete("/gone", true).ok());
  ASSERT_EQ(b.hint_cache().PeekChain({"gone", "sub", "f"}).hints.size(), 3u);
  cluster_->TickHeartbeats();
  EXPECT_TRUE(b.hint_cache().PeekChain({"gone"}).hints.empty());
  EXPECT_EQ(b.GetFileInfo("/gone/sub/f").status().code(), hops::StatusCode::kNotFound);
}

TEST_F(ConcurrencyTest, RenameInvalidatesDestinationPrefixHints) {
  // Regression: Rename used to invalidate only the src prefix, leaving hints
  // under the dst prefix pointing at a previous occupant's inode.
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/c").ok());
  ASSERT_TRUE(nn.Create("/srcfile", "c").ok());
  ASSERT_TRUE(nn.CompleteFile("/srcfile", "c").ok());
  auto c_info = nn.GetFileInfo("/c");
  ASSERT_TRUE(c_info.ok());
  // A hint under the destination prefix, as a since-replaced occupant of
  // /c/d would have left behind.
  nn.hint_cache().Put({"c", "d"}, 1, c_info->inode_id, /*inode_id=*/999999,
                      nn.hint_cache().epoch());
  ASSERT_TRUE(nn.Rename("/srcfile", "/c/d").ok());
  auto hints = nn.hint_cache().PeekChain({"c", "d"}).hints;
  ASSERT_LT(hints.size(), 2u) << "the stale /c/d hint must be gone";
  // And the renamed file is fully usable at its new path.
  auto moved = nn.GetFileInfo("/c/d");
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(moved->inode_id, 999999);
}

TEST_F(ConcurrencyTest, CreateOverStaleHintStillCachesTheNewInode) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/adopt").ok());
  ASSERT_TRUE(a.Create("/adopt/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/adopt/f", "c").ok());
  ASSERT_TRUE(b.GetFileInfo("/adopt/f").ok());    // B caches the chain
  ASSERT_TRUE(a.Delete("/adopt/f", false).ok());  // delete on A; no tick yet
  ASSERT_EQ(b.hint_cache().PeekChain({"adopt", "f"}).hints.size(), 2u);
  // Create over the stale hint on B: the NotFound fallback evicts the dead
  // hint, and the create must still cache its own fresh inode -- the
  // planted barrier admits the operation that planted it.
  ASSERT_TRUE(b.Create("/adopt/f", "c2").ok());
  auto info = b.GetFileInfo("/adopt/f");
  ASSERT_TRUE(info.ok());
  auto hints = b.hint_cache().PeekChain({"adopt", "f"}).hints;
  ASSERT_EQ(hints.size(), 2u);
  EXPECT_EQ(hints[1].inode_id, info->inode_id);
  EXPECT_EQ(b.hint_cache().stats().stale_put_rejections, 0u);
}

TEST(HintInvalidationLogTest, LeaderReapsExpiredRecords) {
  MiniClusterOptions options;
  options.num_namenodes = 2;
  options.fs.hint_invalidation_ttl = std::chrono::milliseconds(0);
  auto cluster_or = MiniCluster::Start(options);
  ASSERT_TRUE(cluster_or.ok());
  auto& cluster = *cluster_or;
  Namenode& a = cluster->namenode(0);
  ASSERT_TRUE(a.Create("/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/f", "c").ok());
  ASSERT_TRUE(a.Rename("/f", "/g").ok());
  cluster->FlushHintPublishes();
  auto scan_rows = [&] {
    auto tx = cluster->db().Begin();
    auto rows = tx->FullTableScan(cluster->schema().hint_invalidations);
    (void)tx->Commit();
    return rows.ok() ? *rows : std::vector<ndb::Row>{};
  };
  auto rows = scan_rows();
  ASSERT_EQ(rows.size(), 1u) << "ONE record per publish event, all prefixes in one row";
  EXPECT_EQ(DecodeHintPaths(rows[0][col::kHintPaths].str()),
            (std::vector<std::string>{"/f", "/g"}))
      << "the rename's src and dst prefixes ride the same record";
  EXPECT_EQ(rows[0][col::kHintNn].i64(), a.id());
  // ttl 0: the leader's next heartbeat reaps everything already drained or
  // not -- staleness on slow peers degrades to lazy repair, never to error.
  cluster->TickHeartbeats();
  EXPECT_TRUE(scan_rows().empty());
}

// ---------------------------------------------------------------------------
// The sharded hint-invalidation log: per-publisher partitions + per-NN head
// rows keep concurrent publishers off any shared row; acks let the leader GC
// precisely; the coalescing publisher folds queued ops into one record.
// ---------------------------------------------------------------------------

class ShardedHintLogTest : public ::testing::Test {
 protected:
  static std::unique_ptr<MiniCluster> MakeCluster(int num_namenodes,
                                                  std::chrono::milliseconds ttl =
                                                      std::chrono::milliseconds(600000)) {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.num_namenodes = num_namenodes;
    options.num_datanodes = 3;
    options.fs.hint_invalidation_ttl = ttl;
    auto cluster = MiniCluster::Start(options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  static size_t CountRows(MiniCluster& cluster, ndb::TableId table) {
    return cluster.db().TableRowCount(table);
  }
};

TEST_F(ShardedHintLogTest, PublishNeverTouchesAnotherPublishersHead) {
  // No global serialization point: a transaction holds another namenode's
  // head row X-locked for the whole test, and a publish still completes
  // without a single lock wait.
  auto cluster = MakeCluster(2);
  Namenode& a = cluster->namenode(0);
  Namenode& b = cluster->namenode(1);
  ASSERT_TRUE(a.Create("/solo", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/solo", "c").ok());
  auto blocker = cluster->db().Begin();
  // The row may not exist yet; a locked read still guards its key slot.
  (void)blocker->Read(cluster->schema().hint_heads, {b.id()}, ndb::LockMode::kExclusive);
  cluster->db().ResetStats();
  ASSERT_TRUE(a.Rename("/solo", "/solo2").ok());
  cluster->FlushHintPublishes();
  blocker->Abort();
  EXPECT_EQ(cluster->db().StatsSnapshot().lock_waits, 0u);
  EXPECT_EQ(a.hint_publish_events(), 1u);
}

TEST_F(ShardedHintLogTest, ConcurrentPublishersShareNoRows) {
  // N namenodes publishing concurrently over disjoint namespaces: the
  // sharded log keeps every publish on its own (head, record) rows, so the
  // whole run completes with ZERO lock waits anywhere in the database.
  constexpr int kNamenodes = 3, kRenames = 12;
  auto cluster = MakeCluster(kNamenodes);
  for (int t = 0; t < kNamenodes; ++t) {
    Namenode& nn = cluster->namenode(t);
    const std::string base = "/pub" + std::to_string(t);
    ASSERT_TRUE(nn.Mkdirs(base).ok());
    for (int i = 0; i < kRenames; ++i) {
      ASSERT_TRUE(nn.Create(base + "/f" + std::to_string(i), "c").ok());
      ASSERT_TRUE(nn.CompleteFile(base + "/f" + std::to_string(i), "c").ok());
    }
  }
  cluster->db().ResetStats();
  hops::ThreadPool pool(kNamenodes);
  for (int t = 0; t < kNamenodes; ++t) {
    pool.Submit([&, t] {
      Namenode& nn = cluster->namenode(t);
      const std::string base = "/pub" + std::to_string(t);
      for (int i = 0; i < kRenames; ++i) {
        ASSERT_TRUE(nn.Rename(base + "/f" + std::to_string(i),
                              base + "/g" + std::to_string(i))
                        .ok());
      }
    });
  }
  pool.Wait();
  cluster->FlushHintPublishes();
  auto stats = cluster->db().StatsSnapshot();
  EXPECT_EQ(stats.lock_waits, 0u) << "no publisher ever waited on another's rows";
  auto hint = cluster->AggregateHintStats();
  EXPECT_EQ(hint.publish_events + hint.publish_ops_coalesced,
            static_cast<uint64_t>(kNamenodes * kRenames))
      << "every rename's publish lands in exactly one record";
}

TEST_F(ShardedHintLogTest, LeaderGcReapsByAcksLongBeforeTheTtl) {
  auto cluster = MakeCluster(3);
  Namenode& a = cluster->namenode(0);
  ASSERT_TRUE(a.Create("/acked", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/acked", "c").ok());
  ASSERT_TRUE(a.Rename("/acked", "/acked2").ok());
  cluster->FlushHintPublishes();
  ASSERT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 1u);
  // Tick 1: every peer drains and writes its (drainer, publisher) ack.
  // Tick 2: the leader sees every alive namenode acked past the record and
  // reaps it -- the 10-minute TTL never comes into play.
  cluster->TickHeartbeats(2);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 0u);
  auto hint = cluster->AggregateHintStats();
  EXPECT_GE(hint.gc_acked_reaps, 1u);
  EXPECT_EQ(hint.gc_ttl_reaps, 0u);
  EXPECT_GT(hint.proactive_applied, 0u);
}

TEST_F(ShardedHintLogTest, DeadDrainerStopsPinningTheLogOnceDeclaredDead) {
  auto cluster = MakeCluster(3);
  Namenode& a = cluster->namenode(0);
  // Kill one drainer BEFORE the publish: it will never ack this record.
  cluster->KillNamenode(2);
  ASSERT_TRUE(a.Create("/lag", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/lag", "c").ok());
  ASSERT_TRUE(a.Rename("/lag", "/lag2").ok());
  cluster->FlushHintPublishes();
  ASSERT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 1u);
  // While the dead namenode is still within its liveness window it counts
  // as alive, its missing ack holds the minimum at 0, and the record stays.
  cluster->TickHeartbeats();
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 1u);
  // Once the survivors' election view declares it dead, the min runs over
  // the remaining alive namenodes only -- the ack GC proceeds without TTL.
  cluster->TickHeartbeats(4);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 0u);
  auto hint = cluster->AggregateHintStats();
  EXPECT_GE(hint.gc_acked_reaps, 1u);
  EXPECT_EQ(hint.gc_ttl_reaps, 0u);
}

TEST_F(ShardedHintLogTest, DeadPublisherRowsAreDrainedThenFullyCleaned) {
  auto cluster = MakeCluster(3);
  Namenode& a = cluster->namenode(0);
  Namenode& b = cluster->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/doomed/sub").ok());
  ASSERT_TRUE(a.Create("/doomed/sub/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/doomed/sub/f", "c").ok());
  ASSERT_TRUE(b.GetFileInfo("/doomed/sub/f").ok());  // B caches the chain
  ASSERT_TRUE(a.Delete("/doomed", true).ok());
  cluster->FlushHintPublishes();
  cluster->KillNamenode(0);  // the publisher dies right after its append
  // Survivors still drain the dead publisher's record within one tick...
  cluster->TickHeartbeats();
  EXPECT_TRUE(b.hint_cache().PeekChain({"doomed"}).hints.empty());
  EXPECT_GT(b.proactive_invalidations_applied(), 0u);
  // ...and once the publisher ages out entirely (4x the liveness window),
  // the leader clears its head row, records and orphan acks.
  cluster->TickHeartbeats(14);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 0u);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_heads), 0u);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_acks), 0u)
      << "acks naming the dead publisher are orphans and must go too";
}

TEST_F(ShardedHintLogTest, OrphanHeadRowsAreSweptAfterAGraceWindow) {
  // The residue a cleanup transaction that failed mid-eviction would leave
  // behind: a head row (and acks) whose owner has no leader row. The GC
  // re-derives its cleanup list every pass, so the rows are buried once the
  // orphan outlives the grace window -- not leaked forever.
  auto cluster = MakeCluster(2);
  {
    auto tx = cluster->db().Begin();
    ASSERT_TRUE(
        tx->Insert(cluster->schema().hint_heads, ndb::Row{int64_t{9999}, int64_t{5}})
            .ok());
    ASSERT_TRUE(tx->Insert(cluster->schema().hint_acks,
                           ndb::Row{int64_t{9999}, int64_t{1}, int64_t{4}, int64_t{0}})
                    .ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  // Within the grace window the rows survive: the owner could be a freshly
  // registered publisher whose leader row the leader has not scanned yet.
  cluster->TickHeartbeats();
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_heads), 1u);
  // Past it, the leader buries the head row and the acks the orphan wrote.
  cluster->TickHeartbeats(4);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_heads), 0u);
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_acks), 0u);
}

TEST_F(ShardedHintLogTest, PausedPublisherCoalescesQueuedOpsIntoOneRecord) {
  auto cluster = MakeCluster(2);
  Namenode& a = cluster->namenode(0);
  for (const char* f : {"/co1", "/co2", "/co3"}) {
    ASSERT_TRUE(a.Create(f, "c").ok());
    ASSERT_TRUE(a.CompleteFile(f, "c").ok());
  }
  a.SetHintPublisherPausedForTesting(true);
  ASSERT_TRUE(a.Rename("/co1", "/mv1").ok());  // 2 prefixes
  ASSERT_TRUE(a.Rename("/co2", "/mv2").ok());  // 2 prefixes
  ASSERT_TRUE(a.Delete("/co3", false).ok());   // 1 prefix
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 0u)
      << "nothing reaches the log while the publisher is paused";
  a.SetHintPublisherPausedForTesting(false);
  cluster->FlushHintPublishes();
  auto tx = cluster->db().Begin();
  auto rows = tx->FullTableScan(cluster->schema().hint_invalidations);
  (void)tx->Commit();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u) << "three queued ops coalesce into ONE append";
  EXPECT_EQ(DecodeHintPaths((*rows)[0][col::kHintPaths].str()),
            (std::vector<std::string>{"/co1", "/mv1", "/co2", "/mv2", "/co3"}));
  EXPECT_EQ((*rows)[0][col::kHintOp].i64(), 0) << "mixed coalesced ops record op 0";
  EXPECT_EQ(a.hint_publish_events(), 1u);
  EXPECT_EQ(a.hint_publish_ops_coalesced(), 2u);
  // The coalesced record still invalidates every prefix on the peer.
  Namenode& b = cluster->namenode(1);
  cluster->TickHeartbeats();
  EXPECT_EQ(b.proactive_invalidations_applied(), 5u);
}

TEST_F(ShardedHintLogTest, DrainWalksEveryPublisherPartitionByRange) {
  // Interleaved multi-record ranges from two publishers, drained by a third
  // in one tick: the per-publisher applied vector must advance across the
  // re-keyed (nn, seq) ranges without skipping or re-applying.
  auto cluster = MakeCluster(3);
  Namenode& a = cluster->namenode(0);
  Namenode& b = cluster->namenode(1);
  Namenode& c = cluster->namenode(2);
  for (const char* f : {"/ra1", "/ra2", "/rb1"}) {
    ASSERT_TRUE(a.Create(f, "c").ok());
    ASSERT_TRUE(a.CompleteFile(f, "c").ok());
  }
  // C caches chains so the drain has real hints to kill.
  for (const char* f : {"/ra1", "/ra2", "/rb1"}) ASSERT_TRUE(c.GetFileInfo(f).ok());
  // Two separate records from A (flush in between), one from B.
  ASSERT_TRUE(a.Rename("/ra1", "/ra1m").ok());
  cluster->FlushHintPublishes();
  ASSERT_TRUE(a.Rename("/ra2", "/ra2m").ok());
  cluster->FlushHintPublishes();
  ASSERT_TRUE(b.Rename("/rb1", "/rb1m").ok());
  cluster->FlushHintPublishes();
  EXPECT_EQ(CountRows(*cluster, cluster->schema().hint_invalidations), 3u);
  const uint64_t before = c.proactive_invalidations_applied();
  ASSERT_TRUE(c.Heartbeat().ok());  // one drain pass over both partitions
  EXPECT_EQ(c.proactive_invalidations_applied() - before, 6u)
      << "2+2 prefixes from A's two records and 2 from B's";
  for (const char* gone : {"/ra1", "/ra2", "/rb1"}) {
    auto split = SplitPath(gone);
    ASSERT_TRUE(split.ok());
    EXPECT_TRUE(c.hint_cache().PeekChain(*split).hints.empty()) << gone;
  }
  // A second drain with nothing new applies nothing (no re-application).
  ASSERT_TRUE(c.Heartbeat().ok());
  EXPECT_EQ(c.proactive_invalidations_applied() - before, 6u);
}

// ---------------------------------------------------------------------------
// Handler-pool stress offensive: concurrent clients through a bounded
// handler pool, verified against a single-threaded oracle.
// ---------------------------------------------------------------------------

class HandlerPoolTest : public ::testing::Test {
 protected:
  static std::unique_ptr<MiniCluster> MakeCluster(int num_handlers, int num_namenodes) {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(500);
    options.fs.num_handlers = num_handlers;
    options.num_namenodes = num_namenodes;
    options.num_datanodes = 3;
    auto cluster = MiniCluster::Start(options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  // One worker's deterministic op script (mixed mkdir / create / rename /
  // delete / getBlockLocations / stat in its own directory). The sampled
  // stream depends only on (worker, ops) and prior statuses, so replaying
  // it single-threaded on a second cluster must produce the identical
  // status sequence and final namespace.
  static std::vector<hops::StatusCode> RunScript(Client& c, int worker, int ops) {
    std::vector<hops::StatusCode> statuses;
    hops::Rng rng(1000 + static_cast<uint64_t>(worker));
    const std::string base = "/stress/w" + std::to_string(worker);
    statuses.push_back(c.Mkdirs(base).code());
    std::vector<std::string> files;
    int counter = 0;
    auto record = [&](const hops::Status& st) { statuses.push_back(st.code()); };
    for (int i = 0; i < ops; ++i) {
      switch (rng.Below(6)) {
        case 0:
          record(c.Mkdirs(base + "/d" + std::to_string(counter++)));
          break;
        case 1: {
          std::string path = base + "/f" + std::to_string(counter++);
          hops::Status st = c.WriteFile(path, 1, 64);
          record(st);
          if (st.ok()) files.push_back(path);
          break;
        }
        case 2: {
          if (files.empty()) break;
          size_t k = rng.Below(files.size());
          std::string dst = base + "/r" + std::to_string(counter++);
          hops::Status st = c.Rename(files[k], dst);
          record(st);
          if (st.ok()) files[k] = dst;
          break;
        }
        case 3: {
          if (files.empty()) break;
          size_t k = rng.Below(files.size());
          hops::Status st = c.Delete(files[k], false);
          record(st);
          if (st.ok()) files.erase(files.begin() + static_cast<long>(k));
          break;
        }
        case 4:
          if (!files.empty()) record(c.Read(files[rng.Below(files.size())]).status());
          break;
        case 5:
          if (!files.empty()) record(c.Stat(files[rng.Below(files.size())]).status());
          break;
      }
    }
    return statuses;
  }

  // Recursive listing under `path`: sorted (path, is_dir, size) triples --
  // the namespace fingerprint compared between the stressed cluster and the
  // oracle.
  static void ListTree(Client& c, const std::string& path,
                       std::vector<std::tuple<std::string, bool, int64_t>>& out) {
    auto listing = c.List(path);
    ASSERT_TRUE(listing.ok()) << path << ": " << listing.status().ToString();
    for (const auto& st : *listing) {
      std::string child = path + "/" + st.name;
      out.emplace_back(child, st.is_dir, st.is_dir ? 0 : st.size);
      if (st.is_dir) ListTree(c, child, out);
    }
  }

  static std::vector<std::tuple<std::string, bool, int64_t>> Fingerprint(Client& c) {
    std::vector<std::tuple<std::string, bool, int64_t>> out;
    ListTree(c, "/stress", out);
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(HandlerPoolTest, StressedPoolMatchesSingleThreadedOracleReplay) {
  constexpr int kWorkers = 6;
  constexpr int kOps = 40;

  // Stressed run: 6 concurrent clients behind 3 handlers per namenode.
  auto stressed = MakeCluster(/*num_handlers=*/3, /*num_namenodes=*/2);
  {
    Client setup = stressed->NewClient(NamenodePolicy::kRoundRobin, "setup");
    ASSERT_TRUE(setup.Mkdirs("/stress").ok());
  }
  std::vector<std::vector<hops::StatusCode>> stressed_statuses(kWorkers);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        Client c = stressed->NewClient(NamenodePolicy::kRoundRobin,
                                       "c" + std::to_string(w), 100 + w);
        stressed_statuses[static_cast<size_t>(w)] = RunScript(c, w, kOps);
      });
    }
    for (auto& t : threads) t.join();
  }
  // The pool really served the requests.
  uint64_t served = 0;
  for (int i = 0; i < stressed->num_namenodes(); ++i) {
    ASSERT_NE(stressed->namenode(i).handler_pool(), nullptr);
    served += stressed->namenode(i).handler_pool()->requests_served();
  }
  EXPECT_GT(served, 0u);

  // Oracle: the same scripts replayed one worker at a time on an inline
  // (no pool) cluster.
  auto oracle = MakeCluster(/*num_handlers=*/0, /*num_namenodes=*/1);
  {
    Client setup = oracle->NewClient(NamenodePolicy::kSticky, "setup");
    ASSERT_TRUE(setup.Mkdirs("/stress").ok());
  }
  for (int w = 0; w < kWorkers; ++w) {
    Client c = oracle->NewClient(NamenodePolicy::kSticky, "o" + std::to_string(w), 100 + w);
    auto statuses = RunScript(c, w, kOps);
    EXPECT_EQ(statuses, stressed_statuses[static_cast<size_t>(w)])
        << "worker " << w << ": op outcomes must match the oracle";
  }

  // Final namespaces are identical.
  Client sc = stressed->NewClient(NamenodePolicy::kRoundRobin, "verify-s");
  Client oc = oracle->NewClient(NamenodePolicy::kSticky, "verify-o");
  auto stressed_tree = Fingerprint(sc);
  auto oracle_tree = Fingerprint(oc);
  EXPECT_EQ(stressed_tree, oracle_tree);
  EXPECT_FALSE(stressed_tree.empty());
}

TEST_F(HandlerPoolTest, ManyMoreClientsThanHandlersAllSucceed) {
  auto cluster = MakeCluster(/*num_handlers=*/2, /*num_namenodes=*/1);
  {
    Client setup = cluster->NewClient(NamenodePolicy::kSticky, "setup");
    ASSERT_TRUE(setup.Mkdirs("/q").ok());
  }
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client c = cluster->NewClient(NamenodePolicy::kSticky, "q" + std::to_string(t), 40 + t);
      for (int i = 0; i < 10; ++i) {
        std::string path = "/q/t" + std::to_string(t) + "_" + std::to_string(i);
        if (!c.WriteFile(path, 1, 8).ok()) failures.fetch_add(1);
        if (!c.Read(path).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  Client check = cluster->NewClient(NamenodePolicy::kSticky, "check");
  auto listing = check.List("/q");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), static_cast<size_t>(kClients * 10));
  // 8 clients funneled through 2 handlers: the pool stayed the bottleneck,
  // never a correctness hazard.
  EXPECT_GE(cluster->namenode(0).handler_pool()->requests_served(),
            static_cast<uint64_t>(kClients * 10));
}

TEST_F(HandlerPoolTest, SubtreeWaitersDoNotStarveTheSubtreeOperation) {
  // Regression: subtree-lock waiters used to back off while HOLDING their
  // handler slot, so with as many waiters as handlers the subtree
  // operation's own phase transactions starved behind them (priority
  // inversion) and every waiter deterministically exhausted its retries.
  // Backoff sleeps now happen on the caller's thread, so waiters drain from
  // the pool, the subtree delete progresses, and the waiters' retries
  // succeed once the lock clears.
  auto cluster = MakeCluster(/*num_handlers=*/2, /*num_namenodes=*/1);
  Client setup = cluster->NewClient(NamenodePolicy::kSticky, "setup");
  ASSERT_TRUE(setup.Mkdirs("/d/sub").ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(setup.WriteFile("/d/sub/f" + std::to_string(i), 1, 8).ok());
  }
  std::atomic<bool> deleting{true};
  std::atomic<int> subtree_locked_failures{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 2; ++t) {  // as many waiters as handlers
    waiters.emplace_back([&, t] {
      Client c = cluster->NewClient(NamenodePolicy::kSticky, "w" + std::to_string(t), 60 + t);
      while (deleting.load()) {
        auto st = c.Stat("/d/sub/f0").status();
        if (st.code() == hops::StatusCode::kSubtreeLocked) {
          subtree_locked_failures.fetch_add(1);
        }
      }
    });
  }
  Client deleter = cluster->NewClient(NamenodePolicy::kSticky, "del", 99);
  hops::Status del = deleter.Delete("/d", true);
  deleting.store(false);
  for (auto& t : waiters) t.join();
  EXPECT_TRUE(del.ok()) << del.ToString();
  EXPECT_EQ(subtree_locked_failures.load(), 0)
      << "waiters must outwait the delete, not exhaust their retries";
  EXPECT_FALSE(setup.Stat("/d").ok());
}

TEST_F(HandlerPoolTest, ConflictingClientsThroughThePoolKeepInvariants) {
  // Cross-thread conflicts (same directory, crossing renames) through the
  // pool: outcomes are racy but the namespace invariants are not.
  auto cluster = MakeCluster(/*num_handlers=*/3, /*num_namenodes=*/2);
  Client setup = cluster->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/war/a").ok());
  ASSERT_TRUE(setup.Mkdirs("/war/b").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(setup.WriteFile("/war/a/f" + std::to_string(i), 1, 8).ok());
  }
  std::atomic<int> hard_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Client c = cluster->NewClient(NamenodePolicy::kRoundRobin,
                                    "w" + std::to_string(t), 300 + t);
      hops::Rng rng(77 + static_cast<uint64_t>(t));
      for (int i = 0; i < 25; ++i) {
        int f = static_cast<int>(rng.Below(6));
        std::string a = "/war/a/f" + std::to_string(f);
        std::string b = "/war/b/f" + std::to_string(f);
        hops::Status st;
        switch (rng.Below(3)) {
          case 0:
            st = c.Rename(a, b);
            break;
          case 1:
            st = c.Rename(b, a);
            break;
          case 2:
            st = c.Read(rng.Chance(0.5) ? a : b).status();
            break;
        }
        // Losing a race (kNotFound / kAlreadyExists) is expected; timeouts,
        // deadlocks or corruption are not.
        if (st.code() == hops::StatusCode::kLockTimeout ||
            st.code() == hops::StatusCode::kInternal) {
          hard_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_EQ(cluster->db().StatsSnapshot().lock_timeouts, 0u);
  // Every file exists in exactly one of the two directories.
  for (int i = 0; i < 6; ++i) {
    int present = 0;
    present += setup.Stat("/war/a/f" + std::to_string(i)).ok() ? 1 : 0;
    present += setup.Stat("/war/b/f" + std::to_string(i)).ok() ? 1 : 0;
    EXPECT_EQ(present, 1) << "file " << i;
  }
}

// Asynchronous metadata commits under the handler pool: many concurrent
// clients whose ops ack at intent durability, each immediately re-reading
// its own write. Read-your-writes must hold (the stat blocks on the covering
// intent, never reports NotFound), and after a drain the namespace matches
// what a synchronous cluster produces for the same ops.
TEST(AsyncCommitConcurrencyTest, ReadYourWritesUnderAsyncAck) {
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.db.lock_wait_timeout = std::chrono::milliseconds(500);
  options.fs.async_metadata_commit = true;
  options.fs.num_handlers = 3;
  options.num_namenodes = 2;
  auto made = MiniCluster::Start(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto cluster = *std::move(made);

  {
    Client setup = cluster->NewClient(NamenodePolicy::kSticky, "setup");
    ASSERT_TRUE(setup.Mkdirs("/ryw").ok());
    cluster->DrainIntents();
  }
  constexpr int kThreads = 6;
  constexpr int kFilesEach = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Sticky clients: read-your-writes is a per-namenode guarantee.
      Client c = cluster->NewClient(NamenodePolicy::kSticky, "c" + std::to_string(t),
                                    200 + static_cast<uint64_t>(t));
      const std::string dir = "/ryw/t" + std::to_string(t);
      if (!c.Mkdirs(dir).ok()) failures.fetch_add(1);
      for (int i = 0; i < kFilesEach; ++i) {
        std::string path = dir + "/f" + std::to_string(i);
        if (!c.CreateFile(path).ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The create may be acknowledged-but-unapplied; its own stat and
        // chmod must still observe it.
        auto st = c.Stat(path);
        if (!st.ok() || st->is_dir) failures.fetch_add(1);
        if (!c.SetPermission(path, 0700).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  cluster->DrainIntents();

  ClusterIntentStats stats = cluster->AggregateIntentStats();
  EXPECT_EQ(stats.log.intents_applied, stats.log.intents_appended);
  EXPECT_EQ(stats.log.apply_failures, 0u);
  EXPECT_GT(stats.log.acked_ops, 0u);

  // The drained namespace is exactly what the synchronous baseline builds.
  MiniClusterOptions sync_options = options;
  sync_options.fs.async_metadata_commit = false;
  auto oracle_made = MiniCluster::Start(sync_options);
  ASSERT_TRUE(oracle_made.ok());
  auto oracle = *std::move(oracle_made);
  Client oc = oracle->NewClient(NamenodePolicy::kSticky, "oracle");
  ASSERT_TRUE(oc.Mkdirs("/ryw").ok());
  for (int t = 0; t < kThreads; ++t) {
    const std::string dir = "/ryw/t" + std::to_string(t);
    ASSERT_TRUE(oc.Mkdirs(dir).ok());
    for (int i = 0; i < kFilesEach; ++i) {
      std::string path = dir + "/f" + std::to_string(i);
      ASSERT_TRUE(oc.CreateFile(path).ok());
      ASSERT_TRUE(oc.SetPermission(path, 0700).ok());
    }
  }
  Client ac = cluster->NewClient(NamenodePolicy::kSticky, "verify");
  for (int t = 0; t < kThreads; ++t) {
    const std::string dir = "/ryw/t" + std::to_string(t);
    auto async_listing = ac.List(dir);
    auto sync_listing = oc.List(dir);
    ASSERT_TRUE(async_listing.ok());
    ASSERT_TRUE(sync_listing.ok());
    ASSERT_EQ(async_listing->size(), sync_listing->size()) << dir;
    for (size_t i = 0; i < async_listing->size(); ++i) {
      EXPECT_EQ((*async_listing)[i].name, (*sync_listing)[i].name);
      EXPECT_EQ((*async_listing)[i].perm, (*sync_listing)[i].perm);
      EXPECT_EQ((*async_listing)[i].is_dir, (*sync_listing)[i].is_dir);
    }
  }
}

}  // namespace
}  // namespace hops::fs
