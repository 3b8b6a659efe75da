// Asynchronous metadata commits: the ordered intent log's acknowledgment
// semantics (validate -> reserve -> durable append), read-your-writes via
// the pending index + covering waits, conflict detection against
// acknowledged-but-unapplied state, and the crash path -- acknowledged
// intents surviving namenode death and being replayed in order by the
// leader's adoption sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "hopsfs/mini_cluster.h"

namespace hops::fs {
namespace {

class IntentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.fs.async_metadata_commit = true;
    options.num_namenodes = 2;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
  }

  // Sorted (path, is_dir) fingerprint of the committed namespace under `root`.
  static void ListTree(Namenode& nn, const std::string& root,
                       std::vector<std::tuple<std::string, bool>>& out) {
    auto listing = nn.ListStatus(root);
    ASSERT_TRUE(listing.ok()) << root << ": " << listing.status().ToString();
    for (const auto& st : *listing) {
      std::string child = root + "/" + st.name;
      out.emplace_back(child, st.is_dir);
      if (st.is_dir) ListTree(nn, child, out);
    }
  }
  static std::vector<std::tuple<std::string, bool>> Fingerprint(Namenode& nn,
                                                                const std::string& root) {
    std::vector<std::tuple<std::string, bool>> out;
    ListTree(nn, root, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<MiniCluster> cluster_;
};

TEST_F(IntentLogTest, CreateAcksBeforeApplyAndReadWaitsForIt) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/d").ok());
  nn.FlushIntents();

  IntentLogStats before = nn.intent_stats();
  nn.SetIntentApplierPausedForTesting(true);
  // Acknowledged while the apply stage is parked: the op returned at intent
  // durability, not at transaction commit.
  ASSERT_TRUE(nn.Create("/d/f", "writer").ok());
  IntentLogStats stats = nn.intent_stats();
  EXPECT_EQ(stats.intents_appended - before.intents_appended, 1u);
  EXPECT_EQ(stats.intents_applied, before.intents_applied);
  EXPECT_EQ(stats.acked_ops - before.acked_ops, 1u);
  // Durable in the log, not yet in the inode table.
  EXPECT_GT(cluster_->db().TableRowCount(cluster_->schema().op_intents), 0u);

  // A read of the covered path blocks until the covering intent applies
  // (read-your-writes), instead of reporting NotFound from committed state.
  std::atomic<bool> stat_done{false};
  std::thread reader([&] {
    auto info = nn.GetFileInfo("/d/f");
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    if (info.ok()) EXPECT_FALSE(info->is_dir);
    stat_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stat_done.load()) << "the stat must wait out the unapplied intent";
  nn.SetIntentApplierPausedForTesting(false);
  reader.join();
  EXPECT_TRUE(stat_done.load());

  nn.FlushIntents();
  stats = nn.intent_stats();
  EXPECT_EQ(stats.intents_applied, stats.intents_appended);
  EXPECT_GE(stats.covering_waits, 1u);
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().op_intents), 0u);
}

TEST_F(IntentLogTest, ConflictsValidateAgainstAcknowledgedState) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/c").ok());
  nn.FlushIntents();
  nn.SetIntentApplierPausedForTesting(true);

  ASSERT_TRUE(nn.Create("/c/f", "w1").ok());
  // A second create of the same path must lose against the PENDING file --
  // without waiting for it to apply.
  EXPECT_EQ(nn.Create("/c/f", "w2").code(), hops::StatusCode::kAlreadyExists);
  // A path through the pending file is not a directory.
  EXPECT_EQ(nn.Create("/c/f/x", "w3").code(), hops::StatusCode::kNotDirectory);
  EXPECT_EQ(nn.Mkdirs("/c/f/x").code(), hops::StatusCode::kNotDirectory);

  // Creating UNDER an acknowledged-but-unapplied mkdirs chain validates
  // against the pending index alone (nothing below an unapplied directory
  // exists committed) and acks without blocking.
  ASSERT_TRUE(nn.Mkdirs("/c/a/b").ok());
  ASSERT_TRUE(nn.Create("/c/a/b/leaf", "w4").ok());
  // Re-acknowledged mkdirs over the pending chain is idempotent.
  ASSERT_TRUE(nn.Mkdirs("/c/a/b").ok());
  // Missing pending level under a pending chain is NotFound.
  EXPECT_EQ(nn.Create("/c/a/missing/leaf", "w5").code(), hops::StatusCode::kNotFound);

  nn.SetIntentApplierPausedForTesting(false);
  nn.FlushIntents();
  // Everything acknowledged materialized, in order.
  EXPECT_TRUE(nn.GetFileInfo("/c/f").ok());
  auto leaf = nn.GetFileInfo("/c/a/b/leaf");
  ASSERT_TRUE(leaf.ok());
  EXPECT_FALSE(leaf->is_dir);
  EXPECT_EQ(nn.intent_stats().apply_failures, 0u);
}

TEST_F(IntentLogTest, SetattrRidesTheLogOnPendingAndCommittedFiles) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/s").ok());
  ASSERT_TRUE(nn.Create("/s/committed", "w").ok());
  nn.FlushIntents();

  nn.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(nn.Create("/s/pending", "w").ok());
  // Both the pending and the committed file accept an async chmod/chown.
  ASSERT_TRUE(nn.SetPermission("/s/pending", 0700).ok());
  ASSERT_TRUE(nn.SetPermission("/s/committed", 0711).ok());
  ASSERT_TRUE(nn.SetOwner("/s/pending", "alice", "users").ok());
  nn.SetIntentApplierPausedForTesting(false);
  nn.FlushIntents();

  auto pending = nn.GetFileInfo("/s/pending");
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->perm, 0700);
  EXPECT_EQ(pending->owner, "alice");
  auto committed = nn.GetFileInfo("/s/committed");
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->perm, 0711);
  EXPECT_EQ(nn.intent_stats().apply_failures, 0u);
}

TEST_F(IntentLogTest, AppendCoalescesQueuedIntentsIntoOneTransaction) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/g").ok());
  nn.FlushIntents();
  // Hold group-commit leadership so every thread's first create parks in the
  // append queue -- exactly what happens when they arrive while another
  // leader's append transaction is in flight -- then release: one leader
  // must drain all of them in a single transaction. The remaining creates
  // race naturally.
  constexpr int kThreads = 8;
  nn.SetIntentAppendHoldForTesting(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(
            nn.Create("/g/f" + std::to_string(t) + "_" + std::to_string(i), "w").ok());
      }
    });
  }
  while (nn.IntentQueuedAppendsForTesting() < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  nn.SetIntentAppendHoldForTesting(false);
  for (auto& t : threads) t.join();
  nn.FlushIntents();
  IntentLogStats stats = nn.intent_stats();
  EXPECT_EQ(stats.intents_applied, stats.intents_appended);
  EXPECT_GE(stats.intents_coalesced, static_cast<uint64_t>(kThreads - 1))
      << "the parked submissions must share one append transaction";
  auto listing = nn.ListStatus("/g");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), static_cast<size_t>(kThreads * 8));
}

TEST_F(IntentLogTest, CrashReplayLosesNoAcknowledgedOp) {
  Namenode& nn0 = cluster_->namenode(0);
  ASSERT_TRUE(nn0.Mkdirs("/crash").ok());
  nn0.FlushIntents();

  // Acknowledge a batch of ops and KILL the namenode before any of them
  // applies: durable intents, empty committed namespace below /crash.
  nn0.SetIntentApplierPausedForTesting(true);
  std::vector<std::string> acked_files;
  ASSERT_TRUE(nn0.Mkdirs("/crash/dir/sub").ok());
  for (int i = 0; i < 6; ++i) {
    std::string path = "/crash/f" + std::to_string(i);
    ASSERT_TRUE(nn0.Create(path, "w").ok());
    acked_files.push_back(path);
  }
  ASSERT_TRUE(nn0.Create("/crash/dir/sub/leaf", "w").ok());
  ASSERT_TRUE(nn0.SetPermission("/crash/f0", 0700).ok());
  uint64_t logged = cluster_->db().TableRowCount(cluster_->schema().op_intents);
  ASSERT_GE(logged, 9u);

  cluster_->KillNamenode(0);
  // The survivor's election view must age the dead namenode out before its
  // log partition is adopted; then the leader's heartbeat replays it.
  cluster_->TickHeartbeats(6);
  ASSERT_TRUE(cluster_->RestartNamenode(0).ok());
  cluster_->TickHeartbeats(6);

  // Every acknowledged op survived the crash.
  Namenode& nn1 = cluster_->namenode(1);
  for (const auto& path : acked_files) {
    auto info = nn1.GetFileInfo(path);
    EXPECT_TRUE(info.ok()) << path << " lost in the crash: " << info.status().ToString();
  }
  auto leaf = nn1.GetFileInfo("/crash/dir/sub/leaf");
  ASSERT_TRUE(leaf.ok()) << "ordered replay must materialize parents before children";
  EXPECT_FALSE(leaf->is_dir);
  auto chmodded = nn1.GetFileInfo("/crash/f0");
  ASSERT_TRUE(chmodded.ok());
  EXPECT_EQ(chmodded->perm, 0700) << "the acked chmod must replay after the create";

  // The adopted partition is consumed: no intent rows, no orphaned head row.
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().op_intents), 0u);
  EXPECT_GE(cluster_->AggregateIntentStats().intents_adopted, 9u);

  // The replayed namespace matches a synchronous oracle of the same ops.
  MiniClusterOptions sync_options;
  sync_options.db.num_datanodes = 4;
  sync_options.db.replication = 2;
  sync_options.num_namenodes = 1;
  auto oracle = MiniCluster::Start(sync_options);
  ASSERT_TRUE(oracle.ok());
  Namenode& onn = (*oracle)->namenode(0);
  ASSERT_TRUE(onn.Mkdirs("/crash").ok());
  ASSERT_TRUE(onn.Mkdirs("/crash/dir/sub").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(onn.Create("/crash/f" + std::to_string(i), "w").ok());
  }
  ASSERT_TRUE(onn.Create("/crash/dir/sub/leaf", "w").ok());
  ASSERT_TRUE(onn.SetPermission("/crash/f0", 0700).ok());
  auto replayed = Fingerprint(nn1, "/crash");
  auto expected = Fingerprint(onn, "/crash");
  EXPECT_EQ(replayed, expected);
  EXPECT_FALSE(replayed.empty());
}

TEST_F(IntentLogTest, SyncModeNeverTouchesTheLog) {
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.async_metadata_commit = false;
  options.num_namenodes = 1;
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  Namenode& nn = (*cluster)->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/plain").ok());
  ASSERT_TRUE(nn.Create("/plain/f", "w").ok());
  ASSERT_TRUE(nn.SetPermission("/plain/f", 0700).ok());
  EXPECT_EQ((*cluster)->db().TableRowCount((*cluster)->schema().op_intents), 0u);
  ClusterIntentStats stats = (*cluster)->AggregateIntentStats();
  EXPECT_EQ(stats.log.intents_appended, 0u);
  EXPECT_EQ(stats.log.acked_ops, 0u);
}

TEST_F(IntentLogTest, CoveringWaitTimeoutIsCounted) {
  // A wedged applier must not hang readers forever, but a reader that gives
  // up and reads committed state must leave a trace.
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.async_metadata_commit = true;
  options.fs.intent_wait_timeout = std::chrono::milliseconds(50);
  options.num_namenodes = 1;
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  Namenode& nn = (*cluster)->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/w").ok());
  nn.FlushIntents();
  EXPECT_EQ(nn.intent_stats().covering_wait_timeouts, 0u);

  nn.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(nn.Create("/w/f", "writer").ok());
  // The covering intent never applies within the timeout: the stat goes on
  // against committed state, where the acknowledged file is not yet visible.
  EXPECT_EQ(nn.GetFileInfo("/w/f").status().code(), hops::StatusCode::kNotFound);
  EXPECT_EQ(nn.intent_stats().covering_wait_timeouts, 1u);

  nn.SetIntentApplierPausedForTesting(false);
  nn.FlushIntents();
  EXPECT_TRUE(nn.GetFileInfo("/w/f").ok());
  IntentLogStats stats = nn.intent_stats();
  EXPECT_EQ(stats.covering_wait_timeouts, 1u) << "a wait that ends in time is not a timeout";
  EXPECT_EQ((*cluster)->AggregateIntentStats().log.covering_wait_timeouts, 1u);
}

}  // namespace
}  // namespace hops::fs
