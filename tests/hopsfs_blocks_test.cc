// Block life-cycle: RUC -> Replica on receipt, block reports, datanode
// failure handling, the replication monitor, and invalidation delivery.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hopsfs/mini_cluster.h"

namespace hops::fs {
namespace {

class BlocksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(300);
    options.num_namenodes = 2;
    options.num_datanodes = 5;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
    client_ = std::make_unique<Client>(cluster_->NewClient(NamenodePolicy::kSticky, "c1"));
    ASSERT_TRUE(client_->Mkdirs("/data").ok());
  }

  size_t Rows(ndb::TableId t) { return cluster_->db().TableRowCount(t); }

  std::unique_ptr<MiniCluster> cluster_;
  std::unique_ptr<Client> client_;
};

TEST_F(BlocksTest, AddBlockCreatesRucAndLookup) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  EXPECT_EQ(blk->locations.size(), 3u);
  EXPECT_EQ(Rows(cluster_->schema().ruc), 3u);
  EXPECT_EQ(Rows(cluster_->schema().block_lookup), 1u);
  EXPECT_EQ(Rows(cluster_->schema().replicas), 0u);
}

TEST_F(BlocksTest, BlockReceivedPromotesRucToReplica) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  Namenode& nn = cluster_->namenode(0);
  for (DatanodeId dn : blk->locations) {
    cluster_->FindDatanode(dn)->StoreBlock(blk->block_id);
    ASSERT_TRUE(nn.BlockReceived(dn, blk->block_id).ok());
  }
  EXPECT_EQ(Rows(cluster_->schema().ruc), 0u);
  EXPECT_EQ(Rows(cluster_->schema().replicas), 3u);
}

TEST_F(BlocksTest, StaleBlockReceivedIsIgnored) {
  Namenode& nn = cluster_->namenode(0);
  EXPECT_TRUE(nn.BlockReceived(1, 999999).ok());
  EXPECT_EQ(Rows(cluster_->schema().replicas), 0u);
}

TEST_F(BlocksTest, CompleteFinalizesPendingReplicas) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  // No datanode acknowledged; Complete finalizes the pipeline server-side.
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  EXPECT_EQ(Rows(cluster_->schema().ruc), 0u);
  EXPECT_EQ(Rows(cluster_->schema().replicas), 3u);
  auto located = client_->Read("/data/f");
  ASSERT_TRUE(located.ok());
  EXPECT_EQ((*located)[0].locations.size(), 3u);
}

TEST_F(BlocksTest, BlockReportMatchesCleanState) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(cluster_->PipelineWrite(*blk).ok());
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  DatanodeId dn = blk->locations[0];
  auto report = cluster_->FindDatanode(dn)->GenerateBlockReport();
  auto result = cluster_->namenode(0).ProcessBlockReport(dn, report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_matched, 1);
  EXPECT_EQ(result->replicas_added, 0);
  EXPECT_EQ(result->orphans_invalidated, 0);
  EXPECT_EQ(result->replicas_removed, 0);
}

TEST_F(BlocksTest, BlockReportRepairsMissingReplica) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(cluster_->PipelineWrite(*blk).ok());
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  DatanodeId dn = blk->locations[0];
  // Drop the replica row behind the namenode's back; the report restores it.
  {
    auto file = client_->Stat("/data/f");
    ASSERT_TRUE(file.ok());
    auto tx = cluster_->db().Begin();
    ASSERT_TRUE(tx->Delete(cluster_->schema().replicas,
                           {file->inode_id, blk->block_id, static_cast<int64_t>(dn)})
                    .ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto result = cluster_->namenode(0).ProcessBlockReport(
      dn, cluster_->FindDatanode(dn)->GenerateBlockReport());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replicas_added, 1);
}

TEST_F(BlocksTest, BlockReportInvalidatesOrphanBlocks) {
  Datanode& dn = cluster_->datanode(0);
  dn.StoreBlock(424242);  // a block the namespace has never heard of
  auto result = cluster_->namenode(0).ProcessBlockReport(dn.id(), dn.GenerateBlockReport());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->orphans_invalidated, 1);
  auto inv = cluster_->namenode(0).FetchInvalidations({dn.id()});
  ASSERT_TRUE(inv.ok());
  ASSERT_EQ(inv->size(), 1u);
  ASSERT_EQ(inv->at(dn.id()).size(), 1u);
  EXPECT_EQ(inv->at(dn.id())[0], 424242);
}

TEST_F(BlocksTest, BlockReportDetectsLostReplica) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(cluster_->PipelineWrite(*blk).ok());
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  DatanodeId dn = blk->locations[0];
  cluster_->FindDatanode(dn)->DropBlock(blk->block_id);  // disk ate it
  auto result = cluster_->namenode(0).ProcessBlockReport(
      dn, cluster_->FindDatanode(dn)->GenerateBlockReport());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replicas_removed, 1);
  EXPECT_EQ(Rows(cluster_->schema().urb), 1u) << "block is now under-replicated";
}

TEST_F(BlocksTest, DatanodeFailureQueuesReReplication) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(cluster_->PipelineWrite(*blk).ok());
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  DatanodeId failed = blk->locations[0];
  cluster_->FindDatanode(failed)->Kill();
  auto affected = cluster_->namenode(0).HandleDatanodeFailure(failed);
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 1);
  EXPECT_EQ(Rows(cluster_->schema().replicas), 2u);
  EXPECT_EQ(Rows(cluster_->schema().urb), 1u);

  // The replication monitor schedules a new target (PRB + RUC)...
  auto scheduled = cluster_->namenode(0).RunReplicationMonitor();
  ASSERT_TRUE(scheduled.ok());
  EXPECT_EQ(*scheduled, 1);
  EXPECT_EQ(Rows(cluster_->schema().prb), 1u);
  // ... and once the new datanode acknowledges, the block is healthy again.
  auto prb_rows = [&] {
    auto tx = cluster_->db().Begin();
    return *tx->FullTableScan(cluster_->schema().prb);
  }();
  ASSERT_EQ(prb_rows.size(), 1u);
  DatanodeId new_dn = prb_rows[0][col::kReplicaDatanode].i64();
  cluster_->FindDatanode(new_dn)->StoreBlock(blk->block_id);
  ASSERT_TRUE(cluster_->namenode(0).BlockReceived(new_dn, blk->block_id).ok());
  EXPECT_EQ(Rows(cluster_->schema().replicas), 3u);
  EXPECT_EQ(Rows(cluster_->schema().urb), 0u);
  EXPECT_EQ(Rows(cluster_->schema().prb), 0u);
}

TEST_F(BlocksTest, ReplicationMonitorClearsSatisfiedEntries) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(cluster_->PipelineWrite(*blk).ok());
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  // Plant a spurious URB row; the monitor should notice the block is fine.
  auto file = client_->Stat("/data/f");
  {
    auto tx = cluster_->db().Begin();
    Replica urb{file->inode_id, blk->block_id, 0, ReplicaState::kFinalized};
    ASSERT_TRUE(tx->Insert(cluster_->schema().urb, ToRow(urb)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto scheduled = cluster_->namenode(0).RunReplicationMonitor();
  ASSERT_TRUE(scheduled.ok());
  EXPECT_EQ(*scheduled, 0);
  EXPECT_EQ(Rows(cluster_->schema().urb), 0u);
}

TEST_F(BlocksTest, MultiBlockFileKeepsBlockOrder) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  std::vector<BlockId> ids;
  for (int i = 0; i < 4; ++i) {
    auto blk = client_->AddBlock("/data/f", 10 * (i + 1));
    ASSERT_TRUE(blk.ok());
    EXPECT_EQ(blk->block_index, i);
    ids.push_back(blk->block_id);
  }
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  auto located = client_->Read("/data/f");
  ASSERT_TRUE(located.ok());
  ASSERT_EQ(located->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*located)[static_cast<size_t>(i)].block_id, ids[static_cast<size_t>(i)]);
    EXPECT_EQ((*located)[static_cast<size_t>(i)].num_bytes, 10 * (i + 1));
  }
  auto st = client_->Stat("/data/f");
  EXPECT_EQ(st->size, 10 + 20 + 30 + 40);
}

TEST_F(BlocksTest, HeartbeatTickDeliversInvalidationsToDatanodes) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  auto blk = client_->AddBlock("/data/f", 100);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(cluster_->PipelineWrite(*blk).ok());
  ASSERT_TRUE(client_->CompleteFile("/data/f").ok());
  ASSERT_TRUE(client_->Delete("/data/f", false).ok());
  ASSERT_GT(Rows(cluster_->schema().inv), 0u);
  cluster_->TickHeartbeats();
  EXPECT_EQ(Rows(cluster_->schema().inv), 0u);
  for (int i = 0; i < cluster_->num_datanodes(); ++i) {
    EXPECT_FALSE(cluster_->datanode(i).HasBlock(blk->block_id)) << "datanode " << i;
  }
}

TEST(ReplicaTargetTest, ConcurrentAddBlocksGetDistinctTargets) {
  // Replication 3 over exactly 3 datanodes: every block needs all of them,
  // so a target picker that hands one call the same datanode twice fails
  // the write. Each namenode serializes its own picks, so the collisions
  // this guards against come from several namenodes picking at once.
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.num_namenodes = 4;
  options.num_datanodes = 3;
  auto started = MiniCluster::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  MiniCluster& cluster = **started;
  ASSERT_TRUE(cluster.NewClient(NamenodePolicy::kSticky, "setup").Mkdirs("/t").ok());
  constexpr int kThreads = 8, kFiles = 150;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client c = cluster.NewClient(NamenodePolicy::kRoundRobin, "w" + std::to_string(t), 7 + t);
      for (int i = 0; i < kFiles; ++i) {
        const std::string path = "/t/f" + std::to_string(t) + "_" + std::to_string(i);
        if (!c.CreateFile(path).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto blk = c.AddBlock(path, 10);
        if (!blk.ok() || blk->locations.size() != 3 ||
            std::set<DatanodeId>(blk->locations.begin(), blk->locations.end()).size() != 3) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The picker itself, hammered without the transaction around it, so
  // concurrent calls overlap far more often than AddBlocks do.
  std::atomic<int> duplicates{0};
  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        std::vector<DatanodeId> picked = cluster.PickDatanodes(3);
        if (std::set<DatanodeId>(picked.begin(), picked.end()).size() != 3) {
          duplicates.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(duplicates.load(), 0);
}

TEST_F(BlocksTest, DeleteUnderConstructionFileCleansRuc) {
  ASSERT_TRUE(client_->CreateFile("/data/f").ok());
  ASSERT_TRUE(client_->AddBlock("/data/f", 100).ok());
  ASSERT_TRUE(client_->Delete("/data/f", false).ok());
  EXPECT_EQ(Rows(cluster_->schema().ruc), 0u);
  EXPECT_EQ(Rows(cluster_->schema().blocks), 0u);
  EXPECT_EQ(Rows(cluster_->schema().leases), 0u);
}

}  // namespace
}  // namespace hops::fs
