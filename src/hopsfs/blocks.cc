// Block life-cycle management and the datanode protocol: block receipt
// (RUC -> Replica), block reports (§7.7), datanode failure handling
// (Replica -> URB), the replication monitor (URB -> PRB + RUC), and
// invalidation delivery (Inv). Block-state changes lock the *block* row,
// which sits below the inode in the metadata hierarchy (§5.2.1), so they
// serialize against file-level operations without touching the inode row.
#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "hopsfs/namenode.h"
#include "util/clock.h"

namespace hops::fs {

namespace {

// Stages removal of replicas[base..end) in `tx`: ONE probe batch carries
// every replica's triple (X-locking block get, X-locking replica get --
// pinning the row so a concurrent operation cannot invalidate the staged
// delete -- and a replica-population scan shared by same-block siblings) in
// a single round trip, then one write batch stages the deletes and
// under-replication markers. `removed` is reset per attempt so a retried
// transaction never double counts. Shared by ProcessBlockReport pass 2 and
// HandleDatanodeFailure.
hops::Status RemoveReplicaChunk(const MetadataSchema* schema, kv::Txn& tx,
                                const std::vector<Replica>& replicas, size_t base, size_t end,
                                int64_t* removed) {
  *removed = 0;
  struct ProbeSlots {
    size_t block_slot = 0;
    size_t replica_slot = 0;
    size_t reps_slot = 0;
  };
  kv::ReadBatch probes;
  std::vector<ProbeSlots> slots;
  slots.reserve(end - base);
  std::map<std::pair<InodeId, BlockId>, size_t> scan_slots;
  for (size_t i = base; i < end; ++i) {
    const Replica& rep = replicas[i];
    ProbeSlots p;
    p.block_slot =
        probes.Get(schema->blocks, {rep.inode_id, rep.block_id}, kv::LockMode::kExclusive);
    p.replica_slot = probes.Get(schema->replicas, {rep.inode_id, rep.block_id, rep.datanode_id},
                                kv::LockMode::kExclusive);
    auto [it, fresh] = scan_slots.try_emplace(std::make_pair(rep.inode_id, rep.block_id), 0);
    if (fresh) it->second = probes.Scan(schema->replicas, {rep.inode_id, rep.block_id});
    p.reps_slot = it->second;
    slots.push_back(p);
  }
  HOPS_RETURN_IF_ERROR(tx.Execute(probes));
  kv::WriteBatch writes;
  // Several removed replicas of the SAME block can sit in one chunk; the
  // under-replication check must see the siblings' staged deletes, not just
  // the shared pre-delete snapshot.
  std::map<std::pair<InodeId, BlockId>, int64_t> staged_deletes;
  for (size_t i = base; i < end; ++i) {
    const ProbeSlots& p = slots[i - base];
    const Replica& rep = replicas[i];
    if (!probes.row(p.replica_slot).has_value()) {
      continue;  // consumed by a concurrent operation before our lock
    }
    writes.Delete(schema->replicas, {rep.inode_id, rep.block_id, rep.datanode_id});
    (*removed)++;
    int64_t staged = ++staged_deletes[{rep.inode_id, rep.block_id}];
    if (probes.row(p.block_slot).has_value()) {
      Block b = BlockFromRow(*probes.row(p.block_slot));
      int64_t population = static_cast<int64_t>(probes.rows(p.reps_slot).size());
      if (population - staged < b.replication) {
        Replica urb{rep.inode_id, rep.block_id, 0, ReplicaState::kFinalized};
        writes.Write(schema->urb, ToRow(urb));
      }
    }
  }
  return tx.Execute(writes);
}

}  // namespace

hops::Status Namenode::BlockReceived(DatanodeId dn, BlockId block_id) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  return RunTx(
      kv::TxHint{schema_->block_lookup, static_cast<uint64_t>(block_id)},
      [&](kv::Txn& tx) -> hops::Status {
        auto lookup = tx.Read(schema_->block_lookup, {block_id}, kv::LockMode::kReadCommitted);
        if (!lookup.ok()) {
          // The file was deleted while the datanode wrote: stale receipt.
          return lookup.status().code() == hops::StatusCode::kNotFound ? hops::Status::Ok()
                                                                       : lookup.status();
        }
        InodeId inode = (*lookup)[col::kLookupInode].i64();
        auto block_row = tx.Read(schema_->blocks, {inode, block_id}, kv::LockMode::kExclusive);
        if (!block_row.ok()) {
          return block_row.status().code() == hops::StatusCode::kNotFound
                     ? hops::Status::Ok()
                     : block_row.status();
        }
        Block b = BlockFromRow(*block_row);
        // The life-cycle flips (RUC consumed, replica finalized, pending
        // re-replication satisfied) stage in one batched round trip.
        kv::WriteBatch writes;
        writes.DeleteIfExists(schema_->ruc, {inode, block_id, dn});
        Replica rep{inode, block_id, dn, ReplicaState::kFinalized};
        writes.Write(schema_->replicas, ToRow(rep));
        writes.DeleteIfExists(schema_->prb, {inode, block_id, dn});
        HOPS_RETURN_IF_ERROR(tx.Execute(writes));
        // Fully replicated again? Clear the under-replication marker.
        HOPS_ASSIGN_OR_RETURN(reps, tx.Ppis(schema_->replicas, {inode, block_id}));
        if (static_cast<int64_t>(reps.size()) >= b.replication) {
          hops::Status st = tx.Delete(schema_->urb, {inode, block_id, int64_t{0}});
          if (!st.ok() && st.code() != hops::StatusCode::kNotFound) return st;
        }
        return hops::Status::Ok();
      });
}

hops::Result<BlockReportResult> Namenode::ProcessBlockReport(
    DatanodeId dn, const std::vector<BlockId>& report) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  BlockReportResult result;
  constexpr size_t kChunk = 512;

  // Pass 1: every reported block is validated against the namespace with a
  // batched primary-key lookup; replicas the metadata is missing are added,
  // blocks unknown to the namespace are queued for invalidation. Each chunk
  // costs three batched round trips (lookup fan-out, replica match, staged
  // repairs) however many blocks it covers.
  for (size_t base = 0; base < report.size(); base += kChunk) {
    size_t end = std::min(report.size(), base + kChunk);
    // Tallied per attempt and folded into `result` only after the
    // transaction commits, so a retried chunk is not counted twice.
    BlockReportResult chunk;
    hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
      chunk = BlockReportResult{};
      std::vector<kv::Key> keys;
      keys.reserve(end - base);
      for (size_t i = base; i < end; ++i) keys.push_back({report[i]});
      HOPS_ASSIGN_OR_RETURN(lookups, tx.BatchRead(schema_->block_lookup, keys,
                                                  kv::LockMode::kReadCommitted));
      kv::WriteBatch repairs;
      std::vector<kv::Key> replica_keys;
      for (size_t i = 0; i < lookups.size(); ++i) {
        if (!lookups[i].has_value()) {
          // Orphaned block on the datanode (e.g. re-created namespace).
          Replica orphan{kInvalidInode, report[base + i], dn, ReplicaState::kFinalized};
          repairs.Write(schema_->inv, ToRow(orphan));
          chunk.orphans_invalidated++;
          continue;
        }
        InodeId inode = (*lookups[i])[col::kLookupInode].i64();
        replica_keys.push_back({inode, report[base + i], static_cast<int64_t>(dn)});
      }
      HOPS_ASSIGN_OR_RETURN(replica_rows, tx.BatchRead(schema_->replicas, replica_keys,
                                                       kv::LockMode::kReadCommitted));
      for (size_t j = 0; j < replica_rows.size(); ++j) {
        if (replica_rows[j].has_value()) {
          chunk.blocks_matched++;
        } else {
          InodeId inode = replica_keys[j][0].i64();
          BlockId blk = replica_keys[j][1].i64();
          Replica rep{inode, blk, dn, ReplicaState::kFinalized};
          repairs.Write(schema_->replicas, ToRow(rep));
          repairs.DeleteIfExists(schema_->ruc, {inode, blk, static_cast<int64_t>(dn)});
          chunk.replicas_added++;
        }
      }
      return tx.Execute(repairs);
    });
    if (!st.ok()) return st;
    result.blocks_matched += chunk.blocks_matched;
    result.replicas_added += chunk.replicas_added;
    result.orphans_invalidated += chunk.orphans_invalidated;
  }

  // Pass 2: replicas the metadata attributes to this datanode that the
  // report does not confirm are removed (and re-replication queued). This is
  // the expensive half: an index scan over the replica table, then -- per
  // chunk of stale replicas -- one transaction batching every per-replica
  // probe (an X-locking block read + a replica-population scan each) into a
  // single round trip, with one write batch staging the removals. The
  // per-row path paid a whole transaction (3-4 trips) per stale replica.
  std::unordered_set<BlockId> reported(report.begin(), report.end());
  std::vector<Replica> stale;
  {
    auto tx = db_->Begin();
    kv::ScanOptions opts;
    opts.eq_filter = {{col::kReplicaDatanode, kv::Value(static_cast<int64_t>(dn))}};
    auto rows = tx->IndexScan(schema_->replicas, {}, opts);
    if (!rows.ok()) return rows.status();
    for (const auto& row : *rows) {
      Replica rep = ReplicaFromRow(row);
      if (!reported.count(rep.block_id)) stale.push_back(rep);
    }
  }
  constexpr size_t kStaleChunk = 128;
  for (size_t base = 0; base < stale.size(); base += kStaleChunk) {
    const size_t end = std::min(stale.size(), base + kStaleChunk);
    int64_t removed = 0;
    hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
      return RemoveReplicaChunk(schema_, tx, stale, base, end, &removed);
    });
    if (!st.ok()) return st;
    result.replicas_removed += removed;
  }
  return result;
}

hops::Result<int64_t> Namenode::HandleDatanodeFailure(DatanodeId dn) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  // Collect the failed datanode's replicas and in-flight writes. The replica
  // table is partitioned by inode id, so a per-datanode sweep is a full
  // index scan -- acceptable for rare housekeeping (leader-only).
  std::vector<Replica> lost;
  std::vector<Replica> lost_ruc;
  {
    auto tx = db_->Begin();
    kv::ScanOptions opts;
    opts.eq_filter = {{col::kReplicaDatanode, kv::Value(static_cast<int64_t>(dn))}};
    auto rows = tx->IndexScan(schema_->replicas, {}, opts);
    if (!rows.ok()) return rows.status();
    for (const auto& row : *rows) lost.push_back(ReplicaFromRow(row));
    auto ruc_rows = tx->IndexScan(schema_->ruc, {}, opts);
    if (!ruc_rows.ok()) return ruc_rows.status();
    for (const auto& row : *ruc_rows) lost_ruc.push_back(ReplicaFromRow(row));
  }
  // The per-row path paid a whole transaction (3-4 round trips) per lost
  // replica. Each chunk now runs ONE transaction through the same
  // RemoveReplicaChunk pipeline ProcessBlockReport pass 2 uses: one probe
  // batch round trip, one write batch of removals + under-replication
  // markers.
  int64_t affected = 0;
  constexpr size_t kChunk = 128;
  for (size_t base = 0; base < lost.size(); base += kChunk) {
    const size_t end = std::min(lost.size(), base + kChunk);
    int64_t removed = 0;
    hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
      return RemoveReplicaChunk(schema_, tx, lost, base, end, &removed);
    });
    if (!st.ok()) return st;
    affected += removed;
  }
  // In-flight writes the datanode will never finish: drop the whole chunk's
  // RUC rows in one write batch per transaction.
  constexpr size_t kRucChunk = 256;
  for (size_t base = 0; base < lost_ruc.size(); base += kRucChunk) {
    const size_t end = std::min(lost_ruc.size(), base + kRucChunk);
    hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
      kv::WriteBatch writes;
      for (size_t i = base; i < end; ++i) {
        const Replica& rep = lost_ruc[i];
        writes.DeleteIfExists(schema_->ruc, {rep.inode_id, rep.block_id, rep.datanode_id});
      }
      return tx.Execute(writes);
    });
    if (!st.ok()) return st;
  }
  return affected;
}

hops::Result<int64_t> Namenode::RunReplicationMonitor() {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  // URB is small in steady state; the replication manager (leader) sweeps it.
  std::vector<std::pair<InodeId, BlockId>> queue;
  {
    auto tx = db_->Begin();
    auto rows = tx->FullTableScan(schema_->urb);
    if (!rows.ok()) return rows.status();
    for (const auto& row : *rows) {
      queue.emplace_back(row[col::kReplicaInode].i64(), row[col::kReplicaBlock].i64());
    }
  }
  int64_t scheduled = 0;
  for (const auto& [inode, blk] : queue) {
    hops::Status st = RunTx(
        kv::TxHint{schema_->blocks, static_cast<uint64_t>(inode)},
        [&](kv::Txn& tx) -> hops::Status {
          auto block_row = tx.Read(schema_->blocks, {inode, blk}, kv::LockMode::kExclusive);
          if (!block_row.ok()) {
            if (block_row.status().code() == hops::StatusCode::kNotFound) {
              hops::Status del = tx.Delete(schema_->urb, {inode, blk, int64_t{0}});
              if (!del.ok() && del.code() != hops::StatusCode::kNotFound) return del;
              return hops::Status::Ok();
            }
            return block_row.status();
          }
          Block b = BlockFromRow(*block_row);
          HOPS_ASSIGN_OR_RETURN(reps, tx.Ppis(schema_->replicas, {inode, blk}));
          if (static_cast<int64_t>(reps.size()) >= b.replication) {
            hops::Status del = tx.Delete(schema_->urb, {inode, blk, int64_t{0}});
            if (!del.ok() && del.code() != hops::StatusCode::kNotFound) return del;
            return hops::Status::Ok();
          }
          // Pick a datanode that does not already hold a replica.
          std::unordered_set<DatanodeId> holders;
          for (const auto& row : reps) {
            holders.insert(row[col::kReplicaDatanode].i64());
          }
          std::vector<DatanodeId> candidates;
          {
            std::lock_guard<std::mutex> lock(dn_picker_mu_);
            if (dn_picker_) {
              candidates = dn_picker_(static_cast<int>(b.replication + holders.size()));
            }
          }
          for (DatanodeId dn : candidates) {
            if (holders.count(dn)) continue;
            Replica target{inode, blk, dn, ReplicaState::kFinalized};
            HOPS_RETURN_IF_ERROR(tx.Write(schema_->ruc, ToRow(target)));
            HOPS_RETURN_IF_ERROR(tx.Write(schema_->prb, ToRow(target)));
            scheduled++;
            return hops::Status::Ok();
          }
          return hops::Status::Ok();  // no eligible datanode right now
        });
    if (!st.ok()) return st;
  }
  return scheduled;
}

hops::Result<std::map<DatanodeId, std::vector<BlockId>>> Namenode::FetchInvalidations(
    const std::vector<DatanodeId>& datanodes) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  // Scan and consume the queues in ONE transaction: the batched delete rides
  // right behind the scan instead of starting a second transaction (which
  // cost a separate lock round trip and 2PC, and could lose commands queued
  // between the two). The queue is not indexed by datanode, so one scan for
  // every asking datanode beats one scan each. A datanode re-fetches on
  // failure, so all-or-nothing delivery is fine.
  const std::set<DatanodeId> wanted(datanodes.begin(), datanodes.end());
  std::map<DatanodeId, std::vector<BlockId>> blocks;
  hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    blocks.clear();
    kv::ScanOptions opts;
    opts.predicate = [&](const kv::Row& row) {
      return wanted.count(row[col::kReplicaDatanode].i64()) > 0;
    };
    HOPS_ASSIGN_OR_RETURN(rows, tx.IndexScan(schema_->inv, {}, opts));
    if (rows.empty()) return hops::Status::Ok();
    kv::WriteBatch writes;
    for (const auto& row : rows) {
      Replica rep = ReplicaFromRow(row);
      writes.DeleteIfExists(schema_->inv, {rep.inode_id, rep.block_id, rep.datanode_id});
      blocks[rep.datanode_id].push_back(rep.block_id);
    }
    return tx.Execute(writes);
  });
  if (!st.ok()) return st;
  return blocks;
}

}  // namespace hops::fs
