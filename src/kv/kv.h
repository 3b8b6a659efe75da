// The pluggable transactional-KV engine boundary (3FS CustomKvEngine idiom).
//
// HopsFS's bet (paper §2) is that hierarchical metadata can ride ANY NewSQL
// store that offers transactions, row locks or their moral equivalent, and
// partition-aware routing. This header is that contract, distilled from what
// the namenode layer actually needs: kv::Engine owns tables, topology and
// stats; kv::Txn is one transaction with point ops, batch execute, pipelined
// in-flight windows, scans, and explicit lock modes. Two backends implement
// it:
//
//  * kv::NdbEngine (ndb_engine.h) -- the NDB-style pessimistic engine:
//    read-committed isolation plus eagerly acquired shared/exclusive row
//    locks, deadlock resolution by lock-wait timeout. LockMode is enforced
//    at access time.
//  * kv::OccEngine (occ_engine.h) -- an optimistic MVCC engine
//    (FoundationDB-style): lock modes never block; kShared/kExclusive reads
//    are recorded in a read set and validated at commit, locking scans are
//    recorded as ranges (phantom protection), and a failed validation
//    surfaces hops::StatusCode::kConflict -- retryable, so the namenode's
//    RunTx loop becomes a real OCC retry loop.
//
// Lock-mode semantics every backend must honor (the contract call sites are
// written against):
//  * kReadCommitted: sees the latest committed version, never blocks, and
//    carries NO stability guarantee past the read itself.
//  * kShared: the value read is guaranteed unchanged at commit -- by holding
//    the lock (2PL) or by failing validation (OCC). A read of a MISSING row
//    guards its key slot the same way (insert-guard semantics).
//  * kExclusive: kShared's guarantee plus the intent to write; concurrent
//    kShared/kExclusive claims on the row serialize (2PL blocks, OCC aborts
//    one claimant at commit).
//
// The data plane (rows, keys, schemas, batches, cost traces, stats, fault
// injection) is shared with src/ndb via aliases: both backends speak the
// same rows and emit the same counters, so benches and the DES simulator
// compare engines without translation.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "ndb/cluster.h"

namespace hops::kv {

// --- Shared data plane -------------------------------------------------------
using Value = ndb::Value;
using Row = ndb::Row;
using Key = ndb::Key;
using ColumnType = ndb::ColumnType;
using Column = ndb::Column;
using Schema = ndb::Schema;
using TableId = ndb::TableId;
using TxId = ndb::TxId;
using LockMode = ndb::LockMode;
using ScanOptions = ndb::ScanOptions;
using BatchLockOrder = ndb::BatchLockOrder;
using ReadBatch = ndb::ReadBatch;
using WriteBatch = ndb::WriteBatch;
using AccessKind = ndb::AccessKind;
using PartTouch = ndb::PartTouch;
using Access = ndb::Access;
using CostTrace = ndb::CostTrace;
using ClusterStats = ndb::ClusterStats;
using FaultInjector = ndb::FaultInjector;
using TxHint = ndb::TxHint;
// Both backends consume the same knob set; OCC ignores the lock-wait field
// (it has no lock waits).
using EngineConfig = ndb::ClusterConfig;

// --- Backend selection -------------------------------------------------------
enum class EngineKind : uint8_t {
  kNdb,  // pessimistic 2PL (NDB-style), the paper's engine
  kOcc,  // optimistic MVCC with commit-time validation
};

std::string_view EngineKindName(EngineKind kind);
// "ndb" / "occ" (case-insensitive); nullopt for anything else.
std::optional<EngineKind> ParseEngineKind(std::string_view name);
// The HOPS_KV_ENGINE environment override consumed by MiniCluster::Start and
// the benches; nullopt when unset or unparseable.
std::optional<EngineKind> EngineKindFromEnv();

class Txn;

// Future-like handle to a batch submitted through Txn::ExecuteAsync. Mirrors
// ndb::PendingBatch: cheap to copy, names the batch within its transaction,
// and requires the staged ReadBatch/WriteBatch to stay alive until Wait().
class Pending {
 public:
  Pending() = default;

  bool valid() const { return tx_ != nullptr; }
  bool done() const;
  hops::Status Wait();

 private:
  friend class Txn;
  Pending(Txn* tx, uint64_t seq) : tx_(tx), seq_(seq) {}
  Txn* tx_ = nullptr;
  uint64_t seq_ = 0;
};

// One transaction against a kv::Engine. The surface mirrors
// ndb::Transaction's public API one-for-one so the namenode call sites are
// backend-agnostic; see that header for per-method semantics.
class Txn {
 public:
  virtual ~Txn() = default;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  virtual TxId id() const = 0;
  virtual uint32_t coordinator() const = 0;

  // --- Primary-key operations ---
  virtual hops::Result<Row> Read(TableId table, const Key& key, LockMode mode,
                                 std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Result<std::vector<std::optional<Row>>> BatchRead(
      TableId table, const std::vector<Key>& keys, LockMode mode,
      const std::vector<uint64_t>* pvs = nullptr) = 0;
  virtual hops::Status Insert(TableId table, Row row,
                              std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Status Update(TableId table, Row row,
                              std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Status Write(TableId table, Row row,
                             std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Status Delete(TableId table, const Key& key,
                              std::optional<uint64_t> pv = std::nullopt) = 0;

  // --- Batched execution (sync = async + immediate Wait) ---
  hops::Status Execute(ReadBatch& batch) { return ExecuteAsync(batch).Wait(); }
  hops::Status Execute(WriteBatch& batch) { return ExecuteAsync(batch).Wait(); }
  Pending ExecuteAsync(ReadBatch& batch) { return Pending(this, PrepareAsync(&batch, nullptr)); }
  Pending ExecuteAsync(WriteBatch& batch) { return Pending(this, PrepareAsync(nullptr, &batch)); }
  virtual size_t InFlightBatches() const = 0;
  virtual hops::Status FlushPending() = 0;
  virtual void UnlockRow(TableId table, const Key& key,
                         std::optional<uint64_t> pv = std::nullopt) = 0;

  // --- Scans ---
  virtual hops::Result<std::vector<Row>> Ppis(TableId table, const Key& prefix,
                                              const ScanOptions& opts = {},
                                              std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Result<std::vector<Row>> IndexScan(TableId table, const Key& prefix,
                                                   const ScanOptions& opts = {}) = 0;
  virtual hops::Result<std::vector<Row>> FullTableScan(TableId table,
                                                       const ScanOptions& opts = {}) = 0;

  // --- Outcome ---
  virtual hops::Status Commit() = 0;
  virtual void Abort() = 0;
  virtual bool active() const = 0;

  // --- Cost trace ---
  virtual void EnableTrace() = 0;
  virtual const CostTrace& trace() const = 0;
  virtual void SetBackground(bool background) = 0;

 protected:
  Txn() = default;

 private:
  friend class Pending;
  // Registers a batch (exactly one of read/write set) and returns the handle
  // sequence Pending resolves through WaitBatch/BatchDone.
  virtual uint64_t PrepareAsync(ReadBatch* read, WriteBatch* write) = 0;
  virtual hops::Status WaitBatch(uint64_t seq) = 0;
  virtual bool BatchDone(uint64_t seq) const = 0;
};

inline bool Pending::done() const { return tx_ != nullptr && tx_->BatchDone(seq_); }

inline hops::Status Pending::Wait() {
  if (tx_ == nullptr) return hops::Status::InvalidArgument("empty batch handle");
  return tx_->WaitBatch(seq_);
}

// One storage backend: tables, transactions, topology, failure injection and
// stats. The surface mirrors ndb::Cluster so MiniCluster and the tests/
// benches interrogate either backend identically.
class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual EngineKind kind() const = 0;
  std::string_view name() const { return EngineKindName(kind()); }

  virtual hops::Result<TableId> CreateTable(Schema schema) = 0;
  virtual const Schema& schema(TableId table) const = 0;
  virtual std::optional<TableId> FindTable(std::string_view name) const = 0;

  virtual std::unique_ptr<Txn> Begin(std::optional<TxHint> hint = std::nullopt) = 0;

  // --- Failure injection (the chaos harness drives either backend) ---
  virtual FaultInjector& fault_injector() = 0;
  virtual void KillDatanode(uint32_t node) = 0;
  virtual void RestartDatanode(uint32_t node) = 0;
  virtual bool IsAlive(uint32_t node) const = 0;
  virtual uint32_t NumAliveNodes() const = 0;
  virtual bool Available() const = 0;

  // --- Topology ---
  virtual const EngineConfig& config() const = 0;
  virtual uint32_t num_datanodes() const = 0;
  virtual uint32_t num_partitions() const = 0;
  virtual uint32_t num_node_groups() const = 0;
  virtual uint32_t PartitionForValue(uint64_t partition_value) const = 0;
  virtual std::optional<uint32_t> PrimaryNode(uint32_t partition) const = 0;

  // --- Introspection ---
  virtual ClusterStats StatsSnapshot() const = 0;
  virtual void ResetStats() = 0;
  virtual size_t TableRowCount(TableId table) const = 0;
  virtual size_t TotalMemoryBytes() const = 0;
  virtual size_t TableMemoryBytes(TableId table) const = 0;
  virtual uint64_t GlobalCheckpointEpoch() const = 0;

  static constexpr size_t kPerRowOverheadBytes = ndb::Cluster::kPerRowOverheadBytes;

 protected:
  Engine() = default;
};

std::unique_ptr<Engine> MakeEngine(EngineKind kind, EngineConfig config);

}  // namespace hops::kv
