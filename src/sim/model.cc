#include "sim/model.h"

#include <cassert>

#include "util/rng.h"

namespace hops::sim {

namespace {

bool IsMutation(wl::OpType op) {
  switch (op) {
    case wl::OpType::kRead:
    case wl::OpType::kStat:
    case wl::OpType::kList:
    case wl::OpType::kContentSummary:
      return false;
    default:
      return true;
  }
}

class TimelineRecorder {
 public:
  TimelineRecorder(double bucket_s, SimResult* result) : bucket_s_(bucket_s), result_(result) {}

  void Record(VirtualTime now_us) {
    if (bucket_s_ <= 0) return;
    size_t bucket = static_cast<size_t>(now_us / (bucket_s_ * 1e6));
    if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
    buckets_[bucket]++;
  }

  void Finish() {
    if (bucket_s_ <= 0) return;
    result_->timeline_bucket_s = bucket_s_;
    for (uint64_t n : buckets_) {
      result_->timeline_ops_per_sec.push_back(static_cast<double>(n) / bucket_s_);
    }
  }

 private:
  double bucket_s_;
  SimResult* result_;
  std::vector<uint64_t> buckets_;
};

// ---------------------------------------------------------------------------
// HopsFS model
// ---------------------------------------------------------------------------

class HopsFsSimulation {
 public:
  HopsFsSimulation(const HopsTopology& topology, const WorkloadSpec& workload,
                   const Calibration& cal, const std::vector<FailureEvent>& failures,
                   double timeline_bucket_s)
      : topology_(topology),
        workload_(workload),
        cal_(cal),
        sampler_(*workload.mix),
        rng_(workload.seed),
        timeline_(timeline_bucket_s, &result_) {
    assert(workload_.traces != nullptr);
    for (int i = 0; i < topology_.num_namenodes; ++i) {
      nns_.push_back(std::make_unique<Station>(&sim_, cal_.nn_servers,
                                               "nn" + std::to_string(i)));
      nn_alive_.push_back(true);
    }
    for (int i = 0; i < topology_.num_db_nodes; ++i) {
      dbs_.push_back(std::make_unique<Station>(&sim_, cal_.db_servers_per_node,
                                               "ndb" + std::to_string(i)));
    }
    for (const auto& f : failures) {
      sim_.At(f.at_s * 1e6, [this, f] {
        if (f.kill_namenode >= 0) nn_alive_[static_cast<size_t>(f.kill_namenode)] = false;
        if (f.revive_namenode >= 0) nn_alive_[static_cast<size_t>(f.revive_namenode)] = true;
      });
    }
  }

  SimResult Run() {
    clients_.resize(static_cast<size_t>(workload_.num_clients));
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c].id = c;
      clients_[c].nn = static_cast<int>(c) % topology_.num_namenodes;
      // Stagger arrivals over one RTT to avoid a thundering-herd artifact.
      double jitter = static_cast<double>(c % 97) * cal_.client_nn_rtt_us / 97.0;
      sim_.At(jitter, [this, c] { StartOp(clients_[c]); });
    }
    double horizon_us = workload_.duration_s * 1e6;
    sim_.Run(horizon_us);
    double measured_s = workload_.duration_s - workload_.warmup_s;
    result_.ops_per_sec = measured_s > 0 ? static_cast<double>(result_.ops) / measured_s : 0;
    double nn_busy = 0, db_busy = 0;
    for (const auto& nn : nns_) nn_busy += nn->Utilization();
    for (const auto& db : dbs_) db_busy += db->Utilization();
    result_.nn_utilization = nn_busy / static_cast<double>(nns_.size());
    result_.db_utilization = db_busy / static_cast<double>(dbs_.size());
    timeline_.Finish();
    return std::move(result_);
  }

 private:
  struct Client {
    size_t id = 0;
    int nn = 0;
    VirtualTime op_start = 0;
    wl::OpType op{};
    const wl::OpTrace* trace = nullptr;
    size_t access_idx = 0;
    size_t parts_pending = 0;
    // Set once the op's latency was recorded -- at the first background
    // access for asynchronously committed ops, at FinishOp otherwise.
    bool latency_recorded = false;
  };

  Station& DbFor(uint32_t partition) {
    return *dbs_[partition % dbs_.size()];
  }

  void StartOp(Client& c) {
    c.op_start = sim_.now();
    c.latency_recorded = false;
    auto [op, on_dir] = sampler_.Sample(rng_);
    (void)on_dir;  // dir targeting is baked into the captured traces
    c.op = op;
    const auto& pool = workload_.traces->PoolFor(op);
    if (pool.empty()) {  // nothing to replay; skip this op type
      sim_.After(cal_.client_nn_rtt_us, [this, &c] { StartOp(c); });
      return;
    }
    c.trace = &pool[rng_.Below(pool.size())];
    c.access_idx = 0;

    double extra = 0;
    if (!nn_alive_[static_cast<size_t>(c.nn)]) {
      // Transparent client failover (§7.6.1): detect, pick a survivor,
      // stay sticky on it.
      extra = cal_.client_failover_penalty_us;
      std::vector<int> alive;
      for (size_t i = 0; i < nn_alive_.size(); ++i) {
        if (nn_alive_[i]) alive.push_back(static_cast<int>(i));
      }
      if (alive.empty()) {
        sim_.After(10000, [this, &c] { StartOp(c); });  // probe again later
        return;
      }
      c.nn = alive[rng_.Below(alive.size())];
    }
    // Request RTT to the namenode, then namenode CPU, then the database
    // access sequence recorded in the trace.
    sim_.After(cal_.client_nn_rtt_us + extra, [this, &c] {
      nns_[static_cast<size_t>(c.nn)]->Submit(cal_.nn_cpu_per_op_us,
                                              [this, &c] { NextAccess(c); });
    });
  }

  void NextAccess(Client& c) {
    // Piggybacked lock acquisitions (writes whose row lock was already
    // covered by a batch or an earlier access) cost no round trip and their
    // rows are serviced at commit.
    while (c.access_idx < c.trace->accesses.size() &&
           c.trace->accesses[c.access_idx].round_trips == 0 &&
           c.trace->accesses[c.access_idx].kind == kv::AccessKind::kPkWrite) {
      c.access_idx++;
    }
    if (c.access_idx >= c.trace->accesses.size()) {
      FinishOp(c);
      return;
    }
    // An overlapped round-trip window: the carrying access plus every
    // immediately following rider (round_trips == 0). A rider shares the
    // carrier's network trip AND its completion wave -- all touched
    // partitions scatter together and the window completes when the slowest
    // one answers, so k overlapped trips cost max, not sum, of their
    // latencies (the async pipelined engine's wall-clock win).
    const kv::Access& carrier = c.trace->accesses[c.access_idx++];
    // Asynchronous metadata commits: accesses marked background are the
    // applier's drain, captured past the acknowledgment point. The client
    // was answered when the foreground sequence (validation + intent
    // append) completed, so the op's latency is recorded here; the
    // background accesses still occupy the database stations and delay op
    // completion, so throughput stays the applied rate.
    if (carrier.background) RecordOpMetrics(c);
    std::vector<const kv::Access*> window{&carrier};
    while (c.access_idx < c.trace->accesses.size() &&
           c.trace->accesses[c.access_idx].round_trips == 0) {
      const kv::Access& rider = c.trace->accesses[c.access_idx++];
      if (rider.kind == kv::AccessKind::kPkWrite) continue;  // piggybacked lock
      window.push_back(&rider);
    }
    double rtt = cal_.nn_db_rtt_us * carrier.round_trips;
    sim_.After(rtt, [this, &c, window = std::move(window)] {
      // Scatter: every partition touched anywhere in the window serves its
      // share in parallel.
      c.parts_pending = 0;
      for (const kv::Access* access : window) c.parts_pending += access->parts.size();
      if (c.parts_pending == 0) {
        NextAccess(c);
        return;
      }
      for (const kv::Access* access : window) {
        for (const auto& part : access->parts) {
          double service = cal_.db_access_base_us + part.rows * cal_.db_row_cpu_us;
          DbFor(part.partition).Submit(service, [this, &c] {
            if (--c.parts_pending == 0) NextAccess(c);
          });
        }
      }
    });
  }

  void RecordOpMetrics(Client& c) {
    if (c.latency_recorded) return;
    c.latency_recorded = true;
    double latency = sim_.now() - c.op_start + cal_.client_nn_rtt_us;
    if (sim_.now() >= workload_.warmup_s * 1e6) {
      result_.ops++;
      result_.latency_us.Record(latency);
      result_.per_op_latency_us[c.op].Record(latency);
    }
  }

  void FinishOp(Client& c) {
    RecordOpMetrics(c);
    timeline_.Record(sim_.now());
    StartOp(c);
  }

  const HopsTopology topology_;
  const WorkloadSpec workload_;
  const Calibration cal_;
  Simulator sim_;
  std::vector<std::unique_ptr<Station>> nns_;
  std::vector<std::unique_ptr<Station>> dbs_;
  std::vector<bool> nn_alive_;
  std::vector<Client> clients_;
  wl::OpSampler sampler_;
  hops::Rng rng_;
  SimResult result_;
  TimelineRecorder timeline_;
};

// ---------------------------------------------------------------------------
// HDFS model
// ---------------------------------------------------------------------------

class HdfsSimulation {
 public:
  HdfsSimulation(const WorkloadSpec& workload, const Calibration& cal,
                 double kill_active_at_s, double timeline_bucket_s)
      : workload_(workload),
        cal_(cal),
        sampler_(*workload.mix),
        rng_(workload.seed),
        dispatch_(&sim_, 1, "dispatch"),
        journal_(&sim_, 1, "journal"),
        timeline_(timeline_bucket_s, &result_) {
    if (kill_active_at_s >= 0) {
      sim_.At(kill_active_at_s * 1e6, [this] { halted_ = true; });
      // The ZooKeeper-coordinated failover promotes the standby after the
      // measured 8-10s window (§7.6.1); service resumes.
      sim_.At((kill_active_at_s + cal_.hdfs_failover_s) * 1e6, [this] {
        halted_ = false;
        auto parked = std::move(parked_);
        parked_.clear();
        for (auto& task : parked) task();
      });
    }
  }

  SimResult Run() {
    clients_.resize(static_cast<size_t>(workload_.num_clients));
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c].id = c;
      double jitter = static_cast<double>(c % 97) * cal_.client_nn_rtt_us / 97.0;
      sim_.At(jitter, [this, c] { StartOp(clients_[c]); });
    }
    sim_.Run(workload_.duration_s * 1e6);
    double measured_s = workload_.duration_s - workload_.warmup_s;
    result_.ops_per_sec = measured_s > 0 ? static_cast<double>(result_.ops) / measured_s : 0;
    timeline_.Finish();
    return std::move(result_);
  }

 private:
  struct Client {
    size_t id = 0;
    VirtualTime op_start = 0;
    wl::OpType op{};
  };

  void StartOp(Client& c) {
    c.op_start = sim_.now();
    c.op = sampler_.Sample(rng_).first;
    sim_.After(cal_.client_nn_rtt_us, [this, &c] { Dispatch(c); });
  }

  void Dispatch(Client& c) {
    if (halted_) {
      // Active namenode dead, standby not yet promoted: the request waits.
      parked_.push_back([this, &c] { Dispatch(c); });
      return;
    }
    dispatch_.Submit(cal_.hdfs_dispatch_us, [this, &c] {
      if (IsMutation(c.op)) {
        lock_.AcquireExclusive([this, &c] {
          sim_.After(cal_.hdfs_write_lock_hold_us, [this, &c] {
            lock_.ReleaseExclusive();
            // The edit syncs to the journal quorum after the lock drops.
            sim_.After(cal_.hdfs_journal_delay_us, [this, &c] {
              journal_.Submit(cal_.hdfs_journal_service_us, [this, &c] { FinishOp(c); });
            });
          });
        });
      } else {
        lock_.AcquireShared([this, &c] {
          sim_.After(cal_.hdfs_read_lock_hold_us, [this, &c] {
            lock_.ReleaseShared();
            FinishOp(c);
          });
        });
      }
    });
  }

  void FinishOp(Client& c) {
    double latency = sim_.now() - c.op_start + cal_.client_nn_rtt_us;
    if (sim_.now() >= workload_.warmup_s * 1e6) {
      result_.ops++;
      result_.latency_us.Record(latency);
      result_.per_op_latency_us[c.op].Record(latency);
    }
    timeline_.Record(sim_.now());
    StartOp(c);
  }

  const WorkloadSpec workload_;
  const Calibration cal_;
  Simulator sim_;
  wl::OpSampler sampler_;
  hops::Rng rng_;
  Station dispatch_;
  Station journal_;
  RwLockRes lock_;
  bool halted_ = false;
  std::vector<Simulator::Task> parked_;
  std::vector<Client> clients_;
  SimResult result_;
  TimelineRecorder timeline_;
};

}  // namespace

SimResult SimulateHopsFs(const HopsTopology& topology, const WorkloadSpec& workload,
                         const Calibration& cal, const std::vector<FailureEvent>& failures,
                         double timeline_bucket_s) {
  HopsFsSimulation sim(topology, workload, cal, failures, timeline_bucket_s);
  return sim.Run();
}

SimResult SimulateHdfs(const WorkloadSpec& workload, const Calibration& cal,
                       double kill_active_at_s, double timeline_bucket_s) {
  HdfsSimulation sim(workload, cal, kill_active_at_s, timeline_bucket_s);
  return sim.Run();
}

}  // namespace hops::sim
