// Figure 7: raw throughput of individual file system operations. For each
// operation the benchmark floods the cluster with only that operation;
// HopsFS is reported at 5/30/60 namenodes (the paper draws stacked bars in
// 5-namenode increments) against the 5-server HDFS setup.
#include <cctype>

#include "bench_common.h"

int main() {
  using namespace hops;
  struct OpRow {
    const char* label;
    wl::OpType op;
    double dir_fraction;
  };
  const std::vector<OpRow> ops = {
      {"MKDIR", wl::OpType::kMkdirs, 1.0},
      {"CREATE FILE", wl::OpType::kCreateFile, 0.0},
      {"APPEND FILE", wl::OpType::kAppendFile, 0.0},
      {"READ FILE", wl::OpType::kRead, 0.0},
      {"LS DIR", wl::OpType::kList, 1.0},
      {"LS FILE", wl::OpType::kList, 0.0},
      {"CHMOD FILE", wl::OpType::kSetPermission, 0.0},
      {"CHMOD DIR", wl::OpType::kSetPermission, 1.0},
      {"INFO FILE", wl::OpType::kStat, 0.0},
      {"INFO DIR", wl::OpType::kStat, 1.0},
      {"SET REPL", wl::OpType::kSetReplication, 0.0},
      {"RENAME FILE", wl::OpType::kMove, 0.0},
      {"DEL FILE", wl::OpType::kDelete, 0.0},
      {"CHOWN FILE", wl::OpType::kSetOwner, 0.0},
      {"CHOWN DIR", wl::OpType::kSetOwner, 1.0},
  };

  // One capture covering every op type (sampled with its Figure-7 target
  // kind) provides the trace pools.
  std::printf("# Figure 7: per-operation raw throughput (ops/sec)\n");
  std::printf("# kv engine: %s\n",
              std::string(kv::EngineKindName(hops::bench::BenchEngineKind())).c_str());
  std::printf("# capturing traces...\n");
  wl::OpMix capture_mix;
  capture_mix.name = "fig7";
  for (const auto& row : ops) {
    capture_mix.entries.push_back({row.op, 100.0 / ops.size(), row.dir_fraction});
  }
  auto env = hops::bench::MakeCapture(capture_mix, 8000, 32, 20);

  sim::Calibration cal;
  hops::bench::BenchJson json("fig07_op_throughput");
  std::printf("\n%-12s %12s %12s %12s %12s\n", "operation", "hops@5nn", "hops@30nn",
              "hops@60nn", "hdfs");
  for (const auto& row : ops) {
    wl::OpMix mix = wl::OpMix::Single(row.op, row.dir_fraction);
    double hops_rates[3];
    int idx = 0;
    for (int nn : {5, 30, 60}) {
      sim::WorkloadSpec spec;
      spec.mix = &mix;
      spec.traces = &env.pools;
      spec.num_clients = hops::bench::SaturatingClients(nn);
      spec.duration_s = 0.08;
      spec.warmup_s = 0.03;
      hops_rates[idx++] =
          sim::SimulateHopsFs(sim::HopsTopology{nn, 12}, spec, cal).ops_per_sec;
    }
    sim::WorkloadSpec hdfs_spec;
    hdfs_spec.mix = &mix;
    hdfs_spec.num_clients = 384;
    hdfs_spec.duration_s = 0.2;
    hdfs_spec.warmup_s = 0.05;
    auto hdfs = sim::SimulateHdfs(hdfs_spec, cal);
    std::printf("%-12s %12.0f %12.0f %12.0f %12.0f\n", row.label, hops_rates[0],
                hops_rates[1], hops_rates[2], hdfs.ops_per_sec);
    std::fflush(stdout);
    std::string op = row.label;
    for (char& c : op) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
    json.Metric(op + "_hops_60nn_ops_per_sec", hops_rates[2]);
    json.Metric(op + "_hdfs_ops_per_sec", hdfs.ops_per_sec);
  }
  std::printf("\nshape to compare with the paper: HopsFS exceeds HDFS on every operation,\n"
              "read-only ops scale furthest, and each 5-namenode increment adds throughput.\n");

  // --- Handler pool -----------------------------------------------------------
  // Traces are captured on the REAL namenode while 2 x num_handlers
  // closed-loop clients run behind its bounded handler pool, then replayed
  // on a 5-namenode cluster where a round trip costs real RTT. The engine
  // counters show the concurrency-control pressure at each handler count.
  std::printf("\n# Handler pool (traces captured under concurrent load,\n"
              "# replayed on a 5-namenode simulated cluster; Spotify mix)\n");
  std::printf("%-12s %14s %14s\n", "handlers", "ops/s", "lock waits");
  for (int handlers : {1, 2, 4, 8}) {
    auto cap = hops::bench::CaptureUnderHandlerLoad(handlers, 2 * handlers, 400, 13);
    wl::OpMix replay = wl::OpMix::Single(wl::OpType::kRead);
    sim::WorkloadSpec spec;
    spec.mix = &replay;
    spec.traces = &cap.pools;
    // Below namenode-CPU saturation, so the closed loop is latency-bound.
    spec.num_clients = 120;
    spec.duration_s = 0.08;
    spec.warmup_s = 0.03;
    const double ops = sim::SimulateHopsFs(sim::HopsTopology{5, 12}, spec, cal).ops_per_sec;
    std::printf("%-12d %14.0f %14llu\n", handlers, ops,
                static_cast<unsigned long long>(cap.db_stats.lock_waits));
    std::fflush(stdout);
    std::string prefix = "handlers" + std::to_string(handlers) + "_";
    json.Metric(prefix + "ops_per_sec", ops);
    // Concurrency-control pressure under this handler count: OCC validation
    // conflicts (absorbed by RunTx retries) vs the 2PL lock counters.
    json.EngineStats(prefix, cap.db_stats);
  }

  // --- Engine ablation: contended create hotspot ----------------------------
  // All threads create files in one shared directory, so every transaction
  // rewrites the same parent inode row. Rerun with HOPS_KV_ENGINE=occ to
  // compare: 2PL serializes on the row lock (lock_waits), OCC retries
  // commit-validation conflicts (occ_conflicts) -- same created files either
  // way.
  {
    auto hot = hops::bench::RunContendedCreates(/*threads=*/8, /*files_per_thread=*/150,
                                                /*seed=*/19);
    std::printf("\n# Engine ablation: 8 threads x 150 creates, ONE shared directory [%s]\n",
                std::string(kv::EngineKindName(hops::bench::BenchEngineKind())).c_str());
    std::printf("%-12s %14s %14s %14s %14s\n", "ops", "wall ops/s", "occ conflicts",
                "lock waits", "lock timeouts");
    std::printf("%-12llu %14.0f %14llu %14llu %14llu\n",
                static_cast<unsigned long long>(hot.ops), hot.ops_per_sec,
                static_cast<unsigned long long>(hot.db_stats.occ_conflicts),
                static_cast<unsigned long long>(hot.db_stats.lock_waits),
                static_cast<unsigned long long>(hot.db_stats.lock_timeouts));
    json.Metric("hotspot_ops_per_sec", hot.ops_per_sec);
    json.EngineStats("hotspot_", hot.db_stats);
  }

  // Deterministic collision probe: one forced two-claimant collision per
  // round on a single row, so the per-collision cost counters are populated
  // reliably (the FS hotspot above collides only at realistic rates).
  {
    auto probe = hops::bench::RunContentionProbe(/*rounds=*/200);
    std::printf("\n# Contention probe: 200 forced two-claimant rounds on one row [%s]\n",
                std::string(kv::EngineKindName(hops::bench::BenchEngineKind())).c_str());
    std::printf("us/round=%.1f retries=%llu occ_conflicts=%llu lock_waits=%llu\n",
                probe.wall_us_per_round, static_cast<unsigned long long>(probe.retries),
                static_cast<unsigned long long>(probe.db_stats.occ_conflicts),
                static_cast<unsigned long long>(probe.db_stats.lock_waits));
    json.Metric("probe_us_per_round", probe.wall_us_per_round);
    json.Metric("probe_retries", static_cast<double>(probe.retries));
    json.EngineStats("probe_", probe.db_stats);
  }
  return 0;
}
