// Contended multi-namenode mutation bench for the sharded hint-invalidation
// log: N namenodes run a bench_table2-style write-heavy mix (rename /
// rename-back, both of which publish) over disjoint directories, so the
// ONLY rows any two namenodes could ever contend on are the invalidation
// log's. The sharded log gives each publisher its own head row and log
// partition, and the async publish stage takes the append latency off the
// mutation path, so publisher lock waits stay ~0 and bursts coalesce into
// fewer appends than ops published.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "util/thread_pool.h"

namespace {

struct RunResult {
  double wall_seconds = 0;
  uint64_t ops = 0;
  uint64_t lock_waits = 0;  // cluster-wide blocked acquisitions
  uint64_t publish_events = 0;
  uint64_t publish_ops_coalesced = 0;
  uint64_t gc_acked_reaps = 0;
  uint64_t round_trips = 0;
  uint64_t overlapped_round_trips = 0;

  double OpsPerSec() const { return wall_seconds > 0 ? ops / wall_seconds : 0; }
};

RunResult RunWriteMix(int namenodes, int threads_per_nn, int files) {
  using namespace hops;
  fs::MiniClusterOptions options;
  options.db.num_datanodes = 8;
  options.db.replication = 2;
  options.num_namenodes = namenodes;
  options.num_datanodes = 3;
  auto cluster = *fs::MiniCluster::Start(options);

  // Disjoint per-worker directories, pre-populated so the measured phase is
  // pure mutation-with-publish (the setup's creates also warm each
  // namenode's id-chunk allocator, keeping the variables table untouched
  // during measurement).
  for (int n = 0; n < namenodes; ++n) {
    for (int t = 0; t < threads_per_nn; ++t) {
      std::string base = "/w" + std::to_string(n) + "_" + std::to_string(t);
      if (!cluster->namenode(n).Mkdirs(base).ok()) std::abort();
      for (int i = 0; i < files; ++i) {
        const std::string f = base + "/f" + std::to_string(i);
        if (!cluster->namenode(n).Create(f, "c").ok()) std::abort();
        if (!cluster->namenode(n).CompleteFile(f, "c").ok()) std::abort();
      }
    }
  }

  // Every (rename, rename-back) round publishes twice and leaves the
  // namespace as it found it.
  cluster->db().ResetStats();
  ThreadPool pool(namenodes * threads_per_nn);
  std::atomic<uint64_t> ops{0};
  const auto start = std::chrono::steady_clock::now();
  for (int n = 0; n < namenodes; ++n) {
    for (int t = 0; t < threads_per_nn; ++t) {
      pool.Submit([&, n, t] {
        fs::Namenode& nn = cluster->namenode(n);
        const std::string base = "/w" + std::to_string(n) + "_" + std::to_string(t);
        uint64_t done = 0;
        for (int i = 0; i < files; ++i) {
          const std::string f = base + "/f" + std::to_string(i);
          const std::string g = base + "/g" + std::to_string(i);
          if (!nn.Rename(f, g).ok()) continue;  // publishes src+dst prefixes
          if (!nn.Rename(g, f).ok()) continue;  // and back
          done += 2;
        }
        ops.fetch_add(done, std::memory_order_relaxed);
      });
    }
  }
  pool.Wait();
  cluster->FlushHintPublishes();  // async appends are part of the run's work

  RunResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  r.ops = ops.load();
  auto db = cluster->db().StatsSnapshot();
  r.lock_waits = db.lock_waits;
  r.round_trips = db.round_trips;
  r.overlapped_round_trips = db.overlapped_round_trips;
  auto hint = cluster->AggregateHintStats();
  r.publish_events = hint.publish_events;
  r.publish_ops_coalesced = hint.publish_ops_coalesced;
  // A couple of ticks so the ack-based GC shows up in the report.
  cluster->TickHeartbeats(2);
  r.gc_acked_reaps = cluster->AggregateHintStats().gc_acked_reaps;
  return r;
}

}  // namespace

int main() {
  const bool full = std::getenv("HOPS_BENCH_FULL") != nullptr;
  const int namenodes = full ? 6 : 4;
  const int threads_per_nn = full ? 3 : 2;
  const int files = full ? 400 : 120;

  std::printf("# Contended multi-NN write mix through the sharded hint log\n");
  std::printf("# %d namenodes x %d mutating threads x %d rename-pair rounds, "
              "disjoint dirs\n\n",
              namenodes, threads_per_nn, files);

  hops::bench::BenchJson json("hintlog_publish");
  std::printf("%10s %12s | %10s %10s %12s\n", "ops/s", "lock waits", "publishes",
              "coalesced", "acked reaps");
  RunResult r = RunWriteMix(namenodes, threads_per_nn, files);
  std::printf("%10.0f %12llu | %10llu %10llu %12llu\n", r.OpsPerSec(),
              static_cast<unsigned long long>(r.lock_waits),
              static_cast<unsigned long long>(r.publish_events),
              static_cast<unsigned long long>(r.publish_ops_coalesced),
              static_cast<unsigned long long>(r.gc_acked_reaps));
  json.Metric("sharded_ops_per_sec", r.OpsPerSec());
  json.Metric("sharded_lock_waits", static_cast<double>(r.lock_waits));
  json.Metric("sharded_publish_events", static_cast<double>(r.publish_events));
  json.Metric("sharded_publish_ops_coalesced", static_cast<double>(r.publish_ops_coalesced));
  json.Metric("sharded_gc_acked_reaps", static_cast<double>(r.gc_acked_reaps));
  json.Metric("sharded_round_trips", static_cast<double>(r.round_trips));
  json.Metric("sharded_overlapped_round_trips", static_cast<double>(r.overlapped_round_trips));

  std::printf("\nshape: publishers touch only their own head row + partition, so\n"
              "free-running lock waits stay ~0, and the async stage coalesces bursts\n"
              "into fewer appends than ops published.\n");
  return 0;
}
