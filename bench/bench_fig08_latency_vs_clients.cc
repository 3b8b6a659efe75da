// Figure 8: average operation latency for an increasing number of
// concurrent clients (Spotify workload). Paper shape: HDFS latency blows up
// as requests queue behind the namesystem lock and RPC queues; HopsFS keeps
// latency low to thousands of clients because namenodes and database shards
// serve in parallel.
#include "bench_common.h"

int main() {
  using namespace hops;
  auto mix = wl::OpMix::Spotify();
  std::printf("# Figure 8: average latency vs concurrent clients (Spotify mix)\n");
  std::printf("# capturing traces...\n");
  auto env = bench::MakeCapture(mix);

  sim::Calibration cal;
  bench::BenchJson json("fig08_latency_vs_clients");
  const std::vector<int> client_counts = {100, 200, 500, 1000, 2000, 4000, 6000};
  std::printf("\n%-10s %16s %16s\n", "clients", "HopsFS avg (ms)", "HDFS avg (ms)");
  for (int clients : client_counts) {
    sim::WorkloadSpec spec;
    spec.mix = &mix;
    spec.traces = &env.pools;
    spec.num_clients = clients;
    spec.duration_s = 0.15;
    spec.warmup_s = 0.05;
    auto hops_result = sim::SimulateHopsFs(sim::HopsTopology{60, 12}, spec, cal);

    sim::WorkloadSpec hdfs_spec = spec;
    hdfs_spec.duration_s = 0.4;
    hdfs_spec.warmup_s = 0.1;
    auto hdfs_result = sim::SimulateHdfs(hdfs_spec, cal);

    std::printf("%-10d %16.2f %16.2f\n", clients, hops_result.latency_us.Mean() / 1000.0,
                hdfs_result.latency_us.Mean() / 1000.0);
    std::fflush(stdout);
    std::string prefix = "clients" + std::to_string(clients) + "_";
    json.Metric(prefix + "hops_avg_ms", hops_result.latency_us.Mean() / 1000.0);
    json.Metric(prefix + "hdfs_avg_ms", hdfs_result.latency_us.Mean() / 1000.0);
  }
  std::printf("\nshape to compare with Figure 8: HDFS latency grows steeply with client\n"
              "count (ops queue at the single namenode); HopsFS stays low and flat.\n");
  return 0;
}
