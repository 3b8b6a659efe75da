// perfbench: closed-loop, wall-clock benchmark of the HopsFS metadata stack.
//
// Drives a real fs::MiniCluster (2 namenodes with handler pools, simulated
// datanodes, a kv::Engine) through the public fs::Client API:
//
//   set-up     cluster start + bulk load of the seeded namespace + warm-up,
//              repeated; setup_s is the median of their CPU times;
//   timed      closed-loop clients for --seconds while the main thread ticks
//              MiniCluster::TickHeartbeats on a fixed period;
//   oracle     the namespace model (model.h) against listings, summaries,
//              row counts, file sizes and attributes;
//   teardown   du / mv / rm of the planned depth-4 subtrees, each checked
//              exactly, until only the root is left.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced (spans around every client call, heartbeat and
// bulk load, trace sinks on every namenode) and prints the per-layer
// metrics. The last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hopsfs/mini_cluster.h"
#include "model.h"
#include "spans.h"
#include "workload.h"
#include "workload/namespace_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = hops::fs;
namespace kv = hops::kv;
namespace wl = hops::wl;

constexpr auto kTickPeriod = std::chrono::milliseconds(10);
constexpr int kSetupRepeats = 7;
// peak_rss_mib is read once the clients have completed this many ops, so
// every run reads it at the same namespace size and op history, however
// fast the program is. The slowest runs seen reach it in about 12 s.
constexpr uint64_t kRssOps = 30000;
constexpr int kTeardownDepth = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool plant_discrepancy = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--plant-discrepancy") {
      args->plant_discrepancy = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") args->workload = v;
    else if (a == "--seed") args->seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") args->seconds = std::atoi(v);
    else if (a == "--trace") args->trace = std::atoi(v) != 0;
    else if (a == "--commit") args->commit = v;
    else if (a == "--source-digest") args->source_digest = v;
    else if (a == "--trace-dir") args->trace_dir = v;
    else return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

double ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Nearest-rank percentile; 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- Counters read from the program's public surfaces --------------------

kv::ClusterStats Minus(const kv::ClusterStats& a, const kv::ClusterStats& b) {
  kv::ClusterStats d;
#define PERFBENCH_DELTA(f) d.f = a.f - b.f
  PERFBENCH_DELTA(pk_reads); PERFBENCH_DELTA(batch_reads); PERFBENCH_DELTA(batch_writes);
  PERFBENCH_DELTA(ppis_scans); PERFBENCH_DELTA(index_scans); PERFBENCH_DELTA(full_table_scans);
  PERFBENCH_DELTA(commits); PERFBENCH_DELTA(aborts); PERFBENCH_DELTA(rows_read);
  PERFBENCH_DELTA(rows_written); PERFBENCH_DELTA(lock_timeouts); PERFBENCH_DELTA(lock_waits);
  PERFBENCH_DELTA(round_trips); PERFBENCH_DELTA(overlapped_round_trips);
  PERFBENCH_DELTA(cross_tx_overlapped_round_trips); PERFBENCH_DELTA(mux_rounds);
  PERFBENCH_DELTA(mux_windows); PERFBENCH_DELTA(mux_gather_waits);
  PERFBENCH_DELTA(mux_gathered_windows); PERFBENCH_DELTA(occ_conflicts);
  PERFBENCH_DELTA(occ_key_conflicts); PERFBENCH_DELTA(occ_range_conflicts);
#undef PERFBENCH_DELTA
  return d;
}

void Accumulate(kv::ClusterStats& sum, const kv::ClusterStats& d) {
#define PERFBENCH_ADD(f) sum.f += d.f
  PERFBENCH_ADD(round_trips); PERFBENCH_ADD(rows_read); PERFBENCH_ADD(rows_written);
#undef PERFBENCH_ADD
}

struct Counters {
  kv::ClusterStats kv;
  fs::ClusterHintStats hint;
  uint64_t handler_requests = 0;
};

Counters TakeCounters(fs::MiniCluster& cluster) {
  Counters c;
  c.kv = cluster.db().StatsSnapshot();
  c.hint = cluster.AggregateHintStats();
  for (fs::Namenode* nn : cluster.AliveNamenodes()) {
    if (fs::HandlerPool* pool = nn->handler_pool()) c.handler_requests += pool->requests_served();
  }
  return c;
}

// Aggregates of every committed transaction's cost trace, fed by the
// namenodes' trace sinks from their handler threads.
struct TraceAggregate {
  std::mutex mu;
  uint64_t tx = 0, accesses = 0, round_trips = 0, parts = 0, remote_parts = 0, co_scheduled = 0;

  void Add(const kv::CostTrace& trace) {
    uint64_t a = 0, rt = 0, p = 0, remote = 0, co = 0;
    for (const kv::Access& access : trace.accesses) {
      a++;
      rt += access.round_trips;
      co += access.co_scheduled ? 1 : 0;
      for (const kv::PartTouch& touch : access.parts) {
        p++;
        remote += touch.local ? 0 : 1;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    tx++;
    accesses += a;
    round_trips += rt;
    parts += p;
    remote_parts += remote;
    co_scheduled += co;
  }
};

// --- Set-up --------------------------------------------------------------

struct SetupTimes {
  double cluster_start_s = 0;
  double bulk_load_s = 0;
  double total_s = 0;
  double cpu_s = 0;  // process CPU, every thread
};

hops::Result<std::unique_ptr<fs::MiniCluster>> SetUp(const WorkloadSpec& spec,
                                                     const Inputs& in, SpanLog* spans,
                                                     SetupTimes* times) {
  int64_t t0 = NowNs();
  double cpu0 = ProcessCpuUs();
  fs::MiniClusterOptions options;
  options.num_namenodes = kNamenodes;
  options.num_datanodes = kDatanodes;
  options.fs.num_handlers = kHandlersPerNamenode;
  options.fs.kv_engine = spec.engine;
  HOPS_ASSIGN_OR_RETURN(cluster, fs::MiniCluster::Start(options));
  if (cluster->fs_config().kv_engine != spec.engine) {
    return hops::Status::InvalidArgument("the cluster runs another engine than the workload's");
  }
  int64_t t1 = NowNs();

  size_t span = spans ? spans->Begin(kBulkLoadSpan) : 0;
  wl::BulkLoader loader(&cluster->db(), &cluster->schema(), &cluster->fs_config());
  auto loaded = loader.Load(in.plan, kBlocksPerFile, kReplicasPerBlock, in.seed);
  if (!loaded.ok()) return loaded.status();
  if (spans) spans->End(span);
  int64_t t2 = NowNs();

  // Warm-up: resolve every planned directory once through each namenode so
  // the measured phase starts with filled hint caches and id allocators.
  fs::Client client = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "warmup", in.seed);
  for (const auto& dir : in.plan.dirs) {
    for (int n = 0; n < kNamenodes; ++n) {
      auto st = client.Stat(dir);
      if (!st.ok()) return st.status();
    }
  }
  int64_t t3 = NowNs();
  times->cluster_start_s = Seconds(t1 - t0);
  times->bulk_load_s = Seconds(t2 - t1);
  times->total_s = Seconds(t3 - t0);
  times->cpu_s = (ProcessCpuUs() - cpu0) / 1e6;
  return cluster;
}

// --- Heartbeat ticker (the main thread during the timed phase) -------------

struct TickerStats {
  std::vector<double> tick_us;
  double queue_depth_sum = 0;
  int64_t cpu_ns = 0;
  double rss_mib = 0;       // peak RSS when kRssOps ops had completed
  bool rss_at_ops = false;  // false: kRssOps was not reached, read at the end
};

void RunTicker(fs::MiniCluster& cluster, const std::vector<ThreadResult>& clients,
               int64_t deadline_ns, SpanLog* spans, TickerStats* out) {
  int64_t cpu0 = ThreadCpuNs();
  auto next = std::chrono::steady_clock::now();
  while (NowNs() < deadline_ns) {
    size_t span = spans ? spans->Begin(kTickSpan) : 0;
    int64_t t0 = NowNs();
    cluster.TickHeartbeats();
    out->tick_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (spans) spans->End(span);
    for (fs::Namenode* nn : cluster.AliveNamenodes()) {
      if (fs::HandlerPool* pool = nn->handler_pool()) {
        out->queue_depth_sum += static_cast<double>(pool->queue_depth());
      }
    }
    if (!out->rss_at_ops) {
      uint64_t completed = 0;
      for (const ThreadResult& r : clients) completed += r.completed.load(std::memory_order_relaxed);
      if (completed >= kRssOps) {
        out->rss_mib = PeakRssMib();
        out->rss_at_ops = true;
      }
    }
    next += kTickPeriod;
    auto deadline = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline_ns));
    std::this_thread::sleep_until(std::min(next, deadline));
  }
  if (!out->rss_at_ops) out->rss_mib = PeakRssMib();
  out->cpu_ns = ThreadCpuNs() - cpu0;
}

// --- Oracle ----------------------------------------------------------------

std::set<std::string> Names(const std::vector<fs::FileStatus>& listing) {
  std::set<std::string> names;
  for (const auto& s : listing) names.insert(s.name);
  return names;
}

// Builds the model from the plan plus every acknowledged mutation and checks
// the live namespace against it. Returns the violations found.
std::vector<std::string> CheckNamespace(fs::MiniCluster& cluster, const Inputs& in,
                                        const std::vector<ThreadResult>& results,
                                        const std::vector<MixClient::OwnFile>& own_files,
                                        bool plant, NamespaceModel* model) {
  std::vector<std::string> bad;
  auto fail = [&](std::string what) {
    if (bad.size() < 32) bad.push_back(std::move(what));
  };
  for (const auto& dir : in.plan.dirs) model->AddDir(dir);
  for (size_t i = 0; i < in.plan.files.size(); ++i) {
    model->AddFile(in.plan.files[i], in.plan_file_size[i]);
  }
  std::set<std::string> touched;
  for (const auto& r : results) {
    for (const Mutation& m : r.mutations) {
      model->Apply(m);
      touched.insert(NamespaceModel::Parent(m.path));
      if (!m.dst.empty()) touched.insert(NamespaceModel::Parent(m.dst));
    }
  }
  if (plant) {
    // Drops one live file from the model (a file some client created, else a
    // planned one): the checks below must notice it and fail the run.
    std::string victim = in.plan.files.front();
    for (const auto& r : results) {
      for (const Mutation& m : r.mutations) {
        if (m.kind == Mutation::Kind::kCreate && model->Exists(m.path)) victim = m.path;
      }
    }
    model->Remove(victim);
  }

  fs::Client client = cluster.NewClient(fs::NamenodePolicy::kRoundRobin, "oracle", in.seed);
  // Listings of every directory a mutation touched, plus one self-test: the
  // comparison must notice a model with one child dropped.
  bool self_tested = false;
  for (const auto& dir : touched) {
    if (model->Children(dir) == nullptr) {  // removed by a later mutation
      auto st = client.Stat(dir);
      if (st.ok() || st.status().code() != hops::StatusCode::kNotFound) {
        fail("stat " + dir + ": removed, but still resolves");
      }
      continue;
    }
    auto listing = client.List(dir);
    if (!listing.ok()) {
      fail("list " + dir + ": " + listing.status().ToString());
      continue;
    }
    std::set<std::string> listed = Names(*listing);
    const std::set<std::string>* expected = model->Children(dir);
    if (std::string diff = CompareListing(dir, listed, expected); !diff.empty()) fail(diff);
    if (!self_tested && expected != nullptr && !expected->empty()) {
      std::set<std::string> planted = *expected;
      planted.erase(planted.begin());
      if (CompareListing(dir, listed, &planted).empty()) {
        fail("oracle self-test: a model with one file dropped matched the listing of " + dir);
      }
      self_tested = true;
    }
  }
  if (!touched.empty() && !self_tested) fail("oracle self-test did not run");

  // Content summaries of sampled directories, deep ones first.
  hops::Rng rng(in.seed ^ 0xc0ffeeULL);
  std::vector<std::string> sampled;
  for (int i = 0; i < 32; ++i) {
    size_t n = in.plan.dirs.size() - in.leaf_dirs_begin;
    sampled.push_back(in.plan.dirs[in.leaf_dirs_begin + rng.Below(n)]);
  }
  for (int i = 0; i < 16; ++i) sampled.push_back(in.plan.dirs[rng.Below(in.plan.dirs.size())]);
  for (const auto& dir : sampled) {
    auto summary = client.ContentSummaryOf(dir);
    NamespaceModel::Counts want = model->SummaryOf(dir);
    if (!summary.ok()) {
      fail("du " + dir + ": " + summary.status().ToString());
    } else if (summary->file_count != want.files || summary->dir_count != want.dirs) {
      fail("du " + dir + ": " + std::to_string(summary->file_count) + " files / " +
           std::to_string(summary->dir_count) + " dirs, model " + std::to_string(want.files) +
           " / " + std::to_string(want.dirs));
    }
  }

  // Inode rows against the model's live inodes.
  int64_t rows = static_cast<int64_t>(cluster.db().TableRowCount(cluster.schema().inodes));
  if (rows != model->InodeCount()) {
    fail("inode rows " + std::to_string(rows) + ", model " + std::to_string(model->InodeCount()));
  }

  // Files: the blocks Read returns sum to the size Stat reports, which is
  // the model's size.
  auto check_file = [&](const std::string& path) {
    auto blocks = client.Read(path);
    auto stat = client.Stat(path);
    std::optional<int64_t> want = model->SizeOf(path);
    if (!blocks.ok() || !stat.ok()) {
      fail("read/stat " + path + ": " +
           (blocks.ok() ? stat.status() : blocks.status()).ToString());
      return;
    }
    int64_t sum = 0;
    for (const auto& b : *blocks) sum += b.num_bytes;
    if (sum != stat->size || !want || *want != sum) {
      fail("file " + path + ": blocks sum to " + std::to_string(sum) + ", stat size " +
           std::to_string(stat->size) + ", model " + (want ? std::to_string(*want) : "none"));
    }
  };
  // Every own file up to 2,000, then an even sample: the check must not
  // grow with a faster program's longer file lists.
  size_t stride = std::max<size_t>(1, own_files.size() / 2000);
  for (size_t i = 0; i < own_files.size(); i += stride) check_file(own_files[i].path);
  for (int i = 0; i < 200; ++i) check_file(in.plan.files[rng.Below(in.plan.files.size())]);

  // Attributes: each is the planned original or a value some client set.
  struct Allowed {
    std::set<int64_t> perms{0755};
    std::set<std::string> owners{"hdfs"};
    std::set<int64_t> replications{3};
  };
  std::unordered_map<std::string, Allowed> allowed;
  for (const auto& r : results) {
    for (const SetAttr& a : r.setattrs) {
      Allowed& al = allowed[a.path];
      if (a.kind == SetAttr::Kind::kPermission) al.perms.insert(a.number);
      if (a.kind == SetAttr::Kind::kOwner) al.owners.insert(a.owner);
      if (a.kind == SetAttr::Kind::kReplication) al.replications.insert(a.number);
    }
  }
  for (const auto& [path, al] : allowed) {
    auto stat = client.Stat(path);
    if (!stat.ok()) {
      fail("stat " + path + ": " + stat.status().ToString());
      continue;
    }
    if (al.perms.count(stat->perm) == 0 || al.owners.count(stat->owner) == 0 ||
        (!stat->is_dir && al.replications.count(stat->replication) == 0)) {
      fail("attributes of " + path + ": perm " + std::to_string(stat->perm) + " owner " +
           stat->owner + " replication " + std::to_string(stat->replication) +
           " were never set");
    }
  }
  return bad;
}

// --- Teardown: timed subtree ops on the namespace, checked exactly ---------

struct TeardownResult {
  uint64_t attempted = 0;  // every teardown du / mv / rm
  // Round trips and rows of the planned subtrees' du / mv / rm, which run
  // alone here, and the inodes they covered.
  kv::ClusterStats cost;
  int64_t inodes = 0;
};

TeardownResult Teardown(fs::MiniCluster& cluster, const Inputs& in, NamespaceModel* model,
                        std::vector<std::string>* bad) {
  TeardownResult out;
  auto fail = [&](std::string what) {
    if (bad->size() < 48) bad->push_back(std::move(what));
  };
  fs::Client client = cluster.NewClient(fs::NamenodePolicy::kRoundRobin, "teardown", in.seed);
  kv::Engine& db = cluster.db();
  auto rows = [&] { return static_cast<int64_t>(db.TableRowCount(cluster.schema().inodes)); };
  auto gone = [&](const std::string& path) {
    auto st = client.Stat(path);
    if (st.ok() || st.status().code() != hops::StatusCode::kNotFound) {
      fail("teardown: " + path + " still resolves");
    }
  };

  // du, mv and rm of one subtree, each checked against the model.
  auto cycle = [&](const std::string& dir) {
    NamespaceModel::Counts want = model->SummaryOf(dir);
    auto run = [&](auto&& f) {
      kv::ClusterStats before = db.StatsSnapshot();
      hops::Status st = f();
      Accumulate(out.cost, Minus(db.StatsSnapshot(), before));
      out.attempted++;
      return st;
    };
    fs::ContentSummary got;
    hops::Status st = run([&]() -> hops::Status {
      auto summary = client.ContentSummaryOf(dir);
      if (summary.ok()) got = *summary;
      return summary.status();
    });
    if (!st.ok() || got.file_count != want.files || got.dir_count != want.dirs) {
      fail("teardown du " + dir + ": " + std::to_string(got.file_count) + " / " +
           std::to_string(got.dir_count) + ", model " + std::to_string(want.files) + " / " +
           std::to_string(want.dirs) + " " + st.ToString());
    }
    std::string moved = NamespaceModel::Parent(dir) + "/td-" + NamespaceModel::Name(dir);
    st = run([&] { return client.Rename(dir, moved); });
    if (!st.ok()) {
      fail("teardown mv " + dir + ": " + st.ToString());
      return;
    }
    gone(dir);
    auto summary = client.ContentSummaryOf(moved);  // oracle probe, not a teardown op
    if (!summary.ok() || summary->file_count != want.files || summary->dir_count != want.dirs) {
      fail("teardown du " + moved + " after mv: " +
           (summary.ok() ? std::to_string(summary->file_count) + " / " +
                               std::to_string(summary->dir_count)
                         : summary.status().ToString()) +
           ", model " + std::to_string(want.files) + " / " + std::to_string(want.dirs));
    }
    int64_t rows_before = rows();
    st = run([&] { return client.Delete(moved, true); });
    int64_t removed = rows_before - rows();
    if (!st.ok() || removed != want.files + want.dirs) {
      fail("teardown rm " + moved + ": removed " + std::to_string(removed) + " inode rows, model " +
           std::to_string(want.files + want.dirs) + " " + st.ToString());
    }
    gone(moved);
    model->Remove(dir);
    out.inodes += want.files + want.dirs;
  };

  for (const auto& dir : in.plan.dirs) {
    if (std::count(dir.begin(), dir.end(), '/') == kTeardownDepth) cycle(dir);
  }
  std::vector<std::string> tops(model->Children("/")->begin(), model->Children("/")->end());
  for (const auto& name : tops) {
    hops::Status st = client.Delete("/" + name, true);
    if (!st.ok()) fail("teardown rm /" + name + ": " + st.ToString());
    model->Remove("/" + name);
  }
  auto root = client.List("/");
  if (rows() != 1 || !root.ok() || !root->empty()) {
    fail("teardown: " + std::to_string(rows()) + " inode rows left, the root alone expected");
  }
  return out;
}

// --- One run of a workload ---------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOutcome {
  std::vector<std::string> violations;
  uint64_t attempted = 0, failed = 0;
  std::array<uint64_t, kOpCount> op_attempted{};
  std::map<std::pair<Op, std::string>, uint64_t> failures;
  uint64_t dup_target_retries = 0;
  double ops_per_s = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> informational;
  std::vector<Metric> per_layer;
  std::vector<double> setup_cpu_s, setup_wall_s, cluster_start_s, bulk_load_s;
};

RunOutcome RunWorkload(const WorkloadSpec& spec, const Inputs& in, const Args& args,
                       bool traced, int setup_repeats) {
  RunOutcome out;
  std::vector<ThreadResult> results(kClientThreads);
  SpanLog ticker_spans(0);
  if (traced) {
    for (size_t t = 0; t < results.size(); ++t) {
      results[t].spans = std::make_unique<SpanLog>(static_cast<uint32_t>(t + 1));
    }
  }

  std::unique_ptr<fs::MiniCluster> cluster;
  for (int r = 0; r < setup_repeats; ++r) {
    cluster.reset();
    SetupTimes times;
    auto started = SetUp(spec, in, traced ? &ticker_spans : nullptr, &times);
    if (!started.ok()) {
      out.violations.push_back("set-up: " + started.status().ToString());
      return out;
    }
    cluster = std::move(*started);
    out.setup_cpu_s.push_back(times.cpu_s);
    out.setup_wall_s.push_back(times.total_s);
    out.cluster_start_s.push_back(times.cluster_start_s);
    out.bulk_load_s.push_back(times.bulk_load_s);
  }
  std::printf("set-ups, wall s:");
  for (double t : out.setup_wall_s) std::printf(" %.3f", t);
  std::printf("; CPU s:");
  for (double t : out.setup_cpu_s) std::printf(" %.3f", t);
  std::printf("\n");

  TraceAggregate trace;
  if (traced) {
    for (fs::Namenode* nn : cluster->AliveNamenodes()) {
      nn->SetTraceSink([&trace](const kv::CostTrace& t) { trace.Add(t); });
    }
  }

  hops::ZipfSampler file_zipf(in.plan.files.size(), 1.05);
  hops::ZipfSampler dir_zipf(in.plan.dirs.size(), 1.05);
  std::vector<std::unique_ptr<MixClient>> mix_clients;
  for (int c = 0; c < kClientThreads; ++c) {
    mix_clients.push_back(std::make_unique<MixClient>(
        c, in, spec.mix, file_zipf, dir_zipf,
        cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "mix" + std::to_string(c),
                           in.seed + static_cast<uint64_t>(c)),
        &results[static_cast<size_t>(c)]));
  }

  Counters before = TakeCounters(*cluster);
  double cpu_before = ProcessCpuUs();
  std::atomic<bool> stop{false};
  int64_t start_ns = NowNs();
  int64_t run_ns = static_cast<int64_t>(args.seconds) * 1000000000;
  std::vector<std::thread> threads;
  for (auto& c : mix_clients) threads.emplace_back([&stop, &c] { c->Run(stop); });
  TickerStats ticker;
  RunTicker(*cluster, results, start_ns + run_ns, traced ? &ticker_spans : nullptr, &ticker);
  stop.store(true);
  for (auto& t : threads) t.join();
  double elapsed_s = Seconds(NowNs() - start_ns);
  double cpu_us = ProcessCpuUs() - cpu_before;
  Counters after = TakeCounters(*cluster);
  if (traced) {
    for (fs::Namenode* nn : cluster->AliveNamenodes()) nn->SetTraceSink(nullptr);
  }
  kv::Engine& db = cluster->db();
  double bytes_per_inode = Ratio(static_cast<double>(db.TotalMemoryBytes()),
                                 static_cast<double>(db.TableRowCount(cluster->schema().inodes)));

  // Ops of the timed phase. Every op counts, the program's own slow
  // stretches (hint-log drains, lock convoys, a growing directory) included.
  std::vector<double> read_us, mutation_us;
  uint64_t ops = 0, mutations = 0;
  int64_t loadgen_cpu_ns = ticker.cpu_ns;
  for (auto& r : results) {
    for (const OpSample& s : r.samples) (IsRead(s.op) ? read_us : mutation_us).push_back(s.us);
    for (size_t i = 0; i < kOpCount; ++i) {
      out.op_attempted[i] += r.attempted[i];
      ops += r.attempted[i];
      if (IsMutation(Op(i))) mutations += r.attempted[i];
    }
    for (const auto& [key, n] : r.failures) {
      out.failures[key] += n;
      out.failed += n;
    }
    out.dup_target_retries += r.dup_target_retries;
    loadgen_cpu_ns += r.cpu_ns;
    for (auto& v : r.violations) out.violations.push_back(v);
  }
  out.attempted = ops;
  out.ops_per_s = Ratio(static_cast<double>(ops), elapsed_s);
  if (!ticker.rss_at_ops) {
    std::printf("note: only %llu of %llu ops completed; peak_rss_mib was read at the end\n",
                static_cast<unsigned long long>(ops), static_cast<unsigned long long>(kRssOps));
  }
  std::printf("%s timed phase: %llu ops in %.2f s, %.0f ops/s\n", traced ? "traced" : "untraced",
              static_cast<unsigned long long>(ops), elapsed_s, out.ops_per_s);

  std::vector<MixClient::OwnFile> own_files;
  for (const auto& c : mix_clients) {
    own_files.insert(own_files.end(), c->own_files().begin(), c->own_files().end());
  }
  kv::ClusterStats kvd = Minus(after.kv, before.kv);
  if (spec.engine == kv::EngineKind::kOcc &&
      (kvd.mux_rounds != 0 || kvd.mux_windows != 0 || kvd.cross_tx_overlapped_round_trips != 0)) {
    out.violations.push_back("occ engine reported completion-mux activity");
  }

  NamespaceModel model;
  for (auto& v : CheckNamespace(*cluster, in, results, own_files, args.plant_discrepancy, &model)) {
    out.violations.push_back(std::move(v));
  }
  TeardownResult teardown = Teardown(*cluster, in, &model, &out.violations);
  out.attempted += teardown.attempted;

  out.end_to_end = {
      {"read_p50_us", Percentile(read_us, 0.50), "us"},
      {"mutation_p50_us", Percentile(mutation_us, 0.50), "us"},
      {"cpu_us_per_op", Ratio(cpu_us, static_cast<double>(ops)), "us"},
      {"metadata_bytes_per_inode", bytes_per_inode, "bytes"},
      {"peak_rss_mib", ticker.rss_mib, "MiB"},
      // CPU time, not wall time: a set-up's wall time moves with the CPU
      // the hypervisor steals, as throughput does (see README).
      {"setup_s", Median(out.setup_cpu_s), "s"},
  };
  // Measured the same way but too unsteady on a shared host to gate a
  // change (see README): printed for reading, not part of the result.
  out.informational = {
      {"ops_per_s", out.ops_per_s, "ops/s"},
      {"setup_wall_s", Median(out.setup_wall_s), "s"},
      {"read_p99_us", Percentile(read_us, 0.99), "us"},
      {"mutation_p99_us", Percentile(mutation_us, 0.99), "us"},
  };

  // Per-layer metrics (meaningful on the traced run).
  double n = static_cast<double>(ops);
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), n); };
  std::vector<Metric>& L = out.per_layer;
  std::array<std::vector<double>, kCallCount> call_us;
  for (const auto& r : results) {
    if (!r.spans) continue;
    for (const Span& s : r.spans->spans()) {
      if (s.name >= kCallSpanBase && s.name < kCallSpanBase + kCallCount) {
        call_us[s.name - kCallSpanBase].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  for (size_t c = 0; c < kCallCount; ++c) {
    L.push_back({std::string("client.") + CallName(Call(c)) + "_p50_us",
                 Percentile(call_us[c], 0.5), "us"});
  }
  for (Call c : {Call::kGetBlockLocations, Call::kStat, Call::kList, Call::kCreate,
                 Call::kAddBlock, Call::kComplete}) {
    L.push_back({std::string("client.") + CallName(c) + "_p99_us",
                 Percentile(call_us[static_cast<size_t>(c)], 0.99), "us"});
  }
  L.push_back({"client.add_block_dup_target_retries",
               static_cast<double>(out.dup_target_retries), "count"});

  L.push_back({"handler.requests_per_op", per_op(after.handler_requests - before.handler_requests),
               "1/op"});
  L.push_back({"handler.queue_depth_mean",
               Ratio(ticker.queue_depth_sum, static_cast<double>(ticker.tick_us.size())),
               "requests"});

  const auto& hb = before.hint;
  const auto& ha = after.hint;
  uint64_t hits = ha.cache.hits - hb.cache.hits, misses = ha.cache.misses - hb.cache.misses;
  L.push_back({"hint.hit_rate", Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
               "ratio"});
  L.push_back({"hint.misses_per_op", per_op(misses), "1/op"});
  L.push_back({"hint.entries_invalidated_per_op",
               per_op(ha.cache.entries_invalidated - hb.cache.entries_invalidated), "1/op"});
  L.push_back({"hint.evictions", static_cast<double>(ha.cache.evictions - hb.cache.evictions),
               "count"});
  L.push_back({"hint.stale_put_rejections",
               static_cast<double>(ha.cache.stale_put_rejections - hb.cache.stale_put_rejections),
               "count"});

  uint64_t events = ha.publish_events - hb.publish_events;
  uint64_t coalesced = ha.publish_ops_coalesced - hb.publish_ops_coalesced;
  L.push_back({"heartbeat.tick_p50_us", Percentile(ticker.tick_us, 0.5), "us"});
  L.push_back({"heartbeat.tick_p99_us", Percentile(ticker.tick_us, 0.99), "us"});
  L.push_back({"hintlog.publish_events_per_mutation",
               Ratio(static_cast<double>(events), static_cast<double>(mutations)), "1/op"});
  L.push_back({"hintlog.ops_per_publish_event",
               Ratio(static_cast<double>(events + coalesced), static_cast<double>(events)), "ops"});
  L.push_back({"hintlog.proactive_applied_per_tick",
               Ratio(static_cast<double>(ha.proactive_applied - hb.proactive_applied),
                     static_cast<double>(ticker.tick_us.size())),
               "1/tick"});
  L.push_back({"hintlog.gc_acked_reaps", static_cast<double>(ha.gc_acked_reaps - hb.gc_acked_reaps),
               "count"});

  double inodes = static_cast<double>(teardown.inodes);
  L.push_back({"subtree.round_trips_per_inode",
               Ratio(static_cast<double>(teardown.cost.round_trips), inodes), "1/inode"});
  L.push_back({"subtree.rows_read_per_inode",
               Ratio(static_cast<double>(teardown.cost.rows_read), inodes), "1/inode"});
  L.push_back({"subtree.rows_written_per_inode",
               Ratio(static_cast<double>(teardown.cost.rows_written), inodes), "1/inode"});

  uint64_t scans = kvd.ppis_scans + kvd.index_scans + kvd.full_table_scans;
  L.push_back({"kv.round_trips_per_op", per_op(kvd.round_trips), "1/op"});
  L.push_back({"kv.overlapped_round_trips_per_op", per_op(kvd.overlapped_round_trips), "1/op"});
  L.push_back({"kv.commits_per_op", per_op(kvd.commits), "1/op"});
  L.push_back({"kv.aborts_per_op", per_op(kvd.aborts), "1/op"});
  L.push_back({"kv.commit_success_ratio",
               Ratio(static_cast<double>(kvd.commits), static_cast<double>(kvd.commits + kvd.aborts)),
               "ratio"});
  L.push_back({"kv.rows_read_per_op", per_op(kvd.rows_read), "1/op"});
  L.push_back({"kv.rows_written_per_op", per_op(kvd.rows_written), "1/op"});
  L.push_back({"kv.pk_reads_per_op", per_op(kvd.pk_reads), "1/op"});
  L.push_back({"kv.batch_reads_per_op", per_op(kvd.batch_reads), "1/op"});
  L.push_back({"kv.batch_writes_per_op", per_op(kvd.batch_writes), "1/op"});
  L.push_back({"kv.scans_per_op", per_op(scans), "1/op"});
  L.push_back({"kv.full_table_scans", static_cast<double>(kvd.full_table_scans), "count"});
  L.push_back({"kv.lock_waits_per_op", per_op(kvd.lock_waits), "1/op"});
  L.push_back({"kv.lock_timeouts", static_cast<double>(kvd.lock_timeouts), "count"});
  L.push_back({"kv.occ_conflicts_per_op", per_op(kvd.occ_conflicts), "1/op"});
  L.push_back({"kv.occ_range_conflicts", static_cast<double>(kvd.occ_range_conflicts), "count"});
  L.push_back({"mux.rounds_per_op", per_op(kvd.mux_rounds), "1/op"});
  L.push_back({"mux.windows_per_round",
               Ratio(static_cast<double>(kvd.mux_windows), static_cast<double>(kvd.mux_rounds)),
               "ratio"});
  L.push_back({"mux.cross_tx_saved_per_op", per_op(kvd.cross_tx_overlapped_round_trips), "1/op"});
  L.push_back({"mux.gather_waits_per_op", per_op(kvd.mux_gather_waits), "1/op"});

  L.push_back({"trace.tx_per_op", per_op(trace.tx), "1/op"});
  L.push_back({"trace.accesses_per_tx",
               Ratio(static_cast<double>(trace.accesses), static_cast<double>(trace.tx)), "1/tx"});
  L.push_back({"trace.round_trips_per_tx",
               Ratio(static_cast<double>(trace.round_trips), static_cast<double>(trace.tx)), "1/tx"});
  L.push_back({"trace.partitions_per_access",
               Ratio(static_cast<double>(trace.parts), static_cast<double>(trace.accesses)),
               "1/access"});
  L.push_back({"trace.remote_touch_ratio",
               Ratio(static_cast<double>(trace.remote_parts), static_cast<double>(trace.parts)),
               "ratio"});
  L.push_back({"trace.co_scheduled_ratio",
               Ratio(static_cast<double>(trace.co_scheduled), static_cast<double>(trace.accesses)),
               "ratio"});

  double loadgen_us = static_cast<double>(loadgen_cpu_ns) / 1e3;
  L.push_back({"cpu.service_us_per_op", Ratio(cpu_us - loadgen_us, n), "us"});
  L.push_back({"cpu.loadgen_us_per_op", Ratio(loadgen_us, n), "us"});
  L.push_back({"setup.cluster_start_s", Median(out.cluster_start_s), "s"});
  L.push_back({"setup.bulk_load_s", Median(out.bulk_load_s), "s"});

  if (traced && !args.trace_dir.empty()) {
    std::vector<const SpanLog*> logs{&ticker_spans};
    for (const auto& r : results) logs.push_back(r.spans.get());
    std::string path = args.trace_dir + "/" + spec.name + ".spans.tsv";
    if (!WriteSpans(path, logs, SpanNames())) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
  return out;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Json(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--plant-discrepancy] [--commit C] [--source-digest D] [--trace-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  unsetenv("HOPS_KV_ENGINE");  // the workload names its engine
  Inputs inputs = MakeInputs(args.seed);

  std::printf("provenance {\"kind\": \"measured\", \"commit\": %s, \"source_digest\": %s, "
              "\"build_type\": %s, \"engine\": %s, \"nproc\": %u, \"workload\": %s, "
              "\"seed\": %llu, \"run_seconds\": %d, \"trace\": %d}\n",
              Json(args.commit).c_str(), Json(args.source_digest).c_str(),
              Json(PERFBENCH_BUILD_TYPE).c_str(),
              Json(std::string(kv::EngineKindName(spec->engine))).c_str(),
              std::thread::hardware_concurrency(), Json(spec->name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  RunOutcome run = RunWorkload(*spec, inputs, args, /*traced=*/false, kSetupRepeats);
  std::vector<Metric> metrics = run.end_to_end;
  std::vector<std::string> violations = run.violations;
  uint64_t attempted = run.attempted, failed = run.failed;
  if (args.trace) {
    RunOutcome traced = RunWorkload(*spec, inputs, args, /*traced=*/true, 1);
    metrics = traced.per_layer;
    for (auto& m : metrics) {
      if (m.name == "setup.cluster_start_s") m.value = Median(run.cluster_start_s);
      if (m.name == "setup.bulk_load_s") m.value = Median(run.bulk_load_s);
    }
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (1.0 - Ratio(traced.ops_per_s, run.ops_per_s)), "%"});
    for (auto& v : traced.violations) violations.push_back("traced run: " + v);
    attempted += traced.attempted;
    failed += traced.failed;
    for (const auto& [key, count] : traced.failures) run.failures[key] += count;
  }

  for (size_t i = 0; i < kOpCount; ++i) {
    if (run.op_attempted[i] == 0) continue;
    std::printf("op %-16s attempted %llu\n", OpName(Op(i)),
                static_cast<unsigned long long>(run.op_attempted[i]));
  }
  for (const auto& [key, count] : run.failures) {
    std::printf("failed %-16s %-16s %llu\n", OpName(key.first), key.second.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("retried add_block after a duplicate datanode target: %llu\n",
              static_cast<unsigned long long>(run.dup_target_retries));
  for (const auto& m : metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : run.informational) {
    std::printf("info   %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& v : violations) std::printf("VIOLATION %s\n", v.c_str());
  bool correct = violations.empty();
  std::printf("oracle %s\n", correct ? "passed" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
