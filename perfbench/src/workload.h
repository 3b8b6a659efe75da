// Workload definitions, inputs and the closed-loop clients of the
// wall-clock benchmark.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hopsfs/client.h"
#include "kv/kv.h"
#include "model.h"
#include "spans.h"
#include "util/rng.h"
#include "workload/namespace_gen.h"
#include "workload/spec.h"

namespace perfbench {

// Topology and sizing shared by every workload. Mechanism knobs of the
// program (mux, hint cache, subtree pipelining, async commits, ...) are left
// at their shipped defaults; only these numbers and the engine vary.
inline constexpr int kNamenodes = 2;
inline constexpr int kHandlersPerNamenode = 4;
inline constexpr int kDatanodes = 3;
// Closed-loop client threads. With the heartbeat ticker (the main thread)
// the benchmark never runs more load-generating threads than 4.
inline constexpr int kClientThreads = 3;
inline constexpr int64_t kPlanFiles = 20000;
inline constexpr double kBlocksPerFile = 1.3;
inline constexpr int kReplicasPerBlock = 3;
inline constexpr int64_t kBlockBytes = 1024;

// User-level operations. The first four form the read class, the other
// eight the mutation class.
enum class Op : uint8_t {
  kRead, kStat, kList, kContentSummary,
  kCreate, kAppend, kMkdirs, kSetPermission, kSetOwner, kSetReplication, kRename, kDelete,
  kCount,
};
inline constexpr size_t kOpCount = static_cast<size_t>(Op::kCount);
const char* OpName(Op op);
inline bool IsRead(Op op) { return op <= Op::kContentSummary; }
inline bool IsMutation(Op op) { return !IsRead(op); }

// Client calls, each timed as a span nested under its user-level op.
enum class Call : uint8_t {
  kGetBlockLocations, kStat, kList, kContentSummary, kCreate, kAddBlock, kComplete,
  kAppend, kMkdirs, kSetPermission, kSetOwner, kSetReplication, kRename, kDelete,
  kCount,
};
inline constexpr size_t kCallCount = static_cast<size_t>(Call::kCount);
const char* CallName(Call call);

// Span name table: ops, then calls, then these.
inline constexpr uint16_t kCallSpanBase = kOpCount;
inline constexpr uint16_t kTickSpan = kOpCount + kCallCount;
inline constexpr uint16_t kBulkLoadSpan = kTickSpan + 1;
std::vector<std::string> SpanNames();

struct WorkloadSpec {
  std::string name;
  hops::kv::EngineKind engine;
  hops::wl::OpMix mix;
};
// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Everything generated from the seed. The cluster receives only these.
struct Inputs {
  uint64_t seed = 0;
  hops::wl::GeneratedNamespace plan;        // §7.2-shaped namespace
  std::vector<int64_t> plan_file_size;      // bytes, parallel to plan.files
  size_t leaf_dirs_begin = 0;               // plan.dirs[leaf_dirs_begin..) are the deep half
};
Inputs MakeInputs(uint64_t seed);

// One timed user-level op.
struct OpSample {
  double us;
  Op op;
};

// CPU time of the calling thread.
int64_t ThreadCpuNs();

// What one load-generating thread observed.
struct ThreadResult {
  std::vector<OpSample> samples;
  std::array<uint64_t, kOpCount> attempted{};
  // Ops completed so far, read by the heartbeat ticker while the run goes on.
  std::atomic<uint64_t> completed{0};
  // (op, status code) -> failed ops
  std::map<std::pair<Op, std::string>, uint64_t> failures;
  std::vector<Mutation> mutations;
  std::vector<SetAttr> setattrs;
  std::vector<std::string> violations;
  // AddBlock calls re-issued after the duplicate-datanode-target fault.
  uint64_t dup_target_retries = 0;
  int64_t cpu_ns = 0;
  std::unique_ptr<SpanLog> spans;  // traced runs only

  void Record(Op op, int64_t start_ns, const hops::Status& st);
  void Violation(std::string what);
};

// Wraps fs::Client so each call can be timed as a span.
class TimedClient {
 public:
  TimedClient(hops::fs::Client client, ThreadResult* out) : client_(std::move(client)), out_(out) {}

  template <typename F>
  auto Call(perfbench::Call call, F&& f) -> decltype(f(std::declval<hops::fs::Client&>())) {
    if (!out_->spans) return f(client_);
    size_t span = out_->spans->Begin(static_cast<uint16_t>(kCallSpanBase + static_cast<uint16_t>(call)));
    auto result = f(client_);
    out_->spans->End(span);
    return result;
  }

  // AddBlock, re-issued while it fails only because the namenode's datanode
  // picker handed one replica target out twice (see README: a known fault of
  // MiniCluster::InstallDatanodePicker; every re-issue is counted).
  hops::Result<hops::fs::LocatedBlock> AddBlock(const std::string& path, int64_t bytes);

 private:
  hops::fs::Client client_;
  ThreadResult* out_;
};

// Closed-loop client sampling ops from a mix over the planned namespace.
class MixClient {
 public:
  MixClient(int id, const Inputs& inputs, const hops::wl::OpMix& mix,
            const hops::ZipfSampler& file_zipf, const hops::ZipfSampler& dir_zipf,
            hops::fs::Client client, ThreadResult* out);
  struct OwnFile {
    std::string path;
    int64_t size;
  };

  void Run(const std::atomic<bool>& stop);
  // Completed files this client created and still owns, under current names.
  const std::vector<OwnFile>& own_files() const { return own_files_; }

 private:
  void Step();
  hops::Status Execute(Op op, bool on_dir);
  Op Resolve(hops::wl::OpType type, bool on_dir) const;
  size_t GlobalFile() { return file_zipf_.Sample(rng_); }
  const std::string& GlobalDir() { return inputs_.plan.dirs[dir_zipf_.Sample(rng_)]; }
  const std::string& LeafDir();
  std::string Fresh(const char* prefix);
  hops::Status CreateFile(const std::string& path);

  const int id_;
  const Inputs& inputs_;
  hops::wl::OpSampler sampler_;
  const hops::ZipfSampler& file_zipf_;
  const hops::ZipfSampler& dir_zipf_;
  hops::Rng rng_;
  TimedClient client_;
  ThreadResult* out_;
  std::vector<OwnFile> own_files_;
  std::vector<std::string> own_dirs_;
  uint64_t counter_ = 0;
};

}  // namespace perfbench
