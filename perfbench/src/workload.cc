#include "workload.h"

#include <time.h>

namespace perfbench {

namespace fs = hops::fs;
namespace wl = hops::wl;

namespace {

constexpr int kMaxDupTargetRetries = 8;

const WorkloadSpec kWorkloads[] = {
    {"spotify", hops::kv::EngineKind::kNdb, wl::OpMix::Spotify()},
    {"write20", hops::kv::EngineKind::kNdb, wl::OpMix::WriteIntensive(20)},
    {"write20_occ", hops::kv::EngineKind::kOcc, wl::OpMix::WriteIntensive(20)},
};

}  // namespace

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

const char* OpName(Op op) {
  static const char* kNames[] = {
      "read", "stat", "list", "content_summary", "create", "append", "mkdirs",
      "set_permission", "set_owner", "set_replication", "rename", "delete",
  };
  return kNames[static_cast<size_t>(op)];
}

const char* CallName(Call call) {
  static const char* kNames[] = {
      "get_block_locations", "stat", "list", "content_summary", "create", "add_block",
      "complete", "append", "mkdirs", "set_permission", "set_owner", "set_replication",
      "rename", "delete",
  };
  return kNames[static_cast<size_t>(call)];
}

std::vector<std::string> SpanNames() {
  std::vector<std::string> names;
  for (size_t i = 0; i < kOpCount; ++i) names.push_back(std::string("op.") + OpName(Op(i)));
  for (size_t i = 0; i < kCallCount; ++i) {
    names.push_back(std::string("client.") + CallName(Call(i)));
  }
  names.push_back("heartbeat.tick");
  names.push_back("setup.bulk_load");
  return names;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  wl::NamespaceShape shape;  // §7.2: 16 files and 2 subdirectories per directory
  in.plan = wl::PlanNamespace(shape, kPlanFiles, seed);
  in.leaf_dirs_begin = in.plan.dirs.size() / 2;
  // File sizes follow BulkLoader's documented contract: each file gets one
  // block, plus a second one with probability blocks_per_file - 1, drawn in
  // plan order from a generator seeded like the load.
  hops::Rng size_rng(seed);
  for (size_t i = 0; i < in.plan.files.size(); ++i) {
    int blocks = 1 + (size_rng.Chance(kBlocksPerFile - 1.0) ? 1 : 0);
    in.plan_file_size.push_back(blocks * kBlockBytes);
  }

  return in;
}

void ThreadResult::Record(Op op, int64_t start_ns, const hops::Status& st) {
  attempted[static_cast<size_t>(op)]++;
  completed.fetch_add(1, std::memory_order_relaxed);
  samples.push_back({static_cast<double>(NowNs() - start_ns) / 1e3, op});
  if (!st.ok()) failures[{op, std::string(hops::StatusCodeName(st.code()))}]++;
}

void ThreadResult::Violation(std::string what) {
  // A systematic fault would repeat on every op; a few examples suffice.
  if (violations.size() < 16) violations.push_back(std::move(what));
}

hops::Result<fs::LocatedBlock> TimedClient::AddBlock(const std::string& path, int64_t bytes) {
  for (int attempt = 0;; ++attempt) {
    auto block = Call(Call::kAddBlock, [&](fs::Client& c) { return c.AddBlock(path, bytes); });
    bool duplicate_target =
        !block.ok() && block.status().code() == hops::StatusCode::kAlreadyExists &&
        block.status().message().find("replica_under_cons") != std::string::npos;
    if (!duplicate_target || attempt == kMaxDupTargetRetries) return block;
    out_->dup_target_retries++;
  }
}

// --- MixClient -----------------------------------------------------------

MixClient::MixClient(int id, const Inputs& inputs, const wl::OpMix& mix,
                     const hops::ZipfSampler& file_zipf, const hops::ZipfSampler& dir_zipf,
                     fs::Client client, ThreadResult* out)
    : id_(id),
      inputs_(inputs),
      sampler_(mix),
      file_zipf_(file_zipf),
      dir_zipf_(dir_zipf),
      rng_(inputs.seed * 1000003 + static_cast<uint64_t>(id)),
      client_(std::move(client), out),
      out_(out) {}

void MixClient::Run(const std::atomic<bool>& stop) {
  int64_t cpu0 = ThreadCpuNs();
  while (!stop.load(std::memory_order_relaxed)) Step();
  out_->cpu_ns += ThreadCpuNs() - cpu0;
}

const std::string& MixClient::LeafDir() {
  size_t n = inputs_.plan.dirs.size() - inputs_.leaf_dirs_begin;
  return inputs_.plan.dirs[inputs_.leaf_dirs_begin + rng_.Below(n)];
}

std::string MixClient::Fresh(const char* prefix) {
  return std::string(prefix) + std::to_string(id_) + "_" + std::to_string(counter_++);
}

Op MixClient::Resolve(wl::OpType type, bool on_dir) const {
  // An op that needs a target of the client's own (append, rename, delete)
  // creates one instead while the client has none yet.
  bool have_own = on_dir ? !own_dirs_.empty() : !own_files_.empty();
  switch (type) {
    case wl::OpType::kRead: return Op::kRead;
    case wl::OpType::kStat: return Op::kStat;
    case wl::OpType::kList: return Op::kList;
    case wl::OpType::kContentSummary: return Op::kContentSummary;
    case wl::OpType::kCreateFile: return Op::kCreate;
    case wl::OpType::kAppendFile:
    case wl::OpType::kAddBlock: return own_files_.empty() ? Op::kCreate : Op::kAppend;
    case wl::OpType::kMkdirs: return Op::kMkdirs;
    case wl::OpType::kSetPermission: return Op::kSetPermission;
    case wl::OpType::kSetOwner: return Op::kSetOwner;
    case wl::OpType::kSetReplication: return Op::kSetReplication;
    case wl::OpType::kMove:
      return have_own ? Op::kRename : (on_dir ? Op::kMkdirs : Op::kCreate);
    case wl::OpType::kDelete:
      return have_own ? Op::kDelete : (on_dir ? Op::kMkdirs : Op::kCreate);
  }
  return Op::kStat;
}

void MixClient::Step() {
  auto [type, on_dir] = sampler_.Sample(rng_);
  Op op = Resolve(type, on_dir);
  size_t span = out_->spans ? out_->spans->Begin(static_cast<uint16_t>(op)) : 0;
  int64_t t0 = NowNs();
  hops::Status st = Execute(op, on_dir);
  out_->Record(op, t0, st);
  if (out_->spans) out_->spans->End(span);
}

hops::Status MixClient::CreateFile(const std::string& path) {
  // create + addBlock + complete, timed as one user-level file create. The
  // model learns of the file at each acknowledged step, so a file left
  // half-written by a failed step is modelled as it is.
  HOPS_RETURN_IF_ERROR(
      client_.Call(Call::kCreate, [&](fs::Client& c) { return c.CreateFile(path); }));
  out_->mutations.push_back({Mutation::Kind::kCreate, path, "", 0});
  auto block = client_.AddBlock(path, kBlockBytes);
  if (!block.ok()) return block.status();
  out_->mutations.back().bytes = kBlockBytes;
  HOPS_RETURN_IF_ERROR(
      client_.Call(Call::kComplete, [&](fs::Client& c) { return c.CompleteFile(path); }));
  own_files_.push_back({path, kBlockBytes});
  return hops::Status::Ok();
}

hops::Status MixClient::Execute(Op op, bool on_dir) {
  const auto& files = inputs_.plan.files;
  switch (op) {
    case Op::kRead: {
      size_t i = GlobalFile();
      auto blocks =
          client_.Call(Call::kGetBlockLocations, [&](fs::Client& c) { return c.Read(files[i]); });
      if (!blocks.ok()) return blocks.status();
      int64_t sum = 0;
      for (const auto& b : *blocks) sum += b.num_bytes;
      if (sum != inputs_.plan_file_size[i]) {
        out_->Violation("read " + files[i] + ": blocks sum to " + std::to_string(sum) +
                        ", planned size " + std::to_string(inputs_.plan_file_size[i]));
      }
      return hops::Status::Ok();
    }
    case Op::kStat: {
      if (on_dir) {
        const std::string& dir = GlobalDir();
        auto st = client_.Call(Call::kStat, [&](fs::Client& c) { return c.Stat(dir); });
        if (!st.ok()) return st.status();
        if (!st->is_dir) out_->Violation("stat " + dir + ": not a directory");
        return hops::Status::Ok();
      }
      size_t i = GlobalFile();
      auto st = client_.Call(Call::kStat, [&](fs::Client& c) { return c.Stat(files[i]); });
      if (!st.ok()) return st.status();
      if (st->is_dir || st->size != inputs_.plan_file_size[i]) {
        out_->Violation("stat " + files[i] + ": size " + std::to_string(st->size) +
                        ", planned " + std::to_string(inputs_.plan_file_size[i]));
      }
      return hops::Status::Ok();
    }
    case Op::kList: {
      const std::string& path = on_dir ? GlobalDir() : files[GlobalFile()];
      return client_.Call(Call::kList, [&](fs::Client& c) { return c.List(path); }).status();
    }
    case Op::kContentSummary: {
      const std::string& dir = LeafDir();
      return client_
          .Call(Call::kContentSummary, [&](fs::Client& c) { return c.ContentSummaryOf(dir); })
          .status();
    }
    case Op::kCreate:
      return CreateFile(GlobalDir() + "/" + Fresh("f"));
    case Op::kAppend: {
      size_t k = rng_.Below(own_files_.size());
      OwnFile& file = own_files_[k];
      hops::Status st =
          client_.Call(Call::kAppend, [&](fs::Client& c) { return c.Append(file.path); });
      if (st.ok()) {
        auto block = client_.AddBlock(file.path, kBlockBytes);
        if (block.ok()) {
          out_->mutations.push_back({Mutation::Kind::kAppend, file.path, "", kBlockBytes});
          file.size += kBlockBytes;
          st = client_.Call(Call::kComplete,
                            [&](fs::Client& c) { return c.CompleteFile(file.path); });
        } else {
          st = block.status();
        }
      }
      // A file a failed append left open is no longer a target.
      if (!st.ok()) {
        own_files_[k] = std::move(own_files_.back());
        own_files_.pop_back();
      }
      return st;
    }
    case Op::kMkdirs: {
      std::string path = GlobalDir() + "/" + Fresh("d");
      HOPS_RETURN_IF_ERROR(
          client_.Call(Call::kMkdirs, [&](fs::Client& c) { return c.Mkdirs(path); }));
      out_->mutations.push_back({Mutation::Kind::kMkdir, path, "", 0});
      own_dirs_.push_back(std::move(path));
      return hops::Status::Ok();
    }
    case Op::kSetPermission: {
      static constexpr int64_t kPerms[] = {0700, 0711, 0750};
      const std::string& path = on_dir ? LeafDir() : files[GlobalFile()];
      int64_t perm = kPerms[rng_.Below(3)];
      HOPS_RETURN_IF_ERROR(client_.Call(
          Call::kSetPermission, [&](fs::Client& c) { return c.SetPermission(path, perm); }));
      out_->setattrs.push_back({SetAttr::Kind::kPermission, path, perm, ""});
      return hops::Status::Ok();
    }
    case Op::kSetOwner: {
      const std::string& path = on_dir ? LeafDir() : files[GlobalFile()];
      std::string owner = "o" + std::to_string(id_);
      HOPS_RETURN_IF_ERROR(client_.Call(Call::kSetOwner, [&](fs::Client& c) {
        return c.SetOwner(path, owner, "g" + std::to_string(id_));
      }));
      out_->setattrs.push_back({SetAttr::Kind::kOwner, path, 0, owner});
      return hops::Status::Ok();
    }
    case Op::kSetReplication: {
      const std::string& path = files[GlobalFile()];
      int64_t replication = 2 + static_cast<int64_t>(rng_.Below(3));
      HOPS_RETURN_IF_ERROR(client_.Call(Call::kSetReplication, [&](fs::Client& c) {
        return c.SetReplication(path, replication);
      }));
      out_->setattrs.push_back({SetAttr::Kind::kReplication, path, replication, ""});
      return hops::Status::Ok();
    }
    case Op::kRename: {
      std::string& src = on_dir ? own_dirs_[rng_.Below(own_dirs_.size())]
                                : own_files_[rng_.Below(own_files_.size())].path;
      std::string dst = NamespaceModel::Parent(src) + "/" + Fresh(on_dir ? "d" : "f");
      HOPS_RETURN_IF_ERROR(
          client_.Call(Call::kRename, [&](fs::Client& c) { return c.Rename(src, dst); }));
      out_->mutations.push_back({Mutation::Kind::kRename, src, dst, 0});
      src = std::move(dst);
      return hops::Status::Ok();
    }
    case Op::kDelete: {
      std::string path;
      if (on_dir) {
        size_t k = rng_.Below(own_dirs_.size());
        path = std::move(own_dirs_[k]);
        own_dirs_[k] = std::move(own_dirs_.back());
        own_dirs_.pop_back();
      } else {
        size_t k = rng_.Below(own_files_.size());
        path = std::move(own_files_[k].path);
        own_files_[k] = std::move(own_files_.back());
        own_files_.pop_back();
      }
      HOPS_RETURN_IF_ERROR(client_.Call(
          Call::kDelete, [&](fs::Client& c) { return c.Delete(path, /*recursive=*/on_dir); }));
      out_->mutations.push_back({Mutation::Kind::kDelete, path, "", 0});
      return hops::Status::Ok();
    }
    default:
      break;
  }
  return hops::Status::InvalidArgument("not a mix op");
}

}  // namespace perfbench
