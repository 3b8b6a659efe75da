// The benchmark's correctness oracle: a namespace model kept apart from the
// program under test. It is built from the generated plan plus every
// mutation a client saw acknowledged, never from what the metadata service
// reports, so a listing or summary that disagrees with it is a fault of the
// service (or a planted discrepancy, see the self-test).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// One acknowledged namespace mutation, logged by the client that issued it.
// Every path a client mutates is a fresh name of its own, so logs of
// different clients commute and the model can replay them in any order.
struct Mutation {
  enum class Kind : uint8_t { kCreate, kMkdir, kAppend, kRename, kDelete };
  Kind kind;
  std::string path;
  std::string dst;    // kRename only
  int64_t bytes = 0;  // kCreate / kAppend
};

// One acknowledged attribute change on a shared (planned) inode.
struct SetAttr {
  enum class Kind : uint8_t { kPermission, kOwner, kReplication };
  Kind kind;
  std::string path;
  int64_t number = 0;  // permission bits or replication
  std::string owner;   // kOwner only
};

class NamespaceModel {
 public:
  struct Counts {
    int64_t files = 0;
    int64_t dirs = 0;  // the summarised directory itself counts, as in HDFS du
    bool operator==(const Counts&) const = default;
  };

  NamespaceModel();  // holds the root "/"

  void AddDir(const std::string& path);
  void AddFile(const std::string& path, int64_t size);
  void Apply(const Mutation& m);
  // Removes a path and everything below it.
  void Remove(const std::string& path);

  bool Exists(const std::string& path) const { return nodes_.count(path) > 0; }
  std::optional<int64_t> SizeOf(const std::string& path) const;
  // Child names of a directory; nullptr when it is not a directory.
  const std::set<std::string>* Children(const std::string& dir) const;
  Counts SummaryOf(const std::string& dir) const;
  // Live inodes, the root included.
  int64_t InodeCount() const { return static_cast<int64_t>(nodes_.size()); }

  static std::string Parent(const std::string& path);
  static std::string Name(const std::string& path);

 private:
  struct Node {
    bool is_dir = false;
    int64_t size = 0;
    std::set<std::string> children;
  };
  static std::string Join(const std::string& dir, const std::string& name);
  void Rename(const std::string& src, const std::string& dst);
  // Re-keys a subtree's nodes from src to dst (parents' child sets untouched).
  void MoveSubtree(const std::string& src, const std::string& dst);

  std::unordered_map<std::string, Node> nodes_;
};

// Returns an empty string when `listed` equals the expected child set, else
// a description of the first difference.
std::string CompareListing(const std::string& dir, const std::set<std::string>& listed,
                           const std::set<std::string>* expected);

}  // namespace perfbench
