#include "model.h"

#include <utility>

namespace perfbench {

NamespaceModel::NamespaceModel() { nodes_["/"].is_dir = true; }

std::string NamespaceModel::Parent(const std::string& path) {
  auto slash = path.rfind('/');
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string NamespaceModel::Name(const std::string& path) {
  return path.substr(path.rfind('/') + 1);
}

std::string NamespaceModel::Join(const std::string& dir, const std::string& name) {
  return dir == "/" ? "/" + name : dir + "/" + name;
}

void NamespaceModel::AddDir(const std::string& path) {
  nodes_[path].is_dir = true;
  nodes_[Parent(path)].children.insert(Name(path));
}

void NamespaceModel::AddFile(const std::string& path, int64_t size) {
  Node& node = nodes_[path];
  node.is_dir = false;
  node.size = size;
  nodes_[Parent(path)].children.insert(Name(path));
}

void NamespaceModel::Apply(const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::kCreate: AddFile(m.path, m.bytes); return;
    case Mutation::Kind::kMkdir: AddDir(m.path); return;
    case Mutation::Kind::kAppend: nodes_[m.path].size += m.bytes; return;
    case Mutation::Kind::kRename: Rename(m.path, m.dst); return;
    case Mutation::Kind::kDelete: Remove(m.path); return;
  }
}

void NamespaceModel::Remove(const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return;
  std::set<std::string> children = std::move(it->second.children);
  nodes_.erase(it);
  for (const auto& child : children) Remove(Join(path, child));
  auto parent = nodes_.find(Parent(path));
  if (parent != nodes_.end()) parent->second.children.erase(Name(path));
}

void NamespaceModel::Rename(const std::string& src, const std::string& dst) {
  if (nodes_.count(src) == 0) return;
  nodes_[Parent(src)].children.erase(Name(src));
  MoveSubtree(src, dst);
  nodes_[Parent(dst)].children.insert(Name(dst));
}

void NamespaceModel::MoveSubtree(const std::string& src, const std::string& dst) {
  auto handle = nodes_.extract(src);
  for (const auto& child : handle.mapped().children) {
    MoveSubtree(Join(src, child), Join(dst, child));
  }
  handle.key() = dst;
  nodes_.insert(std::move(handle));
}

std::optional<int64_t> NamespaceModel::SizeOf(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end() || it->second.is_dir) return std::nullopt;
  return it->second.size;
}

const std::set<std::string>* NamespaceModel::Children(const std::string& dir) const {
  auto it = nodes_.find(dir);
  return it == nodes_.end() || !it->second.is_dir ? nullptr : &it->second.children;
}

NamespaceModel::Counts NamespaceModel::SummaryOf(const std::string& dir) const {
  Counts counts;
  auto it = nodes_.find(dir);
  if (it == nodes_.end()) return counts;
  if (!it->second.is_dir) {
    counts.files = 1;
    return counts;
  }
  counts.dirs = 1;
  for (const auto& child : it->second.children) {
    Counts sub = SummaryOf(Join(dir, child));
    counts.files += sub.files;
    counts.dirs += sub.dirs;
  }
  return counts;
}

std::string CompareListing(const std::string& dir, const std::set<std::string>& listed,
                           const std::set<std::string>* expected) {
  if (expected == nullptr) return "list " + dir + ": the model has no such directory";
  for (const auto& name : *expected) {
    if (listed.count(name) == 0) return "list " + dir + ": missing " + name;
  }
  for (const auto& name : listed) {
    if (expected->count(name) == 0) return "list " + dir + ": unexpected " + name;
  }
  return "";
}

}  // namespace perfbench
