// In-memory span recording for the traced run. Each load-generating thread
// owns one SpanLog (no locking on the hot path); the logs are merged and
// written out once the run has ended. A span names the layer boundary it
// covers, its start and end on the steady clock, and the span that caused
// it, so the spans of one user-level op (e.g. create -> add_block ->
// complete) share the op span as their parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root span
  uint16_t name = 0;    // index into the caller's name table
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  // Opens a span nested under the innermost open span of this thread.
  size_t Begin(uint16_t name) {
    Span s;
    s.id = (static_cast<uint64_t>(thread_) << 40) | ++next_;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint32_t thread() const { return thread_; }

 private:
  uint32_t thread_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Writes every span as one tab-separated line:
// thread, id, parent, name, start_ns, end_ns.
inline bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs,
                       const std::vector<std::string>& names) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%u\t%llu\t%llu\t%s\t%lld\t%lld\n", log->thread(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), names[s.name].c_str(),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
