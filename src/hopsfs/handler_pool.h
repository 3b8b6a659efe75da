// Namenode handler pool (paper §7.1): a fixed set of handler threads
// fronting the namenode's transactional operations. Client calls enqueue a
// request and block until a handler has executed it; each handler owns the
// transaction(s) of the request it is running, so with N handlers a
// namenode drives up to N concurrent transactions. The pool bounds
// namenode-side concurrency the way HDFS/HopsFS handler counts do, while any
// number of client threads may be enqueued behind it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace hops::fs {

class HandlerPool {
 public:
  explicit HandlerPool(int num_handlers);
  ~HandlerPool();

  HandlerPool(const HandlerPool&) = delete;
  HandlerPool& operator=(const HandlerPool&) = delete;

  // Enqueues `op` and blocks until a handler ran it; returns its status.
  // Must not be called from a handler thread (callers dispatch through
  // OnHandlerThread() to run nested work inline instead).
  hops::Status Run(const std::function<hops::Status()>& op);

  // True when the calling thread is a pool handler (of any pool); nested
  // dispatches execute inline to keep a request from deadlocking behind
  // itself.
  static bool OnHandlerThread();

  int num_handlers() const { return static_cast<int>(handlers_.size()); }
  uint64_t requests_served() const { return served_.load(std::memory_order_relaxed); }
  size_t queue_depth() const;

 private:
  struct Request {
    const std::function<hops::Status()>* op = nullptr;
    hops::Status result;
    bool done = false;
  };

  void HandlerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_;   // handler wake-ups
  std::condition_variable done_;   // caller wake-ups
  std::deque<Request*> queue_;
  bool stop_ = false;
  std::atomic<uint64_t> served_{0};
  std::vector<std::thread> handlers_;
};

}  // namespace hops::fs
