// A persistent-worker thread pool with a fork-join `run` primitive, shared
// by every concurrent layer in the repo: the BSP engine runs one fork-join
// per global clock tick (the join doubles as the tick barrier), the
// campaign runner fans jobs out over it, and the dtopd service drives its
// request workers with a single long-lived fork-join that ends at drain.
//
// Workers are created once at pool construction and live until the
// destructor. Dispatch and join go through a spin-then-park barrier rather
// than a pure mutex/condvar handshake: each side first spins on an atomic
// for `spin_iters` pause iterations (covering the engine's tick cadence,
// where the next fork arrives microseconds after the last join) and only
// then parks on a condition variable. The park protocol is lost-wakeup-free
// by a seq_cst ordering argument spelled out in thread_pool.cpp.
//
// The pool does not place threads on CPUs: workers run wherever the OS
// schedules them. An operator who wants placement wraps the process in
// `taskset` or a cpuset; the engine's results do not depend on it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "support/function_ref.hpp"

namespace dtop {

struct ThreadPoolOptions {
  // Total workers (including the calling thread's share): run(body) invokes
  // body(i) for i in [0, num_threads), body(0) on the calling thread.
  int num_threads = 1;

  // Spin budget (pause iterations) before a worker or the joining caller
  // parks on a condvar. 0 means park immediately (pure condvar behaviour).
  int spin_iters = 1024;
};

// Cumulative park-path counters: how often a worker (or the joining
// caller) exhausted its spin budget and blocked on the condvar. Sampled by
// the observability layer (obs/engine_metrics.hpp) to show whether a
// workload's tick cadence fits inside the spin window; the counters live
// on the cold path only — the spin loop itself counts nothing.
struct ThreadPoolStats {
  std::uint64_t worker_parks = 0;
  std::uint64_t caller_parks = 0;
};

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads)
      : ThreadPool(ThreadPoolOptions{num_threads}) {}
  // Throws dtop::Error naming the requested thread count when a worker
  // cannot be started; workers already started are stopped and joined.
  explicit ThreadPool(const ThreadPoolOptions& opt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return num_threads_; }

  // Blocks until every body(i) has returned. Exceptions from worker bodies
  // are rethrown on the calling thread. Takes a FunctionRef, not a
  // std::function: the engine forks once per tick, and a std::function
  // built from a capturing lambda heap-allocates — a per-tick allocation
  // the zero-alloc hot path can't afford. The callable only needs to
  // outlive the join, which it always does here. Only one run() may be in
  // flight at a time (single caller).
  void run(FunctionRef<void(int)> body);

  // Monotonic; sample twice and subtract for a per-run delta.
  ThreadPoolStats park_stats() const {
    ThreadPoolStats s;
    s.worker_parks = worker_parks_.load(std::memory_order_relaxed);
    s.caller_parks = caller_parks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  void worker_loop(int index);
  void stop_and_join();

  int num_threads_;
  int spin_iters_ = 0;
  std::vector<std::thread> threads_;

  // Hot-path barrier state, on separate cache lines so the caller's
  // generation bump and the workers' completion decrements don't ping-pong.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  alignas(64) std::atomic<int> unfinished_{0};
  alignas(64) std::atomic<bool> stop_{false};

  // Park/wake state (cold path only).
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<int> parked_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<std::uint64_t> worker_parks_{0};
  std::atomic<std::uint64_t> caller_parks_{0};

  const FunctionRef<void(int)>* body_ = nullptr;
  std::exception_ptr first_error_;
};

}  // namespace dtop
