// A small fixed-size worker pool plus the parallel_for used by the driver
// and tools layers to compile independent traces concurrently (aisc --mode
// cfg --jobs, aisprof --jobs).
//
// Scope is deliberately narrow: tasks must not throw (scheduling code
// reports errors via AIS_CHECK, which aborts), and result hand-off is the
// caller's business — the driver writes disjoint output slots per task, so
// the only synchronization the pool provides is the completion barrier.
// Telemetry stays correct under concurrency because obs counters/spans are
// already thread-safe (see src/obs/obs.hpp).
//
// Lock discipline is statically proven: all shared state is
// AIS_GUARDED_BY(mu_) and the gating `-Wthread-safety` build (CMake
// AIS_THREAD_SAFETY, CI job `thread-safety`) rejects any unlocked access.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/mutex.hpp"

namespace ais {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  /// Waits for all queued tasks, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; runs on some worker in FIFO order.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle() AIS_EXCLUDES(mu_);

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop() AIS_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_ready_;
  CondVar all_idle_;
  std::deque<std::function<void()>> queue_ AIS_GUARDED_BY(mu_);
  std::size_t busy_ AIS_GUARDED_BY(mu_) = 0;
  bool stopping_ AIS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Normalizes a user-facing --jobs value: <= 0 means "one per hardware
/// thread" (at least 1).
int clamp_jobs(int jobs);

/// Runs fn(0) … fn(n-1), distributing indices over up to `jobs` workers
/// (atomic self-scheduling, so uneven tasks balance).  jobs <= 1 or n <= 1
/// degrades to a plain serial loop on the calling thread — callers use one
/// code path for both modes.  Blocks until every index completed.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ais
