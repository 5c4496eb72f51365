// Capability-annotated mutual-exclusion primitives.
//
// std::mutex carries no Clang thread-safety attributes, so code locking one
// cannot be statically analyzed.  These thin wrappers add the annotations
// (support/thread_annotations.hpp) while keeping std::mutex semantics and
// cost; the concurrent core (ThreadPool, the schedule-cache shards, the obs
// registry, the aisd server) locks through them so the
// `-Wthread-safety -Werror=thread-safety-analysis` CI build is a
// compile-time proof of its lock discipline.
//
// CondVar is a std::condition_variable_any over Mutex (Mutex is
// BasicLockable).  Its wait() takes the Mutex itself and REQUIRES it held,
// which forces the annotated idiom
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(mu_);   // ready_ is AIS_GUARDED_BY(mu_)
//
// — the predicate is re-checked in a scope the analysis can see, instead of
// inside a lambda it cannot.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "support/thread_annotations.hpp"

namespace ais {

class AIS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AIS_ACQUIRE() { mu_.lock(); }
  void unlock() AIS_RELEASE() { mu_.unlock(); }
  bool try_lock() AIS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section (the annotated std::lock_guard).
class AIS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AIS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() AIS_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex.  wait() releases `mu` while blocked and
/// reacquires it before returning, exactly like std::condition_variable —
/// callers hold `mu` (typically via MutexLock) and loop on their predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) AIS_REQUIRES(mu) { cv_.wait(mu); }
  /// wait() with a timeout; returns false when the wait timed out.  Used by
  /// the disk-write flusher's deadline loop, which re-checks its predicate
  /// under `mu` either way.
  bool wait_for(Mutex& mu, std::chrono::microseconds timeout)
      AIS_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace ais
