// Annotated mutex: a zero-cost wrapper over std::mutex that carries the
// clang thread-safety capability attributes (thread_annotations.h), so
// -Wthread-safety can prove the locking discipline of the code that uses
// it. All methods are inline forwarding calls.
//
// Only perf/probe.cc uses it; it goes with the benchmark change that
// drops the scale16k_threads workload.
#ifndef FLOWERCDN_COMMON_MUTEX_H_
#define FLOWERCDN_COMMON_MUTEX_H_

#include <mutex>

#include "common/thread_annotations.h"

namespace flower {

/// std::mutex with capability annotations.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock holder (std::lock_guard with scoped-capability annotations).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace flower

#endif  // FLOWERCDN_COMMON_MUTEX_H_
