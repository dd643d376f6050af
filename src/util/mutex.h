// c2lsh::Mutex / MutexLock and c2lsh::SharedMutex / ReaderMutexLock /
// WriterMutexLock: thin std::mutex / std::shared_mutex wrappers that carry
// Clang thread-safety annotations, so members declared GUARDED_BY(mu_) are
// machine-checked under `clang++ -Wthread-safety` (see thread_annotations.h;
// the annotations compile away under GCC).
//
// The wrapper exists because std::mutex itself cannot be annotated: the
// analysis needs CAPABILITY on the lock type and ACQUIRE/RELEASE on its
// methods. Use MutexLock for scoped sections and Mutex::AssertHeld() to
// document (and, under Clang, prove) "caller already holds the lock"
// internal helpers.

#pragma once
#ifndef C2LSH_UTIL_MUTEX_H_
#define C2LSH_UTIL_MUTEX_H_

#include <mutex>
#include <shared_mutex>

#include "src/util/thread_annotations.h"

namespace c2lsh {

/// An annotated exclusive mutex. Non-copyable, non-movable: the address of a
/// Mutex identifies the capability, so a Mutex member pins its owner in
/// place (owners that must stay movable exclude the Mutex from their move,
/// e.g. BufferPool constructs a fresh one).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

  /// BasicLockable spelling of Lock/Unlock, so std::unique_lock and
  /// std::condition_variable_any can operate on an annotated Mutex (the
  /// admission controller waits on one). Callers going through these
  /// wrappers are invisible to the capability analysis and must annotate
  /// themselves (see AdmissionController::Admit).
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

  /// Documents that the calling thread must already hold this mutex. A no-op
  /// at runtime; under Clang the analysis treats it as proof of possession,
  /// so private REQUIRES(mu_) helpers can assert their contract.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII critical section over a c2lsh::Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// An annotated reader/writer mutex: any number of readers, or one writer.
/// Same address-is-identity rule as Mutex (non-copyable, non-movable; a
/// movable owner constructs a fresh one on move). Use ReaderMutexLock for
/// read-only sections and WriterMutexLock for mutations.
///
/// Writer-preferring: a writer closes `gate_` before it waits for the
/// readers inside to leave, so readers arriving after it queue behind it.
/// std::shared_mutex alone (pthread_rwlock on glibc) lets new readers
/// overtake a waiting writer, and a steady stream of overlapping readers
/// then starves the writer indefinitely.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    std::lock_guard<std::mutex> gate(gate_);
    mu_.lock();
  }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() {
    { std::lock_guard<std::mutex> gate(gate_); }
    mu_.lock_shared();
  }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::mutex gate_;  ///< held by a writer while it waits for mu_
  std::shared_mutex mu_;
};

/// RAII shared (reader) section over a c2lsh::SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) section over a c2lsh::SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace c2lsh

#endif  // C2LSH_UTIL_MUTEX_H_
