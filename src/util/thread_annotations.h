// Clang thread-safety analysis annotations (-Wthread-safety), in the style of
// abseil's thread_annotations.h and LevelDB's port layer. Under Clang the
// macros expand to attributes that let the compiler prove, at compile time,
// that every access to a GUARDED_BY member happens with the right mutex held;
// under GCC (which has no such analysis) they expand to nothing.
//
// Project rule (enforced by tools/lint.py): any file that spawns std::thread
// must include this header (usually via src/util/mutex.h), so the shared
// state it touches is either annotated or explicitly documented as disjoint.
//
// Usage:
//   Mutex mu_;
//   int hits_ GUARDED_BY(mu_);
//   void Tick() EXCLUDES(mu_) { MutexLock lock(&mu_); ++hits_; }

#pragma once
#ifndef C2LSH_UTIL_THREAD_ANNOTATIONS_H_
#define C2LSH_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define C2LSH_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define C2LSH_THREAD_ANNOTATION_(x)  // no-op on GCC and others
#endif

/// Declares a class to be a lockable capability ("mutex").
#define CAPABILITY(x) C2LSH_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class whose lifetime equals a critical section.
#define SCOPED_CAPABILITY C2LSH_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated member may only be accessed while holding mutex `x`.
#define GUARDED_BY(x) C2LSH_THREAD_ANNOTATION_(guarded_by(x))

/// The data *pointed to* by the annotated pointer is guarded by mutex `x`.
#define PT_GUARDED_BY(x) C2LSH_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function must be called with the listed mutexes held.
#define REQUIRES(...) \
  C2LSH_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The annotated function must be called with the listed mutexes held in
/// shared (reader) mode.
#define REQUIRES_SHARED(...) \
  C2LSH_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires the listed mutexes and does not release
/// them before returning.
#define ACQUIRE(...) C2LSH_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The annotated function acquires the listed mutexes in shared (reader)
/// mode and does not release them before returning.
#define ACQUIRE_SHARED(...) \
  C2LSH_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The annotated function releases the listed mutexes.
#define RELEASE(...) C2LSH_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The annotated function releases the listed mutexes held in shared mode.
#define RELEASE_SHARED(...) \
  C2LSH_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The annotated function must NOT be called with the listed mutexes held
/// (it acquires them itself; calling with them held would deadlock).
#define EXCLUDES(...) C2LSH_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated function returns a reference to the mutex guarding its
/// result.
#define RETURN_CAPABILITY(x) C2LSH_THREAD_ANNOTATION_(lock_returned(x))

/// Runtime assertion that the calling thread holds `x` (trusted by the
/// analysis).
#define ASSERT_CAPABILITY(x) C2LSH_THREAD_ANNOTATION_(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the access pattern is safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  C2LSH_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // C2LSH_UTIL_THREAD_ANNOTATIONS_H_
