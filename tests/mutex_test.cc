// Coverage for the annotated c2lsh::Mutex / MutexLock and c2lsh::SharedMutex
// / ReaderMutexLock / WriterMutexLock wrappers (util/mutex.h).
// Deterministic: every test asserts an exact final state, so the suite runs
// in the default lane and is re-run unchanged under TSan via `ctest -L race`
// (where the mutual-exclusion tests double as data-race probes).

#include "src/util/mutex.h"

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/query_context.h"
#include "src/util/thread_annotations.h"

namespace c2lsh {
namespace {

TEST(MutexTest, LockUnlockSequential) {
  Mutex mu;
  mu.Lock();
  mu.AssertHeld();
  mu.Unlock();
  // Re-lockable after Unlock (i.e. Unlock really released it).
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, MutexLockIsScoped) {
  Mutex mu;
  {
    MutexLock lock(&mu);
    mu.AssertHeld();
  }
  // The scope above released the mutex; acquiring again must not deadlock.
  MutexLock lock(&mu);
}

// A counter guarded the way production code guards state. With the mutex,
// num_threads * increments_per_thread increments survive exactly; a lost
// update (the classic torn read-modify-write) would change the total, and
// under TSan the guarded access pattern must produce zero reports.
class GuardedCounter {
 public:
  void Increment() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++value_;
  }
  int value() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

TEST(MutexTest, GuardedCounterExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  GuardedCounter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kIncrements);
}

TEST(MutexTest, ReadersObserveConsistentValueWhileWritersRun) {
  GuardedCounter counter;
  constexpr int kWrites = 20000;
  std::thread writer([&counter]() {
    for (int i = 0; i < kWrites; ++i) counter.Increment();
  });
  // Concurrent reads through the same mutex: every observed value must be a
  // real intermediate count, monotonically non-decreasing.
  int last = 0;
  while (last < kWrites) {
    const int v = counter.value();
    EXPECT_GE(v, last);
    EXPECT_LE(v, kWrites);
    last = v;
  }
  writer.join();
  EXPECT_EQ(counter.value(), kWrites);
}


// Two readers inside at once: each signals the latch from inside its shared
// section, then waits (bounded, no sleeps) for the other to arrive. Were
// readers exclusive, the second could not enter and both waits would time
// out.
TEST(SharedMutexTest, ReadersOverlap) {
  SharedMutex mu;
  std::latch both_inside(2);
  std::atomic<int> saw_other{0};
  auto reader = [&] {
    ReaderMutexLock lock(&mu);
    both_inside.count_down();
    const Deadline give_up = Deadline::AfterMillis(10000);
    while (!both_inside.try_wait() && !give_up.Expired()) std::this_thread::yield();
    if (both_inside.try_wait()) saw_other.fetch_add(1);
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
  EXPECT_EQ(saw_other.load(), 2);
}

// While a writer holds the lock, neither a reader nor another writer gets
// in; both do once it is released.
TEST(SharedMutexTest, WriterExcludesReadersAndWriters) {
  SharedMutex mu;
  std::atomic<int> arrived{0};
  std::atomic<int> entered{0};
  std::thread reader;
  std::thread writer;
  {
    WriterMutexLock hold(&mu);
    reader = std::thread([&] {
      arrived.fetch_add(1);
      ReaderMutexLock lock(&mu);
      entered.fetch_add(1);
    });
    writer = std::thread([&] {
      arrived.fetch_add(1);
      WriterMutexLock lock(&mu);
      entered.fetch_add(1);
    });
    while (arrived.load() < 2) std::this_thread::yield();
    for (int i = 0; i < 1000; ++i) std::this_thread::yield();
    EXPECT_EQ(entered.load(), 0);
  }
  reader.join();
  writer.join();
  EXPECT_EQ(entered.load(), 2);
}

// A writer waiting behind a reader goes before readers that arrive after
// it, so a stream of overlapping readers cannot starve it.
TEST(SharedMutexTest, WaitingWriterGoesBeforeLaterReaders) {
  SharedMutex mu;
  std::atomic<int> arrived{0};
  std::atomic<int> next_ticket{0};
  int writer_ticket = -1;
  int reader_ticket = -1;
  std::thread writer;
  std::thread late_reader;
  {
    ReaderMutexLock first(&mu);
    writer = std::thread([&] {
      arrived.fetch_add(1);
      WriterMutexLock lock(&mu);
      writer_ticket = next_ticket.fetch_add(1);
    });
    while (arrived.load() < 1) std::this_thread::yield();
    for (int i = 0; i < 1000; ++i) std::this_thread::yield();
    late_reader = std::thread([&] {
      arrived.fetch_add(1);
      ReaderMutexLock lock(&mu);
      reader_ticket = next_ticket.fetch_add(1);
    });
    while (arrived.load() < 2) std::this_thread::yield();
    for (int i = 0; i < 1000; ++i) std::this_thread::yield();
    EXPECT_EQ(next_ticket.load(), 0) << "a thread got past the first reader";
  }
  writer.join();
  late_reader.join();
  EXPECT_EQ(writer_ticket, 0);
  EXPECT_EQ(reader_ticket, 1);
}

// A pair that writers move apart and back together inside one exclusive
// section. Readers must only ever see it equal, and no update may be lost;
// under TSan an exclusion hole is also a reported race.
class GuardedPair {
 public:
  void Bump() EXCLUDES(mu_) {
    WriterMutexLock lock(&mu_);
    ++first_;
    std::this_thread::yield();  // widen the window a reader could see
    ++second_;
  }
  bool Consistent() const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return first_ == second_;
  }
  int value() const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return second_;
  }

 private:
  mutable SharedMutex mu_;
  int first_ GUARDED_BY(mu_) = 0;
  int second_ GUARDED_BY(mu_) = 0;
};

TEST(SharedMutexTest, ReadersNeverSeeAHalfWrite) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kBumps = 5000;
  GuardedPair pair;
  std::atomic<int> writers_done{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBumps; ++i) pair.Bump();
      writers_done.fetch_add(1);
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        if (!pair.Consistent()) torn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(pair.value(), kWriters * kBumps);
}

}  // namespace
}  // namespace c2lsh
