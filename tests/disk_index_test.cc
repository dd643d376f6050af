#include "src/core/disk_index.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/disk_bucket_table.h"
#include "src/util/mutex.h"  // cross-thread state regime (thread-header lint)
#include "src/util/random.h"
#include "src/vector/synthetic.h"
#include "tests/reference_c2lsh.h"

namespace c2lsh {
namespace {

class DiskIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_disk_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(DiskIndexTest, DiskBucketTableMatchesMemoryTable) {
  auto file = PageFile::Create(Path("tbl.pf"), 4096);
  ASSERT_TRUE(file.ok());
  auto pool = BufferPool::Create(&file.value(), 64);
  ASSERT_TRUE(pool.ok());

  Rng rng(3);
  std::vector<std::pair<BucketId, ObjectId>> pairs;
  for (ObjectId i = 0; i < 5000; ++i) {
    pairs.emplace_back(rng.UniformInt(-200, 200), i);
  }
  BucketTable mem = BucketTable::Build(pairs);
  auto disk = DiskBucketTable::Build(&pool.value(), pairs);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk->num_entries(), mem.num_entries());
  EXPECT_EQ(disk->num_buckets(), mem.num_buckets());

  for (int trial = 0; trial < 100; ++trial) {
    BucketId a = rng.UniformInt(-250, 250);
    BucketId b = a + rng.UniformInt(0, 100);
    std::vector<ObjectId> mem_ids, disk_ids;
    mem.ForEachInRange(a, b, [&](ObjectId id) { mem_ids.push_back(id); });
    auto visited = disk->ForEachInRange(a, b, [&](ObjectId id) { disk_ids.push_back(id); });
    ASSERT_TRUE(visited.ok());
    std::sort(mem_ids.begin(), mem_ids.end());
    std::sort(disk_ids.begin(), disk_ids.end());
    EXPECT_EQ(disk_ids, mem_ids) << "range [" << a << "," << b << "]";
    EXPECT_EQ(disk->EntriesInRange(a, b), mem.EntriesInRange(a, b));
  }
}

TEST_F(DiskIndexTest, DiskBucketTableSurvivesReload) {
  auto file = PageFile::Create(Path("tbl2.pf"), 512);
  ASSERT_TRUE(file.ok());
  auto pool = BufferPool::Create(&file.value(), 16);
  ASSERT_TRUE(pool.ok());

  std::vector<std::pair<BucketId, ObjectId>> pairs;
  for (ObjectId i = 0; i < 1000; ++i) pairs.emplace_back(i % 37, i);
  auto disk = DiskBucketTable::Build(&pool.value(), pairs);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(pool->FlushAll().ok());

  auto loaded = DiskBucketTable::Load(&pool.value(), disk->root());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_entries(), 1000u);
  size_t count = 0;
  auto visited = loaded->ForEachInRange(0, 36, [&](ObjectId) { ++count; });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(count, 1000u);
}

// Both index modes against the naive reference C2LSH: the memory index's
// base buckets are the disk index's (same options and seed), so both must
// reproduce the reference answer bit for bit.
TEST_F(DiskIndexTest, DiskAndMemoryIndexMatchReference) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 2000, 12, 7);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 13;

  auto mem = C2lshIndex::Build(pd->data, o);
  ASSERT_TRUE(mem.ok());
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("idx.pf"), 512);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  for (size_t q = 0; q < 12; ++q) {
    const reference::Answer want = reference::Query(*mem, pd->data, pd->queries.row(q), 10);
    C2lshQueryStats mem_stats;
    DiskQueryStats disk_stats, stored_stats;
    auto rm = mem->Query(pd->data, pd->queries.row(q), 10, &mem_stats);
    auto rd = disk->Query(pd->data, pd->queries.row(q), 10, &disk_stats);
    auto rs = disk->Query(pd->queries.row(q), 10, &stored_stats);
    ASSERT_TRUE(rm.ok() && rd.ok() && rs.ok());
    EXPECT_EQ(reference::Diff(reference::FromEngine(*rm, mem_stats), want), "")
        << "memory q=" << q;
    EXPECT_EQ(reference::Diff(reference::FromEngine(*rd, disk_stats.base), want), "")
        << "disk q=" << q;
    EXPECT_EQ(reference::Diff(reference::FromEngine(*rs, stored_stats.base), want), "")
        << "disk stored q=" << q;
  }
}

TEST_F(DiskIndexTest, ReopenedIndexMatches) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1000, 6, 9);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 17;
  const std::string path = Path("reopen.pf");

  std::vector<NeighborList> before;
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 256);
    ASSERT_TRUE(disk.ok());
    for (size_t q = 0; q < 6; ++q) {
      auto r = disk->Query(pd->data, pd->queries.row(q), 5);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(r).value());
    }
  }
  auto disk = DiskC2lshIndex::Open(path, 256);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ(disk->num_objects(), 1000u);
  for (size_t q = 0; q < 6; ++q) {
    auto r = disk->Query(pd->data, pd->queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), before[q].size());
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].id, before[q][i].id);
    }
  }
}

TEST_F(DiskIndexTest, PoolStatsMeasureIo) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 2000, 4, 11);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 19;
  // Build, then REOPEN so the pool is genuinely cold (building leaves pages
  // resident). The pool is sized above the per-query working set so the
  // repeat pass can hit (an LRU pool smaller than the working set correctly
  // thrashes to zero hits — SmallerPoolMoreMisses covers that regime).
  {
    auto built = DiskC2lshIndex::Build(pd->data, o, Path("io.pf"), 8192);
    ASSERT_TRUE(built.ok());
  }
  auto disk = DiskC2lshIndex::Open(Path("io.pf"), 8192);
  ASSERT_TRUE(disk.ok());

  DiskQueryStats stats;
  auto r = disk->Query(pd->data, pd->queries.row(0), 10, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.pool_misses, 0u);  // cold pool: everything is a miss
  EXPECT_EQ(stats.base.index_pages, stats.pool_misses);
  EXPECT_GT(stats.base.candidates_verified, 0u);

  // A repeated identical query on a warm pool must hit much more.
  DiskQueryStats warm;
  auto r2 = disk->Query(pd->data, pd->queries.row(0), 10, &warm);
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(warm.pool_misses, stats.pool_misses / 2 + 1);
  EXPECT_GT(warm.pool_hits, 0u);
}

TEST_F(DiskIndexTest, SmallerPoolMoreMisses) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 2000, 8, 23);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 29;

  auto run = [&](size_t pool_pages) -> uint64_t {
    auto disk = DiskC2lshIndex::Build(pd->data, o, Path("pool_sweep.pf"), pool_pages);
    EXPECT_TRUE(disk.ok());
    disk->ResetPoolStats();
    uint64_t misses = 0;
    for (size_t q = 0; q < 8; ++q) {
      DiskQueryStats stats;
      auto r = disk->Query(pd->data, pd->queries.row(q), 10, &stats);
      EXPECT_TRUE(r.ok());
      misses += stats.pool_misses;
    }
    return misses;
  };

  const uint64_t small_pool = run(64);
  const uint64_t big_pool = run(4096);
  EXPECT_GE(small_pool, big_pool);
}

TEST_F(DiskIndexTest, SelfContainedQueryMatchesDatasetQuery) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1500, 8, 41);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 43;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("selfc.pf"), 4096,
                                    /*store_vectors=*/true);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(disk->has_stored_vectors());
  for (size_t q = 0; q < 8; ++q) {
    auto with_data = disk->Query(pd->data, pd->queries.row(q), 10);
    auto self_contained = disk->Query(pd->queries.row(q), 10);
    ASSERT_TRUE(with_data.ok() && self_contained.ok());
    ASSERT_EQ(self_contained->size(), with_data->size());
    for (size_t i = 0; i < with_data->size(); ++i) {
      EXPECT_EQ((*self_contained)[i].id, (*with_data)[i].id);
      EXPECT_EQ((*self_contained)[i].dist, (*with_data)[i].dist);
    }
  }
}

TEST_F(DiskIndexTest, SelfContainedSurvivesReopenWithoutDataset) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 800, 4, 47);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 53;
  const std::string path = Path("selfc2.pf");
  std::vector<NeighborList> before;
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 2048);
    ASSERT_TRUE(disk.ok());
    for (size_t q = 0; q < 4; ++q) {
      auto r = disk->Query(pd->queries.row(q), 5);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(r).value());
    }
  }
  // Reopen: the dataset object is gone; the file alone answers queries.
  auto disk = DiskC2lshIndex::Open(path, 2048);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(disk->has_stored_vectors());
  for (size_t q = 0; q < 4; ++q) {
    auto r = disk->Query(pd->queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), before[q].size());
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].id, before[q][i].id);
      EXPECT_EQ((*r)[i].dist, before[q][i].dist);
    }
  }
}

TEST_F(DiskIndexTest, SelfContainedMeasuresDataIo) {
  auto pd = MakeProfileDataset(DatasetProfile::kAudio, 1000, 2, 59);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 61;
  const std::string path = Path("dataio.pf");
  {
    auto built = DiskC2lshIndex::Build(pd->data, o, path, 4096);
    ASSERT_TRUE(built.ok());
  }
  auto disk = DiskC2lshIndex::Open(path, 4096);
  ASSERT_TRUE(disk.ok());
  DiskQueryStats stats;
  auto r = disk->Query(pd->queries.row(0), 10, &stats);
  ASSERT_TRUE(r.ok());
  // Verification reads come from the data segment: measured data pages > 0
  // and the split is consistent with the pool totals.
  EXPECT_GT(stats.base.data_pages, 0u);
  EXPECT_EQ(stats.base.index_pages + stats.base.data_pages, stats.pool_misses);
}

TEST_F(DiskIndexTest, WithoutStoredVectorsSelfQueryRejected) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 400, 1, 67);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 71;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("novec.pf"), 2048,
                                    /*store_vectors=*/false);
  ASSERT_TRUE(disk.ok());
  EXPECT_FALSE(disk->has_stored_vectors());
  EXPECT_TRUE(disk->Query(pd->queries.row(0), 5).status().IsNotSupported());
  // The dataset-backed path still works.
  auto r = disk->Query(pd->data, pd->queries.row(0), 5);
  EXPECT_TRUE(r.ok());
}

TEST_F(DiskIndexTest, OpenMissingAndGarbage) {
  EXPECT_TRUE(DiskC2lshIndex::Open(Path("nope.pf")).status().IsIOError());
  std::ofstream(Path("junk.pf")) << "garbage";
  EXPECT_TRUE(DiskC2lshIndex::Open(Path("junk.pf")).status().IsCorruption());
}

TEST_F(DiskIndexTest, QueryValidation) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 500, 2, 31);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 37;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("val.pf"), 128);
  ASSERT_TRUE(disk.ok());
  EXPECT_TRUE(disk->Query(pd->data, pd->queries.row(0), 0).status().IsInvalidArgument());
  auto other = MakeProfileDataset(DatasetProfile::kMnist, 500, 1, 39);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(disk->Query(other->data, pd->queries.row(0), 1)
                  .status()
                  .IsInvalidArgument());
}


// ---------------------------------------------------------------------------
// Concurrent readers (race label: re-run under TSan). Queries on one index
// run side by side under its shared lock; each must answer exactly as it
// does alone and charge only its own pool fetches.

constexpr size_t kReaders = 4;
constexpr size_t kK = 10;

struct QueryRun {
  std::vector<NeighborList> results;
  std::vector<DiskQueryStats> stats;
};

QueryRun RunSerial(const DiskC2lshIndex& index, const FloatMatrix& queries) {
  QueryRun run;
  run.results.resize(queries.num_rows());
  run.stats.resize(queries.num_rows());
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    auto r = index.Query(queries.row(q), kK, &run.stats[q]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) run.results[q] = std::move(r).value();
  }
  return run;
}

// kReaders threads released together by a latch; reader t answers rows t,
// t + kReaders, ... so every reader has queries in flight at once.
QueryRun RunConcurrent(const DiskC2lshIndex& index, const FloatMatrix& queries) {
  QueryRun run;
  run.results.resize(queries.num_rows());
  run.stats.resize(queries.num_rows());
  std::latch start(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t q = t; q < queries.num_rows(); q += kReaders) {
        auto r = index.Query(queries.row(q), kK, &run.stats[q]);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) run.results[q] = std::move(r).value();
      }
    });
  }
  for (std::thread& t : readers) t.join();
  return run;
}

// Answers and the deterministic work counts are bitwise those of the serial
// run, and every query made exactly its serial number of pool fetches.
void ExpectSameWork(const QueryRun& serial, const QueryRun& concurrent) {
  ASSERT_EQ(serial.results.size(), concurrent.results.size());
  for (size_t q = 0; q < serial.results.size(); ++q) {
    const C2lshQueryStats& want = serial.stats[q].base;
    const C2lshQueryStats& got = concurrent.stats[q].base;
    EXPECT_EQ(concurrent.results[q], serial.results[q]) << "q=" << q;
    EXPECT_EQ(got.termination, want.termination) << "q=" << q;
    EXPECT_EQ(got.rounds, want.rounds) << "q=" << q;
    EXPECT_EQ(got.candidates_verified, want.candidates_verified) << "q=" << q;
    EXPECT_EQ(got.collision_increments, want.collision_increments) << "q=" << q;
    EXPECT_EQ(concurrent.stats[q].pool_hits + concurrent.stats[q].pool_misses,
              serial.stats[q].pool_hits + serial.stats[q].pool_misses)
        << "q=" << q;
    // Measured pages are the query's own misses, split index/data.
    EXPECT_EQ(got.index_pages + got.data_pages, concurrent.stats[q].pool_misses)
        << "q=" << q;
  }
}

class DiskIndexConcurrencyTest : public DiskIndexTest {
 protected:
  void SetUp() override {
    DiskIndexTest::SetUp();
    auto pd = MakeProfileDataset(DatasetProfile::kColor, 1500, 16, 83);
    ASSERT_TRUE(pd.ok());
    pd_ = std::make_unique<ProfileData>(std::move(pd).value());
    C2lshOptions o;
    o.seed = 89;
    auto built = DiskC2lshIndex::Build(pd_->data, o, Path("readers.pf"), 8192);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  std::unique_ptr<ProfileData> pd_;
};

TEST_F(DiskIndexConcurrencyTest, WarmPoolReadersMatchSerial) {
  auto index = DiskC2lshIndex::Open(Path("readers.pf"), 8192);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const QueryRun serial = RunSerial(*index, pd_->queries);  // also warms
  const QueryRun concurrent = RunConcurrent(*index, pd_->queries);
  ExpectSameWork(serial, concurrent);
  for (const DiskQueryStats& st : concurrent.stats) EXPECT_EQ(st.pool_misses, 0u);
  EXPECT_EQ(index->PinnedPoolFrames(), 0u);
}

// A pool of one frame per reader: concurrent misses evict each other's
// pages, so every reader's hits and misses depend on the others — yet each
// query counts its own, and together they account for the pool's exactly.
TEST_F(DiskIndexConcurrencyTest, TinyColdPoolReadersCountOwnMisses) {
  const QueryRun serial = [&] {
    auto index = DiskC2lshIndex::Open(Path("readers.pf"), kReaders);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return RunSerial(*index, pd_->queries);
  }();
  auto index = DiskC2lshIndex::Open(Path("readers.pf"), kReaders);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const BufferPoolStats before = index->pool_stats();
  const QueryRun concurrent = RunConcurrent(*index, pd_->queries);
  const BufferPoolStats after = index->pool_stats();
  ExpectSameWork(serial, concurrent);
  uint64_t misses = 0, hits = 0;
  for (const DiskQueryStats& st : concurrent.stats) {
    misses += st.pool_misses;
    hits += st.pool_hits;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(misses, after.misses - before.misses);
  EXPECT_EQ(hits, after.hits - before.hits);
  EXPECT_EQ(index->PinnedPoolFrames(), 0u);
}

// A page-budget query beside cold-pool traffic: its budget covers every
// fetch it makes, so only other queries' misses could exhaust it. It must
// complete, exactly as it does alone.
TEST_F(DiskIndexConcurrencyTest, PageBudgetCountsOnlyOwnMisses) {
  auto index = DiskC2lshIndex::Open(Path("readers.pf"), kReaders);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const float* probe = pd_->queries.row(0);
  DiskQueryStats alone;
  auto want = index->Query(probe, kK, &alone);
  ASSERT_TRUE(want.ok());
  ASSERT_NE(alone.base.termination, Termination::kDeadline);
  QueryContext ctx;
  ctx.io_page_budget = alone.pool_hits + alone.pool_misses + 1;

  std::atomic<bool> done{false};
  std::atomic<size_t> traffic{0};
  std::vector<std::thread> others;
  for (size_t t = 1; t < kReaders; ++t) {
    others.emplace_back([&, t] {
      for (size_t q = t; !done.load(); q = q % (pd_->queries.num_rows() - 1) + 1) {
        EXPECT_TRUE(index->Query(pd_->queries.row(q), kK).ok());
        traffic.fetch_add(1);
      }
    });
  }
  // Keep probing until other queries demonstrably ran alongside. EXPECT,
  // not ASSERT: the loop must end and join the other threads.
  for (int i = 0; i < 3 || traffic.load() < kReaders; ++i) {
    DiskQueryStats st;
    auto got = index->Query(probe, kK, &st, /*trace=*/nullptr, &ctx);
    if (!got.ok()) {
      ADD_FAILURE() << got.status().ToString();
      break;
    }
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(st.base.termination, alone.base.termination);
    EXPECT_EQ(st.base.index_pages + st.base.data_pages, st.pool_misses);
    EXPECT_LT(st.pool_misses, ctx.io_page_budget);
  }
  done.store(true);
  for (std::thread& t : others) t.join();
  EXPECT_EQ(index->PinnedPoolFrames(), 0u);
}

}  // namespace
}  // namespace c2lsh
