// The round engine's contract (src/core/batch.h): every query path — Query,
// FilteredQuery, QueryBatch, disk Query/QueryBatch, after insert/delete
// churn — equals the naive reference C2LSH (tests/reference_c2lsh.h) bit for
// bit: results, termination, rounds, final radius, candidates verified and
// collision increments. Shard, block and pool invariance is an engine-vs-
// engine property and is checked as one; per-query contexts are honored
// without perturbing batchmates. Runs in the race lane (TSan) so the
// shard/merge phases are also checked for data races, and in the batch lane
// against both ISA dispatch modes (batch_engine_test_scalar re-runs it with
// C2LSH_SIMD=scalar).

#include <algorithm>
#include <filesystem>
#include <functional>

#include <gtest/gtest.h>

#include "src/core/batch.h"
#include "src/core/disk_index.h"
#include "src/core/index.h"
#include "src/util/query_context.h"
#include "src/util/thread_pool.h"
#include "src/vector/synthetic.h"
#include "tests/reference_c2lsh.h"

namespace c2lsh {
namespace {

struct BatchWorld {
  Dataset data;
  FloatMatrix queries;
  C2lshIndex index;
};

BatchWorld MakeBatchWorld() {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 3000, 32, 9);
  EXPECT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 21;
  auto index = C2lshIndex::Build(pd->data, o);
  EXPECT_TRUE(index.ok());
  return BatchWorld{std::move(pd->data), std::move(pd->queries),
                    std::move(index).value()};
}

void ExpectResultsBitwiseEqual(const std::vector<NeighborList>& got,
                               const std::vector<NeighborList>& want,
                               const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " q=" << q;
    for (size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << label << " q=" << q << " i=" << i;
      // Bitwise: EXPECT_EQ on float, not near — the contract is exactness.
      EXPECT_EQ(got[q][i].dist, want[q][i].dist)
          << label << " q=" << q << " i=" << i;
    }
  }
}

void ExpectStatsEqual(const C2lshQueryStats& got, const C2lshQueryStats& want,
                      const std::string& label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.final_radius, want.final_radius) << label;
  EXPECT_EQ(got.collision_increments, want.collision_increments) << label;
  EXPECT_EQ(got.candidates_verified, want.candidates_verified) << label;
  EXPECT_EQ(got.buckets_scanned, want.buckets_scanned) << label;
  EXPECT_EQ(got.index_pages, want.index_pages) << label;
  EXPECT_EQ(got.data_pages, want.data_pages) << label;
  EXPECT_EQ(got.termination, want.termination) << label;
}

// The first `rows` rows of `data`, as their own dataset.
Dataset Prefix(const Dataset& data, size_t rows) {
  auto m = FloatMatrix::Create(rows, data.dim());
  EXPECT_TRUE(m.ok());
  for (size_t i = 0; i < rows; ++i) {
    const float* row = data.object(static_cast<ObjectId>(i));
    std::copy(row, row + data.dim(), m->mutable_row(i));
  }
  auto d = Dataset::Create("prefix", std::move(m).value());
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

void ExpectMatchesReference(const NeighborList& got, const C2lshQueryStats& stats,
                            const reference::Answer& want, const std::string& label) {
  const std::string diff = reference::Diff(reference::FromEngine(got, stats), want);
  EXPECT_TRUE(diff.empty()) << label << ": " << diff;
}

TEST(BatchEngineTest, QueryAndQueryBatchMatchReference) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 10;
  std::vector<C2lshQueryStats> batch_stats;
  auto batch = w.index.QueryBatch(w.data, w.queries, k,
                                  C2lshIndex::BatchQueryOptions(), &batch_stats);
  ASSERT_TRUE(batch.ok());
  for (size_t q = 0; q < w.queries.num_rows(); ++q) {
    const reference::Answer want =
        reference::Query(w.index, w.data, w.queries.row(q), k);
    C2lshQueryStats stats;
    auto single = w.index.Query(w.data, w.queries.row(q), k, &stats);
    ASSERT_TRUE(single.ok());
    ExpectMatchesReference(*single, stats, want, "Query q=" + std::to_string(q));
    ExpectMatchesReference((*batch)[q], batch_stats[q], want,
                           "QueryBatch q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, FilteredQueryMatchesReference) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 6;
  // Odd ids only: the gate must keep rejected ids out of verification and
  // out of the T2 budget.
  const std::function<bool(ObjectId)> odd = [](ObjectId id) { return id % 2 == 1; };
  // Fewer accepted ids than k: neither T1 nor T2 can fire, so every query
  // runs to exhaustion (the radius-cap fallback round).
  const std::function<bool(ObjectId)> few = [](ObjectId id) { return id < 4; };
  for (size_t q = 0; q < w.queries.num_rows(); ++q) {
    C2lshQueryStats stats;
    auto r = w.index.FilteredQuery(w.data, w.queries.row(q), k, odd, &stats);
    ASSERT_TRUE(r.ok());
    ExpectMatchesReference(*r, stats,
                           reference::Query(w.index, w.data, w.queries.row(q), k, odd),
                           "filtered q=" + std::to_string(q));
    auto e = w.index.FilteredQuery(w.data, w.queries.row(q), k, few, &stats);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(stats.termination, Termination::kExhausted) << "q=" << q;
    ExpectMatchesReference(*e, stats,
                           reference::Query(w.index, w.data, w.queries.row(q), k, few),
                           "exhausted q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, QueriesAfterChurnMatchReference) {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 2400, 16, 13);
  ASSERT_TRUE(pd.ok());
  // Build over the first 2000 rows, insert the rest, delete every seventh
  // original row and re-insert a few of those: flat runs with dead entries,
  // overlays and tombstones all feed the scans.
  C2lshOptions o;
  o.seed = 17;
  auto index = C2lshIndex::Build(Prefix(pd->data, 2000), o);
  ASSERT_TRUE(index.ok());
  for (size_t i = 2000; i < pd->data.size(); ++i) {
    ASSERT_TRUE(index->Insert(static_cast<ObjectId>(i),
                              pd->data.object(static_cast<ObjectId>(i)))
                    .ok());
  }
  for (size_t i = 0; i < 2000; i += 7) {
    ASSERT_TRUE(index->Delete(static_cast<ObjectId>(i)).ok());
  }
  for (size_t i = 0; i < 2000; i += 70) {
    ASSERT_TRUE(index->Insert(static_cast<ObjectId>(i),
                              pd->data.object(static_cast<ObjectId>(i)))
                    .ok());
  }
  const size_t k = 8;
  std::vector<C2lshQueryStats> batch_stats;
  C2lshIndex::BatchQueryOptions opts;
  opts.num_shards = 3;
  auto batch = index->QueryBatch(pd->data, pd->queries, k, opts, &batch_stats);
  ASSERT_TRUE(batch.ok());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    const reference::Answer want =
        reference::Query(*index, pd->data, pd->queries.row(q), k);
    C2lshQueryStats stats;
    auto single = index->Query(pd->data, pd->queries.row(q), k, &stats);
    ASSERT_TRUE(single.ok());
    ExpectMatchesReference(*single, stats, want, "churn Query q=" + std::to_string(q));
    ExpectMatchesReference((*batch)[q], batch_stats[q], want,
                           "churn QueryBatch q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, InvariantUnderShardCountBatchSizeAndPool) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 7;
  std::vector<NeighborList> serial;
  std::vector<C2lshQueryStats> serial_stats(w.queries.num_rows());
  for (size_t q = 0; q < w.queries.num_rows(); ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), k, &serial_stats[q]);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).value());
  }
  ThreadPool narrow_pool(2);
  for (size_t num_shards : {1u, 2u, 7u}) {
    for (size_t batch_size : {0u, 1u, 4u}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &narrow_pool}) {
        C2lshIndex::BatchQueryOptions opts;
        opts.num_shards = num_shards;
        opts.batch_size = batch_size;
        opts.pool = pool;
        const std::string label = "shards=" + std::to_string(num_shards) +
                                  " block=" + std::to_string(batch_size) +
                                  (pool != nullptr ? " pool=2" : " pool=shared");
        std::vector<C2lshQueryStats> stats;
        auto batch = w.index.QueryBatch(w.data, w.queries, k, opts, &stats);
        ASSERT_TRUE(batch.ok()) << label;
        ExpectResultsBitwiseEqual(*batch, serial, label);
        for (size_t q = 0; q < serial_stats.size(); ++q) {
          ExpectStatsEqual(stats[q], serial_stats[q],
                           label + " q=" + std::to_string(q));
        }
      }
    }
  }
}

TEST(BatchEngineTest, MixedContextsDoNotPerturbBatchmates) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 5;
  const size_t nq = w.queries.num_rows();
  ASSERT_GE(nq, 6u);

  // Deterministic context states: a pre-cancelled token and a pre-expired
  // deadline stop their queries at the first round boundary (zero rounds,
  // empty results); everyone else runs unbounded.
  CancellationToken cancelled_token;
  cancelled_token.Cancel();
  QueryContext cancelled_ctx;
  cancelled_ctx.cancel = &cancelled_token;
  QueryContext expired_ctx;
  expired_ctx.deadline = Deadline::AfterMicros(-1);

  C2lshIndex::BatchQueryOptions opts;
  opts.num_shards = 2;
  opts.contexts.assign(nq, nullptr);
  opts.contexts[2] = &cancelled_ctx;
  opts.contexts[5] = &expired_ctx;

  std::vector<C2lshQueryStats> batch_stats;
  auto batch = w.index.QueryBatch(w.data, w.queries, k, opts, &batch_stats);
  ASSERT_TRUE(batch.ok());

  for (size_t q = 0; q < nq; ++q) {
    if (q == 2 || q == 5) {
      EXPECT_TRUE((*batch)[q].empty()) << "q=" << q;
      EXPECT_EQ(batch_stats[q].rounds, 0u) << "q=" << q;
      EXPECT_EQ(batch_stats[q].termination,
                q == 2 ? Termination::kCancelled : Termination::kDeadline);
      continue;
    }
    // The unbounded batchmates must equal the reference — an expiring
    // neighbor leaves no trace on them.
    ExpectMatchesReference((*batch)[q], batch_stats[q],
                           reference::Query(w.index, w.data, w.queries.row(q), k),
                           "ctx q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, PageBudgetStopsAtRoundBoundaryDeterministically) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 5;
  // The page budget is only evaluated at round boundaries on order-
  // independent page totals, so even this mid-flight-looking control is
  // bitwise-reproducible between a lone query and a sharded block.
  QueryContext budget_ctx;
  budget_ctx.io_page_budget = w.index.num_tables() + 1;

  const size_t nq = w.queries.num_rows();
  C2lshIndex::BatchQueryOptions opts;
  opts.num_shards = 7;
  opts.contexts.assign(nq, &budget_ctx);
  std::vector<C2lshQueryStats> batch_stats;
  auto batch = w.index.QueryBatch(w.data, w.queries, k, opts, &batch_stats);
  ASSERT_TRUE(batch.ok());
  for (size_t q = 0; q < nq; ++q) {
    C2lshQueryStats serial_stats;
    auto serial = w.index.Query(w.data, w.queries.row(q), k, &serial_stats,
                                /*trace=*/nullptr, &budget_ctx);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ((*batch)[q].size(), serial->size()) << "q=" << q;
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*batch)[q][i].id, (*serial)[i].id) << "q=" << q;
      EXPECT_EQ((*batch)[q][i].dist, (*serial)[i].dist) << "q=" << q;
    }
    ExpectStatsEqual(batch_stats[q], serial_stats, "budget q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, ValidationMatchesSerialContract) {
  BatchWorld w = MakeBatchWorld();
  EXPECT_TRUE(w.index.QueryBatch(w.data, w.queries, 0).status().IsInvalidArgument());
  auto wrong = FloatMatrix::Create(3, w.data.dim() + 1);
  ASSERT_TRUE(wrong.ok());
  EXPECT_TRUE(
      w.index.QueryBatch(w.data, wrong.value(), 5).status().IsInvalidArgument());
  C2lshIndex::BatchQueryOptions opts;
  opts.contexts.assign(2, nullptr);  // wrong length
  EXPECT_TRUE(
      w.index.QueryBatch(w.data, w.queries, 5, opts).status().IsInvalidArgument());
}

class DiskBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_batch_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(DiskBatchTest, DiskQueriesMatchReference) {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 2000, 24, 7);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 33;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("batch.pf"), 512);
  ASSERT_TRUE(disk.ok());
  // The oracle reads base buckets off an in-memory index with the same
  // options and seed: the same hash functions over the same rows.
  auto twin = C2lshIndex::Build(pd->data, o);
  ASSERT_TRUE(twin.ok());
  const size_t k = 8;

  // Stored-vector mode, one query at a time and as a batch. Measured pool
  // I/O depends on cache history, so only the algorithmic fields compare.
  std::vector<DiskQueryStats> batch_stats;
  auto batch = disk->QueryBatch(pd->queries, k, &batch_stats);
  ASSERT_TRUE(batch.ok());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    const reference::Answer want = reference::Query(*twin, pd->data, pd->queries.row(q), k);
    DiskQueryStats stats;
    auto r = disk->Query(pd->queries.row(q), k, &stats);
    ASSERT_TRUE(r.ok());
    ExpectMatchesReference(*r, stats.base, want, "disk Query q=" + std::to_string(q));
    ExpectMatchesReference((*batch)[q], batch_stats[q].base, want,
                           "disk QueryBatch q=" + std::to_string(q));
  }

  // Caller-dataset mode, with one pre-cancelled batchmate.
  CancellationToken cancelled_token;
  cancelled_token.Cancel();
  QueryContext cancelled_ctx;
  cancelled_ctx.cancel = &cancelled_token;
  std::vector<const QueryContext*> contexts(pd->queries.num_rows(), nullptr);
  contexts[1] = &cancelled_ctx;
  std::vector<DiskQueryStats> batch2_stats;
  auto batch2 = disk->QueryBatch(pd->data, pd->queries, k, &batch2_stats, contexts);
  ASSERT_TRUE(batch2.ok());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    if (q == 1) {
      EXPECT_TRUE((*batch2)[q].empty());
      EXPECT_EQ(batch2_stats[q].base.termination, Termination::kCancelled);
      continue;
    }
    ExpectMatchesReference((*batch2)[q], batch2_stats[q].base,
                           reference::Query(*twin, pd->data, pd->queries.row(q), k),
                           "disk dataset q=" + std::to_string(q));
  }
}

TEST_F(DiskBatchTest, DiskQueriesAfterChurnMatchReference) {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 1500, 12, 19);
  ASSERT_TRUE(pd.ok());
  const Dataset base = Prefix(pd->data, 1200);
  C2lshOptions o;
  o.seed = 41;
  auto disk = DiskC2lshIndex::Build(base, o, Path("churn.pf"), 512);
  ASSERT_TRUE(disk.ok());
  auto twin = C2lshIndex::Build(base, o);
  ASSERT_TRUE(twin.ok());
  // The same mutations on both: the twin's tables then hold exactly the
  // disk index's live entries.
  for (size_t i = 1200; i < pd->data.size(); ++i) {
    const ObjectId id = static_cast<ObjectId>(i);
    ASSERT_TRUE(disk->Insert(id, pd->data.object(id)).ok());
    ASSERT_TRUE(twin->Insert(id, pd->data.object(id)).ok());
  }
  for (size_t i = 0; i < 1200; i += 9) {
    ASSERT_TRUE(disk->Delete(static_cast<ObjectId>(i)).ok());
    ASSERT_TRUE(twin->Delete(static_cast<ObjectId>(i)).ok());
  }
  const size_t k = 6;
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    const reference::Answer want = reference::Query(*twin, pd->data, pd->queries.row(q), k);
    DiskQueryStats stored, external;
    auto a = disk->Query(pd->queries.row(q), k, &stored);
    auto b = disk->Query(pd->data, pd->queries.row(q), k, &external);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectMatchesReference(*a, stored.base, want, "stored q=" + std::to_string(q));
    ExpectMatchesReference(*b, external.base, want, "dataset q=" + std::to_string(q));
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 3u, 7u, 1000u}) {
    std::vector<int> hits(n, 0);
    pool.ParallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i], 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, SequentialBackToBackLoopsReuseWorkers) {
  ThreadPool pool(3);
  // The pool clamps to hardware concurrency, so the exact thread count
  // depends on the machine; ParallelFor below must be correct at any width.
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_LE(pool.num_threads(), 3u);
  std::vector<size_t> sums(3, 0);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(sums.size(), [&](size_t i) { sums[i] += i + 1; });
  }
  EXPECT_EQ(sums[0], 50u);
  EXPECT_EQ(sums[1], 100u);
  EXPECT_EQ(sums[2], 150u);
}

TEST(ThreadPoolTest, SharedPoolIsClampedToHardwareConcurrency) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_GE(shared.num_threads(), 1u);
  // Oversubscription requests clamp instead of spawning unboundedly.
  ThreadPool big(1u << 20);
  EXPECT_LE(big.num_threads(), std::max<size_t>(1, shared.num_threads()));
  std::vector<int> hits(17, 0);
  big.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace c2lsh
